(** The verification suite as a first-class experiment: every scenario
    of {!Clof_verify.Scenarios.suite} checked through the parallel
    executor, with the checker's exploration statistics shipped through
    the {!Report} schema as [BENCH_verify.json].

    Encoding: one series per scenario, named by the scenario (group-
    prefixed when the name is not already), with no points — the
    checker counters travel in the series' typed [meta] block (schema
    v2): ["executions"], ["steps"], ["per_s"], ["pruned"],
    ["sleep_blocked"], ["sleep"], ["races"], ["complete"], ["seconds"], the ["ok"] / ["exhaustive"] /
    ["truncated"] booleans, and ["violation"] (the kind of the first
    violation found) when there was one. [bench_check] prints these;
    they are trajectory data and never gate. *)

type outcome = Clof_verify.Scenarios.outcome

val run :
  ?quick:bool ->
  ?strategy:Clof_verify.Checker.strategy ->
  ?mode:Clof_verify.Vstate.mode ->
  unit ->
  outcome list
(** Check the whole suite on the default executor ([Exec.map]; [-j]
    controls parallelism). [quick] drops the depth-3 induction step;
    [strategy] forces one exploration strategy on every entry (default
    DPOR); [mode] keeps only the entries checked under that memory
    mode (the per-mode CI gates). *)

val gate : outcome list -> string list
(** Names of the scenarios whose verdict did not match the
    expectation: a violation in a scenario that must pass, or a seeded
    exhibit that went unnoticed. Non-empty fails [clof_bench verify]
    (the CI job). *)

val exp_id : string
(** ["verify"]. *)

val to_report : ?quick:bool -> outcome list -> Report.t
(** One [verify] experiment, series encoded as documented above. *)
