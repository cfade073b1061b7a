(** The verification suite as a first-class experiment: every scenario
    of {!Clof_verify.Scenarios.suite} checked through the parallel
    executor, with the checker's exploration statistics shipped through
    the {!Report} schema as [BENCH_verify.json].

    Encoding: one series per scenario, named by the scenario (group-
    prefixed when the name is not already), with no points — the
    checker counters travel in the series' typed [meta] block (schema
    v2): ["executions"], ["steps"], ["pruned"], ["sleep_blocked"],
    ["sleep"], ["races"], ["complete"], the ["ok"] / ["exhaustive"] /
    ["truncated"] booleans, and ["violation"] (the kind of the first
    violation found) when there was one. No wall clock: for fixed
    budgets the archive is deterministic, byte-identical for every job
    count, and [dune runtest] diffs the quick suite's against a
    committed golden.
    Only the ["ok"] verdicts gate a single run ({!gate}). *)

val series_of :
  lock:string -> ok:bool -> Clof_verify.Checker.report -> Report.series
(** One checker report as a point-less series named [lock], its
    counters and the [ok] verdict in the meta block encoded above. *)

val run : quick:bool -> Report.t
(** Check the whole suite (every entry explores with DPOR) on the
    default executor ([Exec.map]; [-j] controls parallelism) and
    archive it as one [verify] experiment, series encoded as documented
    above. [quick] drops the depth-3 induction step. *)

val gate : Report.t -> string list
(** Names of the series whose ["ok"] verdict is not [true]: a
    violation in a scenario that must pass, or a seeded exhibit that
    went unnoticed. Non-empty fails [clof_bench verify]. *)
