(** The verification scenarios of the paper's Section 4.2, over the
    {!Checker}.

    Base step: every basic lock registered in {!Clof_locks.Registry} is
    checked alone (mutual exclusion + absence of deadlock/runaway)
    under SC and under TSO store buffers. Induction step: CLoF
    compositions over abstract fair locks (Ticketlocks, as in the
    paper) at depths 2 and 3, with the {e context invariant} monitored
    dynamically. The aspect-A4 exhibit is Peterson's algorithm: correct
    under SC, broken by store buffering unless fenced — the checker's
    TSO mode finds the mutual-exclusion violation in the unfenced
    variant and passes the fenced one.

    One driver runs every lock scenario. It sees the lock through
    {!Clof_core.Runtime} handles, and each thread plays one role:
    blocking sections, timed sections with a deadline, or the adaptive
    policy-switch lap. Each scenario carries its exploration bounds per
    mode as a {!Checker.config}, set where it is built: the spin-heavy
    step caps and the mcs execution budget come from one per-lock
    table, and Peterson and the litmus shapes bring their own bounds. The suite is one ordered
    table of (group, scenario, modes) rows, so a new panel lock costs
    one row. The weak-memory litmus shapes (SB, MP, MP+await, LB,
    CoRR) ride in the same table: each raises a property violation
    exactly when its weak outcome is observed, so [expect_violation]
    encodes the architectural verdict per mode.

    The whole collection is exposed as {!suite} / {!run_suite}; the
    harness's [verify] experiment and [clof_bench verify] consume that
    single entry point (optionally running entries in parallel by
    passing an executor's [map]). *)

type named = {
  sname : string;
  config : Checker.config;
  expect_violation : bool;
      (** true for the seeded-bug exhibits: the run {e must} find a
          violation, or the checker itself is broken *)
  scenario : unit -> (unit -> unit) list;
}

val run : named -> Checker.report

val mode_tag : Vstate.mode -> string
(** "sc" / "tso" / "rlx" — the bracket tag in scenario names. *)

(** {1 Scenarios outside the suite}

    Smaller variants of suite scenarios, checked under the same
    per-lock budget as the suite entries. *)

type scenario
(** A checked program, with its budget per mode, before its memory mode
    is chosen. *)

val base_step : ?threads:int -> ?iters:int -> string -> scenario option
(** One basic lock by registry name ("tkt", "mcs", "clh", "hem", "tas",
    "ttas", "bo"), every thread blocking; [threads] defaults to 3,
    [iters] to 2 acquisitions per thread. *)

val abort_step : ?threads:int -> ?iters:int -> string -> scenario option
(** Abort safety of one basic lock: one thread acquires with a
    deadline the checker may expire at any point — including between
    enqueue and handover — while the others block. Checks mutual
    exclusion on the abort path and that no grant is lost (a lost
    wakeup surfaces as the checker's deadlock verdict). *)

val abort_induction : ?threads:int -> unit -> scenario
(** Abort safety of the composition: a 2-level all-MCS CLoF lock with
    a timed outer acquisition, instrumented root — the model-checked
    counterpart of the abortability induction step documented in
    {!Clof_core.Compose}. *)

val in_mode : scenario -> Vstate.mode -> named
(** The scenario under one memory mode, with that mode's bounds, named
    ["<scenario> [<mode tag>]"]. *)

(** {1 The suite} *)

type group = Base | Abort | Induction | Adapt | Exhibit | Litmus

val group_tag : group -> string

type entry = { e_named : named; e_group : group }

type outcome = {
  o_entry : entry;
  o_report : Checker.report;
  o_ok : bool;
      (** the report's verdict matches [expect_violation]: a clean pass
          for ordinary scenarios, a found violation for exhibits *)
}

val suite : ?quick:bool -> unit -> entry list
(** Every verification scenario: base steps for all registered locks
    (SC, TSO, Relaxed), abort steps (basic locks and HMCS-T, both
    deadline variants, all modes), induction steps (depth 2 in all
    modes, plus depth 3 in all modes unless [quick]), the KV
    stripe-table pairing (all modes), abort induction (all modes), the
    adaptive mode-switch trio (all modes), Peterson exhibits, and the
    litmus battery per mode, all under {!Checker.Dpor}. *)

val run_suite :
  ?map:((entry -> outcome) -> entry list -> outcome list) ->
  entry list ->
  outcome list
(** Run entries and judge each against its expectation. [map] defaults
    to [List.map]; pass an executor's map (e.g. [Clof_exec.Exec.map])
    to check scenarios in parallel — each check is self-contained and
    domain-safe. *)

val scaling :
  ?max_depth:int ->
  ?strategy:Checker.strategy ->
  ?executions:int ->
  unit ->
  (int * Checker.report) list
(** The Section 4.2.3 experiment: checker effort versus composition
    depth (1..max_depth, default 3), SC mode, exhaustive within the
    execution budget — under DPOR by default; pass [~strategy:Naive]
    for the oracle column. *)
