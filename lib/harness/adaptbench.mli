(** The [adapt] experiment: the contention-adaptive composition
    ({!Clof_core.Adaptive}) against the static choices it subsumes —
    bare CLoF, CLoF+fastpath, fair H=1 — on a low→high→low phase-shift
    workload (simulated x86, depth-4 CLH composition).

    Results ship through the Report schema as exp_id ["adapt"]
    (BENCH_adaptive.json): one series per lock with one point per
    phase ([threads] = the phase's thread count) and a ["phases"] meta
    key naming the phase order, plus a pointless "controller" series
    whose typed [meta] block carries ["<phase>.switches"] and
    ["<phase>.mode"] per phase. The two low phases share a thread
    count, so bench_check excludes "adapt" from its deterministic
    (lock, threads) regression join and only prints the table. *)

val exp_id : string
(** ["adapt"]. *)

val run : ?quick:bool -> unit -> Report.t
(** Run all phases for all four locks, sequentially (the adaptive
    lock's controller counters are read back per phase). Quick mode
    shortens each phase's duration; thread counts and thresholds are
    identical, so the controller's trajectory is the same shape. *)

val slack : float
(** How far (10%) the adaptive lock may trail the best static
    composition in any phase. *)

val loss : float
(** How much (25%) every static composition must lose to the best in
    at least one phase. *)

val gate : Report.t -> string list
(** The acceptance criterion, read off the per-phase point throughputs:
    empty iff the adaptive lock is within {!slack} of the best static
    composition in {e every} phase {e and} each static loses at least
    {!loss} to the best in at least one phase. Violations name the
    phase or the lock. *)
