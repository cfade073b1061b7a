(** The [adapt] experiment: the contention-adaptive composition
    ({!Clof_core.Adaptive}) against the static choices it subsumes —
    bare CLoF, CLoF+fastpath, fair H=1 — on a low→high→low phase-shift
    workload (simulated x86, depth-4 CLH composition).

    Results ship through the Report schema as exp_id ["adapt"]
    (BENCH_adapt.json): one series per lock with one point per
    phase ([threads] = the phase's thread count; the two low phases
    share one) and a ["phases"] meta key naming the phase order, plus
    a pointless "controller" series whose typed [meta] block carries
    ["<phase>.switches"] and ["<phase>.mode"] per phase. *)

(** {2 The composition panel, shared with {!Kvbench}} *)

module Root : Clof_core.Clof_intf.S
(** CLH as a single-level composition. *)

module C4 : Clof_core.Clof_intf.S
(** CLH at all four levels. *)

module F : Clof_core.Clof_intf.S
(** {!C4} behind the TAS fast path ({!Clof_core.Fastpath}). *)

val adaptive_spec :
  ?last:Clof_core.Adaptive.Make(Clof_sim.Sim_mem)(C4).t option ref ->
  hierarchy:Clof_topology.Level.t list ->
  unit ->
  Clof_core.Runtime.spec
(** ["ad-clof<4>"]: {!C4} under the adaptive controller, armed with a
    32-acquisition epoch. Each instantiation stores its lock in [last],
    so a caller can read the controller back after a run. *)

val run : ?quick:bool -> unit -> Report.t
(** Run all phases for all four locks, sequentially (the adaptive
    lock's controller counters are read back per phase). Quick mode
    shortens each phase's duration; thread counts and thresholds are
    identical, so the controller's trajectory is the same shape. *)

val gate : Report.t -> string list
(** The acceptance criterion, read off the per-phase point throughputs:
    empty iff the adaptive lock trails the best static composition by
    at most 10% in {e every} phase {e and} each static loses at least
    25% to the best in at least one phase. Violations name the phase or
    the lock. *)
