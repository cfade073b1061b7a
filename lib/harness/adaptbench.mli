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

type phase = { ph_name : string; ph_threads : int; ph_params : Clof_workloads.Workload.params }

type cell = {
  c_lock : string;
  c_phase : string;
  c_threads : int;
  c_throughput : float;
  c_total_ops : int;
  c_sim_ns : int;
  c_jain : float;
  c_stats : Clof_stats.Stats.recorder;
  c_switches : int;  (** controller switches during the phase; 0 for statics *)
  c_mode : string;  (** settled mode after the phase; "-" for statics *)
}

type t = { t_phases : phase list; t_cells : cell list }

val run : ?quick:bool -> unit -> t
(** Run all phases for all four locks, sequentially (the adaptive
    lock's controller counters are read back per phase). Quick mode
    shortens each phase's duration; thread counts and thresholds are
    identical, so the controller's trajectory is the same shape. *)

val gate : ?slack:float -> ?loss:float -> t -> string list
(** The acceptance criterion: empty iff the adaptive lock is within
    [slack] (default 10%) of the best static composition in {e every}
    phase {e and} each static loses at least [loss] (default 25%) to
    the best in at least one phase. Violations are returned as
    human-readable messages. *)

val exp_id : string
(** ["adapt"]. *)

val to_report : ?quick:bool -> t -> Report.t
