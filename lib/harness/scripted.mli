(** The scripted benchmark of Section 4.3: exhaustively generate all
    basic-lock combinations for a hierarchy depth, benchmark each across
    contention levels, and rank them under the HC/LC selection
    policies. *)

type t = {
  series : Report.series list;  (** all N^M compositions *)
  hmcs : Report.series;  (** equal-hierarchy baseline *)
}

val thread_grid : Clof_topology.Platform.t -> int list
(** The paper's contention levels, clamped to the platform: base
    points above [Topology.ncpus] are dropped, the paper's
    [ncpus - 1] point is always included, and the result is sorted
    and deduplicated — up to 95 threads on the preset x86, 127 on the
    preset Armv8, and safe on arbitrarily small custom platforms. *)

val grid : quick:bool -> Clof_topology.Platform.t -> int list
(** {!thread_grid}, thinned to the points 1, 8, 32 and >= 95 in quick
    (smoke) mode — the grid of every [--quick] lock sweep. *)

val leveldb : quick:bool -> Clof_workloads.Workload.params
(** {!Clof_workloads.Workload.leveldb}, shortened to a 150 µs run in
    quick mode. *)

val ctr_for : Clof_topology.Platform.t -> bool
(** Hemlock CTR on x86, off on Armv8 (Section 3.2). *)

val point_of_result : int * Clof_workloads.Workload.result -> Report.point
(** Fold one [(threads, result)] benchmark point into report form. *)

val sweep :
  ?params:Clof_workloads.Workload.params ->
  ?threadcounts:int list ->
  quick:bool ->
  Clof_topology.Platform.t ->
  Clof_core.Runtime.spec list ->
  Report.series list
(** The one sweep driver: run every spec at every thread count as one
    batch of parallel jobs on {!Clof_exec.Exec} and return one series
    per spec, in spec order, named by the spec, points via
    {!point_of_result}. Defaults: {!leveldb} and {!grid}, both in
    [quick] form. Results are independent of the job count. *)

val run :
  ?params:Clof_workloads.Workload.params ->
  ?threadcounts:int list ->
  platform:Clof_topology.Platform.t ->
  depth:int ->
  unit ->
  t
(** {!sweep} all compositions of [depth] basic locks, then the HMCS
    baseline of the same hierarchy (defaults: the full LevelDB
    parameters and {!thread_grid}; the paper's scripted benchmark uses
    #runs=1 and a short duration). *)

val selection : Report.series -> Clof_core.Selection.series
(** A series' (threads, throughput) points: what the selection policies
    rank. *)

val hc_best : t -> Report.series
val lc_best : t -> Report.series
val worst : t -> Report.series
(** The composition each policy picks, ranked on {!selection}; never
    the HMCS baseline. *)

val spec_of_name :
  platform:Clof_topology.Platform.t ->
  depth:int ->
  ?h:int ->
  string ->
  Clof_core.Runtime.spec
(** Rebuild a runnable lock from a composition name found by the
    scripted benchmark (used to rerun winners in the full evaluation,
    Section 5.3).
    @raise Invalid_argument on an unknown name. *)
