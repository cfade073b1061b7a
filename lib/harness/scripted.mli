(** The scripted benchmark of Section 4.3: exhaustively generate all
    basic-lock combinations for a hierarchy depth, benchmark each across
    contention levels, and rank them under the HC/LC selection
    policies. *)

type t = {
  platform : Clof_topology.Platform.t;
  depth : int;
  threadcounts : int list;
  series : Clof_core.Selection.series list;  (** all N^M compositions *)
  hmcs : Clof_core.Selection.series;  (** equal-hierarchy baseline *)
  results : (string * (int * Clof_workloads.Workload.result) list) list;
      (** every composition, then the baseline, by name: the full
          result behind each (threads, throughput) point *)
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

val run :
  ?params:Clof_workloads.Workload.params ->
  ?threadcounts:int list ->
  ?h:int ->
  platform:Clof_topology.Platform.t ->
  depth:int ->
  unit ->
  t
(** Benchmark all compositions (LevelDB parameters by default, #runs=1
    and a short duration, as the paper's scripted benchmark does). The
    (composition x threadcount) matrix runs as one batch of parallel
    jobs on {!Clof_exec.Exec}; results are independent of the job
    count. *)

val hc_best : t -> Clof_core.Selection.series
val lc_best : t -> Clof_core.Selection.series
val worst : t -> Clof_core.Selection.series

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
