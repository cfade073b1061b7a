(** Experimental discovery of the memory hierarchy (Section 3.1):
    run the two-thread counter ping-pong over CPU pairs and derive the
    per-level speedups of Table 2 and the pair matrix of Figure 1. *)

type t

val measure :
  ?duration:int ->
  ?stride:int ->
  platform:Clof_topology.Platform.t ->
  unit ->
  t
(** Measure sampled CPU pairs ([stride] subsamples the grid, default 1
    measures every pair with cpu1 < cpu2; the diagonal and symmetric
    half are filled by symmetry). *)

val throughput : t -> int -> int -> float

val pairs : t -> int
(** Number of CPU pairs actually measured (sampled plus backfilled). *)

val speedups : t -> (Clof_topology.Level.proximity * float) list
(** Table 2: mean throughput relative to the [Same_system] class. *)

val paper_speedups :
  Clof_topology.Platform.t -> (Clof_topology.Level.proximity * float) list
(** The published Table 2 values for the platform, for side-by-side
    reporting. *)

val infer_hierarchy : t -> Clof_topology.Topology.hierarchy
(** The tuning point of Figure 5 automated: keep the levels whose
    speedup jump over the next-outer level exceeds 15% — on the paper's
    platforms this reproduces the hierarchies of Section 5.2.1. *)
