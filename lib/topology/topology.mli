(** Description of a multi-level NUMA machine.

    A topology assigns every CPU (hardware thread) to one cohort of each
    hierarchy level. Cohorts must nest: two CPUs in the same cohort of an
    inner level are in the same cohort of every outer level. *)

type t

val create :
  name:string ->
  ncpus:int ->
  core_of:(int -> int) ->
  cache_of:(int -> int) ->
  numa_of:(int -> int) ->
  pkg_of:(int -> int) ->
  t
(** [create] tabulates the cohort id of each CPU at each level and checks
    the nesting invariant.
    @raise Invalid_argument if [ncpus <= 0] or cohorts do not nest. *)

val name : t -> string
val ncpus : t -> int

val cohort_of : t -> Level.t -> int -> int
(** [cohort_of t level cpu] is the id of [cpu]'s cohort at [level].
    Cohort ids at a level are dense in [0, ncohorts t level).
    At [System] this is always [0]. *)

val ncohorts : t -> Level.t -> int

val cpus_of_cohort : t -> Level.t -> int -> int list
(** CPUs belonging to the given cohort, in increasing order. *)

val first_cpu : t -> Level.t -> int -> int
(** [first_cpu t level id] is the lowest CPU of the cohort, precomputed
    at {!create}. It stands for the whole cohort wherever one CPU is
    needed: [cohort_of t outer (first_cpu t level id)] is the cohort's
    enclosing cohort at an outer level, which is how Compose picks a
    low lock's high context and HMCS a tree node's parent.
    @raise Invalid_argument if [id] is not a cohort of [level]. *)

val proximity : t -> int -> int -> Level.proximity
(** Innermost shared level of two CPUs. *)

val proximity_rank : t -> int -> int -> int
(** [proximity_rank t a b = Level.prox_rank (proximity t a b)], served
    from a dense [ncpus x ncpus] byte matrix precomputed at {!create} —
    the simulator's per-miss fast path (two bounds checks and one byte
    load; no level walk). *)

val cpus_per_cohort : t -> Level.t -> int
(** Size of the largest cohort at the level (presets are homogeneous, so
    this is the size of every cohort). *)

(** {2 Hierarchy configurations}

    A hierarchy configuration is the ordered list of levels used by a
    multi-level lock, innermost first and always ending with [System]
    (paper, Figure 5: a tuning point). *)

type hierarchy = Level.t list

val validate_hierarchy : t -> hierarchy -> (unit, string) result
(** A valid hierarchy is non-empty, strictly inner-to-outer, ends at
    [System], and every level has at least as many cohorts as the next
    outer one. *)

val hierarchy_to_string : hierarchy -> string
(** E.g. ["core-cache-numa-sys"]. *)

val pick_cpus : t -> nthreads:int -> int array
(** Thread-pinning order used by all benchmarks: CPUs are taken so that
    consecutive thread-count increases fill the machine the way the
    paper's experiments do (spread across NUMA nodes first at low thread
    counts is {e not} what the paper does; it fills compactly, one
    hyperthread per core first, then siblings). Concretely CPUs are
    sorted by (hyperthread rank within core, package, numa, cache, core,
    cpu) so low thread counts use distinct cores of the first package.
    The order is computed once at {!create}; this is a prefix copy.
    @raise Invalid_argument if [nthreads] exceeds [ncpus]. *)
