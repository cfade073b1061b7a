(** Levels of a multi-level NUMA memory hierarchy.

    Levels are ordered from the innermost grouping ([Core], hyperthread
    pairs sharing L1/L2) to the outermost ([System], the whole machine).
    A {e cohort} is one group at a given level: a single NUMA node is a
    cohort of the [Numa_node] level, a single L3 partition is a cohort of
    the [Cache_group] level, and so on (paper, Section 3.1). *)

type t =
  | Core        (** hyperthreads sharing one physical core (L1/L2) *)
  | Cache_group (** cores sharing one L3 cache partition *)
  | Numa_node   (** cores sharing one memory bank *)
  | Package     (** NUMA nodes in one processor package *)
  | System      (** the whole machine *)

(** Proximity of two CPUs: the innermost level whose cohort contains
    both, or [Same_cpu] when they are the same hardware thread. *)
type proximity =
  | Same_cpu
  | Same_core
  | Same_cache
  | Same_numa
  | Same_package
  | Same_system

val all : t list
(** All levels, innermost first: [Core; Cache_group; Numa_node; Package;
    System]. *)

val to_string : t -> string

val abbrev : t -> string
(** Short name used in hierarchy notations, e.g. ["numa"]. *)

val compare : t -> t -> int
(** Orders by containment: [compare Core System < 0]. *)

val rank : t -> int
(** Dense integer rank of a level, innermost first: position in {!all}
    ([rank Core = 0] ... [rank System = 4]). The single source of rank
    order for every module that indexes per-level arrays. *)

val all_prox : proximity list
(** All proximities, innermost first: [Same_cpu; ...; Same_system]. *)

val nprox : int
(** Number of proximity classes ([List.length all_prox]). *)

val prox_rank : proximity -> int
(** Dense integer rank of a proximity, [0] for [Same_cpu] up to
    [nprox - 1] for [Same_system]. The canonical rank order shared by
    the simulator's transfer histograms and cost tables: for a distinct
    pair of CPUs whose innermost shared level is [lvl],
    [prox_rank (proximity_of_level lvl) = rank lvl + 1]. *)

val prox_of_rank : int -> proximity
(** Inverse of {!prox_rank}.
    @raise Invalid_argument outside [0, nprox). *)

val proximity_of_level : t -> proximity
(** The proximity of two distinct CPUs whose innermost shared level is
    the given one. *)

val proximity_to_string : proximity -> string

val abbrev_of_prox : proximity -> string
(** Short form for table headers, e.g. ["numa"]. *)
