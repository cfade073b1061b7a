(** Small fixed-capacity CPU sets backed by bit words; tracks the set of
    CPUs holding a shared copy of a cache line. *)

type t

val create : int -> t
(** [create ncpus] makes an empty set for CPUs in [0, ncpus). *)

val capacity : t -> int
val mem : t -> int -> bool
val add : t -> int -> unit
val remove : t -> int -> unit
val clear : t -> unit
val count : t -> int
(** Cardinality, O(1): the set maintains it. *)

val count_except : t -> int -> int
(** Cardinality ignoring the given CPU, O(1). *)

val iter : (int -> unit) -> t -> unit
val to_list : t -> int list

(** {2 Masks}

    A mask is a CPU set stored as a run of words in a plain [int array],
    in this module's layout (62 CPUs per word), so that many
    precomputed sets can share one flat array. *)

val nwords : int -> int
(** [nwords ncpus] is the number of words of a set over [ncpus] CPUs. *)

val mask_add : int array -> int -> int -> unit
(** [mask_add m off cpu] adds [cpu] to the mask starting at [m.(off)]. *)

val words : t -> int array
(** The set's own words, in mask layout, for bulk tests against masks:
    read them, never write them (the set's count would go stale). Words
    past the capacity's last CPU are zero. *)
