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
