(** Proximity rings: for every CPU of a topology, the other CPUs at
    each proximity rank from it, as {!Cpuset} masks. The simulator
    reads them to find the farthest sharer of a line on every
    invalidating store without visiting the sharers one by one. *)

type t

val create : Clof_topology.Topology.t -> tcost:int array -> t
(** [create topo ~tcost] builds the rings from per-level cohort masks,
    in O(levels x ncpus x words), and keeps [tcost], the transfer cost
    by proximity rank ({!Clof_topology.Level.nprox} entries). *)

val farthest : t -> Cpuset.t -> int -> int
(** [farthest r s cpu] is the largest [tcost] of
    [Topology.proximity_rank topo x cpu] over the members [x] of [s]
    other than [cpu], or [0] when there are none. Walks the ranks from
    the farthest inwards and stops once no remaining rank can cost
    more, so the answer does not depend on the cost table's shape. *)
