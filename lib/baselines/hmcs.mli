(** HMCS lock (Chabbi, Fagan & Mellor-Crummey, PPoPP'15): a tree of MCS
    locks mirroring the NUMA hierarchy, with the passing threshold fused
    into the MCS queue-node status word — the paper's strongest
    baseline (level-homogeneous, Section 2.2).

    Status protocol per queue node: [wait] while enqueued; a positive
    count [c] means the lock was passed locally and [c] intra-cohort
    handovers have happened this epoch; [acquire_parent] tells the new
    cohort head that the parent lock must be (re)acquired. Only one
    thread at a time is head of a given tree node's queue, so each tree
    node owns a single queue node for enqueueing into its parent. *)

module Make (M : Clof_atomics.Memory_intf.S) : sig
  val spec :
    ?h:int -> hierarchy:Clof_topology.Topology.hierarchy -> unit ->
    Clof_core.Runtime.spec
  (** Named ["hmcs<n>"] after the hierarchy depth. [h] is the per-level
      passing threshold (default 128, HMCS's and CLoF's shared
      default). Fair, not abortable: its [try_acquire] is the blocking
      fallback. Handles route per-level pass/threshold events to their
      recorder (levels indexed from the root, as in
      {!Clof_stats.Stats}).
      @raise Invalid_argument on instantiation, if the hierarchy does
      not fit the topology. *)
end
