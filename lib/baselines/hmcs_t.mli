(** HMCS-T: the abortable hierarchical MCS lock ("An Efficient
    Abortable-locking Protocol for Multi-level NUMA Systems", Chabbi et
    al.) — {!Hmcs} with timed abandonment at every tree level.

    Grants are CAS-arbitrated per level in the MCS-TP style: the level
    owner grants with [cas wait -> count] (local pass) or [cas wait ->
    acquire_parent] (global pass), a timed-out waiter leaves with [cas
    wait -> abandoned]; whichever CAS succeeds decides. Abandoned
    nodes stay queued (skipped by release walks, unlinked when a walk
    drains past them at the tail) and the waiter continues on a fresh
    node.

    The inherited/relinquished-lock protocol governs partial
    ownership: a waiter that times out while {e holding} inner levels
    (it was climbing, or a grant beat its abandon CAS) hands each held
    level to a live successor via [acquire_parent] — who must climb
    the parent itself — or frees the level, innermost-first, so nobody
    is stranded; a waiter handed a full local pass at/after its
    deadline unwinds with a normal release. [try_acquire] therefore
    returns [false] owning nothing, at any depth — the per-level
    induction that {!Clof_core.Compose}'s abort contract mirrors. *)

module Make (M : Clof_atomics.Memory_intf.S) : sig
  val spec :
    ?h:int ->
    hierarchy:Clof_topology.Topology.hierarchy ->
    unit ->
    Clof_core.Runtime.spec
  (** Named ["hmcst<n>"] after the hierarchy depth; [h] as in {!Hmcs}.
      Fair and abortable: a handle's [try_acquire] is bounded by
      [deadline] (backend ns) at every level, and [false] means
      nothing is owned and the handle is immediately reusable. It may
      still return [true] when the lock is uncontended or a grant wins
      the arbitration race at the deadline. Handles route per-level
      pass/threshold/abort events to their recorder (levels indexed
      from the root).
      @raise Invalid_argument on instantiation, if the hierarchy does
      not fit the topology. *)
end
