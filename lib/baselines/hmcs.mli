(** HMCS lock (Chabbi, Fagan & Mellor-Crummey, PPoPP'15): a tree of MCS
    locks mirroring the NUMA hierarchy, with the passing threshold fused
    into the MCS queue-node status word — the paper's strongest
    baseline (level-homogeneous, Section 2.2) — and HMCS-T, the same
    tree with timed abandonment at every level ("An Efficient
    Abortable-locking Protocol for Multi-level NUMA Systems", Chabbi et
    al.).

    Status protocol per queue node: [wait] while enqueued; a positive
    count [c] means the lock was passed locally and [c] intra-cohort
    handovers have happened this epoch; [acquire_parent] tells the new
    cohort head that the parent lock must be (re)acquired. Only one
    thread at a time is head of a given tree node's queue, so each tree
    node owns a single queue node for enqueueing into its parent.

    Both variants share the tree, the contexts, the blocking climb and
    the release walk; only the grant differs. HMCS grants with a
    Release store, which always lands. HMCS-T grants are CAS-arbitrated
    per level in the MCS-TP style: the level owner grants with
    [cas wait -> count] (local pass) or [cas wait -> acquire_parent]
    (global pass), a timed-out waiter leaves with
    [cas wait -> abandoned]; whichever CAS succeeds decides. A failed
    grant moves the walk past that node. Abandoned nodes stay queued
    (skipped by the walk, unlinked when it drains past them at the
    tail) and the waiter continues on a fresh node.

    The inherited/relinquished-lock protocol governs partial ownership
    in HMCS-T: a waiter that times out while {e holding} inner levels
    (it was climbing, or a grant beat its abandon CAS) hands each held
    level to a live successor via [acquire_parent] — who must climb
    the parent itself — or frees the level, innermost-first, so nobody
    is stranded; a waiter handed a full local pass at/after its
    deadline unwinds with a normal release. Its [try_acquire] therefore
    returns [false] owning nothing, at any depth — the per-level
    induction that {!Clof_core.Compose}'s abort contract mirrors. *)

module Make (M : Clof_atomics.Memory_intf.S) : sig
  val spec :
    ?h:int -> hierarchy:Clof_topology.Topology.hierarchy -> unit ->
    Clof_core.Runtime.spec
  (** HMCS, named ["hmcs<n>"] after the hierarchy depth. [h] is the
      per-level passing threshold (default 128, HMCS's and CLoF's
      shared default). Fair, not abortable: its [try_acquire] is the
      blocking fallback. Handles route per-level pass/threshold events
      to their recorder (levels indexed from the root, as in
      {!Clof_stats.Stats}).
      @raise Invalid_argument on instantiation, if the hierarchy does
      not fit the topology. *)

  val abortable_spec :
    ?h:int -> hierarchy:Clof_topology.Topology.hierarchy -> unit ->
    Clof_core.Runtime.spec
  (** HMCS-T, named ["hmcst<n>"]; [h] as in {!spec}. Fair and
      abortable: a handle's [try_acquire] is bounded by [deadline]
      (backend ns) at every level, and [false] means nothing is owned
      and the handle is immediately reusable. It may still return
      [true] when the lock is uncontended or a grant wins the
      arbitration race at the deadline. Handles also record per-level
      aborts.
      @raise Invalid_argument on instantiation, as {!spec}. *)
end
