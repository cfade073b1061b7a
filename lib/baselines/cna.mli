(** Compact NUMA-Aware lock (Dice & Kogan, EuroSys'19): an MCS lock
    whose releasing owner scans the queue and diverts waiters from other
    NUMA nodes into a secondary queue, so the lock keeps flowing within
    the owner's node; the secondary queue is spliced back when a pass
    budget is exhausted (avoiding starvation) or no local waiter
    remains. Supports exactly two levels — NUMA node and system — which
    is the limitation CLoF removes (Table 1: lacks A1).

    The secondary queue (head, tail) and the remaining pass budget
    travel with the lock in the handover message. *)

module Make (M : Clof_atomics.Memory_intf.S) : sig
  val spec : ?h:int -> unit -> Clof_core.Runtime.spec
  (** Named ["cna"]. [h]: consecutive intra-node handovers before the
      secondary queue must be spliced back (default 128). Neither fair
      (long-term fair only) nor abortable. Handles route pass/budget
      events to their recorder at level 1 (the NUMA level of a 2-level
      tree). *)
end
