(** ShflLock (Kashyap et al., SOSP'19), simplified: a central TAS word
    plus an MCS-style waiter queue in which the {e head waiter} shuffles
    waiters from its own NUMA node toward the front before competing for
    the TAS word. Captures the two properties the paper relies on:
    NUMA-local handover preference, and the shuffling overhead at low
    contention (Section 3.4). Two-level only, like CNA.

    Simplifications vs. the published lock: no per-policy plug-in (the
    policy here is fixed to NUMA proximity), a bounded scan window
    instead of batched shuffling rounds, and no sleeping waiters. *)

module Make (M : Clof_atomics.Memory_intf.S) : sig
  val spec : ?scan:int -> unit -> Clof_core.Runtime.spec
  (** Named ["shfl"]. [scan]: how many queued waiters the head waiter
      examines per shuffle (default 8). Neither fair nor abortable.
      Handles route fast-path/shuffle-handover events to their recorder
      at level 1, like CNA. *)
end
