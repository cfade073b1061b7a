(** Hemlock (Dice & Kogan, SPAA'21; Section 2.1): fair, compact — the
    queue is implicit and each context carries a single [grant] word.
    The releasing owner writes the lock's identity into its own grant
    word; the successor observes it and {e acknowledges} by resetting
    the word, after which the owner may reuse it.

    [Ctr] enables the x86-specific Coherence-Traffic-Reduction trick:
    the successor polls with [fetch_add 0] and the owner publishes with
    an RMW store, avoiding MESIF shared-to-modified upgrades. On Armv8
    the same trick is pathological — the polling RMW keeps stealing the
    LL/SC reservation from the releasing RMW (Section 3.2) — which the
    simulator's cost model reproduces. *)

module Make
    (M : Clof_atomics.Memory_intf.S)
    (Cfg : sig
       val ctr : bool
     end) : Lock_intf.S with type anchor = M.anchor
