(** The CLoF lock generator, Figure 8 of the paper, as OCaml functors.

    [Base] lifts a basic lock to a 1-level CLoF lock protecting the
    system cohort — the base case of the syntactic recursion.
    [Compose (M) (Low) (High)] is the inductive case [CLoF(l, L)]: one
    [Low] instance per cohort of the composition's innermost level,
    sharing the [High] lock above. The functor body is the unfolded
    [lockgen] of Figure 8, including the lock-passing mechanism
    (Section 4.1.2) and the release ordering that preserves the context
    invariant (high lock released {e before} the low lock).

    {2 Abortability induction}

    Both functors also implement timed acquisition
    ({!Clof_intf.S.try_acquire}), and composition preserves it:

    - {e Base case}: [Base (B)] is abortable iff [B] is — a failed
      [B.try_acquire] leaves nothing enqueued, so neither does the
      1-level tree.
    - {e Inductive step}: assume [High.try_acquire] aborts cleanly
      (owns nothing on [false]). [Compose.try_acquire] increments the
      waiter counter, runs [Low.try_acquire], and decrements — so the
      counter is balanced on every path. On low-level timeout it owns
      nothing. On low success it either inherits the pass flag
      (ownership, done) or runs [High.try_acquire ~deadline]; if that
      fails it releases the low lock {e without} setting the pass flag,
      restoring exactly the pre-acquire state. Hence
      [Compose (M) (Low) (High)] is abortable iff [Low] and [High]
      are. By induction every composition of truly-abortable basic
      locks is truly abortable end to end.

    The induction has two extra cases matching the HMCS-T contract
    ({!Clof_baselines.Hmcs}'s [abortable_spec]):

    - {e Inherited}: a waiter granted the pass flag after its deadline
      already expired holds the {e full} lock stack (the pass conveys
      every level above). It cannot return [true] — the caller's time
      is up — so it relinquishes by running the normal [release]
      (which it is entitled to, owning everything), records the abort,
      and returns [false]. This is the composition-level mirror of an
      HMCS-T waiter whose local pass beat its abandonment CAS.
    - {e Relinquished}: a waiter that timed out inside
      [High.try_acquire] holds only the low lock; it hands the low
      lock back without the pass flag, exactly as HMCS-T's [climb]
      relinquishes a level whose parent acquisition timed out.

    Both cases keep the waiter counter balanced (the decrement happened
    before either branch) and leave every level either owned by a live
    thread or free — no waiter is stranded behind an abandoned
    acquisition.

    {2 Residual hazard: the parked pass flag}

    One window is inherent to lock passing: a releasing owner that has
    already read [has_waiters = true] and committed to an intra-cohort
    pass cannot be stopped by the waiter's abandonment — the pass flag
    is set and the low lock released to a cohort that may, by then,
    be empty. The flag is {e sticky}: the next arrival (timed or not)
    inherits the high lock normally, so blocking-only workloads and
    all-timed workloads self-recover. [try_acquire] additionally runs
    a best-effort rescue after an abort (re-polls the flag, trylocks
    the low lock, and pushes a parked high lock outward), but a pass
    that lands {e after} the rescue's poll, with no further arrivals
    in that cohort, parks the high lock until the next arrival — the
    same drain caveat as MCS-TP-style hierarchical timeout locks
    (cf. Chabbi et al., "Correctness of hierarchical MCS locks with
    timeout"). *)

module Base (B : Clof_locks.Lock_intf.S) : Clof_intf.S

module Compose
    (M : Clof_atomics.Memory_intf.S)
    (Low : Clof_locks.Lock_intf.S with type anchor = M.anchor)
    (High : Clof_intf.S) : Clof_intf.S
