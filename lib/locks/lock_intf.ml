(** Interface of a NUMA-oblivious spinlock — the paper's {e basic lock}
    (BasicLocks in the grammar of Figure 6).

    The [ctx] type realizes the paper's {e context abstraction}
    (Section 4.1.3): locks that spin locally (MCS, CLH, Hemlock) carry
    their queue node in a context that must never be used for two
    concurrent acquisitions (the {e context invariant}); global-spinning
    locks (Ticketlock, TTAS) have a trivial context. All locks here are
    {e thread-oblivious}: a lock acquired with context [c] may be
    released by a different thread holding [c], which CLoF's
    lock-passing requires. *)

module type S = sig
  type t
  type ctx

  type anchor
  (** The memory backend's line handle (see
      {!Clof_atomics.Memory_intf.S.anchor}). *)

  val name : string
  (** Abbreviation used in composition names, e.g. ["tkt"]. *)

  val fair : bool
  (** Starvation-free FIFO admission. CLoF only composes fair locks
      (Theorem 4.1); unfair ones are kept for the fairness
      counter-example. *)

  val create : unit -> t

  val anchor : t -> anchor
  (** The lock's primary cache line. CLoF allocates the per-cohort
      metadata that "extends the low lock" (Section 4.1.1) on this
      line, as a real implementation embeds it in the lock struct. *)

  val ctx_create : t -> ctx
  (** A fresh context for this lock. One context must not be used by
      two concurrent acquire/release pairs. *)

  val acquire : t -> ctx -> unit
  val release : t -> ctx -> unit

  val abortable : bool
  (** True when {!try_acquire} abandons a queue position outright in
      the MCS-TP style (MCS, CLH): a timed-out waiter leaves no stale
      node reachable and waiters behind it are unaffected. False for
      locks whose [try_acquire] merely polls until the deadline
      (ticket, the TAS family, and Hemlock, whose implicit queue makes
      abandonment unsound — see {!Hemlock}) — still correct and
      non-blocking, but a waiting slot is never "given up" because
      none is ever held. *)

  val try_acquire : t -> ctx -> deadline:int -> bool
  (** Bounded acquisition: returns [true] holding the lock, or [false]
      — without the lock, with [ctx] reusable — once the backend clock
      {!Clof_atomics.Memory_intf.S.now} reaches [deadline] (absolute,
      virtual ns). The context invariant applies exactly as for
      {!acquire}; after [false] the same context may immediately retry
      or acquire a different lock. *)

  val has_waiters : (t -> ctx -> bool) option
  (** Algorithm-specific cheap detection of waiting threads, callable
      only by the current owner ([ctx] is the owner's context). When
      [None], CLoF maintains its own waiter counter (Section 4.1.2).
      May overcount timed-out waiters that have not yet been skipped by
      a release — a transient fairness pessimisation, never a safety
      issue. *)
end

(** A basic lock packed as a first-class module, for the runtime
    generator. The parameter pins the memory backend's anchor type so
    the generator can colocate composition metadata with the lock. *)
type 'a packed = (module S with type anchor = 'a)

let name (type a) (p : a packed) =
  let (module B) = p in
  B.name
