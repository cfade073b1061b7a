(** The abstract shared-memory interface all lock algorithms are written
    against.

    One algorithm source serves three substrates (see DESIGN.md):
    the NUMA machine simulator, real OCaml domains, and the systematic
    model checker. This is the repo's analogue of the paper's context
    abstraction boundary: basic locks are black boxes that only touch
    shared memory through this signature. *)

module type S = sig
  type 'a aref
  (** A shared atomic location occupying its own cache line. *)

  val make : ?name:string -> 'a -> 'a aref
  (** [make v] allocates a fresh location holding [v]. [name] labels
      the location in checker traces. The real-memory backend pads each
      location to its own cache line but ignores [name] (see
      {!Real_mem} for exactly which hints are no-ops there). *)

  type anchor
  (** An untyped handle on a location's cache line, letting code on the
      other side of an abstraction boundary colocate with it — this is
      how CLoF's per-cohort metadata "extends the low lock" (paper
      Section 4.1.1) and lands in the lock's own line. *)

  val anchor : 'a aref -> anchor

  val make_on : anchor -> ?name:string -> 'a -> 'a aref
  (** Allocate on the {e same cache line} as the anchored location —
      how a real ticket lock packs [next] and [grant] into one line, or
      an MCS node its flag and link ([make_on (anchor r)]). The
      simulator charges coherence costs per line, so colocation models
      the true/false sharing of the packed layout; other backends
      ignore it. *)

  val load : ?o:Memory_order.t -> 'a aref -> 'a
  (** Defaults to [Seq_cst]. *)

  val store : ?o:Memory_order.t -> ?rmw:bool -> 'a aref -> 'a -> unit
  (** Defaults to [Seq_cst]. [rmw:true] requests the store be performed
      as an unconditional compare-exchange — Hemlock's x86
      coherence-traffic-reduction trick (paper Section 2.1). Semantics
      are identical; the simulator charges it as an RMW (cheap handover
      on x86 MESIF, pathological under Armv8 LL/SC contention). *)

  val cas : 'a aref -> expected:'a -> desired:'a -> bool
  (** Compare-and-set with {e physical} equality, matching
      [Atomic.compare_and_set]. Locks therefore CAS only immediates
      (ints, bools) or mutable record values used as stable node
      identities — never freshly allocated boxes. *)

  val exchange : 'a aref -> 'a -> 'a
  (** Atomic swap. Like every RMW in this interface ([cas],
      [fetch_add], [store ~rmw:true], and [cas] even when it fails),
      it is sequentially consistent and {e drains the issuing thread's
      store buffer}: the weak-memory checker models RMWs as fenced
      (x86-style; an Armv8 backend would need its AMOs barriered to
      match). This contract is load-bearing for the fence audit in
      EXPERIMENTS.md — several release annotations were downgraded to
      relaxed because they directly follow an RMW that already
      committed everything older, and those verdicts are sound only on
      backends that honor the drain. *)

  val fetch_add : int aref -> int -> int

  val await : ?rmw:bool -> 'a aref -> ('a -> bool) -> 'a
  (** [await r pred] spins until [pred (load r)] holds and returns the
      witnessing value. On the simulator and on real atomics it is
      {!await_until} with [~deadline:max_int], which never times out:
      each backend has one wait loop. The real backend is literally a
      pause loop; the simulator blocks the green thread and wakes it
      with the line-transfer latency. The checker keeps the two apart:
      there an [await] thread is enabled exactly when [pred] holds (a
      blocked spinloop in the sense of the paper's spinloop-termination
      property), while a timed wait is always enabled and times out
      nondeterministically, so treating [await] as a timed wait would
      explore timeouts that cannot happen. [rmw:true] marks each poll
      as an RMW on the line (the other half of the CTR trick). *)

  val fence : unit -> unit
  (** Full barrier. *)

  val pause : unit -> unit
  (** CPU relax hint inside hand-written retry loops. *)

  val now : unit -> int
  (** The backend's notion of elapsed virtual time, in nanoseconds-ish
      units: simulated time for the simulator, CPU time for real
      domains, the per-thread step count for the checker. Only
      meaningful for comparing against deadlines passed to
      {!await_until} and to [try_acquire] — the unit differs per
      backend, but is monotone per thread on all of them. *)

  val await_until : ?rmw:bool -> 'a aref -> deadline:int -> ('a -> bool) -> 'a option
  (** [await_until r ~deadline pred] is {!await} with a time bound:
      spin until [pred (load r)] holds — returning [Some v] with the
      witnessing value — or until [now () >= deadline], returning
      [None]. The checker resolves the timeout {e nondeterministically}
      (both outcomes are explored as separate schedules), which is what
      lets the verify scenarios exercise an abort racing a handover.
      [rmw] as in {!await}. *)
end
