(** Interface of a CLoF-generated multi-level lock (ClofLocks in the
    grammar of Figure 6).

    A value of type [t] is the whole tree for one critical section: one
    low-lock instance per cohort of each hierarchy level, sharing the
    higher-level locks up to the single system-level root. A thread's
    [ctx] fixes its leaf cohort (from its CPU) and carries the leaf
    lock's context; contexts for the higher locks live inside the tree's
    metadata and are owned by whoever holds the lock below them (the
    context invariant of Section 4.1.3). *)

module type S = sig
  type t
  type ctx

  val name : string
  (** Innermost-first composition name, e.g. ["tkt-clh-tkt-tkt"]
      (Section 5.2.1 notation). *)

  val fair : bool
  (** Fair iff every composed basic lock is fair (Theorem 4.1). *)

  val depth : int
  (** Number of hierarchy levels. *)

  val create :
    ?h:int ->
    topo:Clof_topology.Topology.t ->
    hierarchy:Clof_topology.Topology.hierarchy ->
    unit ->
    t
  (** Builds the lock tree for the given hierarchy (innermost level
      first, length [depth]). [h] is the [keep_local] threshold: how
      many consecutive intra-cohort handovers are allowed per level
      before the lock must flow outward (default 128, as in the paper
      and HMCS).
      @raise Invalid_argument if the hierarchy length differs from
      [depth]. *)

  val ctx_create : t -> cpu:int -> ctx

  val set_sink : ctx -> Clof_stats.Stats.Sink.t -> unit
  (** Install an observability sink into this context: per-level
      handover and keep_local events performed through the context are
      recorded there. Contexts start with {!Clof_stats.Stats.Sink.null}
      installed, so an uninstrumented lock records nothing and pays one
      branch per event. The sink travels with lock ownership: composed
      locks re-install the current owner's sink into the shared
      higher-level contexts before using them (the context invariant
      makes this race-free). *)

  val set_h : t -> int -> unit
  (** Retune the [keep_local] threshold H of every level at runtime
      (clamped to at least 1). Reads of H happen only in the release
      path of the current owner, so a concurrent retune is benign: each
      release observes either the old or the new budget, and mutual
      exclusion never depends on H. No-op on locks without a keep_local
      budget (depth-1 compositions). This is the knob the adaptive
      controller ({!Adaptive}) turns for its keep_local-heavy and fair
      modes. *)

  val acquire : t -> ctx -> unit
  val release : t -> ctx -> unit

  val abortable : bool
  (** Whether {!try_acquire} performs true queue abandonment at every
      level. A composition is abortable iff all its constituent basic
      locks are ({!Compose} conjoins the flags — the induction step is
      documented there). *)

  val try_acquire : t -> ctx -> deadline:int -> bool
  (** Timed acquisition of the whole tree: [true] means the calling
      thread owns the root lock exactly as after {!acquire}; [false]
      means it gave up at some level before [deadline] (virtual ns,
      compared against [M.now ()]) and owns nothing — no counter is
      left incremented and no shared context is left claimed. Always
      safe to call regardless of {!abortable}; non-abortable
      constituents merely degrade the wait to polling at their
      level. *)
end

type packed = (module S)

let name (p : packed) =
  let (module L) = p in
  L.name
