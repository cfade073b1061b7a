(** Uniform runtime representation of a lock, used by workloads and the
    scripted benchmark.

    This plays the role of the paper's LD_PRELOAD pthread interposition
    (Section 5.1.2): benchmarks are written once against {!handle} and
    any lock — basic, CLoF-generated, or baseline — is swapped in by
    passing a different {!spec}. {!make} is the single way a lock
    becomes a spec: {!of_clof}, {!of_basic}, every baseline's [spec]
    and the adaptive composition are calls to it. *)

type handle = {
  acquire : unit -> unit;
  release : unit -> unit;
  try_acquire : deadline:int -> bool;
      (** Timed acquisition: [true] grants ownership exactly as
          [acquire]; [false] means the deadline (virtual ns) passed
          first and the caller owns nothing. Locks without timeout
          support expose a blocking fallback that always returns
          [true] — check {!lock.l_abortable} before relying on
          bounded waits. *)
}
(** Per-thread view of a lock, with the context already bound. *)

type lock = {
  l_name : string;
  l_fair : bool;
      (** Whether acquisition order is FIFO at every level (see
          {!Clof_locks.Lock_intf.S.fair}); the fault gate holds fair
          locks to a stricter wedging standard because a lost handover
          there strands the whole queue. *)
  l_abortable : bool;
      (** Whether [try_acquire] truly abandons bounded waits at every
          level (see {!Clof_locks.Lock_intf.S.abortable}); [false] for
          polling fallbacks and for baselines whose [try_acquire]
          blocks. *)
  l_adaptive : bool;
      (** Whether this lock retunes its own policy online (an armed
          {!Adaptive} controller): its per-run counters reflect a
          mix of modes, so regression tooling should compare it
          against phase-level numbers, not single-mode baselines.
          [false] for every static composition. *)
  handle : ?stats:Clof_stats.Stats.recorder -> cpu:int -> unit -> handle;
      (** Create this thread's context; call once per thread. [stats]
          installs the thread's observability recorder into the
          context, so instrumented locks report per-level handover and
          keep_local events there; omitted, recording is disabled and
          costs one branch per event. *)
}

type spec = {
  s_name : string;
  instantiate : Clof_topology.Topology.t -> lock;
      (** Build a fresh lock for one benchmark run. *)
}

val make :
  ?adaptive:bool ->
  ?set_sink:('c -> Clof_stats.Stats.Sink.t -> unit) ->
  name:string ->
  fair:bool ->
  abortable:bool ->
  ctx:(Clof_topology.Topology.t -> 't -> cpu:int -> 'c) ->
  acquire:('t -> 'c -> unit) ->
  release:('t -> 'c -> unit) ->
  try_acquire:('t -> 'c -> deadline:int -> bool) ->
  (Clof_topology.Topology.t -> 't) ->
  spec
(** [make ~name ~fair ~abortable ~ctx ~acquire ~release ~try_acquire
    create] is the spec named [name] whose every instantiation builds a
    fresh lock with [create topo] and reports the given capability
    flags ([adaptive] defaults to [false]). Each {!lock.handle} call
    creates one context with [ctx topo t ~cpu], installs the thread's
    recorder through [set_sink] when both are given, and binds the
    three operations to that context. *)

val blocking : ('t -> 'c -> unit) -> 't -> 'c -> deadline:int -> bool
(** [blocking acquire] is the [try_acquire] of a lock that cannot
    abandon a wait: it ignores the deadline, acquires, and returns
    [true]. Pair it with [~abortable:false]. *)

val of_clof :
  ?h:int ->
  hierarchy:Clof_topology.Topology.hierarchy ->
  Clof_intf.packed ->
  spec
(** A CLoF lock on the given hierarchy. The spec name is the
    composition name. *)

val of_basic : 'a Clof_locks.Lock_intf.packed -> spec
(** A NUMA-oblivious lock used directly as the single global lock. *)

val rename : string -> spec -> spec
