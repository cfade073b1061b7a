(** Lock observability: per-thread event counters with cross-thread
    aggregation, and the no-op sink that keeps the hot path free when
    recording is disabled.

    A {!recorder} belongs to one thread (the workload allocates one per
    benchmark thread and installs it into that thread's lock context).
    A recorder is one [int array] and recording an event is one indexed
    increment, no atomics. After a run, the per-thread recorders are
    {!merge}d — merge is associative and commutative, so aggregation
    order is irrelevant.

    Per-level counters are indexed by {e distance from the hierarchy
    root}: level 0 is the outermost (system) level, level [depth - 1]
    the innermost (leaf) level of a CLoF/HMCS tree. Flat two-level
    NUMA-aware baselines (CNA, ShflLock) record at level 1, matching a
    2-level tree's NUMA level. *)

val max_levels : int
(** Hierarchy levels tracked (8); deeper levels clamp into the last. *)

val nbuckets : int
(** Latency histogram buckets (24): bucket [i] covers
    [\[2{^i}, 2{^i+1}) ] ns, the last bucket absorbs everything
    beyond. *)

type recorder

val create : unit -> recorder
(** A fresh all-zero recorder. *)

val merge : recorder -> recorder -> recorder
(** Element-wise sum into a fresh recorder; associative and
    commutative. *)

val merge_all : recorder list -> recorder
val equal : recorder -> recorder -> bool

(** {2 Counter access} *)

val acquisitions : recorder -> int
(** Critical sections entered (recorded by the harness via
    {!Sink.acquired}, uniformly for every lock kind). *)

val fastpath : recorder -> int
(** Acquisitions that completed on a lock's uncontended fast path. *)

val contended : recorder -> int
(** Acquisitions that observed contention (queued or retried). *)

val spins : recorder -> int
(** Iterations of explicit retry loops (fast-path word CAS storms). *)

val timeouts : recorder -> int
(** Whole-lock [try_acquire] attempts that hit their deadline (recorded
    by the harness when a timed acquisition returns [false]). *)

val local_pass : recorder -> level:int -> int
(** Handovers at [level] that stayed inside the cohort. *)

val remote_pass : recorder -> level:int -> int
(** Handovers at [level] that sent the lock outward (no local waiter,
    or the keep_local threshold H forced it out). *)

val handovers : recorder -> level:int -> int
(** [local_pass + remote_pass]. *)

val keep_local_kept : recorder -> level:int -> int
(** keep_local decisions that granted another intra-cohort pass. *)

val h_exhausted : recorder -> level:int -> int
(** keep_local denials: a local waiter existed but the H threshold
    forced the lock outward (starvation-avoidance firing). *)

val aborts : recorder -> level:int -> int
(** Waits abandoned at [level]: a timed acquisition gave up while
    queued at that level of the tree (level 0 = the root lock). *)

val levels_used : recorder -> int
(** 1 + highest level index with any per-level activity; 0 if none. *)

val keep_local_fraction : recorder -> float
(** Of all keep_local decisions across every level (kept +
    h_exhausted), the fraction that granted another intra-cohort pass.
    Always in [\[0, 1\]]; 0.0 when no decisions were taken. *)

val locality : recorder -> float
(** Of all handovers across every level, the fraction that stayed
    inside the cohort. Always in [\[0, 1\]]; 0.0 when no handovers. *)

(** {2 Epoch sampling}

    The adaptive controller ({!Clof_core.Adaptive}) samples a live
    recorder once per epoch: [capture] copies it into a preallocated
    recorder, and the [since_*] readers compute scalar deltas between
    the live recorder and that copy. Both are allocation-free, so
    sampling costs nothing on the hot path. *)

val capture : recorder -> recorder -> unit
(** [capture dst r] overwrites [dst] with the current contents of
    [r]. *)

val since_fastpath : recorder -> recorder -> int
val since_contended : recorder -> recorder -> int

val since_handovers : recorder -> recorder -> int
(** [since_handovers r prev]: handovers (local + remote, summed over
    all levels) in [r] beyond those in [prev]. *)

val since_local_pass : recorder -> recorder -> int
(** Intra-cohort handovers (all levels) beyond [prev]. *)

val since_h_exhausted : recorder -> recorder -> int
(** keep_local denials (all levels) beyond [prev] — each one witnessed
    a parked local waiter. *)

(** {2 Latency histogram} *)

val bucket_of_ns : int -> int
(** Bucket index for a latency sample. [bucket_of_ns v = i] iff
    [2{^i} <= v < 2{^i+1}] (0 and 1 ns land in bucket 0), clamped to
    the top bucket. *)

val bucket_lo : int -> int
(** Inclusive lower bound of a bucket, in ns. *)

val latency_samples : recorder -> int

val percentile_interp : recorder -> float -> float option
(** [percentile_interp r 99.0] is the p-th percentile acquire latency
    (ns), linearly interpolated across the bucket holding the p-th
    sample, assuming samples spread uniformly inside it.  The bucket's
    lower bound alone could understate a tail percentile by up to 2x;
    the interpolated value's error is bounded by the bucket width
    (exact for an in-bucket uniform distribution) and it is monotone
    in [p].  The open-ended top bucket is interpolated as if it were
    one bucket wide.  [None] without samples. *)

(** {2 JSON} *)

val to_json : recorder -> Json.t

(** {2 Recording} *)

(** The sink instrumented lock code records into. {!Sink.null} makes
    every operation a single branch over an immediate — the disabled
    path costs no allocation and touches no shared memory, so it is
    safe inside the simulator's cost model and the model checker. *)
module Sink : sig
  type t

  val null : t
  val of_recorder : recorder -> t
  val recorder : t -> recorder option

  val acquired : t -> ns:int -> unit
  (** One critical-section entry with its acquire latency. *)

  val fast_path : t -> unit
  val contended : t -> unit
  val spin : t -> int -> unit
  val handover : t -> level:int -> local:bool -> unit
  val keep_local : t -> level:int -> kept:bool -> unit

  val timeout : t -> unit
  (** One whole-lock timed acquisition that returned [false]. *)

  val abort : t -> level:int -> unit
  (** One wait abandoned at [level] of a composed lock. *)
end
