(** Lock-benchmark harness: a configurable critical-section workload
    run on the NUMA simulator — the substitute for the paper's LevelDB
    and Kyoto Cabinet benchmarks (Section 5.1.2 and DESIGN.md).

    Each thread loops: acquire the lock under test, read some shared
    index lines and update the workload's hot lines plus some compute
    (the critical section), release, then think. The hot lines written
    under the lock are what rewards NUMA-local handover: their transfer
    cost depends on where the previous owner ran. *)

type params = {
  duration : int;  (** simulated ns *)
  cs_reads : int;
      (** index reads per operation; each costs a fixed memory-read
          latency (the store dwarfs the caches, and read misses are
          independent of lock-handover locality) *)
  cs_writes : int;  (** hot lines written per operation *)
  cs_work : int;  (** ns of compute inside the critical section *)
  noncs_work : int;  (** mean ns of think time (jittered +/-50%) *)
}

val leveldb : params
(** LevelDB "readrandom": short critical section dominated by index
    reads and a couple of state updates, think time a few times the CS
    — the paper's primary benchmark (throughput ~1 op/us at peak). *)

val kyoto : params
(** Kyoto Cabinet: roughly 10x longer critical section (throughput
    ~0.1 op/us, matching Figure 10's scale), used as the
    cross-validation benchmark. *)

(** {2 Backend-parametric thread body}

    The per-thread benchmark loop, shared verbatim between the
    simulator runner ({!run}) and the native-domain runner
    ({!Clof_native.Native.run}): acquire, read the index, write the hot
    lines, compute, release, think — only the six primitive operations
    differ per backend. Sharing the loop is what makes the [xval]
    cross-validation an apples-to-apples comparison of backends rather
    than of two different workloads. *)

type ops = {
  op_work : int -> unit;
      (** perform [n] ns-ish of lock-free work (simulated: charged to
          virtual time; native: a calibrated arithmetic spin) *)
  op_now : unit -> int;
      (** the backend clock ({!Clof_atomics.Memory_intf.S.now}) *)
  op_running : unit -> bool;  (** benchmark window still open *)
  op_hot_store : int -> int -> unit;
      (** [op_hot_store slot tid]: write the [slot]-th hot line *)
  op_probe_enter : unit -> unit;
      (** mutual-exclusion race detector, entered first in the CS *)
  op_probe_exit : unit -> unit;
}

val thread_body :
  ops ->
  params ->
  deadline:int option ->
  cpu:int ->
  tid:int ->
  handle:Clof_core.Runtime.handle ->
  sink:Clof_stats.Stats.Sink.t ->
  counts:int array ->
  last_progress:int array ->
  unit
(** Run thread [tid]'s benchmark loop until [op_running] turns false:
    completed operations land in [counts.(tid)], the completion time of
    the last one in [last_progress.(tid)], timeouts and acquire
    latencies in [sink]. [deadline] is the per-attempt [try_acquire]
    budget in backend-clock ns ([None] blocks). The RNG driving think
    times is seeded from [(tid, cpu)] only, so a backend's results are
    reproducible run to run (modulo real-scheduler interleaving on the
    native backend). *)

type result = {
  lock : string;
  nthreads : int;
  total_ops : int;
  per_thread : int array;
  last_progress : int array;
      (** simulated time of each thread's last completed operation —
          the fault harness uses this to tell a thread that recovered
          late from one that stopped progressing *)
  sim_ns : int;
  throughput : float;  (** operations per simulated microsecond *)
  hung : bool;
  aborted : bool;
      (** the engine's {!Clof_sim.Engine.outcome} flags (deadlock,
          livelock); either can be [true] only under [~check:false]: with
          [check] on, {!simulate} raises {!Lock_failure} before it
          builds a result *)
  crashed : int list;
      (** threads killed by an injected crash fault (empty without
          fault injection) *)
  recoveries : int;
      (** holder-crash reclaims performed by the watchdog (0 without
          [~watchdog]) *)
  transfers : (Clof_topology.Level.proximity * int) list;
      (** cache-line transfers by distance class during the run — the
          direct measurement of handover locality *)
  stats : Clof_stats.Stats.recorder;
      (** merged per-thread lock observability counters: acquisitions
          and log2-bucketed acquire latencies (recorded here, uniformly
          for every lock), plus whatever the lock's own instrumentation
          reported — per-level local/remote handovers, keep_local
          decisions, H-threshold exhaustions, fast-path hits, spins *)
  events : int;
      (** discrete engine events executed during the run (see
          {!Clof_sim.Engine.outcome}) — the denominator of
          [clof_perf]'s per-event metrics *)
}

exception Lock_failure of string
(** Raised, with a message naming the lock, on a mutual-exclusion
    violation seen by the probe or on a hung or livelocked run. A hung
    run's message also gives how many threads are blocked and, for the
    first four, the line each waits on. *)

type thread = {
  cpu : int;
  tid : int;
  handles : Clof_core.Runtime.handle array;  (** one per lock instance *)
  recorder : Clof_stats.Stats.recorder;  (** also [handles]' stats sink *)
  enter : int -> unit;
      (** [enter i] opens the probe of instance [i], first in its CS *)
  exit : int -> unit;  (** [exit i] closes it, last in the CS *)
  counts : int array;  (** completions per tid: bump [counts.(tid)] *)
  progress : int array;  (** per tid, time of the last completion *)
}

val simulate :
  ?check:bool ->
  ?faults:Clof_sim.Engine.fault list ->
  ?watchdog:int ->
  locks:int ->
  duration:int ->
  platform:Clof_topology.Platform.t ->
  cpus:int array ->
  spec:Clof_core.Runtime.spec ->
  (thread -> unit) ->
  result
(** The simulator runner under {!run} and {!Kvservice.run}: [locks]
    instances of [spec], every thread's contexts and recorder made
    before the run, one green thread per CPU of [cpus] running the body
    for [duration] simulated ns, one probe nesting cell per instance.
    [check], [faults] and [watchdog] are as for {!run}; the watchdog
    watches instance 0. *)

val run :
  ?check:bool ->
  ?faults:Clof_sim.Engine.fault list ->
  ?deadline:int ->
  ?watchdog:int ->
  platform:Clof_topology.Platform.t ->
  nthreads:int ->
  spec:Clof_core.Runtime.spec ->
  params ->
  result
(** One closed-loop run: {!simulate} over one lock instance with
    {!thread_body} as every thread's loop, pinned via
    {!Clof_topology.Topology.pick_cpus}. [check] (default true) raises
    {!Lock_failure} on hang/livelock and on a mutual-exclusion violation
    observed on a race-detector line incremented inside every critical
    section — pass [~check:false] when injecting faults that are
    expected to degrade the run.

    [faults] is forwarded to {!Clof_sim.Engine.run} (default none).
    [deadline] switches every acquisition to the timed path: each
    attempt calls [try_acquire] with a per-attempt budget of [deadline]
    simulated ns; a timed-out attempt records a timeout in the
    thread's stats, thinks, and retries. Omitted, acquisitions
    block.

    [watchdog] arms the crash-recovery watchdog with a lease of that
    many simulated ns: an extra green thread (timesharing the first
    CPU) samples the critical-section owner and total completions once
    per lease, and when a full lease passes with the same parked owner
    and zero progress it declares the holder dead, repairs the
    mutual-exclusion probe, force-releases the lock through the
    victim's context (every lock here is thread-oblivious), and — for
    [l_abortable] locks — re-verifies service with a bounded,
    deadline-sliced timed acquisition. Reclaims are counted in
    [recoveries]. The lease must comfortably exceed both the longest
    legitimate zero-progress window (e.g. an injected stall) and one
    critical section. Omitted, no watchdog runs and the simulation is
    bit-identical to one before the watchdog existed. *)

val run_on_cpus :
  ?check:bool ->
  ?faults:Clof_sim.Engine.fault list ->
  ?deadline:int ->
  ?watchdog:int ->
  platform:Clof_topology.Platform.t ->
  cpus:int array ->
  spec:Clof_core.Runtime.spec ->
  params ->
  result
(** Like {!run} but with an explicit CPU pinning (used by the
    per-cohort benchmark of Figure 3). *)
