(** The native runtime backend: execute the same lock compositions the
    simulator benchmarks on real OCaml 5 domains, through the same
    abstract memory interface ([Clof_atomics.Real_mem]) and the same
    per-thread workload loop ({!Clof_workloads.Workload.thread_body}).

    One run spawns [nthreads] domains, pins each to a CPU chosen by
    {!Clof_topology.Topology.pick_cpus} (best effort, see {!Affinity}),
    opens a wall-clock measurement window once every domain has built
    its lock context, and counts completed critical sections. Workload
    parameters keep their simulated-ns meaning: compute and think times
    are scaled through a once-per-process calibration of the host's
    spin-loop speed, so the native contention regime matches the
    simulated one.

    Limitations vs the simulator, by design: no fault injection, no
    hang detection (a deadlocking lock hangs the run — every
    composition is model-checked before it gets here), and results are
    wall-clock measurements, so they are never diffed or gated on
    absolute value (only the {e ranking} across locks is, by the
    cross-validation experiment). *)

type result = {
  lock : string;
  nthreads : int;
  total_ops : int;
  per_thread : int array;
  last_progress : int array;
      (** wall-clock ns (relative to the window start) of each thread's
          last completed operation; 0 for a thread that completed none *)
  wall_ns : int;
      (** measured span: window open to last domain joined (includes
          the drain of in-flight acquisitions, matching how their ops
          are counted) *)
  throughput : float;  (** operations per wall-clock microsecond *)
  pinned : bool;
      (** every thread was successfully pinned to its CPU; [false]
          means the OS scheduler placed threads (report it — unpinned
          numbers have no stable NUMA meaning) *)
  stats : Clof_stats.Stats.recorder;
      (** merged per-thread observability counters, same semantics as
          the simulator's (latencies in wall ns) *)
}

val run :
  ?deadline:int ->
  ?duration_ms:int ->
  platform:Clof_topology.Platform.t ->
  nthreads:int ->
  spec:Clof_core.Runtime.spec ->
  Clof_workloads.Workload.params ->
  result
(** One native benchmark run of [spec] (which must have been built over
    [Clof_atomics.Real_mem] — typically via a
    [Registry.Make (Real_mem)] / [Generator.Make (Real_mem)] pair) on
    [nthreads] domains for [duration_ms] wall milliseconds (default
    200). [platform] is the host ({!Hosttopo.detect}). Every run checks
    mutual exclusion and raises {!Clof_workloads.Workload.Lock_failure}
    on a violation. [deadline] switches acquisitions to the timed path
    with the given per-attempt budget in wall ns.

    Runs must not overlap: each saturates the machine, so callers
    benchmark sequentially (never through [Clof_exec.Exec]).
    @raise Invalid_argument when [nthreads] exceeds the platform's
    CPUs. *)
