(** Discrete-event execution engine.

    Benchmark threads are effects-based green threads pinned to CPUs of
    a simulated {!Clof_topology.Platform.t}. Operations are plain calls
    on the running thread's fiber: each atomic operation is charged a
    latency derived from the cache-line state and the {!Arch.t} cost
    model, and advances the thread's virtual clock. The engine always
    runs the thread with the smallest clock (ties in scheduling order),
    so a thread still strictly earliest after an operation carries on
    in place, as the next event. A fiber suspends at three points only:
    it yields when another event comes first, parks on a line until a
    write satisfies its predicate, or dies at a crash fault. Each
    completed operation counts as one event whether it carried on or
    yielded, so results and [events] do not depend on which path ran.
    A parked thread is woken by a write to the watched line that
    satisfies the predicate, and the wake-up is charged the
    line-transfer latency from the writer. Two threads pinned to the
    same CPU timeshare it (per-CPU busy window + context-switch cost).

    This module is the substitute for the paper's 96-thread x86 and
    128-core Armv8 servers; see DESIGN.md Section 2.

    Engine state is domain-local: each domain may run one simulation
    at a time, and independent simulations on separate domains proceed
    concurrently (how {!Clof_exec.Exec.map} parallelizes the benchmark
    pipeline). Since every simulation is deterministic given its
    inputs, results do not depend on how runs are scheduled across
    domains. *)

type access =
  | Load
  | Store of { rmw : bool; order : Clof_atomics.Memory_order.t }
  | Rmw of { wrote : bool }

type fault =
  | Stall of { tid : int; at_op : int; ns : int }
      (** Preempt thread [tid] at its [at_op]-th atomic operation: its
          virtual clock jumps forward by [ns] while the CPU stays free
          — a simulated interrupt, page fault or involuntary context
          switch. The op itself still executes, after the stall. *)
  | Crash of { tid : int; at_op : int }
      (** Kill thread [tid] at its [at_op]-th atomic operation: the
          continuation is dropped with no unwinding, modelling a thread
          dying while holding or waiting for a lock. A crash lands
          between atomic ops, never inside one: the faulted op
          completes — a store stays visible and wakes its watchers —
          and the thread dies at the op boundary. A crash at a waiting
          op removes the thread without leaving it a registered
          waiter. *)
  | Crash_in_cs of { tid : int; after_op : int }
      (** Holder crash: kill thread [tid] at its first atomic operation
          that both reaches op count [after_op] and lands inside a
          {!cs_mark}-bracketed critical section — the thread
          deterministically dies while holding the lock, the scenario a
          recovery watchdog exists for. Never fires if the thread stops
          entering critical sections before the anchor. *)

type injected = {
  i_tid : int;  (** thread the fault hit *)
  i_op : int;  (** its atomic-op counter at injection *)
  i_time : int;  (** its virtual clock after injection, ns *)
  i_kind : string;  (** ["stall"], ["crash"] or ["crash-in-cs"] *)
}

type outcome = {
  end_time : int;  (** largest virtual clock reached, ns *)
  hung : bool;
      (** true when threads remained blocked with no pending event — a
          lost-wakeup or deadlock in the code under simulation.
          Crashed threads do not count: they are dead, not wedged. *)
  aborted : bool;
      (** true when the run overshot 64x its duration and was cut off —
          a livelock in the code under simulation *)
  blocked : (int * string) list;
      (** (tid, line name) of threads still blocked at the end *)
  transfers : (Clof_topology.Level.proximity * int) list;
      (** cache-line transfers by distance class — the direct evidence
          of a lock's handover locality (innermost class first) *)
  injected : injected list;
      (** per-fault accounting, in injection order: every requested
          fault that actually fired (a fault whose thread never reaches
          [at_op] operations silently does not fire) *)
  crashed : int list;  (** tids killed by crash faults *)
  events : int;
      (** discrete events executed by the scheduler (thread spawns,
          access completions, wake-ups, timeouts) — the denominator of
          [clof_perf]'s events/s and words/event *)
}

val run :
  ?duration:int ->
  ?faults:fault list ->
  platform:Clof_topology.Platform.t ->
  threads:(int * (int -> unit)) list ->
  unit ->
  outcome
(** [run ~platform ~threads ()] starts one green thread per [(cpu,
    body)] pair at virtual time 0 and executes until all finish.
    [duration] (default 1 ms) only controls {!running}; bodies are
    expected to loop [while running () do ... done] and drain
    naturally. Bodies receive their thread id. [faults] are injected at
    the named threads' atomic-op counts (accesses and await
    registrations count as ops; pure compute does not). The platform
    may have at most {!Line.max_cpus} CPUs, the width of every line's
    sharer set.
    @raise Invalid_argument on a CPU out of range, on a platform wider
    than {!Line.max_cpus} (before any thread runs), or when called from
    inside a simulation. *)

(** {2 Operations available inside thread bodies}

    All of these act on the running thread and must be called from
    within a {!run} thread; outside one they raise [Effect.Unhandled],
    as performing an effect with no handler does. *)

val now : unit -> int
(** This thread's virtual clock, ns. *)

val cs_mark : bool -> unit
(** Bracket a critical section ([true] on entry, [false] on exit) for
    {!fault.Crash_in_cs} targeting. Op-neutral like {!now}: charges no
    time, counts no op, executes no event — calling it cannot shift
    benchmark numbers or fault anchors. *)

val running : unit -> bool
(** [now () < duration]. *)

val tid : unit -> int

val cpu : unit -> int

val access : Line.t -> access -> unit
(** Charge one memory access; wake watchers on writes. Used by
    {!Sim_mem}. *)

val await_line_until : Line.t -> rmw:bool -> deadline:int -> (unit -> bool) -> bool
(** The one park: block until a write to the line makes the predicate
    true (checked once immediately) and return [true], or return
    [false] once the thread's clock reaches [deadline] (absolute,
    virtual ns) first — the thread resumes at exactly [deadline] in
    that case. [deadline = max_int] means never: no timer is set, so a
    thread nothing wakes stays blocked and the run reads [hung]. Used
    by {!Sim_mem}. *)

val fence : unit -> unit
val pause : unit -> unit

val work : int -> unit
(** Charge [ns] of pure compute to this thread (critical-section body,
    think time). Occupies the thread's CPU: green threads timesharing
    it queue behind the work. *)

val sleep : int -> unit
(** Advance this thread's clock by [ns] {e without} occupying its CPU —
    a timer sleep. Green threads sharing the CPU run at full speed
    during it (how the recovery watchdog idles between lease checks
    while timesharing a benchmark thread's core). Counts no op. *)
