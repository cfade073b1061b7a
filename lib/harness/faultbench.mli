(** The fault-injection experiment: a lock panel under timed acquisition
    while scheduler faults ({!Clof_sim.Engine.fault}) are injected, every
    (lock, fault) cell classified, gated ([clof_bench faults]) and
    written as a Report document (BENCH_faults.json).

    One series per lock named ["faults/<lock>"], with no points: the
    matrix travels in the series' typed [meta] block (schema v2) — the
    declared capabilities (["fair"], ["abort"]) and one string per
    fault column, ["class(timeouts)"] plus ["+rN"] for N watchdog
    reclaims and ["!"] when the engine reported the run hung. The CI
    gate runs on {!gate}, never on these statistics. *)

type fault_class =
  | Recovered
      (** every surviving thread was still completing operations at the
          end of the run, and any crashed holder was reclaimed by the
          watchdog; timed-out attempts during the fault window
          (reported alongside) are the recovery mechanism at work *)
  | Degraded
      (** the run stayed healthy but a thread crashed and nothing was
          reclaimed — its capacity (and whatever it held) is
          permanently lost *)
  | Wedged
      (** the run hung or livelocked, or a surviving thread stopped
          making progress — e.g. the lock died with a crashed owner and
          everyone else only times out against it *)

val class_to_string : fault_class -> string

type fault_cell = {
  fc_fault : string;  (** scenario name, ["none"] for the baseline *)
  fc_class : fault_class;
  fc_timeouts : int;  (** timed acquisitions that hit their deadline *)
  fc_recoveries : int;
      (** holder-crash reclaims performed by the recovery watchdog
          (see {!Clof_workloads.Workload.run}) *)
  fc_hung : bool;  (** the simulator's blocked-forever verdict *)
}

type fault_row = {
  fr_lock : string;
  fr_fair : bool;
  fr_abortable : bool;
      (** true-abort [try_acquire] at every level (see
          {!Clof_locks.Lock_intf.S.abortable}) *)
  fr_cells : fault_cell list;
}

val run : ?quick:bool -> unit -> fault_row list
(** The full (lock x fault) sweep on simulated x86, run with the
    crash-recovery watchdog armed ([quick] shortens each run).
    Capability flags per row come off the instantiated lock's Runtime
    metadata, not a hand-maintained list. *)

val gate : fault_row list -> string list
(** The CI gate, three rules keyed off declared capability: a {e fair}
    lock must never classify {!Wedged} under a transient stall; a
    {e true-abort} lock must classify {!Recovered} on a holder crash
    (the watchdog reclaims through the abortable path); and a lock
    declaring [l_abortable] must have actually abandoned attempts
    somewhere in the fault columns — declared capability must agree
    with observed behaviour. Violations read
    ["<lock> [<fault or capability>]: <what>"]; empty means pass. *)

val exp_id : string
(** ["faults"]. *)

val to_report : ?quick:bool -> fault_row list -> Report.t
