(** The fault-injection experiment: a lock panel under timed acquisition
    while scheduler faults ({!Clof_sim.Engine.fault}) are injected, every
    (lock, fault) cell classified, written as a Report document
    (BENCH_faults.json) and gated ([clof_bench faults]).

    One series per lock named ["faults/<lock>"], with no points: the
    matrix travels in the series' typed [meta] block (schema v2) — the
    declared capabilities (["fair"], ["abort"]) and one string per
    fault column, ["class(timeouts)"] plus ["+rN"] for N watchdog
    reclaims and ["!"] when the engine reported the run hung. The
    classes:
    - [recovered]: every surviving thread was still completing
      operations at the end of the run, and any crashed holder was
      reclaimed by the watchdog; timed-out attempts during the fault
      window are the recovery mechanism at work;
    - [degraded]: the run stayed healthy but a thread crashed and
      nothing was reclaimed — its capacity (and whatever it held) is
      permanently lost;
    - [wedged]: the run hung or livelocked, or a surviving thread
      stopped making progress — e.g. the lock died with a crashed
      owner and everyone else only times out against it. *)

val exp_id : string
(** ["faults"]. *)

val run : ?quick:bool -> unit -> Report.t
(** The full (lock x fault) sweep on simulated x86, run with the
    crash-recovery watchdog armed ([quick] shortens each run).
    Capability flags per series come off the instantiated lock's
    Runtime metadata, not a hand-maintained list. *)

val gate : Report.t -> string list
(** The CI gate, read off each cell's class and timeout count, three
    rules keyed off declared capability: a {e fair} lock must never be
    [wedged] under a transient stall; a {e true-abort} lock must be
    [recovered] on a holder crash (the watchdog reclaims through the
    abortable path); and a lock declaring [abort] must have actually
    abandoned attempts somewhere in the fault columns — declared
    capability must agree with observed behaviour. Violations read
    ["faults/<lock> [<fault or capability>]: <what>"]; an unreadable
    cell is one too. Empty means pass. *)
