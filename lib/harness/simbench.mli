(** sim-throughput: microbenchmark of the discrete-event engine itself.

    Measures wall-clock simulated-events/sec and minor-heap words
    allocated per event on the engine's two inner loops (ping-pong and
    the contended scripted workload), plus uncontended acquire+release
    pairs over real atomics (tkt, mcs, clh, hem and
    [clof<4> tkt-tkt-mcs-mcs]; one pair counts as one event), and ships
    the samples through the {!Report} schema as [BENCH_sim.json] so the
    trajectory can be archived and printed by [bench_check].
    Wall-clock dependent: never part of a determinism diff or a
    regression gate. *)

val exp_id : string
(** ["sim-throughput"]. *)

val run : ?quick:bool -> unit -> Report.t
(** Run every loop ([quick] shrinks the repetition count) and archive
    one experiment [sim-throughput] with a point-less series per loop
    (["pingpong"], ["scripted"] or ["real/<lock>"]) whose meta carries
    ["events"], ["runs"] (loop bodies timed), ["events_per_us"],
    ["ns_per_event"] and ["words_per_event"]. Must not be called from
    inside a simulation. *)
