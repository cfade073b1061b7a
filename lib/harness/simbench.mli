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

type sample = {
  label : string;  (** ["pingpong"], ["scripted"] or ["real/<lock>"] *)
  runs : int;  (** loop bodies executed inside the timed window *)
  events : int;  (** engine events (or acquire+release pairs) across all runs *)
  wall_s : float;
  events_per_us : float;  (** simulated events per wall-clock {e µs} *)
  words_per_event : float;  (** minor words allocated per event *)
}

val run : ?quick:bool -> unit -> sample list
(** Run every loop ([quick] shrinks the repetition count). Must not be
    called from inside a simulation. *)

val exp_id : string
(** ["sim-throughput"]. *)

val to_report : sample list -> Report.t
(** One experiment [sim-throughput] with a point-less series per sample
    whose meta carries ["events"], ["runs"], ["events_per_us"],
    ["ns_per_event"] and ["words_per_event"]. *)
