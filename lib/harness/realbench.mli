(** real-uncontended: the wall-clock cost of one uncontended
    acquire+release pair on real atomics, for tkt, mcs, clh, hem and
    [clof<4> tkt-tkt-mcs-mcs] — layer 1 of the performance picture,
    the lock fast path the simulator cannot clock. Archived as
    [BENCH_real.json], a trajectory. Wall-clock dependent: never part
    of a determinism diff or a gate. *)

val run : quick:bool -> Report.t
(** Time every lock ([quick] shrinks the repetition count) and archive
    one experiment [real-uncontended] with a point-less series
    ["real/<lock>"] per lock whose meta carries ["ops"] (pairs timed),
    ["ns_per_op"] and ["words_per_op"]. *)
