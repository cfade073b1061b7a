(** Process-wide default executor for the benchmark harness.

    A lazily-created {!Pool} shared by every expensive fan-out
    (scripted sweeps, heatmaps, report panels). Its size is the [-j]
    value of [clof_bench]; libraries never need to thread a pool
    around, they call {!map} / {!product_map}.

    Determinism: every simulation is seeded deterministically and runs
    entirely on one domain, so results are identical for any job
    count; only wall-clock changes. *)

val set_jobs : int -> unit
(** Resize the default pool to [n] domains (clamped to >= 1). The
    previous pool, if any, is shut down; must not be called while a
    map is in flight. *)

val jobs : unit -> int
(** The current job count (default
    [Domain.recommended_domain_count ()]). *)

val map : ('a -> 'b) -> 'a list -> 'b list
(** [map f items] = {!Pool.map_ordered} on the default pool: ordered
    results, deterministic lowest-index error propagation, sequential
    when [jobs () = 1] or when called from inside another job. *)

val product_map : ('a -> 'b -> 'c) -> 'a list -> 'b list -> 'c list list
(** [product_map f rows cols] evaluates [f r c] for the whole cross
    product as one flat batch of parallel jobs and regroups the results
    one list per row — the shape of every (lock x threadcount) panel. *)

val now_s : unit -> float
(** Wall-clock seconds ([Unix.gettimeofday]). *)
