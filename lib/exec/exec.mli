(** Process-wide default executor for the benchmark harness.

    Every expensive fan-out (scripted sweeps, heatmaps, report panels)
    calls {!map} / {!product_map}. Each call forks its own helper
    domains and joins them before it returns, so no domain outlives a
    batch and libraries never thread an executor around. The job count
    is the [-j] value of [clof_bench].

    Determinism: every simulation is seeded deterministically and runs
    entirely on one domain, so results are identical for any job
    count; only wall-clock changes. *)

val set_jobs : int -> unit
(** Set the job count to [n] (clamped to >= 1) for later batches. *)

val jobs : unit -> int
(** The current job count (default
    [Domain.recommended_domain_count ()]). *)

val map : ('a -> 'b) -> 'a list -> 'b list
(** [map f items] applies [f] to every item on the caller and
    [min (jobs () - 1) (List.length items - 1)] helper domains, all
    joined before it returns the results in item order. The failure
    with the {e lowest index} is re-raised with its backtrace, the one
    a sequential [List.map] would have raised first. It is [List.map]
    when [jobs () = 1], for fewer than two items, and inside a job. *)

val product_map : ('a -> 'b -> 'c) -> 'a list -> 'b list -> 'c list list
(** [product_map f rows cols] evaluates [f r c] for the whole cross
    product as one flat batch of parallel jobs and regroups the results
    one list per row — the shape of every (lock x threadcount) panel. *)
