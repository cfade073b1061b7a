(** The kv experiment: the sharded KV-service macro-workload
    ({!Clof_workloads.Kvservice}) over the composition panel — bare
    CLoF, barging fastpath, the strict-fair single-level H=1
    composition (a global FIFO), the adaptive controller, and the
    CNA/ShflLock baselines — judged on open-loop {e sojourn} tails
    (enqueue → completion) over a diurnal low → peak → low schedule,
    rather than closed-loop throughput. *)

(** {2 Declared gate constants}

    Archived in the report's ["slo"] series meta, so an archive shows
    what its readings were held to. *)

val low_p99_slo_ns : float
(** Low-phase p99 sojourn ceiling (ns) every panel lock must meet. *)

val peak_tail_margin : float
(** Fraction by which fair handover's peak p99.9 must beat the barging
    fastpath's. *)

val throughput_tolerance : float
(** Maximum relative gap between the fair and fastpath whole-run
    service rates for the tail comparison to count. *)

val fair_name : string
val fastpath_name : string

type t = { t_results : Clof_workloads.Kvservice.result list }

val run : ?quick:bool -> unit -> t
(** Run the panel on the simulated x86 box (one
    {!Clof_workloads.Kvservice.run} per lock, in parallel via
    {!Clof_exec.Exec}). Deterministic: results are byte-identical for
    every job count. *)

val gate : t -> string list
(** The CI gate: (1) every lock's low-phase p99 sojourn within
    {!low_p99_slo_ns}; (2) [fair-h1]'s peak p99.9 beats
    [fp-clof<4>]'s by {!peak_tail_margin}; (3) their whole-run service
    rates agree within {!throughput_tolerance}. Empty means pass. *)

val exp_id : string
(** ["kv"]. *)

val to_report : ?quick:bool -> t -> Report.t
(** One series per lock (one point per phase; the point's stats
    histogram is the phase's sojourn recorder; meta carries
    ["phases"], ["workers"], ["stripes"], ["service_rate"],
    ["offered"] and ["<phase>.p99"] / ["<phase>.p99.9"] sojourn in ns)
    plus a pointless ["slo"] series carrying the declared gate
    constants in typed meta. *)
