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

val exp_id : string
(** ["kv"]. *)

val run : ?quick:bool -> unit -> Report.t
(** Run the panel on the simulated x86 box (one
    {!Clof_workloads.Kvservice.run} per lock, in parallel via
    {!Clof_exec.Exec}) and archive it: one series per lock (one point
    per phase; the point's stats histogram is the phase's sojourn
    recorder; meta carries ["phases"], ["workers"], ["stripes"],
    ["service_rate"], ["offered"] and ["<phase>.p99"] /
    ["<phase>.p99.9"] sojourn in ns) plus a pointless ["slo"] series
    carrying the declared gate constants. Deterministic: byte-identical
    for every job count. *)

val gate : Report.t -> string list
(** The CI gate, read off the report's series: (1) every lock's
    ["low-1.p99"] within {!low_p99_slo_ns}; (2) [fair-h1]'s
    ["peak.p99.9"] beats [fp-clof<4>]'s by {!peak_tail_margin}; (3)
    their ["service_rate"]s agree within {!throughput_tolerance}. A
    reading the report lacks is a violation. Empty means pass. *)
