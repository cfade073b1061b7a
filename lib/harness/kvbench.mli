(** The kv experiment: the sharded KV-service macro-workload
    ({!Clof_workloads.Kvservice}) over the composition panel — bare
    CLoF, barging fastpath, the strict-fair single-level H=1
    composition (a global FIFO), the adaptive controller, and the
    CNA/ShflLock baselines — judged on open-loop {e sojourn} tails
    (enqueue → completion) over a diurnal low → peak → low schedule,
    rather than closed-loop throughput. *)

val run : quick:bool -> Report.t
(** Run the panel on the simulated x86 box (one
    {!Clof_workloads.Kvservice.run} per lock, in parallel via
    {!Clof_exec.Exec}) and archive it: one series per lock (one point
    per phase; the point's stats histogram is the phase's sojourn
    recorder; meta carries ["phases"], ["workers"], ["stripes"],
    ["service_rate"], ["offered"] and ["<phase>.p99"] /
    ["<phase>.p99.9"] sojourn in ns) plus a pointless ["slo"] series
    carrying the declared gate constants, so an archive shows what its
    readings were held to. Deterministic: byte-identical for every job
    count. *)

val gate : Report.t -> string list
(** The CI gate, read off the report's series: (1) every lock's
    ["low-1.p99"] within the low-phase p99 sojourn ceiling; (2)
    [fair-h1]'s ["peak.p99.9"] beats [fp-clof<4>]'s by the declared
    margin; (3) their ["service_rate"]s agree within the declared
    tolerance. The constants are the ["slo"] series'. A reading the
    report lacks is a violation. Empty means pass. *)
