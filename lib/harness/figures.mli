(** The paper's tables, figures and ablations (DESIGN.md Section 4),
    each a report whose series the figure builds directly: lock runs
    as points, everything else (aspect flags, speedups, hierarchies,
    the pair matrix, fairness, locality, per-level counters, the
    selected compositions) as typed series meta. Heatmaps and scripted
    sweeps are memoized per platform, depth and [quick] within the
    process. *)

val all : (string * string * (quick:bool -> Report.t)) list
(** [(id, description, run)] in DESIGN.md order, then the lock panel
    [report]. Every experiment of a figure's report carries the
    figure's [id] as its exp-id, except the panel's: [report-x86] and
    [report-armv8], one per simulated platform. *)
