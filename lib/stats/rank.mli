(** Rank correlation between two paired samples — the metric the
    cross-validation experiment reports for simulated vs native lock
    orderings (absolute throughputs live in different clocks; only the
    ordering is comparable). *)

val ranks : float array -> float array
(** Fractional (average) 1-based ranks: ties share the mean of the
    positions they occupy, e.g. [ranks [|10.;20.;20.|] =
    [|1.; 2.5; 2.5|]]. *)

val spearman : float array -> float array -> float option
(** Spearman's rho: the product-moment correlation of the two
    samples' {!ranks}. 1.0 = identical ordering, -1.0 = exactly
    inverted. [None] when the arrays' lengths differ, fewer than 2
    points, or either side has zero variance (e.g. one backend reports
    the same throughput for every lock). *)

val kendall : float array -> float array -> float option
(** Kendall's tau-b (tie-corrected): fraction of concordant minus
    discordant pairs. More robust than rho to a single outlier lock;
    [None] when every pair is tied on one side. *)
