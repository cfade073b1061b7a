(** Lock cohorting (Dice, Marathe & Shavit, PPoPP'12) — two-level
    compositions of heterogeneous locks (Section 2.3). CLoF's generator
    subsumes the technique, so the classic cohort locks are expressed as
    named 2-level CLoF compositions over the NUMA-node/system hierarchy:
    C-BO-MCS is an MCS lock per NUMA node under a global backoff lock,
    C-MCS-MCS its level-homogeneous counterpart, and C-TKT-TKT the
    ticket variant. C-BO-MCS is unfair (its global lock is), which is
    the paper's fairness caveat about heterogeneity. *)

module Make (M : Clof_atomics.Memory_intf.S) : sig
  val c_bo_mcs : Clof_core.Runtime.spec
  val all : Clof_core.Runtime.spec list
end
