(** Table 1 of the paper: key-aspect coverage of recent NUMA-aware
    locks. A1 multi-level, A2 heterogeneity, A3 architecture-optimized,
    A4 correctness on weak memory models.

    Extended past the paper's six rows to cover this repo's own zoo:
    HMCS-T and the two composition aspects. The marks stay honest to
    the definitions above — HMCS-T is multi-level but builds every
    level from the same MCS variant (no A2) with no
    architecture-specific tuning (no A3); its A4 mark reflects this
    repo's DPOR scenarios under sc/tso/rlx, not the original paper
    (which argues linearizability, not weak memory). The fastpath and
    adaptive aspects wrap a full CLoF composition, so they inherit
    A1–A3 from the wrapped lock, and their word protocol is
    model-checked under all three memory modes alongside it. *)

type entry = {
  algorithm : string;
  a1 : bool;
  a2 : bool;
  a3 : bool;
  a4 : bool;
}

let table =
  [
    { algorithm = "CNA lock"; a1 = false; a2 = false; a3 = false; a4 = false };
    { algorithm = "ShflLock"; a1 = false; a2 = false; a3 = false; a4 = false };
    { algorithm = "HMCS"; a1 = true; a2 = false; a3 = false; a4 = false };
    { algorithm = "HMCS-WMM"; a1 = true; a2 = false; a3 = false; a4 = true };
    {
      algorithm = "lock cohorting";
      a1 = false;
      a2 = true;
      a3 = true;
      a4 = false;
    };
    { algorithm = "CLoF"; a1 = true; a2 = true; a3 = true; a4 = true };
    { algorithm = "HMCS-T"; a1 = true; a2 = false; a3 = false; a4 = true };
    {
      algorithm = "CLoF+fastpath";
      a1 = true;
      a2 = true;
      a3 = true;
      a4 = true;
    };
    {
      algorithm = "CLoF+adaptive";
      a1 = true;
      a2 = true;
      a3 = true;
      a4 = true;
    };
  ]

