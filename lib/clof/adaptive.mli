(** Contention-adaptive composition: online fastpath fissioning and
    keep_local policy switching.

    [Make (M) (L)] wraps a CLoF composition in the TAS fast path
    ({!Fastpath.Make}) plus a feedback controller that retunes the
    composition to the traffic it actually sees, instead of the
    benchmark-time HC/LC choice of {!Selection}. The controller
    samples the deciding thread's {!Clof_stats.Stats} recorder over a
    global epoch window (plus a mode-independent occupancy probe of
    the TAS word, counted across all threads so the window fills even
    when saturation collapses each thread's own arrival rate) and
    switches between three policies:

    - {e fastpath-mostly}: barging enabled, default H — optimal when
      the lock is mostly idle (one CAS per acquire). Fissioned off
      when the fast-path CAS-failure/contended rate crosses the
      Fissile threshold (Dice & Kogan, "Fissile Locks").
    - {e keep_local-heavy}: barging off, H raised — under contention
      with cohort-mates present, longer intra-cohort batches amortise
      the expensive outward handover (CNA's throughput-first policy).
    - {e fair}: barging off, H = 1 — strict outward handover for
      dispersed contention, trading peak throughput for tails.

    Hysteresis (a switch requires several consecutive epochs voting
    the same way) keeps the controller from flapping at a threshold.

    {2 Why a mid-stream switch is safe}

    Mutual exclusion always reduces to state the {!Fastpath} wrapper
    owns: its TAS word while barging is open, the slow CLoF lock
    alone during a fissioned era — and the fission/re-arm transitions
    between the two are performed only by a slow-lock owner, so no
    interleaving of latch flips, H retunes, parked waiters, and timed
    aborts can admit two owners or strand a waiter (see
    {!Fastpath.Make.set_armed}). The controller's own state is plain
    fields (benign last-writer-wins races; a stale read costs at most
    one late epoch). The [adapt] DPOR scenarios in
    {!Clof_verify.Scenarios} check exactly this: a switch under load,
    a switch with a parked waiter, and a switch racing an abort, under
    sc/tso/rlx.

    Freshly created locks start with the controller {e off} in
    fastpath-mostly mode: cost-identical to {!Fastpath.Make} (one
    extra branch and a couple of plain-field writes per operation, no
    allocation, no extra shared-memory traffic — asserted by a
    [Gc.minor_words] test and the golden scripted-sweep byte diff). *)

type mode =
  | Fastpath_mostly  (** barging on, default H *)
  | Keep_local_heavy  (** barging off, H raised *)
  | Fair  (** barging off, H = 1 *)

val mode_to_string : mode -> string

module Make (M : Clof_atomics.Memory_intf.S) (L : Clof_intf.S) : sig
  include Clof_intf.S

  val arm : ?epoch:int -> ?hysteresis:int -> t -> unit
  (** Enable the controller. [epoch] (default 64) is the number of
      acquisitions (summed over all threads) between policy votes;
      [hysteresis] (2) is how many consecutive dissenting epochs a
      switch requires. The thresholds are fixed: a word-occupancy dead
      band of 0.10..0.40 (below it the lock re-arms the fast path,
      above it picks a contention policy, in between it keeps the
      current mode), a fast-path CAS-failure rate of 0.50 that forces
      a fission regardless of occupancy, and a keep_local budget of
      512 in the keep_local-heavy mode. *)

  val force : t -> mode -> unit
  (** Apply a mode immediately, bypassing the vote (used by tests and
      the verify scenarios; also the escape hatch for operators who
      want a fixed policy with the wrapper compiled in). *)

  val mode : t -> mode
  val switches : t -> int
  (** Mode switches applied since creation. *)
end
