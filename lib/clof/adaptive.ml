(* Contention-adaptive composition aspect. See adaptive.mli for the
   protocol and safety argument; the short version is that all mutual
   exclusion lives in the wrapped Fastpath word/fission protocol, and
   the controller only flips policy knobs (the barging latch, the
   keep_local budget H) that are benign under races and staleness. *)

module S = Clof_stats.Stats

type mode = Fastpath_mostly | Keep_local_heavy | Fair

let mode_to_string = function
  | Fastpath_mostly -> "fastpath"
  | Keep_local_heavy -> "keep_local"
  | Fair -> "fair"

(* The controller's fixed thresholds. Word occupancy below [lo] re-arms
   the fast path, above [hi] picks a contention policy, and in between
   keeps the current mode; a fast-path CAS-failure rate of [fissile]
   forces a fission regardless of occupancy. [h_heavy] is the
   keep_local budget of the keep_local-heavy mode. *)
let lo = 0.10
let hi = 0.40
let fissile = 0.50
let h_heavy = 512

module Make (M : Clof_atomics.Memory_intf.S) (L : Clof_intf.S) = struct
  module F = Fastpath.Make (M) (L)

  (* All controller state is plain mutable fields — owner-less,
     last-writer-wins. Concurrent epoch votes from different threads
     can interleave; the worst outcome is a policy flip one epoch
     early or late, which hysteresis absorbs and safety ignores. *)
  type controller = {
    mutable armed : bool;
    mutable cmode : mode;
    mutable switches : int;
    mutable epoch : int; (* acquisitions (all threads) per sample *)
    mutable hysteresis : int; (* consecutive dissenting epochs to switch *)
    mutable h_default : int;
    (* pending/streak implement the hysteresis vote *)
    mutable pending : mode;
    mutable streak : int;
    (* global occupancy window. Shared plain fields bumped by every
       acquiring thread: in the simulator (green threads) the counts
       are exact; on native backends increments can be lost under
       races, which only stretches an epoch — the signal is a rate,
       not an invariant. Global rather than per-thread because under
       saturation each thread's own arrival rate collapses (service is
       serialized), so a per-thread window might never fill before the
       phase ends. *)
    mutable seen : int;
    mutable busy : int;
    (* occupancy flag: set by the owner after acquiring, cleared
       before releasing. Mode-independent (the word does not reflect
       occupancy in a fissioned era) and plain — the probe is a rate
       sample, a torn read is one miscounted arrival. *)
    mutable csbusy : bool;
  }

  type t = { f : F.t; c : controller }

  type ctx = {
    fctx : F.ctx;
    mutable sink : S.Sink.t;
    snap : S.snapshot; (* last sample point of this thread's recorder *)
  }

  let name = "ad-" ^ L.name
  let fair = false (* fastpath-mostly mode barges *)
  let depth = L.depth
  let abortable = F.abortable

  let create ?h ~topo ~hierarchy () =
    {
      f = F.create ?h ~topo ~hierarchy ();
      c =
        {
          armed = false;
          cmode = Fastpath_mostly;
          switches = 0;
          epoch = 64;
          hysteresis = 2;
          h_default = Option.value h ~default:128;
          pending = Fastpath_mostly;
          streak = 0;
          seen = 0;
          busy = 0;
          csbusy = false;
        };
    }

  let ctx_create t ~cpu =
    { fctx = F.ctx_create t.f ~cpu; sink = S.Sink.null; snap = S.snapshot () }

  let set_sink ctx sink =
    ctx.sink <- sink;
    F.set_sink ctx.fctx sink

  let set_h t h = F.set_h t.f h
  let mode t = t.c.cmode
  let switches t = t.c.switches

  (* Apply a mode: flip the barging latch, retune H. Both knobs are
     stale-tolerant, so no synchronisation with in-flight acquires is
     needed — the DPOR scenarios pin this down. *)
  let force t m =
    let c = t.c in
    if m <> c.cmode then begin
      c.cmode <- m;
      c.switches <- c.switches + 1;
      c.pending <- m;
      c.streak <- 0;
      match m with
      | Fastpath_mostly ->
          F.set_h t.f c.h_default;
          F.set_armed t.f true
      | Keep_local_heavy ->
          F.set_armed t.f false;
          F.set_h t.f h_heavy
      | Fair ->
          F.set_armed t.f false;
          F.set_h t.f 1
    end

  let arm ?(epoch = 64) ?(hysteresis = 2) t =
    let c = t.c in
    c.epoch <- max 1 epoch;
    c.hysteresis <- max 1 hysteresis;
    c.armed <- true

  (* A switch needs [hysteresis] consecutive epochs voting for the same
     non-current mode; any epoch voting for the current mode resets the
     streak, so a workload oscillating around a threshold flaps the
     vote, not the lock. *)
  let vote t want =
    let c = t.c in
    if want = c.cmode then begin
      c.pending <- want;
      c.streak <- 0
    end
    else begin
      if want = c.pending then c.streak <- c.streak + 1
      else begin
        c.pending <- want;
        c.streak <- 1
      end;
      if c.streak >= c.hysteresis then force t want
    end

  (* End-of-epoch policy decision, taken by whichever thread's arrival
     filled the global window.

     The primary signal is word occupancy — the fraction of the last
     [epoch] arrivals (across all threads) that found the TAS word
     held. It is mode-independent (measured the same way whether we
     barge or queue) and needs no recorder.

     When a recorder is installed, two Clof_stats epoch deltas refine
     the verdict: the CAS-failure rate of the fastpath (Fissile's
     fission trigger — only meaningful while barging is on, since a
     disarmed wrapper records every acquire as contended), and the
     fraction of slow-path handovers that witnessed a local waiter
     (local passes + keep_local denials over all handovers), which
     picks between the two high-contention policies: cohort-mates
     present means raising H pays (CNA-style batching); dispersed
     waiters mean strict fairness costs nothing and protects tails.

     The local-waiter threshold scales with composition depth: a
     release that escapes outward records one remote handover per
     level it exits plus one local pass at the level where it lands,
     so even a perfectly batchable workload whose locality lives one
     level up reads ~0.5, and deeper passes read 1/(levels exited).
     Only a fully dispersed workload — every release cascading to the
     root — reads ~0. Hence "cohort-mates present" is any ratio above
     1/(depth+1), not a majority. *)
  let decide t ctx =
    let c = t.c in
    let occ = float_of_int c.busy /. float_of_int c.seen in
    c.seen <- 0;
    c.busy <- 0;
    let cas_fail, local_waiters =
      match S.Sink.recorder ctx.sink with
      | None -> (0.0, 1.0)
      | Some r ->
          let att =
            S.since_fastpath r ctx.snap + S.since_contended r ctx.snap
          in
          let cf =
            if att = 0 || c.cmode <> Fastpath_mostly then 0.0
            else
              float_of_int (S.since_contended r ctx.snap)
              /. float_of_int att
          in
          let ho = S.since_handovers r ctx.snap in
          let lw =
            if ho = 0 then 1.0
            else
              float_of_int
                (S.since_local_pass r ctx.snap
                + S.since_h_exhausted r ctx.snap)
              /. float_of_int ho
          in
          S.capture ctx.snap r;
          (cf, lw)
    in
    let hot = occ >= hi || cas_fail >= fissile in
    (* Between [lo] and [hi] the evidence is ambiguous, so the dead
       band votes for the current mode — staying put is free, whereas
       drifting to a default (any default) would eventually pay that
       default's worst case on a workload the thresholds don't
       classify. *)
    let local_ok =
      local_waiters >= 1.0 /. float_of_int (L.depth + 1)
    in
    let want =
      if hot then if local_ok then Keep_local_heavy else Fair
      else if occ <= lo then Fastpath_mostly
      else c.cmode
    in
    vote t want

  (* Per-acquire sampling, armed only: plain field bumps, no
     shared-memory operations at all. With the controller off, the
     wrapper is exactly Fastpath — one extra branch per acquire and
     release, no allocation, no extra memory traffic. *)
  let observe t ctx =
    let c = t.c in
    c.seen <- c.seen + 1;
    if c.csbusy then c.busy <- c.busy + 1;
    if c.seen >= c.epoch then decide t ctx

  let acquire t ctx =
    if t.c.armed then observe t ctx;
    F.acquire t.f ctx.fctx;
    t.c.csbusy <- true

  let release t ctx =
    t.c.csbusy <- false;
    F.release t.f ctx.fctx

  let try_acquire t ctx ~deadline =
    if t.c.armed then observe t ctx;
    let ok = F.try_acquire t.f ctx.fctx ~deadline in
    if ok then t.c.csbusy <- true;
    ok
end
