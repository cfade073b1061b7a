open Clof_topology

module Base (B : Clof_locks.Lock_intf.S) = struct
  type t = B.t
  type ctx = { b_ctx : B.ctx; mutable sink : Clof_stats.Stats.Sink.t }

  let name = B.name
  let fair = B.fair
  let depth = 1

  let create ?h:_ ~topo:_ ~hierarchy () =
    (match hierarchy with
    | [ Level.System ] -> ()
    | _ ->
        invalid_arg
          "Clof.Base.create: hierarchy must be exactly [System]");
    B.create ()

  let ctx_create t ~cpu:_ =
    { b_ctx = B.ctx_create t; sink = Clof_stats.Stats.Sink.null }

  (* the root basic lock has no cohort passing to observe, but timed
     waits abandoned here are recorded at level 0 (the tree root) *)
  let set_sink ctx sink = ctx.sink <- sink

  (* a basic root lock has no keep_local budget to retune *)
  let set_h _t _h = ()

  let acquire t ctx = B.acquire t ctx.b_ctx
  let release t ctx = B.release t ctx.b_ctx

  let abortable = B.abortable

  let try_acquire t ctx ~deadline =
    B.try_acquire t ctx.b_ctx ~deadline
    ||
    (Clof_stats.Stats.Sink.abort ctx.sink ~level:0;
     false)
end

module Compose
    (M : Clof_atomics.Memory_intf.S)
    (Low : Clof_locks.Lock_intf.S with type anchor = M.anchor)
    (High : Clof_intf.S) =
struct
  (* Metadata extending each low lock, as in Section 4.1: the waiter
     counter (read indicator), the pass flag (has_high_lock), the
     keep_local counter, and the context used to acquire/release the
     high lock — owned by whoever owns the low lock. *)
  type meta = {
    waiters : int M.aref;
    high_locked : bool M.aref;
    mutable local_count : int;
        (* keep_local counter; owner-only, so a plain field — like
           HMCS's count fused into the status word *)
    high_ctx : High.ctx;
  }

  type t = {
    level : Level.t;
    mutable h : int;
        (* keep_local threshold; read only by the current owner in
           [release], so a runtime retune ([set_h]) is benign — each
           release sees either the old or the new budget *)
    topo : Topology.t;
    lows : Low.t array;
    metas : meta array;
    high : High.t;
  }

  type ctx = {
    cohort : int;
    low_ctx : Low.ctx;
    mutable got_passed : bool;
        (* whether the high lock arrived by intra-cohort passing; also
           tells release whether the pass flag needs clearing *)
    mutable sink : Clof_stats.Stats.Sink.t;
  }

  let name = Low.name ^ "-" ^ High.name
  let fair = Low.fair && High.fair
  let depth = High.depth + 1
  let counted = Option.is_none Low.has_waiters

  (* this composition's low level, as distance from the hierarchy root:
     the full tree has depth [d] and this subtree handles level
     [d - depth] counting from the leaf, i.e. [High.depth] from the
     root *)
  let stats_level = High.depth

  let create ?(h = 128) ~topo ~hierarchy () =
    match hierarchy with
    | [] -> invalid_arg "Clof.Compose.create: empty hierarchy"
    | level :: rest ->
        if List.length rest <> High.depth then
          invalid_arg "Clof.Compose.create: hierarchy depth mismatch";
        let high = High.create ~h ~topo ~hierarchy:rest () in
        let ncoh = Topology.ncohorts topo level in
        let lows = Array.init ncoh (fun _ -> Low.create ()) in
        (* metadata extends the low lock: it lives on the low lock's own
           cache line, as in the paper's l = (tau, o, d) packing *)
        let mk_meta i =
          let cpu = Topology.first_cpu topo level i in
          let on = Low.anchor lows.(i) in
          {
            waiters = M.make_on on ~name:"clof.waiters" 0;
            high_locked = M.make_on on ~name:"clof.high_locked" false;
            local_count = 0;
            high_ctx = High.ctx_create high ~cpu;
          }
        in
        {
          level;
          h;
          topo;
          lows;
          metas = Array.init ncoh mk_meta;
          high;
        }

  let ctx_create t ~cpu =
    let cohort = Topology.cohort_of t.topo t.level cpu in
    {
      cohort;
      low_ctx = Low.ctx_create t.lows.(cohort);
      got_passed = false;
      sink = Clof_stats.Stats.Sink.null;
    }

  let set_sink ctx sink = ctx.sink <- sink

  let set_h t h =
    let h = max 1 h in
    t.h <- h;
    High.set_h t.high h

  (* lockgen(acq(CLoF(l, L), c)) of Figure 8 *)
  let acquire t ctx =
    let low = t.lows.(ctx.cohort) and m = t.metas.(ctx.cohort) in
    if counted then ignore (M.fetch_add m.waiters 1);
    Low.acquire low ctx.low_ctx;
    if counted then ignore (M.fetch_add m.waiters (-1));
    ctx.got_passed <- M.load ~o:Acquire m.high_locked;
    if not ctx.got_passed then begin
      (* we own the low lock, hence the shared high context: route the
         higher levels' events to this thread's recorder *)
      High.set_sink m.high_ctx ctx.sink;
      High.acquire t.high m.high_ctx
    end

  (* keep_local (Section 4.1.2): allow up to [h] consecutive local
     handovers, then force the high lock outward. Owner-only state. *)
  let keep_local t m =
    if m.local_count + 1 >= t.h then begin
      m.local_count <- 0;
      false
    end
    else begin
      m.local_count <- m.local_count + 1;
      true
    end

  let has_low_waiters low m ctx =
    match Low.has_waiters with
    | Some f -> f low ctx
    | None -> M.load ~o:Relaxed m.waiters > 0

  (* lockgen(rel(CLoF(l, L), c)) of Figure 8. The order in the second
     branch — clear flag, release High, release Low — is load-bearing:
     releasing Low first would let the next owner race us for
     [m.high_ctx], violating the context invariant (Section 4.1.3). *)
  let release t ctx =
    let low = t.lows.(ctx.cohort) and m = t.metas.(ctx.cohort) in
    let waiters = has_low_waiters low m ctx.low_ctx in
    if waiters && keep_local t m then begin
      Clof_stats.Stats.Sink.keep_local ctx.sink ~level:stats_level
        ~kept:true;
      Clof_stats.Stats.Sink.handover ctx.sink ~level:stats_level
        ~local:true;
      if not ctx.got_passed then M.store ~o:Release m.high_locked true;
      Low.release low ctx.low_ctx
    end
    else begin
      (* [waiters] here means the H threshold fired: a local waiter
         exists but starvation-avoidance forces the lock outward *)
      if waiters then
        Clof_stats.Stats.Sink.keep_local ctx.sink ~level:stats_level
          ~kept:false;
      Clof_stats.Stats.Sink.handover ctx.sink ~level:stats_level
        ~local:false;
      (* only the pass path ever sets the flag, so it needs clearing
         exactly when the high lock arrived by passing *)
      if ctx.got_passed then M.store ~o:Relaxed m.high_locked false;
      High.set_sink m.high_ctx ctx.sink;
      High.release t.high m.high_ctx;
      Low.release low ctx.low_ctx
    end

  let abortable = Low.abortable && High.abortable

  (* A waiter that times out after the holder committed to passing
     (has_waiters was read true, the pass flag set, Low released)
     leaves the high lock parked in [m.high_locked] with nobody
     waiting to claim it. The flag is sticky — any later arrival
     inherits the pass normally — but if no one ever arrives the high
     lock is withheld from other cohorts. Best-effort recovery: after
     recording the abort, peek at the flag; if set, try to grab the
     low lock with an already-expired deadline (a trylock). Success
     means we are now the low owner: re-read the flag (owner-only
     state, so this read is authoritative) and, if the pass really
     landed, take ownership and release properly outward. *)
  let rescue t ctx =
    let low = t.lows.(ctx.cohort) and m = t.metas.(ctx.cohort) in
    if
      M.load ~o:Acquire m.high_locked
      && Low.try_acquire low ctx.low_ctx ~deadline:(M.now ())
    then begin
      ctx.got_passed <- M.load ~o:Acquire m.high_locked;
      if ctx.got_passed then release t ctx
      else Low.release low ctx.low_ctx
    end

  let try_acquire t ctx ~deadline =
    let low = t.lows.(ctx.cohort) and m = t.metas.(ctx.cohort) in
    if counted then ignore (M.fetch_add m.waiters 1);
    let got_low = Low.try_acquire low ctx.low_ctx ~deadline in
    if counted then ignore (M.fetch_add m.waiters (-1));
    if not got_low then begin
      Clof_stats.Stats.Sink.abort ctx.sink ~level:stats_level;
      rescue t ctx;
      false
    end
    else begin
      ctx.got_passed <- M.load ~o:Acquire m.high_locked;
      if ctx.got_passed then
        (* Inherited the high lock by intra-cohort passing. If the
           deadline expired while we waited — the pass was granted a
           hair before our timeout would have fired — we hold the full
           stack but have no time left to use it: relinquish it with a
           normal release (we own everything, so [release] is exactly
           the relinquish protocol) and report the abort. Mirrors the
           inherited-lock case of HMCS-T's per-level induction. *)
        if M.now () < deadline then true
        else begin
          Clof_stats.Stats.Sink.abort ctx.sink ~level:stats_level;
          release t ctx;
          false
        end
      else begin
        High.set_sink m.high_ctx ctx.sink;
        if High.try_acquire t.high m.high_ctx ~deadline then true
        else begin
          (* High recorded its own abort at its level. We hold only
             the low lock; hand it back *without* setting the pass
             flag — it can only be true here if we set it, and we
             never reached ownership — so the next low owner goes to
             acquire High itself, exactly as after a fresh start. *)
          Low.release low ctx.low_ctx;
          false
        end
      end
    end
end
