module Make (M : Clof_atomics.Memory_intf.S) (L : Clof_intf.S) = struct
  module Sink = Clof_stats.Stats.Sink

  (* The word is the Fissile-style fast path and, when armed, the lock
     itself: 0 = free, 1 = held, 2 = fissioned. In a fissioned era the
     slow CLoF lock alone protects the critical section — the word
     parks at 2 so a barger's CAS (expected 0) can never succeed, and
     handovers stop touching the globally-shared word line entirely.
     That is the whole point of fissioning: under contention the word
     costs two coherence misses per handover, which flattens the
     locality advantage the CLoF tree exists to provide. *)
  let w_free = 0

  let w_held = 1
  let w_fissioned = 2

  type t = {
    word : int M.aref;
    slow : L.t;
    mutable armed : bool;
        (* barging latch. A plain field, not an [M.aref]: it guards
           only *attempts* (to barge, to pick an entry path), never
           mutual exclusion — exclusion reduces to the word state and
           the slow lock, both M-typed. A thread acting on a stale
           value takes a slower path or defers a re-arm, never breaks
           the lock: the one transition that must not race, re-arming
           (false -> true), happens only while holding the slow lock,
           whose release/acquire edges order it for later slow-path
           readers; bargers reading a stale [true] just CAS the word
           and either own it (word was genuinely free — a legitimate
           acquisition) or fail into the slow path. Keeping the latch
           out of the memory interface also keeps it out of the
           simulator's coherence cost model — an armed fastpath is
           cost-identical to the pre-latch code. *)
    mutable want_armed : bool;
        (* deferred re-arm request (see [set_armed]): honoured by the
           next slow-path owner, the only context that can safely
           reclaim the word from a fissioned era. *)
  }

  type ctx = {
    inner : L.ctx;
    mutable sink : Sink.t;
    mutable has_word : bool;
        (* whether this thread's current acquisition owns the word (1)
           or entered wordless under a fissioned era — decides which
           release path to take. Owner-only, plain. *)
  }

  let name = "fp-" ^ L.name
  let fair = false (* barging trades fairness for the fast path *)
  let depth = L.depth

  let create ?h ~topo ~hierarchy () =
    {
      word = M.make ~name:"fp.word" w_free;
      slow = L.create ?h ~topo ~hierarchy ();
      armed = true;
      want_armed = false;
    }

  (* Disarming is immediate: bargers observing the stale [true] still
     take the word properly, so nothing breaks while the value
     propagates. Re-arming is deferred to the next slow-path owner
     because only the slow-lock holder can atomically end a fissioned
     era (claim the word back from 2) without racing a wordless
     critical section. *)
  let set_armed t b =
    if b then t.want_armed <- true
    else begin
      t.armed <- false;
      t.want_armed <- false
    end

  let armed t = t.armed
  let set_h t h = L.set_h t.slow h

  let ctx_create t ~cpu =
    { inner = L.ctx_create t.slow ~cpu; sink = Sink.null; has_word = false }

  let set_sink ctx sink =
    ctx.sink <- sink;
    L.set_sink ctx.inner sink

  (* Holding the slow lock and finding the word fissioned, claim it
     back and re-open barging. The CAS cannot fail: 2 -> anything is
     owner-only (we hold the slow lock), and bargers CAS expected 0.
     Order matters only in that [armed] flips after the word is ours —
     it is the slow-lock release below that publishes the flip. *)
  let rearm t ctx =
    let ok = M.cas t.word ~expected:w_fissioned ~desired:w_held in
    assert ok;
    t.armed <- true;
    t.want_armed <- false;
    ctx.has_word <- true;
    L.release t.slow ctx.inner

  let is_free w = w = w_free

  (* Wait until the word reads free: unbounded under [deadline = None],
     until [d] under [Some d]. A timed-out caller owns nothing — the
     slow lock is handed back before failing. *)
  let await_free t ctx deadline =
    match deadline with
    | None ->
        ignore (M.await t.word is_free);
        true
    | Some deadline ->
        Option.is_some (M.await_until t.word ~deadline is_free)
        || begin
             L.release t.slow ctx.inner;
             false
           end

  (* Entry decision for a thread that holds the slow lock. Checked in
     this order because the word state is authoritative and the latch
     is advisory:

     - word = 2: a fissioned era. Only a slow-lock holder ends one, so
       the marker is stable under us: enter wordless (the slow lock
       protects the critical section, and bargers cannot CAS 0 -> 1
       while the word reads 2), unless a re-arm is pending or a stale
       latch read says barging should be on — then reclaim the word.
     - latch armed: the classic protocol — compete for the word (only
       us versus bargers, the slow lock serialises the queue), then
       release the slow lock and run the critical section under the
       word alone.
     - latch disarmed, word 0/1: start a fissioned era. Drain the
       current word owner (a pre-disarm acquisition or a barger that
       won on a stale latch — both legitimate, both release to 0),
       then CAS 0 -> 2; a barger can still steal 0 -> 1 in between,
       so loop. No circular wait: word owners never need the slow
       lock we hold.

     [true] means the caller now holds the critical section. With a
     deadline, the word waits are bounded and [false] means it timed
     out owning nothing. *)
  let rec slow_enter t ctx ~deadline =
    if M.load ~o:Acquire t.word = w_fissioned then begin
      if t.armed || t.want_armed then rearm t ctx else ctx.has_word <- false;
      true
    end
    else if t.armed then begin
      let rec take () =
        await_free t ctx deadline
        && (M.cas t.word ~expected:w_free ~desired:w_held
           || begin
                Sink.spin ctx.sink 1;
                take ()
              end)
      in
      take ()
      && begin
           ctx.has_word <- true;
           L.release t.slow ctx.inner;
           true
         end
    end
    else
      await_free t ctx deadline
      && begin
           if not (M.cas t.word ~expected:w_free ~desired:w_fissioned) then
             Sink.spin ctx.sink 1;
           slow_enter t ctx ~deadline
         end

  (* one CAS when uncontended; otherwise queue through the CLoF lock
     so only one queued thread at a time competes with bargers *)
  let fast t ctx =
    t.armed
    && M.cas t.word ~expected:w_free ~desired:w_held
    && begin
         Sink.fast_path ctx.sink;
         ctx.has_word <- true;
         true
       end

  let acquire t ctx =
    if not (fast t ctx) then begin
      Sink.contended ctx.sink;
      L.acquire t.slow ctx.inner;
      ignore (slow_enter t ctx ~deadline:None)
    end

  let release t ctx =
    if ctx.has_word then M.store ~o:Release t.word w_free
    else L.release t.slow ctx.inner

  let abortable = L.abortable

  let try_acquire t ctx ~deadline =
    fast t ctx
    || begin
         Sink.contended ctx.sink;
         L.try_acquire t.slow ctx.inner ~deadline
         && slow_enter t ctx ~deadline:(Some deadline)
       end
end
