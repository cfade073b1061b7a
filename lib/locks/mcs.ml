module Make (M : Clof_atomics.Memory_intf.S) = struct
  (* Waiter status word, CAS-arbitrated in the MCS-TP style so a
     timeout and a handover can never both win: the releaser grants
     with [cas waiting -> granted], an aborting waiter leaves with
     [cas waiting -> abandoned]; whichever CAS succeeds decides. *)
  let waiting = 0
  let granted = 1
  let abandoned = 2

  type node = { status : int M.aref; next : node option M.aref }

  (* [tail] holds the last queued node, or the sentinel when free. CAS
     compares node records physically, so nodes are stable identities
     and [next] (never CASed) can use an option. *)
  type t = { tail : node M.aref; nil : node }

  (* [cur] is replaced by a fresh node after an abandonment: the
     abandoned node stays queued (marked, skipped by releasers) and
     must never be reused while reachable. *)
  type ctx = { mutable cur : node }

  let name = "mcs"
  let fair = true

  let mk_node () =
    let status = M.make ~name:"mcs.status" waiting in
    { status; next = M.make_on (M.anchor status) ~name:"mcs.next" None }

  let create () =
    let nil = mk_node () in
    { tail = M.make ~name:"mcs.tail" nil; nil }

  type anchor = M.anchor

  let anchor t = M.anchor t.tail
  let ctx_create _t = { cur = mk_node () }

  let enqueue t n =
    M.store ~o:Relaxed n.status waiting;
    M.store ~o:Relaxed n.next None;
    M.exchange t.tail n

  let acquire t ctx =
    let n = ctx.cur in
    let prev = enqueue t n in
    if prev != t.nil then begin
      (* Relaxed is enough for the link: the tail exchange just above
         committed every earlier store of this thread (node init), so
         there is nothing left for a release to order — a delayed
         commit only delays when the predecessor finds us, and both
         release walks await the link. Checker-proved per mode; see the
         fence audit in EXPERIMENTS.md. *)
      M.store ~o:Relaxed prev.next (Some n);
      ignore (M.await n.status (fun s -> s = granted))
    end

  let abortable = true

  (* Caveat for timed callers: abandoned nodes stay queued until a
     release walk skips them, so under heavy churn the handover latency
     grows with the abandoned suffix. If every waiter's deadline sits
     below that inflated latency and timed-out waiters re-enqueue
     immediately, the skip rate and the append rate can balance into a
     timeout storm where almost no acquisition succeeds. Retry with
     deadline-sliced re-arms and backoff (as [Workload.simulate]'s
     fault watchdog does), or with a deadline comfortably above the
     expected handover latency. *)

  let try_acquire t ctx ~deadline =
    let n = ctx.cur in
    let prev = enqueue t n in
    if prev == t.nil then true
    else begin
      (* Relaxed for the same reason as in [acquire] *)
      M.store ~o:Relaxed prev.next (Some n);
      match M.await_until n.status ~deadline (fun s -> s = granted) with
      | Some _ -> true
      | None ->
          if M.cas n.status ~expected:waiting ~desired:abandoned then begin
            (* The node stays in the queue, marked; the next release to
               reach it skips it. A fresh node keeps the context
               immediately reusable without touching the queue. *)
            ctx.cur <- mk_node ();
            false
          end
          else
            (* the handover's CAS won the race: we own the lock *)
            true
    end

  (* Grant to the first live successor of [n], skipping abandoned
     nodes. When the chain runs out at an (abandoned or own) node that
     is still the tail, swing the tail to the sentinel — that is how
     abandoned suffixes get unlinked. *)
  let rec grant_from t n =
    match M.load ~o:Acquire n.next with
    | Some succ ->
        if M.cas succ.status ~expected:waiting ~desired:granted then ()
        else grant_from t succ
    | None ->
        if M.cas t.tail ~expected:n ~desired:t.nil then ()
        else begin
          (* a successor is between the exchange and linking itself *)
          let succ =
            match M.await n.next (fun s -> s <> None) with
            | Some s -> s
            | None -> assert false
          in
          if M.cas succ.status ~expected:waiting ~desired:granted then ()
          else grant_from t succ
        end

  let release t ctx = grant_from t ctx.cur

  let has_waiters =
    (* Walk past abandoned nodes so a pass decision is never based on a
       waiter that already left. Still a racy hint (a live waiter may
       abandon right after), which callers must tolerate. *)
    Some
      (fun _t ctx ->
        let rec live n =
          match M.load ~o:Relaxed n.next with
          | None -> false
          | Some succ ->
              M.load ~o:Relaxed succ.status <> abandoned || live succ
        in
        live ctx.cur)
end
