module Make (M : Clof_atomics.Memory_intf.S) = struct
  (* Node states: [must_wait] while the owner-to-be is queued behind
     it, [available] once released, [abandoned] when its owner timed
     out. In CLH a grant is a *state of the predecessor node*, not a
     message to a thread, which is what makes timeout simple: an
     aborting waiter publishes its own predecessor in [pred_slot] and
     marks itself abandoned; its successor re-links past it and
     inherits the watch — a grant can never be lost, only picked up by
     whoever is next alive. *)
  let available = 0
  let must_wait = 1
  let abandoned = 2

  type node = { status : int M.aref; pred_slot : node option M.aref }

  type t = { tail : node M.aref }

  (* [mine] is the node we enqueue with; after release it is donated to
     the successor (still spinning on it), and we adopt [pred]'s node.
     This node recycling is why the context invariant matters: reusing
     the context in a second concurrent acquisition would recycle a node
     another thread still spins on. After an abandonment [mine] is
     replaced by a fresh node instead: the abandoned one stays reachable
     (marked) until a successor re-links past it. *)
  type ctx = { mutable mine : node; mutable pred : node }

  let name = "clh"
  let fair = true

  let mk_node v =
    let status = M.make ~name:"clh.status" v in
    { status; pred_slot = M.make_on (M.anchor status) ~name:"clh.pred" None }

  let create () = { tail = M.make ~name:"clh.tail" (mk_node available) }

  type anchor = M.anchor

  let anchor t = M.anchor t.tail

  let ctx_create _t =
    let n = mk_node available in
    { mine = n; pred = n }

  let enqueue t ctx =
    M.store ~o:Relaxed ctx.mine.status must_wait;
    M.store ~o:Relaxed ctx.mine.pred_slot None;
    M.exchange t.tail ctx.mine

  let acquire t ctx =
    let prev = enqueue t ctx in
    (* spin on the nearest live predecessor, re-linking past abandoned
       ones *)
    let rec wait p =
      let s = M.await p.status (fun s -> s <> must_wait) in
      if s = available then ctx.pred <- p
      else
        let pp =
          match M.await p.pred_slot (fun o -> o <> None) with
          | Some pp -> pp
          | None -> assert false
        in
        wait pp
    in
    wait prev

  let abortable = true

  let try_acquire t ctx ~deadline =
    let prev = enqueue t ctx in
    let abort p =
      (* Publish our watch target and the mark. Relaxed is enough for
         both (checker-proved per mode; see the fence audit in
         EXPERIMENTS.md): a successor that sees [abandoned] before the
         slot commits simply keeps awaiting [pred_slot] — the
         publication order is a liveness nicety, not a safety edge,
         because [p] is an already-published node and every reader of
         the slot waits for it to become [Some]. If the grant lands on
         [p] concurrently, nothing is lost — our successor inherits
         the watch on [p] and takes the lock. *)
      M.store ~o:Relaxed ctx.mine.pred_slot (Some p);
      M.store ~o:Relaxed ctx.mine.status abandoned;
      ctx.mine <- mk_node available;
      false
    in
    let rec wait p =
      match M.await_until p.status ~deadline (fun s -> s <> must_wait) with
      | None -> abort p
      | Some s when s = available ->
          ctx.pred <- p;
          true
      | Some _ -> (
          (* p abandoned: its pred_slot is published momentarily *)
          match
            M.await_until p.pred_slot ~deadline (fun o -> o <> None)
          with
          | Some (Some pp) -> wait pp
          | Some None -> assert false
          | None -> abort p)
    in
    wait prev

  let release t ctx =
    ignore t;
    M.store ~o:Release ctx.mine.status available;
    ctx.mine <- ctx.pred

  let has_waiters =
    (* May count a waiter that has abandoned but whose node is still
       the tail — an overcount callers must tolerate. *)
    Some (fun t ctx -> not (M.load ~o:Relaxed t.tail == ctx.mine))
end
