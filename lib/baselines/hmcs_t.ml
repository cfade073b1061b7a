open Clof_topology

module Make (M : Clof_atomics.Memory_intf.S) = struct
  module Sink = Clof_stats.Stats.Sink

  (* Status values. As in HMCS, a positive count means the lock was
     passed within the cohort; [acquire_parent] tells the new cohort
     head to (re)acquire the parent. HMCS-T adds [abandoned]: grants
     become CAS-arbitrated ([cas wait -> count]/[cas wait ->
     acquire_parent] by the level owner, [cas wait -> abandoned] by a
     timed-out waiter) so a handover and a timeout can never both
     win — the MCS-TP arbitration lifted to every tree level. *)
  let wait = -1
  let acquire_parent = -2
  let abandoned = -3

  type qnode = { status : int M.aref; next : qnode option M.aref }

  type hnode = {
    tail : qnode M.aref;
    nil : qnode;
    parent : hnode option;
    mutable for_parent : qnode;
        (* this node's queue node in the parent. Mutable because an
           abandoned node must stay in the parent's queue (marked,
           skipped by release walks) while the cohort keeps a fresh
           node for its next climb. Only the unique owner of this tree
           node touches the field, and ownership transfer is ordered
           by the status-word handover, so the plain field is
           race-free. *)
    threshold : int;
    home : int;  (* NUMA placement hint for replacement nodes *)
    lvl : int;  (* distance from the root, for observability *)
  }

  type t = { leaves : hnode array; level : Level.t; topo : Topology.t }

  type ctx = {
    leaf : hnode;
    home : int;
    mutable me : qnode;  (* replaced after a leaf-level abandonment *)
    mutable sink : Sink.t;
  }

  let mk_qnode ?node () =
    let status = M.make ?node ~name:"hmcst.status" wait in
    { status; next = M.colocated status ~name:"hmcst.next" None }

  let mk_hnode ~node ~parent ~threshold ~lvl () =
    let nil = mk_qnode ~node () in
    {
      tail = M.make ~node ~name:"hmcst.tail" nil;
      nil;
      parent;
      for_parent = mk_qnode ~node ();
      threshold;
      home = node;
      lvl;
    }

  let create ?(h = 128) ~topo ~hierarchy () =
    (match Topology.validate_hierarchy topo hierarchy with
    | Ok () -> ()
    | Error msg -> invalid_arg ("Hmcs_t.create: " ^ msg));
    (* build outermost-first so children can link to parents *)
    let rec build levels =
      match levels with
      | [] -> invalid_arg "Hmcs_t.create: empty hierarchy"
      | [ Level.System ] ->
          let root = mk_hnode ~node:0 ~parent:None ~threshold:h ~lvl:0 () in
          ([| root |], Level.System)
      | lvl :: rest ->
          let parents, parent_level = build rest in
          let ncoh = Topology.ncohorts topo lvl in
          let node_at i =
            let cpu = Topology.first_cpu topo lvl i in
            ( Topology.cohort_of topo Level.Numa_node cpu,
              parents.(Topology.cohort_of topo parent_level cpu) )
          in
          let mk i =
            let node, parent = node_at i in
            mk_hnode ~node ~parent:(Some parent) ~threshold:h
              ~lvl:(parent.lvl + 1) ()
          in
          (Array.init ncoh mk, lvl)
    in
    let leaves, level = build hierarchy in
    { leaves; level; topo }

  let ctx_create t ~cpu =
    let cohort = Topology.cohort_of t.topo t.level cpu in
    let node = Topology.cohort_of t.topo Level.Numa_node cpu in
    {
      leaf = t.leaves.(cohort);
      home = node;
      me = mk_qnode ~node ();
      sink = Sink.null;
    }

  let set_sink ctx sink = ctx.sink <- sink

  (* ---------- blocking path ---------- *)

  (* Identical to HMCS except that waiters are granted by CAS: a
     blocking waiter never abandons, so grants to it always succeed. *)
  let rec acquire_hnode h me =
    M.store ~o:Relaxed me.status wait;
    M.store ~o:Relaxed me.next None;
    let prev = M.exchange h.tail me in
    if prev != h.nil then begin
      M.store ~o:Release prev.next (Some me);
      let s = M.await me.status (fun s -> s <> wait) in
      if s = acquire_parent then begin
        go_parent h;
        M.store ~o:Relaxed me.status 1
      end
      (* else s >= 1: lock passed within the cohort *)
    end
    else begin
      go_parent h;
      M.store ~o:Relaxed me.status 1
    end

  and go_parent h =
    match h.parent with
    | None -> ()
    | Some p -> acquire_hnode p h.for_parent

  (* ---------- release ---------- *)

  (* Grant [acquire_parent] to the first live node starting at
     candidate [n], skipping abandoned ones; free the level when the
     chain runs out at the tail. Callers guarantee anything above [h]
     is either already released or never was owned (relinquish). *)
  let rec grant_global sink h n =
    if M.cas n.status ~expected:wait ~desired:acquire_parent then
      Sink.handover sink ~level:h.lvl ~local:false
    else drain_global sink h n

  (* [n] is abandoned (or our own head node): move past it. *)
  and drain_global sink h n =
    match M.load ~o:Acquire n.next with
    | Some succ -> grant_global sink h succ
    | None ->
        if M.cas h.tail ~expected:n ~desired:h.nil then ()
        else begin
          (* a successor is between the exchange and linking itself *)
          match M.await n.next (fun s -> s <> None) with
          | Some succ -> grant_global sink h succ
          | None -> assert false
        end

  let rec release_hnode sink h me =
    let count = M.load ~o:Relaxed me.status in
    let release_up () =
      match h.parent with
      | None -> ()
      | Some p -> release_hnode sink p h.for_parent
    in
    if count < h.threshold then begin
      (* pass within the cohort, skipping abandoned nodes *)
      let rec pass_local n =
        match M.load ~o:Acquire n.next with
        | Some succ ->
            if M.cas succ.status ~expected:wait ~desired:(count + 1)
            then begin
              Sink.keep_local sink ~level:h.lvl ~kept:true;
              Sink.handover sink ~level:h.lvl ~local:true
            end
            else pass_local succ
        | None ->
            (* no live local successor in sight: release upward, then
               free the level or hand a late arrival to the parent *)
            release_up ();
            if M.cas h.tail ~expected:n ~desired:h.nil then
              Sink.handover sink ~level:h.lvl ~local:false
            else begin
              match M.await n.next (fun s -> s <> None) with
              | Some succ -> grant_global sink h succ
              | None -> assert false
            end
      in
      pass_local me
    end
    else begin
      (* threshold reached: force the lock up the tree *)
      release_up ();
      match M.load ~o:Acquire me.next with
      | Some succ ->
          Sink.keep_local sink ~level:h.lvl ~kept:false;
          grant_global sink h succ
      | None ->
          if M.cas h.tail ~expected:me ~desired:h.nil then
            Sink.handover sink ~level:h.lvl ~local:false
          else begin
            match M.await me.next (fun s -> s <> None) with
            | Some succ ->
                Sink.keep_local sink ~level:h.lvl ~kept:false;
                grant_global sink h succ
            | None -> assert false
          end
    end

  let acquire _t ctx = acquire_hnode ctx.leaf ctx.me
  let release _t ctx = release_hnode ctx.sink ctx.leaf ctx.me

  (* ---------- timed path ---------- *)

  (* Hand level [h] (which we own, with nothing owned above it) to a
     live successor — who must climb the parent itself — or free it. *)
  let relinquish sink h me = drain_global sink h me

  (* [try_acquire_hnode] returns [true] iff on return we own [h] and
     every level above it. On [false], nothing is owned at [h] or
     above: a timed-out waiter either abandoned its node in place
     (marked, replaced through [replace]) or — when a grant beat its
     abandon CAS, the inherited-lock case — relinquished what it was
     handed before unwinding. Each level cleans up its own ownership,
     which is the induction the composition-level contract mirrors
     (see {!Clof_core.Compose}). *)
  let rec try_acquire_hnode sink h me ~deadline ~replace =
    M.store ~o:Relaxed me.status wait;
    M.store ~o:Relaxed me.next None;
    let prev = M.exchange h.tail me in
    if prev == h.nil then climb sink h me ~deadline
    else begin
      M.store ~o:Release prev.next (Some me);
      match M.await_until me.status ~deadline (fun s -> s <> wait) with
      | Some s when s >= 1 -> true
      | Some _ (* acquire_parent *) ->
          if M.now () < deadline then climb sink h me ~deadline
          else begin
            (* inherited [h] with no time left: relinquish it *)
            Sink.abort sink ~level:h.lvl;
            relinquish sink h me;
            false
          end
      | None -> (
          if M.cas me.status ~expected:wait ~desired:abandoned then begin
            (* The node stays in the queue, marked; the next release
               walk to reach it skips it. A fresh node keeps the
               context immediately reusable without touching the
               queue. *)
            replace ();
            Sink.abort sink ~level:h.lvl;
            false
          end
          else
            (* a grant won the race against our abandonment: we hold
               inherited levels past the deadline and must relinquish
               them on the way out *)
            match M.load ~o:Relaxed me.status with
            | s when s >= 1 ->
                (* local pass: we inherited [h] and everything above;
                   unwind with a normal release *)
                Sink.abort sink ~level:h.lvl;
                release_hnode sink h me;
                false
            | _ (* acquire_parent *) ->
                Sink.abort sink ~level:h.lvl;
                relinquish sink h me;
                false)
    end

  (* We own [h]; extend ownership to the root or unwind. *)
  and climb sink h me ~deadline =
    if try_go_parent sink h ~deadline then begin
      M.store ~o:Relaxed me.status 1;
      true
    end
    else begin
      (* the parent levels already cleaned themselves up; hand [h] to
         a successor or free it (abort was recorded where time ran
         out) *)
      relinquish sink h me;
      false
    end

  and try_go_parent sink h ~deadline =
    match h.parent with
    | None -> true
    | Some p ->
        try_acquire_hnode sink p h.for_parent ~deadline ~replace:(fun () ->
            h.for_parent <- mk_qnode ~node:h.home ())

  let try_acquire _t ctx ~deadline =
    try_acquire_hnode ctx.sink ctx.leaf ctx.me ~deadline
      ~replace:(fun () -> ctx.me <- mk_qnode ~node:ctx.home ())

  (* true abort: timed abandonment at every tree level *)
  let spec ?h ~hierarchy () =
    Clof_core.Runtime.make ~set_sink
      ~name:(Printf.sprintf "hmcst<%d>" (List.length hierarchy))
      ~fair:true ~abortable:true
      ~ctx:(fun _ -> ctx_create)
      ~acquire ~release ~try_acquire
      (fun topo -> create ?h ~topo ~hierarchy ())
end
