open Clof_topology

module Make (M : Clof_atomics.Memory_intf.S) = struct
  module Sink = Clof_stats.Stats.Sink

  (* Status values. A positive count means the lock was passed within
     the cohort; [acquire_parent] tells the new cohort head to
     (re)acquire the parent. The abortable variant adds [abandoned]:
     its grants are CAS-arbitrated ([cas wait -> count]/[cas wait ->
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
           skipped by the release walk) while the cohort keeps a fresh
           node for its next climb. Only the unique owner of this tree
           node touches the field, and ownership transfer is ordered
           by the status-word handover, so the plain field is
           race-free. *)
    threshold : int;
    lvl : int;  (* distance from the root, for observability *)
  }

  type t = { leaves : hnode array; level : Level.t; topo : Topology.t }

  type ctx = {
    leaf : hnode;
    mutable me : qnode;  (* replaced after a leaf-level abandonment *)
    mutable sink : Sink.t;
  }

  let mk_qnode () =
    let status = M.make ~name:"hmcs.status" wait in
    { status; next = M.make_on (M.anchor status) ~name:"hmcs.next" None }

  let mk_hnode ~parent ~threshold ~lvl =
    let nil = mk_qnode () in
    {
      tail = M.make ~name:"hmcs.tail" nil;
      nil;
      parent;
      for_parent = mk_qnode ();
      threshold;
      lvl;
    }

  let create ?(h = 128) ~topo ~hierarchy () =
    (match Topology.validate_hierarchy topo hierarchy with
    | Ok () -> ()
    | Error msg -> invalid_arg ("Hmcs.create: " ^ msg));
    (* build outermost-first so children can link to parents *)
    let rec build levels =
      match levels with
      | [] -> invalid_arg "Hmcs.create: empty hierarchy"
      | [ Level.System ] ->
          let root = mk_hnode ~parent:None ~threshold:h ~lvl:0 in
          ([| root |], Level.System)
      | lvl :: rest ->
          let parents, parent_level = build rest in
          let ncoh = Topology.ncohorts topo lvl in
          let mk i =
            let cpu = Topology.first_cpu topo lvl i in
            let parent = parents.(Topology.cohort_of topo parent_level cpu) in
            mk_hnode ~parent:(Some parent) ~threshold:h ~lvl:(parent.lvl + 1)
          in
          (Array.init ncoh mk, lvl)
    in
    let leaves, level = build hierarchy in
    { leaves; level; topo }

  let ctx_create t ~cpu =
    let cohort = Topology.cohort_of t.topo t.level cpu in
    { leaf = t.leaves.(cohort); me = mk_qnode (); sink = Sink.null }

  let set_sink ctx sink = ctx.sink <- sink

  (* ---------- blocking climb (both variants) ---------- *)

  (* A blocking waiter never abandons, so a CAS grant to it always
     succeeds and the climb is the same under either grant. *)
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

  let acquire _t ctx = acquire_hnode ctx.leaf ctx.me

  (* ---------- release walk (both variants) ---------- *)

  (* A grant offers node [n] the status [v] and says whether [n] took
     it. HMCS grants with a Release store, which always lands; HMCS-T
     with [cas wait -> v], which fails on an abandoned node, so the walk
     moves past that node. Under [store_grant] the walk never skips, so
     HMCS issues exactly the memory operations of a plain store walk. *)
  let store_grant n v =
    M.store ~o:Release n.status v;
    true

  let cas_grant n v = M.cas n.status ~expected:wait ~desired:v

  (* a successor is between the exchange and linking itself *)
  let await_successor n =
    match M.await n.next (fun s -> s <> None) with
    | Some s -> s
    | None -> assert false

  (* Grant [acquire_parent] to the first node that takes it, starting at
     candidate [n]; free the level when the chain runs out at the tail.
     Callers guarantee anything above [h] is either already released
     or never was owned (relinquish). *)
  let rec grant_global grant sink h n =
    if grant n acquire_parent then
      Sink.handover sink ~level:h.lvl ~local:false
    else drain_global grant sink h n

  (* [n] is abandoned (or our own head node): move past it. Freeing the
     level here records no handover. *)
  and drain_global grant sink h n =
    match M.load ~o:Acquire n.next with
    | Some succ -> grant_global grant sink h succ
    | None ->
        if not (M.cas h.tail ~expected:n ~desired:h.nil) then
          grant_global grant sink h (await_successor n)

  let rec release_hnode grant sink h me =
    let count = M.load ~o:Relaxed me.status in
    if count < h.threshold then pass_local grant sink h (count + 1) me
    else begin
      (* threshold reached: force the lock up the tree *)
      release_up grant sink h;
      match M.load ~o:Acquire me.next with
      | Some succ ->
          Sink.keep_local sink ~level:h.lvl ~kept:false;
          grant_global grant sink h succ
      | None ->
          if M.cas h.tail ~expected:me ~desired:h.nil then
            Sink.handover sink ~level:h.lvl ~local:false
          else begin
            let succ = await_successor me in
            Sink.keep_local sink ~level:h.lvl ~kept:false;
            grant_global grant sink h succ
          end
    end

  and release_up grant sink h =
    match h.parent with
    | None -> ()
    | Some p -> release_hnode grant sink p h.for_parent

  (* Pass [count] within the cohort to the first successor of [n] that
     takes it. With none in sight, release upward, then free the level
     or hand a late arrival to the parent. *)
  and pass_local grant sink h count n =
    match M.load ~o:Acquire n.next with
    | Some succ ->
        if grant succ count then begin
          Sink.keep_local sink ~level:h.lvl ~kept:true;
          Sink.handover sink ~level:h.lvl ~local:true
        end
        else pass_local grant sink h count succ
    | None ->
        release_up grant sink h;
        if M.cas h.tail ~expected:n ~desired:h.nil then
          Sink.handover sink ~level:h.lvl ~local:false
        else grant_global grant sink h (await_successor n)

  (* ---------- HMCS-T timed path ---------- *)

  (* Hand level [h] (which we own, with nothing owned above it) to a
     live successor — who must climb the parent itself — or free it. *)
  let relinquish sink h me = drain_global cas_grant sink h me

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
                release_hnode cas_grant sink h me;
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
            h.for_parent <- mk_qnode ())

  let try_acquire _t ctx ~deadline =
    try_acquire_hnode ctx.sink ctx.leaf ctx.me ~deadline
      ~replace:(fun () -> ctx.me <- mk_qnode ())

  (* ---------- specs ---------- *)

  let tree_spec ~prefix ~abortable ~grant ~try_acquire ?h ~hierarchy () =
    Clof_core.Runtime.make ~set_sink
      ~name:(Printf.sprintf "%s<%d>" prefix (List.length hierarchy))
      ~fair:true ~abortable
      ~ctx:(fun _ -> ctx_create)
      ~acquire
      ~release:(fun _t ctx -> release_hnode grant ctx.sink ctx.leaf ctx.me)
      ~try_acquire
      (fun topo -> create ?h ~topo ~hierarchy ())

  let spec ?h ~hierarchy () =
    tree_spec ~prefix:"hmcs" ~abortable:false ~grant:store_grant
      ~try_acquire:(Clof_core.Runtime.blocking acquire)
      ?h ~hierarchy ()

  let abortable_spec ?h ~hierarchy () =
    tree_spec ~prefix:"hmcst" ~abortable:true ~grant:cas_grant ~try_acquire
      ?h ~hierarchy ()
end
