open Clof_topology

module Make (M : Clof_atomics.Memory_intf.S) = struct
  module Sink = Clof_stats.Stats.Sink

  (* status values *)
  let wait = -1
  let acquire_parent = -2

  type qnode = { status : int M.aref; next : qnode option M.aref }

  type hnode = {
    tail : qnode M.aref;
    nil : qnode;
    parent : hnode option;
    for_parent : qnode;  (* this node's queue node in the parent *)
    threshold : int;
    lvl : int;  (* distance from the root, for observability *)
  }

  type t = { leaves : hnode array; level : Level.t; topo : Topology.t }
  type ctx = { leaf : hnode; me : qnode; mutable sink : Sink.t }

  let mk_qnode ?node () =
    let status = M.make ?node ~name:"hmcs.status" wait in
    { status; next = M.colocated status ~name:"hmcs.next" None }

  let mk_hnode ?node ~parent ~threshold ~lvl () =
    let nil = mk_qnode ?node () in
    {
      tail = M.make ?node ~name:"hmcs.tail" nil;
      nil;
      parent;
      for_parent = mk_qnode ?node ();
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
    { leaf = t.leaves.(cohort); me = mk_qnode ~node (); sink = Sink.null }

  let set_sink ctx sink = ctx.sink <- sink

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

  let rec release_hnode sink h me =
    let count = M.load ~o:Relaxed me.status in
    let pass_local succ =
      Sink.keep_local sink ~level:h.lvl ~kept:true;
      Sink.handover sink ~level:h.lvl ~local:true;
      M.store ~o:Release succ.status (count + 1)
    in
    let pass_global succ =
      Sink.handover sink ~level:h.lvl ~local:false;
      M.store ~o:Release succ.status acquire_parent
    in
    let release_up () =
      match h.parent with
      | None -> ()
      | Some p -> release_hnode sink p h.for_parent
    in
    if count < h.threshold then begin
      match M.load ~o:Acquire me.next with
      | Some succ -> pass_local succ
      | None ->
          release_up ();
          if M.cas h.tail ~expected:me ~desired:h.nil then
            Sink.handover sink ~level:h.lvl ~local:false
          else begin
            let succ = M.await me.next (fun s -> s <> None) in
            match succ with
            | Some s -> pass_global s
            | None -> assert false
          end
    end
    else begin
      (* threshold reached: force the lock up the tree *)
      release_up ();
      match M.load ~o:Acquire me.next with
      | Some succ ->
          Sink.keep_local sink ~level:h.lvl ~kept:false;
          pass_global succ
      | None ->
          if M.cas h.tail ~expected:me ~desired:h.nil then
            Sink.handover sink ~level:h.lvl ~local:false
          else begin
            let succ = M.await me.next (fun s -> s <> None) in
            match succ with
            | Some s ->
                Sink.keep_local sink ~level:h.lvl ~kept:false;
                pass_global s
            | None -> assert false
          end
    end

  let acquire _t ctx = acquire_hnode ctx.leaf ctx.me
  let release _t ctx = release_hnode ctx.sink ctx.leaf ctx.me

  (* blocking fallback: acquisition cannot be abandoned — Hmcs_t is the
     timed variant *)
  let spec ?h ~hierarchy () =
    Clof_core.Runtime.make ~set_sink
      ~name:(Printf.sprintf "hmcs<%d>" (List.length hierarchy))
      ~fair:true ~abortable:false
      ~ctx:(fun _ -> ctx_create)
      ~acquire ~release
      ~try_acquire:(Clof_core.Runtime.blocking acquire)
      (fun topo -> create ?h ~topo ~hierarchy ())
end
