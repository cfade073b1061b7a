module Make (M : Clof_atomics.Memory_intf.S) = struct
  module Sink = Clof_stats.Stats.Sink

  (* like CNA, a two-level NUMA/system lock: level 1 in the report *)
  let stats_level = 1

  type qnode = {
    head_waiter : bool M.aref;  (* token passed down the queue *)
    next : qnode option M.aref;
    mutable numa : int;
  }

  type t = {
    glock : bool M.aref;
    tail : qnode M.aref;
    nil : qnode;
    scan : int;
  }

  type ctx = { me : qnode; mutable sink : Sink.t }

  let mk_qnode ?node () =
    let head_waiter = M.make ?node ~name:"shfl.head" false in
    {
      head_waiter;
      next = M.colocated head_waiter ~name:"shfl.next" None;
      numa = -1;
    }

  let create ?(scan = 8) () =
    let nil = mk_qnode () in
    {
      glock = M.make ~name:"shfl.glock" false;
      tail = M.make ~name:"shfl.tail" nil;
      nil;
      scan;
    }

  let ctx_create _t ~numa =
    let me = mk_qnode ~node:numa () in
    me.numa <- numa;
    { me; sink = Sink.null }

  let set_sink ctx sink = ctx.sink <- sink

  (* Head-waiter shuffle: scan a bounded window behind us and move the
     first fully-linked waiter from our NUMA node to be our immediate
     successor. Only the head waiter mutates queue links, so the relink
     is single-writer. *)
  let shuffle t n =
    let rec scan prev cur fuel =
      if fuel = 0 then ()
      else if cur.numa = n.numa then begin
        if prev != n then begin
          match M.load ~o:Acquire cur.next with
          | None -> () (* last node; moving it would race the tail *)
          | Some after ->
              M.store ~o:Release prev.next (Some after);
              M.store ~o:Release cur.next (M.load ~o:Acquire n.next);
              M.store ~o:Release n.next (Some cur)
        end
      end
      else
        match M.load ~o:Acquire cur.next with
        | Some nx -> scan cur nx (fuel - 1)
        | None -> ()
    in
    match M.load ~o:Acquire n.next with
    | Some first -> scan n first t.scan
    | None -> ()

  let pass_head_token sink t n =
    let token succ =
      Sink.handover sink ~level:stats_level
        ~local:(succ.numa = n.numa);
      M.store ~o:Release succ.head_waiter true
    in
    match M.load ~o:Acquire n.next with
    | Some succ -> token succ
    | None ->
        if M.cas t.tail ~expected:n ~desired:t.nil then ()
        else begin
          match M.await n.next (fun s -> s <> None) with
          | Some succ -> token succ
          | None -> assert false
        end

  let acquire t ctx =
    (* fast path: uncontended TAS *)
    if M.cas t.glock ~expected:false ~desired:true then
      Sink.fast_path ctx.sink
    else begin
      Sink.contended ctx.sink;
      let n = ctx.me in
      M.store ~o:Relaxed n.head_waiter false;
      M.store ~o:Relaxed n.next None;
      let prev = M.exchange t.tail n in
      if prev != t.nil then begin
        M.store ~o:Release prev.next (Some n);
        ignore (M.await n.head_waiter (fun h -> h))
      end;
      (* we are the head waiter: shuffle, then take the TAS word *)
      shuffle t n;
      let rec take () =
        ignore (M.await t.glock (fun g -> not g));
        if not (M.cas t.glock ~expected:false ~desired:true) then begin
          Sink.spin ctx.sink 1;
          take ()
        end
      in
      take ();
      pass_head_token ctx.sink t n
    end

  let release t _ctx = M.store ~o:Release t.glock false

  (* shuffling reorders the queue by NUMA proximity; blocking fallback:
     acquisition cannot be abandoned *)
  let spec ?scan () =
    Clof_core.Runtime.make ~set_sink ~name:"shfl" ~fair:false ~abortable:false
      ~ctx:(fun topo t ~cpu ->
        ctx_create t
          ~numa:
            (Clof_topology.Topology.cohort_of topo
               Clof_topology.Level.Numa_node cpu))
      ~acquire ~release
      ~try_acquire:(Clof_core.Runtime.blocking acquire)
      (fun _ -> create ?scan ())
end
