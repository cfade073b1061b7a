module Make (M : Clof_atomics.Memory_intf.S) = struct
  module Sink = Clof_stats.Stats.Sink

  (* CNA is a two-level NUMA/system lock: record its pass decisions at
     level 1, matching the NUMA level of a 2-level lock tree *)
  let stats_level = 1

  type msg =
    | Wait
    | Go of {
        sec_head : qnode option;
        sec_tail : qnode option;
        budget : int;
      }

  and qnode = {
    spin : msg M.aref;
    next : qnode option M.aref;
    mutable numa : int;
  }

  type t = { tail : qnode M.aref; nil : qnode; budget_init : int }

  type ctx = {
    me : qnode;
    mutable sec_head : qnode option;
    mutable sec_tail : qnode option;
    mutable budget : int;
    mutable sink : Sink.t;
  }

  let mk_qnode ?node () =
    let spin = M.make ?node ~name:"cna.spin" Wait in
    { spin; next = M.colocated spin ~name:"cna.next" None; numa = -1 }

  let create ?(h = 128) () =
    let nil = mk_qnode () in
    { tail = M.make ~name:"cna.tail" nil; nil; budget_init = h }

  let ctx_create _t ~numa =
    let me = mk_qnode ~node:numa () in
    me.numa <- numa;
    { me; sec_head = None; sec_tail = None; budget = 0; sink = Sink.null }

  let set_sink ctx sink = ctx.sink <- sink

  let acquire t ctx =
    let n = ctx.me in
    M.store ~o:Relaxed n.spin Wait;
    M.store ~o:Relaxed n.next None;
    let prev = M.exchange t.tail n in
    if prev != t.nil then begin
      Sink.contended ctx.sink;
      M.store ~o:Release prev.next (Some n);
      match M.await n.spin (fun m -> m <> Wait) with
      | Go g ->
          ctx.sec_head <- g.sec_head;
          ctx.sec_tail <- g.sec_tail;
          ctx.budget <- g.budget
      | Wait -> assert false
    end
    else begin
      Sink.fast_path ctx.sink;
      ctx.sec_head <- None;
      ctx.sec_tail <- None;
      ctx.budget <- t.budget_init
    end

  (* Walk the linked part of the main queue looking for the first waiter
     on [numa]; returns it plus the remote prefix, or None. A node whose
     [next] is not linked yet ends the walk. *)
  let find_local numa first =
    let rec go prefix_rev cur =
      if cur.numa = numa then Some (List.rev prefix_rev, cur)
      else
        match M.load ~o:Acquire cur.next with
        | Some nx -> go (cur :: prefix_rev) nx
        | None -> None
    in
    go [] first

  let last = function
    | [] -> None
    | l -> Some (List.nth l (List.length l - 1))

  (* Move already-linked [prefix] (internal links valid) to the end of
     the secondary queue. *)
  let push_sec ctx prefix =
    match prefix with
    | [] -> ()
    | h :: _ ->
        let tl = Option.get (last prefix) in
        (match ctx.sec_tail with
        | None -> ctx.sec_head <- Some h
        | Some st -> M.store ~o:Release st.next (Some h));
        ctx.sec_tail <- Some tl

  let grant ctx succ ~budget =
    let m =
      Go { sec_head = ctx.sec_head; sec_tail = ctx.sec_tail; budget }
    in
    ctx.sec_head <- None;
    ctx.sec_tail <- None;
    M.store ~o:Release succ.spin m

  (* Splice the secondary queue in front of [first] and hand over to its
     head (or to [first] when there is none); the budget resets because
     the handover leaves the node. *)
  let splice_then_pass t ctx first =
    match ctx.sec_head with
    | None -> grant ctx first ~budget:t.budget_init
    | Some sh ->
        let st = Option.get ctx.sec_tail in
        M.store ~o:Release st.next (Some first);
        ctx.sec_head <- None;
        ctx.sec_tail <- None;
        grant ctx sh ~budget:t.budget_init

  let await_successor n =
    match M.await n.next (fun s -> s <> None) with
    | Some s -> s
    | None -> assert false

  let release t ctx =
    let n = ctx.me in
    match M.load ~o:Acquire n.next with
    | Some first ->
        if ctx.budget > 0 then begin
          match find_local n.numa first with
          | Some (prefix, local_succ) ->
              Sink.keep_local ctx.sink ~level:stats_level ~kept:true;
              Sink.handover ctx.sink ~level:stats_level ~local:true;
              push_sec ctx prefix;
              grant ctx local_succ ~budget:(ctx.budget - 1)
          | None ->
              Sink.handover ctx.sink ~level:stats_level ~local:false;
              splice_then_pass t ctx first
        end
        else begin
          (* pass budget exhausted: the secondary queue must be spliced
             back even though local waiters may remain *)
          Sink.keep_local ctx.sink ~level:stats_level ~kept:false;
          Sink.handover ctx.sink ~level:stats_level ~local:false;
          splice_then_pass t ctx first
        end
    | None -> begin
        match ctx.sec_head with
        | None ->
            if M.cas t.tail ~expected:n ~desired:t.nil then ()
            else begin
              Sink.handover ctx.sink ~level:stats_level ~local:false;
              splice_then_pass t ctx (await_successor n)
            end
        | Some sh ->
            Sink.handover ctx.sink ~level:stats_level ~local:false;
            let st = Option.get ctx.sec_tail in
            M.store ~o:Relaxed st.next None;
            if M.cas t.tail ~expected:n ~desired:st then begin
              ctx.sec_head <- None;
              ctx.sec_tail <- None;
              grant ctx sh ~budget:t.budget_init
            end
            else begin
              (* an enqueuer raced us: chain it behind the secondary *)
              let first = await_successor n in
              M.store ~o:Release st.next (Some first);
              ctx.sec_head <- None;
              ctx.sec_tail <- None;
              grant ctx sh ~budget:t.budget_init
            end
      end

  (* long-term fair only: the secondary queue defers remote waiters for
     a bounded budget; blocking fallback: acquisition cannot be
     abandoned *)
  let spec ?h () =
    Clof_core.Runtime.make ~set_sink ~name:"cna" ~fair:false ~abortable:false
      ~ctx:(fun topo t ~cpu ->
        ctx_create t
          ~numa:
            (Clof_topology.Topology.cohort_of topo
               Clof_topology.Level.Numa_node cpu))
      ~acquire ~release
      ~try_acquire:(Clof_core.Runtime.blocking acquire)
      (fun _ -> create ?h ())
end
