type 'a aref = { mutable v : 'a; l : Line.t }

let make ?node ?(name = "ref") v =
  { v; l = Line.fresh ?node ~name ~ncpus:Line.max_cpus () }

let colocated other ?name:_ v = { v; l = other.l }

type anchor = Line.t

let anchor r = r.l
let make_on l ?name:_ v = { v; l }

let line r = r.l
let peek r = r.v
let poke r v = r.v <- v

let load ?o:_ r =
  Engine.access r.l Engine.Load;
  r.v

(* The eight store descriptors, made once: building [Store {rmw;
   order}] per store allocated three words on the hot path. *)
let store_descs =
  let orders =
    Clof_atomics.Memory_order.[ Relaxed; Acquire; Release; Seq_cst ]
  in
  Array.of_list
    (List.concat_map
       (fun rmw -> List.map (fun order -> Engine.Store { rmw; order }) orders)
       [ false; true ])

let store_desc ~rmw (o : Clof_atomics.Memory_order.t) =
  let i =
    match o with Relaxed -> 0 | Acquire -> 1 | Release -> 2 | Seq_cst -> 3
  in
  Array.unsafe_get store_descs (if rmw then i + 4 else i)

(* Value updates happen before the engine event so that watcher
   predicates evaluated during wake-up observe the new value. *)
let store ?(o = Clof_atomics.Memory_order.Seq_cst) ?(rmw = false) r v =
  r.v <- v;
  Engine.access r.l (store_desc ~rmw o)

let cas r ~expected ~desired =
  if r.v == expected then begin
    r.v <- desired;
    Engine.access r.l (Engine.Rmw { wrote = true });
    true
  end
  else begin
    Engine.access r.l (Engine.Rmw { wrote = false });
    false
  end

let exchange r v =
  let old = r.v in
  r.v <- v;
  Engine.access r.l (Engine.Rmw { wrote = true });
  old

let fetch_add r n =
  let old = r.v in
  r.v <- old + n;
  Engine.access r.l (Engine.Rmw { wrote = true });
  old

let await ?(rmw = false) r pred =
  (* The engine wakes us when the predicate held at wake time; re-check
     on resumption in case a later write falsified it again. *)
  let rec go () =
    Engine.await_line r.l ~rmw (fun () -> pred r.v);
    let v = r.v in
    if pred v then v else go ()
  in
  go ()

let fence () = Engine.fence ()
let pause () = Engine.pause ()
let now () = Engine.now ()

let await_until ?(rmw = false) r ~deadline pred =
  let rec go () =
    if Engine.await_line_until r.l ~rmw ~deadline (fun () -> pred r.v)
    then begin
      let v = r.v in
      if pred v then Some v else go ()
    end
    else
      (* Timed out. A final re-check mirrors [await]'s re-check on
         resumption: if a write satisfied the predicate at the very
         deadline, report success rather than a spurious timeout. *)
      let v = r.v in
      if pred v then Some v else None
  in
  go ()
