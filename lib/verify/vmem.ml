type 'a aref = {
  name : string;
  id : int; (* dependence-tracking label, unique per location *)
  read : Vstate.access; (* a pure read of it: one value for every load *)
  mutable v : 'a; (* committed, globally visible value *)
  mutable ver : int; (* bumped at every commit: the LL/SC reservation *)
  mutable pend : (int * 'a) list; (* buffered stores: (tid, value), newest first *)
}

let make ?node:_ ?(name = "ref") v =
  let id = Vstate.new_obj () in
  let read = { Vstate.no_access with reads = [ id ] } in
  { name; id; read; v; ver = 0; pend = [] }

type anchor = unit

let anchor _ = ()
let make_on () ?(name = "ref") v = make ~name v
let committed r = r.v

(* TSO: a thread sees its own buffered stores (store-to-load
   forwarding), otherwise the committed value. *)
let visible_as tid r =
  let rec find = function
    | [] -> r.v
    | (t, v) :: rest -> if t = tid then v else find rest
  in
  find r.pend

let visible r = visible_as (Vstate.get_tid ()) r

(* Suspend at a scheduling point, declaring what the operation will
   touch when it is resumed. The access is computed *now*, before the
   suspension: between now and the resumption only this thread's own
   flushes can run ahead of it, which shrinks the store buffer — so an
   access that includes the current buffer contents over-approximates
   the executed one, which is the sound direction for DPOR. *)
let point verb name access = Effect.perform (Vstate.Op (verb, name, access))

let my_thread () =
  let run = Vstate.the_run () in
  run.threads.(Vstate.get_tid ())

(* Objects with stores sitting in this thread's buffer: an operation
   that drains the buffer (RMW, fence, SC store) commits all of them. *)
let own_buffer_objs () =
  match Vstate.get_current () with
  | None -> []
  | Some run ->
      let tid = Vstate.get_tid () in
      if tid < 0 || tid >= Array.length run.threads then []
      else
        let buffer = run.threads.(tid).Vstate.buffer in
        if Queue.is_empty buffer then []
        else Queue.fold (fun acc (_, obj, _) -> obj :: acc) [] buffer

let drain_own_buffer () =
  let th = my_thread () in
  Queue.iter (fun (_, _, commit) -> commit ()) th.buffer;
  Queue.clear th.buffer

let commit_direct r v =
  drain_own_buffer ();
  r.v <- v;
  r.ver <- r.ver + 1;
  Vstate.bump_writes ()

let buffered_store r v =
  let tid = Vstate.get_tid () in
  let th = my_thread () in
  r.pend <- (tid, v) :: r.pend;
  let commit () =
    r.v <- v;
    r.ver <- r.ver + 1;
    Vstate.bump_writes ();
    (* commits are FIFO per thread per location ([pend] is one
       location), so retire this thread's oldest (deepest) entry —
       [pend] is newest-first *)
    let rec drop_oldest = function
      | [] -> ([], false)
      | ((t, _) as e) :: rest ->
          let rest', removed = drop_oldest rest in
          if removed then (e :: rest', true)
          else if t = tid then (rest', true)
          else (e :: rest', false)
    in
    r.pend <- fst (drop_oldest r.pend)
  in
  Queue.add (r.name, r.id, commit) th.buffer

let load ?o:_ r =
  point "load " r.name r.read;
  visible r

let store ?(o = Clof_atomics.Memory_order.Seq_cst) ?rmw:_ r v =
  let run = Vstate.the_run () in
  match (run.mode, o) with
  | Vstate.Sc, _
  | (Vstate.Tso | Vstate.Relaxed), Clof_atomics.Memory_order.Seq_cst
  (* a release store commits after every earlier store of its thread:
     modeled as drain-and-commit at the program point. This is slightly
     stronger than Armv8 stlr (which may still be delayed past *later*
     relaxed stores); see DESIGN.md. Under TSO the buffer is FIFO so
     plain buffering already preserves release ordering. *)
  | Vstate.Relaxed, Release ->
      point "store " r.name
        { Vstate.no_access with writes = r.id :: own_buffer_objs () };
      commit_direct r v
  | Vstate.Tso, (Relaxed | Acquire | Release)
  | Vstate.Relaxed, (Relaxed | Acquire) ->
      point "store " r.name { Vstate.no_access with inserts = [ r.id ] };
      buffered_store r v

(* RMWs read the committed value and commit: they both read and write
   their object, and drain the store buffer first (TSO RMWs are
   fenced), so every buffered object counts as written too. *)
let rmw_access r =
  { Vstate.no_access with reads = [ r.id ]; writes = r.id :: own_buffer_objs () }

let cas r ~expected ~desired =
  let run = Vstate.the_run () in
  match run.Vstate.mode with
  | Vstate.Sc | Vstate.Tso ->
      point "cas " r.name (rmw_access r);
      drain_own_buffer ();
      if r.v == expected then begin
        r.v <- desired;
        r.ver <- r.ver + 1;
        Vstate.bump_writes ();
        true
      end
      else false
  | Vstate.Relaxed ->
      (* LL/SC: the load-exclusive takes a reservation on the location;
         the store-exclusive is a separate scheduling point and fails —
         even on a matching value — if any commit to the location
         happened in between (including this thread's own drained
         stores). Exploration thus covers Armv8 spurious SC failures,
         bounded by the schedule space. *)
      point "ll " r.name r.read;
      let reservation = r.ver in
      point "sc " r.name (rmw_access r);
      drain_own_buffer ();
      if r.ver = reservation && r.v == expected then begin
        r.v <- desired;
        r.ver <- r.ver + 1;
        Vstate.bump_writes ();
        true
      end
      else false

(* Exchange and fetch-add stay single-point in every mode: they model
   Armv8.1 AMO instructions (swp/ldadd), which are single-copy atomic
   with no reservation to lose. *)
let exchange r v =
  point "xchg " r.name (rmw_access r);
  drain_own_buffer ();
  let old = r.v in
  r.v <- v;
  r.ver <- r.ver + 1;
  Vstate.bump_writes ();
  old

let fetch_add r n =
  point "faa " r.name (rmw_access r);
  drain_own_buffer ();
  let old = r.v in
  r.v <- old + n;
  r.ver <- r.ver + 1;
  Vstate.bump_writes ();
  old

let await ?rmw:_ r pred =
  let tid = Vstate.get_tid () in
  let enabled () = pred (visible_as tid r) in
  let rec go () =
    Effect.perform (Vstate.Await_op ("await ", r.name, r.read, enabled));
    let v = visible r in
    if pred v then v else go ()
  in
  go ()

let fence () =
  point "fence" "" { Vstate.no_access with writes = own_buffer_objs () };
  drain_own_buffer ()

let pause () = Effect.perform Vstate.Pause_op

(* Virtual time under the checker is the thread's own step count: it is
   monotone and advances at every scheduling point, so bounded polling
   loops (ticket/TAS [try_acquire]) terminate on every schedule. *)
let now () = (my_thread ()).Vstate.steps

(* A timed wait is modelled as an always-enabled scheduling point: the
   scheduler may resume the thread at any moment, and the resumption
   observes either a state satisfying [pred] (the wake won) or not (the
   timeout fired first). Exhaustive exploration therefore covers every
   interleaving of "waiter times out" against "holder hands over",
   including the race in the same step window — the [deadline] value
   itself is irrelevant to which schedules exist. *)
let await_until ?rmw:_ r ~deadline:_ pred =
  Effect.perform
    (Vstate.Await_op
       ("tryawait ", r.name, r.read, fun () -> true));
  let v = visible r in
  if pred v then Some v else None
