type 'a aref = {
  name : string;
  id : int; (* dependence-tracking label, unique per location *)
  read : Vstate.access; (* a pure read of it: one value for every load *)
  write : Vstate.access; (* a commit to it alone *)
  rmw : Vstate.access; (* a read and a commit of it alone *)
  insert : Vstate.access; (* a store to it into the store buffer *)
  mutable v : 'a; (* committed, globally visible value *)
  mutable ver : int; (* bumped at every commit: the LL/SC reservation *)
  mutable pend : (int * 'a) list; (* buffered stores: (tid, value), newest first *)
}

let make ?(name = "ref") v =
  let id = Vstate.new_obj () in
  let ids = [ id ] in
  let read = { Vstate.no_access with reads = ids } in
  let write = { Vstate.no_access with writes = ids } in
  let rmw = { Vstate.no_access with reads = ids; writes = ids } in
  let insert = { Vstate.no_access with inserts = ids } in
  { name; id; read; write; rmw; insert; v; ver = 0; pend = [] }

type anchor = unit

let anchor _ = ()
let make_on () ?(name = "ref") v = make ~name v
let committed r = r.v

(* TSO: a thread sees its own buffered stores (store-to-load
   forwarding), otherwise the committed value. *)
let rec find_pend tid v = function
  | [] -> v
  | (t, x) :: rest -> if Int.equal t tid then x else find_pend tid v rest

let visible_as tid r = find_pend tid r.v r.pend

(* Suspend at a scheduling point, declaring what the operation will
   touch when it is resumed. The access is computed *now*, before the
   suspension: between now and the resumption only this thread's own
   flushes can run ahead of it, which shrinks the store buffer — so an
   access that includes the current buffer contents over-approximates
   the executed one, which is the sound direction for DPOR. *)
let point run verb name access =
  Vstate.suspend run Vstate.Ready verb name access

let own_buffer (run : Vstate.run) = run.threads.(run.running).Vstate.buffer

(* Objects with stores sitting in a store buffer, newest first: an
   operation that drains its thread's buffer (RMW, fence, SC store)
   commits all of them. *)
let buffered_objs buffer =
  Queue.fold (fun acc (b : Vstate.buffered) -> b.b_obj :: acc) [] buffer

let drain_own_buffer run =
  let buffer = own_buffer run in
  Queue.iter (fun (b : Vstate.buffered) -> b.b_commit ()) buffer;
  Queue.clear buffer

let commit run r v =
  r.v <- v;
  r.ver <- r.ver + 1;
  Vstate.bump_writes run

let commit_direct run r v =
  drain_own_buffer run;
  commit run r v

let rec has_tid tid = function
  | [] -> false
  | (t, _) :: rest -> Int.equal t tid || has_tid tid rest

(* [pend] without its oldest (deepest) entry by [tid] *)
let rec drop_oldest tid = function
  | [] -> []
  | ((t, _) as e) :: rest ->
      if Int.equal t tid && not (has_tid tid rest) then rest
      else e :: drop_oldest tid rest

let buffered_store (run : Vstate.run) r v =
  let tid = run.running in
  r.pend <- (tid, v) :: r.pend;
  let b_commit () =
    commit run r v;
    (* commits are FIFO per thread per location ([pend] is one
       location), so retire this thread's oldest entry *)
    r.pend <- drop_oldest tid r.pend
  in
  Queue.add
    { Vstate.b_name = r.name; b_obj = r.id; b_flush = r.write; b_commit }
    (own_buffer run)

let load ?o:_ r =
  let run = Vstate.the_run () in
  point run "load " r.name r.read;
  visible_as run.running r

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
      let buffer = own_buffer run in
      point run "store " r.name
        (if Queue.is_empty buffer then r.write
         else { Vstate.no_access with writes = r.id :: buffered_objs buffer });
      commit_direct run r v
  | Vstate.Tso, (Relaxed | Acquire | Release)
  | Vstate.Relaxed, (Relaxed | Acquire) ->
      point run "store " r.name r.insert;
      buffered_store run r v

(* RMWs read the committed value and commit: they both read and write
   their object, and drain the store buffer first (TSO RMWs are
   fenced), so every buffered object counts as written too. *)
let rmw_access run r =
  let buffer = own_buffer run in
  if Queue.is_empty buffer then r.rmw
  else { r.rmw with writes = r.id :: buffered_objs buffer }

let cas r ~expected ~desired =
  let run = Vstate.the_run () in
  match run.mode with
  | Vstate.Sc | Vstate.Tso ->
      point run "cas " r.name (rmw_access run r);
      drain_own_buffer run;
      if r.v == expected then begin
        commit run r desired;
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
      point run "ll " r.name r.read;
      let reservation = r.ver in
      point run "sc " r.name (rmw_access run r);
      drain_own_buffer run;
      if r.ver = reservation && r.v == expected then begin
        commit run r desired;
        true
      end
      else false

(* Exchange and fetch-add stay single-point in every mode: they model
   Armv8.1 AMO instructions (swp/ldadd), which are single-copy atomic
   with no reservation to lose. *)
let exchange r v =
  let run = Vstate.the_run () in
  point run "xchg " r.name (rmw_access run r);
  drain_own_buffer run;
  let old = r.v in
  commit run r v;
  old

let fetch_add r n =
  let run = Vstate.the_run () in
  point run "faa " r.name (rmw_access run r);
  drain_own_buffer run;
  let old = r.v in
  commit run r (old + n);
  old

let await ?rmw:_ r pred =
  let run = Vstate.the_run () in
  let tid = run.running in
  let th = run.threads.(tid) in
  th.pred <- (fun () -> pred (visible_as tid r));
  let rec go () =
    Vstate.suspend run Vstate.Waiting "await " r.name r.read;
    let v = visible_as tid r in
    if pred v then v else go ()
  in
  go ()

let fence () =
  let run = Vstate.the_run () in
  let buffer = own_buffer run in
  point run "fence" ""
    (if Queue.is_empty buffer then Vstate.no_access
     else { Vstate.no_access with writes = buffered_objs buffer });
  drain_own_buffer run

let pause () =
  let run = Vstate.the_run () in
  run.threads.(run.running).snap <- run.writes;
  Vstate.suspend run Vstate.Paused "pause" "" Vstate.pause_access

(* Virtual time under the checker is the thread's own step count: it is
   monotone and advances at every scheduling point, so bounded polling
   loops (ticket/TAS [try_acquire]) terminate on every schedule. *)
let now () =
  let run = Vstate.the_run () in
  run.threads.(run.running).steps

(* A timed wait is modelled as an always-enabled scheduling point: the
   scheduler may resume the thread at any moment, and the resumption
   observes either a state satisfying [pred] (the wake won) or not (the
   timeout fired first). Exhaustive exploration therefore covers every
   interleaving of "waiter times out" against "holder hands over",
   including the race in the same step window — the [deadline] value
   itself is irrelevant to which schedules exist. *)
let await_until ?rmw:_ r ~deadline:_ pred =
  let run = Vstate.the_run () in
  point run "tryawait " r.name r.read;
  let v = visible_as run.running r in
  if pred v then Some v else None
