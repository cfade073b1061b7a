open Clof_topology

(* Int-typed: with no flambda and [-opaque] library builds, polymorphic
   [Stdlib.max] is a call to [caml_greaterequal]. *)
let max (a : int) b = if a >= b then a else b

type access =
  | Load
  | Store of { rmw : bool; order : Clof_atomics.Memory_order.t }
  | Rmw of { wrote : bool }

type fault =
  | Stall of { tid : int; at_op : int; ns : int }
  | Crash of { tid : int; at_op : int }
  | Crash_in_cs of { tid : int; after_op : int }

type injected = { i_tid : int; i_op : int; i_time : int; i_kind : string }

type outcome = {
  end_time : int;
  hung : bool;
  aborted : bool;
  blocked : (int * string) list;
  transfers : (Level.proximity * int) list;
  injected : injected list;
  crashed : int list;
  events : int;
}

(* The only points where a thread's fiber suspends. Every operation
   runs directly on the fiber; it yields when another event comes
   first, parks on a line, or dies at a crash fault. *)
type _ Effect.t +=
  | Yield : unit Effect.t
  | Die : 'a Effect.t
  | Park : Line.t * bool * (unit -> bool) * int -> bool Effect.t

type thread = {
  t_id : int;
  t_cpu : int;
  mutable time : int;
  mutable ops : int; (* atomic operations performed (fault anchors) *)
  mutable in_cs : bool; (* between cs_mark true/false (fault anchor) *)
}

(* Watchers form an intrusive chain threaded through [Line.waiters]
   (the [w_next] link lives in the record itself), most recently
   registered first — the same order the old per-line list had. No
   hash lookup per store, no list reallocation per wake, and no stale
   empty table entries accumulating over the run. *)
type watcher = {
  w_thread : thread;
  w_line : Line.t;
  w_pred : unit -> bool;
  w_rmw : bool;
  mutable w_done : bool; (* resumed (wake or timeout); entry is stale *)
  w_continue : bool -> unit; (* true = pred holds, false = timed out *)
  mutable w_next : Line.waiters;
}

type Line.waiters += Watcher of watcher

type cpu_state = { mutable busy_until : int; mutable last : int }

type state = {
  topo : Topology.t;
  costs : Arch.t;
  tcost : int array; (* transfer cost by proximity rank *)
  rings : Rings.t; (* each CPU's peers by proximity rank *)
  duration : int;
  cap : int;
      (* watchdog against livelocks in code under test: a correct
         benchmark drains shortly after [duration]; past [cap] the run
         aborts *)
  q : (unit -> unit) Pqueue.t;
  cpus : cpu_state array;
  mutable watched : Line.t list; (* lines that ever had a watcher *)
  mutable live : int;
  mutable max_time : int;
  mutable events : int; (* executed event-queue entries *)
  mutable miss : bool; (* last [read_cost]/[write_cost] missed locally *)
  mutable occupancy : int; (* line time a store's transfer still holds *)
  hist : int array; (* line transfers by proximity rank *)
  mutable pending_faults : fault list;
  mutable injected : injected list;
  mutable crashed : int list;
  mutable cur : thread; (* the thread whose fiber runs; set at each resume *)
}

(* Charge [cost] ns to [th], serializing green threads that share a CPU
   and charging a context switch when the CPU changes thread. *)
let advance st th cost =
  let c = st.cpus.(th.t_cpu) in
  let start = max th.time c.busy_until in
  let start =
    if c.last <> th.t_id && c.last <> -1 then start + st.costs.ctx_switch
    else start
  in
  th.time <- start + cost;
  c.busy_until <- th.time;
  c.last <- th.t_id;
  if th.time > st.max_time then st.max_time <- th.time

(* Like [advance] but for an access that missed in the local cache
   ([st.miss], set by the cost functions below): coherence transactions
   on one line are serviced one at a time, so the access also queues
   behind the line's service window. *)
let advance_on_line st th (line : Line.t) cost =
  if not st.miss then advance st th cost
  else begin
    let c = st.cpus.(th.t_cpu) in
    let start = max th.time c.busy_until in
    let start =
      if c.last <> th.t_id && c.last <> -1 then start + st.costs.ctx_switch
      else start
    in
    let start = max start line.busy_until in
    th.time <- start + cost;
    c.busy_until <- th.time;
    c.last <- th.t_id;
    line.busy_until <- th.time;
    if th.time > st.max_time then st.max_time <- th.time
  end

let rank_same_system = Level.prox_rank Level.Same_system
let count_transfer st d = st.hist.(d) <- st.hist.(d) + 1

(* Proximity rank of the access: one byte load from the topology's
   dense matrix (the old path walked [Level.all] with a nested rank
   scan per level, on every miss). *)
let prox_rank_to st (line : Line.t) th =
  if line.Line.owner < 0 then rank_same_system
  else Topology.proximity_rank st.topo line.Line.owner th.t_cpu

(* Cost of fetching a line for reading; registers the reader as a
   sharer and sets [st.miss]. *)
let read_cost st th (line : Line.t) =
  if line.owner = th.t_cpu || Cpuset.mem line.sharers th.t_cpu then begin
    st.miss <- false;
    st.costs.l1
  end
  else begin
    let d = prox_rank_to st line th in
    count_transfer st d;
    Cpuset.add line.sharers th.t_cpu;
    st.miss <- true;
    Array.unsafe_get st.tcost d
  end

(* Invalidating remote shared copies costs a coherence round to the
   farthest sharer (requests travel in parallel, the ack round does not
   overlap the store's retirement). The proximity rings find it with a
   few word ANDs, farthest rank first, instead of a rank lookup per
   sharer. *)
let invalidate_cost st th (line : Line.t) =
  Rings.farthest st.rings line.sharers th.t_cpu / 2

(* A write: the store buffer hides the line-transfer latency from the
   writing thread (it retires after the invalidation round), but the
   transfer still occupies the line's service window, which is where the
   handover latency lands on the woken waiter. An RMW cannot be hidden:
   the thread blocks for the full transfer. Returns the thread's cost
   and sets [st.occupancy] and [st.miss]. *)
let write_cost st th (line : Line.t) ~is_rmw ~order =
  let me = th.t_cpu in
  let others = Cpuset.count_except line.sharers me in
  let local = line.owner = me && others = 0 in
  let transfer =
    if line.owner = me then 0
    else begin
      let d = prox_rank_to st line th in
      count_transfer st d;
      Array.unsafe_get st.tcost d
    end
  in
  let upgrade =
    if (not is_rmw) && others > 0 then st.costs.store_upgrade else 0
  in
  let inval = if others > 0 then invalidate_cost st th line else 0 in
  let llsc =
    if is_rmw then
      (line.rmw_watchers * st.costs.llsc_rmw_extra)
      + if line.rmw_watchers > 0 then st.costs.llsc_cas_storm else 0
    else 0
  in
  let barrier =
    match order with
    | Clof_atomics.Memory_order.Seq_cst -> st.costs.sc_fence
    | Relaxed | Acquire | Release -> 0
  in
  line.owner <- me;
  Cpuset.clear line.sharers;
  Cpuset.add line.sharers me;
  line.writes <- line.writes + 1;
  st.occupancy <- (if is_rmw then 0 else transfer);
  st.miss <- not local;
  st.costs.l1 + upgrade + inval + llsc + barrier
  + if is_rmw then transfer else 0

(* ---------- fault injection ----------

   Faults anchor to a thread's n-th atomic operation (accesses and
   await registrations count; pure compute does not). A [Stall] models
   preemption: the thread's clock jumps by [ns] while its CPU stays
   free for siblings. A [Crash] drops the thread's continuation on the
   floor — no unwinding, no cleanup, exactly like a thread dying while
   holding or waiting for a lock. *)

let record_fault st th kind =
  st.injected <-
    { i_tid = th.t_id; i_op = th.ops; i_time = th.time; i_kind = kind }
    :: st.injected

(* Returns [`Crash] when the thread must die at this op. Consumes every
   fault that matches (thread, op index). *)
let check_faults st th =
  match st.pending_faults with
  | [] -> `Run
  | faults ->
      let verdict = ref `Run in
      let remaining =
        List.filter
          (fun f ->
            match f with
            | Stall { tid; at_op; ns } when tid = th.t_id && at_op = th.ops
              ->
                th.time <- th.time + max 0 ns;
                if th.time > st.max_time then st.max_time <- th.time;
                record_fault st th "stall";
                false
            | Crash { tid; at_op } when tid = th.t_id && at_op = th.ops ->
                record_fault st th "crash";
                verdict := `Crash;
                false
            | Crash_in_cs { tid; after_op }
              when tid = th.t_id && th.ops >= after_op && th.in_cs ->
                (* holder crash: fires at the first atomic op past the
                   anchor that lands inside a marked critical section,
                   so the victim deterministically dies holding *)
                record_fault st th "crash-in-cs";
                verdict := `Crash;
                false
            | Stall _ | Crash _ | Crash_in_cs _ -> true)
          faults
      in
      st.pending_faults <- remaining;
      !verdict

(* The thread dies here: its continuation is dropped, never resumed. *)
let kill st th =
  st.live <- st.live - 1;
  st.crashed <- th.t_id :: st.crashed

(* Park [th] on [line] until [pred] holds: register a watcher at the
   head of the line's chain; the line joins the state's watched list the
   first time (end-of-run blocked scan and cleanup walk that list). *)
let park st th (line : Line.t) ~rmw pred w_continue =
  if rmw then line.rmw_watchers <- line.rmw_watchers + 1;
  if not line.enlisted then begin
    line.enlisted <- true;
    st.watched <- line :: st.watched
  end;
  let w =
    {
      w_thread = th;
      w_line = line;
      w_pred = pred;
      w_rmw = rmw;
      w_done = false;
      w_continue;
      w_next = line.waiters;
    }
  in
  line.waiters <- Watcher w;
  w

let unlink (line : Line.t) prev next =
  match prev with
  | Line.No_waiters -> line.waiters <- next
  | Watcher p -> p.w_next <- next
  | _ -> assert false

(* After [writer] wrote to [line]: every watcher lost its copy and
   refetches the line, one at a time through the line's service window —
   k spinners cause k serialized refetches per write, the physics behind
   the collapse of global-spinning locks. Watchers whose predicate now
   holds resume at their refetch slot; those are unlinked in place
   (stale timed-out entries too), kept watchers are untouched. A
   top-level walk from [prev]/[cur], not a local closure, so a store
   that wakes no one allocates nothing here. *)
let rec wake_watchers st (line : Line.t) writer prev cur =
  match cur with
  | Line.No_waiters -> ()
  | Watcher w ->
      let next = w.w_next in
      if w.w_done then begin
        (* already timed out; drop the stale entry *)
        unlink line prev next;
        w.w_next <- Line.No_waiters;
        wake_watchers st line writer prev next
      end
      else begin
        let d =
          Topology.proximity_rank st.topo writer.t_cpu w.w_thread.t_cpu
        in
        count_transfer st d;
        let slot =
          max writer.time line.busy_until + Array.unsafe_get st.tcost d
        in
        line.busy_until <- slot;
        if not w.w_rmw then Cpuset.add line.sharers w.w_thread.t_cpu;
        if w.w_pred () then begin
          w.w_done <- true;
          if w.w_rmw then line.rmw_watchers <- line.rmw_watchers - 1;
          if slot > w.w_thread.time then w.w_thread.time <- slot;
          if w.w_thread.time > st.max_time then
            st.max_time <- w.w_thread.time;
          Pqueue.add st.q w.w_thread.time (fun () -> w.w_continue true);
          unlink line prev next;
          w.w_next <- Line.No_waiters;
          wake_watchers st line writer prev next
        end
        else wake_watchers st line writer cur next
      end
  | _ -> assert false

(* Deadline event for a timed watcher: if the wake did not beat the
   clock, resume the thread with [false] at exactly [deadline]. The
   entry stays chained until the next wake drops it. *)
let fire_timeout st w deadline =
  if not w.w_done then begin
    w.w_done <- true;
    if w.w_rmw then w.w_line.rmw_watchers <- w.w_line.rmw_watchers - 1;
    if deadline > w.w_thread.time then w.w_thread.time <- deadline;
    if w.w_thread.time > st.max_time then st.max_time <- w.w_thread.time;
    w.w_continue false
  end

let handle_access st th line acc =
  st.occupancy <- 0;
  let cost =
    match acc with
    | Load -> read_cost st th line
    | Store { rmw; order } -> write_cost st th line ~is_rmw:rmw ~order
    | Rmw { wrote = true } ->
        write_cost st th line ~is_rmw:true
          ~order:Clof_atomics.Memory_order.Seq_cst
    | Rmw { wrote = false } -> read_cost st th line + st.costs.sc_fence
  in
  advance_on_line st th line cost;
  if st.occupancy > 0 then
    line.busy_until <- max line.busy_until th.time + st.occupancy;
  match acc with
  | Store _ | Rmw { wrote = true } ->
      wake_watchers st line th Line.No_waiters line.waiters
  | Load | Rmw { wrote = false } -> ()

(* One simulation per domain at a time. Domain-local (not a global
   ref) so independent simulations can run concurrently on separate
   domains — the work-pool parallelism of the benchmark harness. The
   operations below find the engine state, and through it the running
   thread, with this key. *)
let instance : state option Domain.DLS.key =
  Domain.DLS.new_key (fun () -> None)

(* Outside a simulation an operation raises what performing an effect
   with no handler raises. *)
let state () =
  match Domain.DLS.get instance with
  | Some st -> st
  | None -> raise (Effect.Unhandled Yield)

(* A dead thread's handler: its continuation is never resumed. *)
let dropped = Some ignore

(* The thread dies at this op boundary, with no unwinding. *)
let die st th =
  kill st th;
  Effect.perform Die

(* The op is done. A thread still strictly earlier than every pending
   event carries on in place, as the next event: the queue would hand
   it straight back (an equal-time entry is older and wins the tie).
   Below the watchdog's cap only, so a livelock still reaches the drain
   loop and aborts. Otherwise the thread yields and its continuation
   goes on the queue. Either way the op counts as one event, so results
   and [events] do not depend on which path ran. *)
let carry_on st th =
  if st.max_time <= st.cap && Pqueue.takes_next st.q th.time then
    st.events <- st.events + 1
  else Effect.perform Yield

(* An await registration counts as an op: the thread either dies at it
   or fetches the line to evaluate its predicate. *)
let await_fetch st th line =
  th.ops <- th.ops + 1;
  match check_faults st th with
  | `Crash -> die st th
  | `Run -> advance_on_line st th line (read_cost st th line)

let spawn st th body =
  (* Handlers made once per thread, so a suspension allocates only the
     closure that resumes it. Every resumption makes [th] the running
     thread again. *)
  let yield =
    Some
      (fun k ->
        Pqueue.add st.q th.time (fun () ->
            st.cur <- th;
            Effect.Deep.continue k ()))
  in
  st.cur <- th;
  Effect.Deep.match_with body th.t_id
    {
      retc = (fun () -> st.live <- st.live - 1);
      exnc = (fun e -> raise e);
      effc =
        (fun (type a) (eff : a Effect.t) :
             ((a, unit) Effect.Deep.continuation -> unit) option ->
          match eff with
          | Yield -> yield
          | Die -> dropped
          | Park (line, rmw, pred, deadline) ->
              Some
                (fun k ->
                  let w =
                    park st th line ~rmw pred (fun ok ->
                        st.cur <- th;
                        Effect.Deep.continue k ok)
                  in
                  (* no deadline, no timer: a timer would resume a
                     thread that must stay blocked, and a wedged run
                     would no longer read [hung] *)
                  if deadline < max_int then
                    Pqueue.add st.q deadline (fun () ->
                        fire_timeout st w deadline))
          | _ -> None);
    }

(* The rings of the last (topology, transfer costs) a run used, per
   domain. Rings are read-only after [Rings.create], so every run on
   one platform shares them instead of rebuilding them (on x86 about
   1 200 words, part of them straight into the major heap, and 20 us:
   the bulk of an empty run's set-up). Topologies are
   immutable: the memo matches one by identity and the cost table by
   value. Domain-local like [instance], so runs on separate domains
   never race on the slot. *)
let rings_memo : (Topology.t * int array * Rings.t) option Domain.DLS.key =
  Domain.DLS.new_key (fun () -> None)

let rings_for topo ~tcost =
  match Domain.DLS.get rings_memo with
  | Some (topo', tcost', r) when topo == topo' && tcost = tcost' -> r
  | _ ->
      let r = Rings.create topo ~tcost in
      Domain.DLS.set rings_memo (Some (topo, tcost, r));
      r

let run ?(duration = 1_000_000) ?(faults = []) ~platform ~threads () =
  if Domain.DLS.get instance <> None then
    invalid_arg "Engine.run: already inside a simulation";
  let topo = platform.Platform.topo in
  if Topology.ncpus topo > Line.max_cpus then
    invalid_arg
      (Printf.sprintf
         "Engine.run: platform has %d cpus, a line's sharer set holds %d"
         (Topology.ncpus topo) Line.max_cpus);
  let costs = Arch.of_arch platform.Platform.arch in
  let tcost = Arch.transfer_costs costs in
  let st =
    {
      topo;
      costs;
      tcost;
      rings = rings_for topo ~tcost;
      duration;
      cap = (if duration < max_int / 128 then duration * 64 else max_int);
      q = Pqueue.create ~dummy:ignore ();
      cpus =
        Array.init (Topology.ncpus topo) (fun _ ->
            { busy_until = 0; last = -1 });
      watched = [];
      live = List.length threads;
      max_time = 0;
      events = 0;
      miss = false;
      occupancy = 0;
      hist = Array.make Level.nprox 0;
      pending_faults = faults;
      injected = [];
      crashed = [];
      cur = { t_id = -1; t_cpu = -1; time = 0; ops = 0; in_cs = false };
    }
  in
  Domain.DLS.set instance (Some st);
  let cleanup () =
    (* watcher chains live on the lines themselves: detach them so a
       line reused by a later simulation (or leaked by an exception)
       cannot resurrect this run's continuations *)
    List.iter
      (fun (line : Line.t) ->
        line.Line.waiters <- Line.No_waiters;
        line.Line.enlisted <- false)
      st.watched;
    st.watched <- [];
    Domain.DLS.set instance None
  in
  Fun.protect ~finally:cleanup (fun () ->
      List.iteri
        (fun i (cpu, body) ->
          if cpu < 0 || cpu >= Topology.ncpus topo then
            invalid_arg (Printf.sprintf "Engine.run: cpu %d out of range" cpu);
          let th = { t_id = i; t_cpu = cpu; time = 0; ops = 0; in_cs = false } in
          Pqueue.add st.q 0 (fun () -> spawn st th body))
        threads;
      let aborted = ref false in
      (* Each event runs in place at the queue root: the first event it
         schedules replaces the root, and [settle] removes the root if
         it scheduled none. *)
      let rec drain () =
        if not (Pqueue.is_empty st.q) then
          if st.max_time > st.cap then aborted := true
          else begin
            st.events <- st.events + 1;
            Pqueue.take st.q ();
            Pqueue.settle st.q;
            drain ()
          end
      in
      drain ();
      let blocked =
        List.fold_left
          (fun acc (line : Line.t) ->
            let rec go acc = function
              | Line.No_waiters -> acc
              | Watcher w ->
                  go
                    (if w.w_done then acc
                     else (w.w_thread.t_id, w.w_line.Line.name) :: acc)
                    w.w_next
              | _ -> assert false
            in
            go acc line.Line.waiters)
          [] st.watched
      in
      let crashed = List.sort_uniq compare st.crashed in
      {
        end_time = st.max_time;
        (* crashed threads are accounted for separately: they are dead,
           not wedged — [hung] flags only threads that still wanted to
           run *)
        hung = st.live > 0 && not !aborted;
        aborted = !aborted;
        blocked = List.sort compare blocked;
        transfers =
          List.mapi (fun i p -> (p, st.hist.(i))) Level.all_prox;
        injected = List.rev st.injected;
        crashed;
        events = st.events;
      })

(* ---------- operations ----------

   Plain calls on the running thread's fiber: each acts on the engine
   state and on [st.cur], then carries on or yields ([carry_on]), dies
   ([die]) or parks. *)

let now () = (state ()).cur.time

let running () =
  let st = state () in
  st.cur.time < st.duration

let tid () = (state ()).cur.t_id
let cpu () = (state ()).cur.t_cpu

(* Op-neutral, like [now]: no cost, no event, no op count — marking a
   critical section must not shift benchmark numbers or fault anchors. *)
let cs_mark inside = (state ()).cur.in_cs <- inside

(* Op count, fault check, the op itself, then death on a crash: the
   faulted access completes — sim_mem has already made the value
   visible, so watchers must still be woken — and the thread dies at
   the op boundary. *)
let access line acc =
  let st = state () in
  let th = st.cur in
  th.ops <- th.ops + 1;
  let verdict = check_faults st th in
  handle_access st th line acc;
  match verdict with `Crash -> die st th | `Run -> carry_on st th

let await_line_until line ~rmw ~deadline pred =
  let st = state () in
  let th = st.cur in
  await_fetch st th line;
  if pred () then begin
    carry_on st th;
    true
  end
  else if th.time >= deadline then begin
    carry_on st th;
    false
  end
  else Effect.perform (Park (line, rmw, pred, deadline))

(* Compute that occupies the thread's CPU. *)
let occupy st cost =
  let th = st.cur in
  advance st th cost;
  carry_on st th

let fence () =
  let st = state () in
  occupy st st.costs.sc_fence

let pause () =
  let st = state () in
  occupy st st.costs.pause

let work ns = occupy (state ()) (max 0 ns)

(* A timer sleep, not compute: the thread's clock advances but the CPU
   stays free, so green threads timesharing the CPU (e.g. the benchmark
   thread the recovery watchdog shares a core with) run at full speed
   during it. Counts no op. *)
let sleep ns =
  let st = state () in
  let th = st.cur in
  th.time <- th.time + max 0 ns;
  if th.time > st.max_time then st.max_time <- th.time;
  carry_on st th
