(** Internal shared state between {!Vmem} and {!Checker}: the current
    exploration run, the one effect that turns memory operations into
    scheduling points, and the thread records.

    Every scheduling point carries a structured {!access} describing
    what the suspended operation will touch when resumed — this is what
    the checker's DPOR strategy builds its happens-before relation and
    conflict detection from. All run state is domain-local so scenario
    checks can execute in parallel on the harness executor. *)

(** What a visible operation touches, computed when the operation
    suspends (i.e. for the {e pending} transition). Object ids come
    from {!new_obj}; the sets are tiny lists (almost always
    singletons). [writes] may overapproximate — an RMW records its
    thread's whole store buffer as committed even if an earlier flush
    drains part of it first — which is sound for dependence tracking
    (extra conflicts only cost exploration, never miss schedules). *)
type access = {
  reads : int list;  (** objects whose committed/visible value is read *)
  writes : int list;  (** objects committed to globally visible memory *)
  inserts : int list;
      (** objects enqueued to the thread's own store buffer — invisible
          to other threads until the matching flush, so never a
          conflict, but the flush inherits the insert's clock *)
  wakes : bool;
      (** pause steps: enabledness depends on {e any} committed write,
          so the step is treated as dependent with every write *)
}

let no_access = { reads = []; writes = []; inserts = []; wakes = false }

(* A scheduling point is described by a verb and the name of the
   object it touches, joined only when a trace or diagnostic is
   printed: [describe verb obj] is ["load x"] for [("load ", "x")].
   Verbs that name an object end in a space; the others ("fence",
   "pause", "start", "done") come with the empty name. *)
let describe verb obj = verb ^ obj

(* Every scheduling point performs this one constant effect. What the
   suspended operation is, the thread record says: the operation fills
   in its status, verb, object and access before performing it, so a
   suspension allocates nothing but the continuation. *)
type _ Effect.t += Suspend : unit Effect.t

exception Prop_violation of string
(** Raised inside a scenario thread when a checked property (mutual
    exclusion, context invariant, user assertion) fails. *)

(* Sc: every store commits at its program point. Tso: relaxed-order
   stores sit in a per-thread FIFO buffer and commit at a separate
   flush transition (x86-style). Relaxed: the buffer keeps FIFO order
   only per location (PSO-style, the store-store reordering of
   Armv8-class machines), release stores commit in order, and CAS is
   modeled as an LL/SC pair whose reservation any intervening commit to
   the location breaks. *)
type mode = Sc | Tso | Relaxed

(* What a thread's pending transition waits for. *)
type status =
  | Not_started  (** the body has not run yet: its first step starts it *)
  | Ready  (** a memory operation, always enabled *)
  | Waiting  (** a spinloop: enabled exactly when [pred] holds *)
  | Paused
      (** a pause: enabled once something was committed after [snap],
          or when no other party can act (see the checker) *)
  | Finished

(* Every pause carries this one access value: it conflicts with every
   committing write. *)
let pause_access = { no_access with wakes = true }

(* A continuation that is never resumed: the [k] of a thread before its
   first suspension, so a thread holds its continuation unboxed. *)
let unstarted : (unit, unit) Effect.Deep.continuation =
  let k : (unit, unit) Effect.Deep.continuation option ref = ref None in
  Effect.Deep.match_with Effect.perform Suspend
    {
      retc = Fun.id;
      exnc = raise;
      effc =
        (fun (type a) (e : a Effect.t) ->
          match e with
          | Suspend ->
              Some (fun (c : (a, unit) Effect.Deep.continuation) -> k := Some c)
          | _ -> None);
    };
  Option.get !k

(* A store sitting in a thread's store buffer. *)
type buffered = {
  b_name : string;  (** the object's name *)
  b_obj : int;  (** the object's id *)
  b_flush : access;  (** what its flush touches: a commit to the object *)
  b_commit : unit -> unit;  (** commit it to memory *)
}

(* A thread and its pending transition. Resuming a suspended thread is
   [Effect.Deep.continue k ()] with the run's [running] set to its
   tid. *)
type thread = {
  tid : int;
  body : unit -> unit;
  mutable status : status;
  mutable verb : string;
  mutable obj : string;
  mutable access : access;  (** what the pending transition touches *)
  mutable pred : unit -> bool;  (** [Waiting]: the spinloop's condition *)
  mutable snap : int;  (** [Paused]: the run's [writes] when it paused *)
  mutable k : (unit, unit) Effect.Deep.continuation;
  buffer : buffered Queue.t;  (** the store buffer, in FIFO order *)
  mutable steps : int;
  mutable window_steps : int;
      (* steps taken since the last globally visible write *)
}

type run = {
  mode : mode;
  mutable threads : thread array;
  mutable running : int;
      (* tid of the thread executing, -1 in the scheduler: a memory
         operation reads the run from domain-local storage once and
         finds its thread here *)
  mutable in_cs : int;
  tracing : bool;
  mutable trace : (int * string * string) list;
      (* (tid, verb, object name), newest first; recorded only when
         [tracing] *)
  mutable writes : int;
      (* globally visible writes so far: wakes paused spinners *)
  mutable steps_since_write : int;
      (* watchdog for spinloops that can never be released *)
  mutable next_obj : int;
      (* per-run object-id counter: allocation replays deterministically
         with the schedule prefix, so ids are stable across the
         executions of one check and accesses recorded in one execution
         (sleep sets, node accesses) stay meaningful in the next *)
  mutable nsteps : int;  (* thread steps executed *)
  plan : int array;
  plan_len : int;
      (* positions [0, plan_len) replay recorded choices; [plan.(k)] is
         the tid whose step position [k] is, -1 for a flush *)
  mutable cursor : int;  (* the next replayed position to execute *)
}

(* One exploration per domain at a time: the harness runs whole
   scenario checks as parallel jobs, and each check re-executes its
   scenario thousands of times on the one domain it was scheduled on. *)
let current : run option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)
let set_current r = Domain.DLS.set current r

let bump_writes r =
  r.writes <- r.writes + 1;
  r.steps_since_write <- 0;
  for i = 0 to Array.length r.threads - 1 do
    r.threads.(i).window_steps <- 0
  done

let the_run () =
  match Domain.DLS.get current with
  | Some r -> r
  | None -> failwith "Clof_verify: memory operation outside Checker.check"

(* What every step of [th] counts, in-place or not. *)
let count_step r th =
  th.steps <- th.steps + 1;
  r.nsteps <- r.nsteps + 1;
  r.steps_since_write <- r.steps_since_write + 1;
  th.window_steps <- th.window_steps + 1

let record r tid verb obj =
  if r.tracing then r.trace <- (tid, verb, obj) :: r.trace

(* Suspend the current thread at a scheduling point whose transition
   waits for [status], declaring what it will touch when resumed.

   A replayed position that is this thread's own step again is run in
   place: the scheduler would only count the step and resume this
   thread, so the thread counts it and runs on. The step's checks
   cannot fire there: a replayed position ran without raising in the
   execution that recorded it, from the same state. *)
let suspend r status verb obj access =
  let c = r.cursor in
  if c < r.plan_len && Int.equal r.plan.(c) r.running then begin
    r.cursor <- c + 1;
    count_step r r.threads.(r.running);
    record r r.running verb obj
  end
  else begin
    let th = r.threads.(r.running) in
    th.status <- status;
    th.verb <- verb;
    th.obj <- obj;
    th.access <- access;
    Effect.perform Suspend
  end

(* Object ids label shared locations for dependence tracking. Inside a
   run they come from the run's own counter: a replayed prefix performs
   the same allocations in the same order, so the ids of every object
   live at the divergence point agree between the recording execution
   and the next one — which is what lets sleep sets and backtrack
   accesses carry over. Refs created outside any run get negative ids
   from a global counter so they can never collide with run-local
   ones. *)
let next_obj = Atomic.make (-1)

let new_obj () =
  match Domain.DLS.get current with
  | Some r ->
      let id = r.next_obj in
      r.next_obj <- id + 1;
      id
  | None -> Atomic.fetch_and_add next_obj (-1)
