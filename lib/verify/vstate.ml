(** Internal shared state between {!Vmem} and {!Checker}: the current
    exploration run, the effects that turn memory operations into
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

type _ Effect.t +=
  | Op : string * string * access -> unit Effect.t
      (** a visible memory operation: verb, object name, access *)
  | Await_op : string * string * access * (unit -> bool) -> unit Effect.t
      (** spinloop: enabled exactly when the predicate holds *)
  | Pause_op : unit Effect.t

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

(* A suspended thread keeps the continuation of its pending
   operation; resuming it is [Effect.Deep.continue k ()] with the
   thread's tid current. *)
type status =
  | Not_started of (unit -> unit)
  | Ready of string * string * access * (unit, unit) Effect.Deep.continuation
  | Waiting of
      string
      * string
      * access
      * (unit -> bool)
      * (unit, unit) Effect.Deep.continuation
  | Finished

type thread = {
  tid : int;
  mutable status : status;
  buffer : (string * int * (unit -> unit)) Queue.t;
      (* store buffer: (object name, object id, commit-to-memory) in
         FIFO order *)
  mutable steps : int;
  mutable window_steps : int;
      (* steps taken since the last globally visible write *)
}

type run = {
  mode : mode;
  mutable threads : thread array;
  mutable in_cs : int;
  mutable trace : (int * string * string) list;
      (* (tid, verb, object name), newest first *)
  mutable writes : int;
      (* globally visible writes so far: wakes paused spinners *)
  mutable steps_since_write : int;
      (* watchdog for spinloops that can never be released *)
  mutable next_obj : int;
      (* per-run object-id counter: allocation replays deterministically
         with the schedule prefix, so ids are stable across the
         executions of one check and accesses recorded in one execution
         (sleep sets, node accesses) stay meaningful in the next *)
}

(* One exploration per domain at a time: the harness runs whole
   scenario checks as parallel jobs, and each check re-executes its
   scenario thousands of times on the one domain it was scheduled on. *)
let current : run option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)
let get_current () = Domain.DLS.get current
let set_current r = Domain.DLS.set current r

let bump_writes () =
  match Domain.DLS.get current with
  | None -> ()
  | Some r ->
      r.writes <- r.writes + 1;
      r.steps_since_write <- 0;
      Array.iter (fun th -> th.window_steps <- 0) r.threads

let the_run () =
  match Domain.DLS.get current with
  | Some r -> r
  | None -> failwith "Clof_verify: memory operation outside Checker.check"

(* tid of the fiber currently executing; -1 in the scheduler *)
let cur_tid : int Domain.DLS.key = Domain.DLS.new_key (fun () -> -1)
let get_tid () = Domain.DLS.get cur_tid
let set_tid t = Domain.DLS.set cur_tid t

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
