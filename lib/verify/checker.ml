(* Systematic scheduler for scenarios written against Vmem. Two
   exploration strategies share one execution engine (run_once):

   - Naive: the original bounded DFS — branch on every affordable
     choice at every point. Kept as a differential-testing oracle.
   - Dpor: dynamic partial-order reduction (Flanagan & Godefroid,
     POPL 2005) with sleep sets. One representative per
     Mazurkiewicz-trace equivalence class, plus the schedules forced by
     detected races; store-buffer flushes are modeled as actions of a
     per-thread "buffer proc" so TSO reorderings are first-class.

   The preemption/delay bounds apply identically under both strategies:
   the enabled sets DPOR reasons about are the *affordable* sets, so
   bounded DPOR prunes relative to the bounded naive search (and, like
   all bounded search, is exhaustive only when the bounds are off). *)

type strategy = Naive | Dpor

type config = {
  mode : Vstate.mode;
  strategy : strategy;
  preemptions : int;
  delays : int;
  max_executions : int;
  max_steps : int;
}

let default =
  {
    mode = Vstate.Sc;
    strategy = Dpor;
    preemptions = 2;
    delays = 2;
    max_executions = 100_000;
    max_steps = 5_000;
  }

type violation =
  | Property of string
  | Deadlock of string
  | Runaway of string
  | Crash of string

type report = {
  name : string;
  strategy : strategy;
  executions : int;
  steps : int;
  complete : int;
      (* executions that ran to quiescence: distinct full traces *)
  pruned : int;
      (* executions cut short: sleep-blocked, or the fairness pruner *)
  sleep_blocked : int; (* the sleep-blocked part of [pruned] *)
  sleep_hits : int; (* scheduling choices skipped because they slept *)
  races : int; (* backtrack points scheduled from detected races *)
  violation : (violation * string list) option;
  truncated : bool;
  exhaustive : bool;
      (* the exploration frontier drained: every schedule within the
         preemption/delay bounds was covered. Structurally false
         whenever [truncated] (the execution budget cut the frontier)
         or a violation stopped the search early — a truncated run can
         never claim completeness. *)
  seconds : float;
}

(* Wall time on the monotonic clock: the CPU time of [Sys.time] is the
   whole process's, which charges a check run on one domain with every
   other domain's work too. *)
let seconds_since t0 = float_of_int (Clof_atomics.Real_mem.now () - t0) *. 1e-9

(* Step: run a thread. Flush: commit the FIFO head of a thread's store
   buffer (TSO). Flush_obj: commit a thread's oldest buffered store to
   one location (Relaxed — the buffer is FIFO per location only, so
   each buffered location is its own flush choice and stores to
   different locations commit in either order). Object ids are
   run-deterministic, so a Flush_obj denotes the same transition when a
   prefix is replayed. *)
type choice = Step of int | Flush of int | Flush_obj of int * int

let cs_enter () =
  let run = Vstate.the_run () in
  run.in_cs <- run.in_cs + 1;
  if run.in_cs > 1 then
    raise (Vstate.Prop_violation "mutual exclusion violated")

let cs_exit () =
  let run = Vstate.the_run () in
  run.in_cs <- run.in_cs - 1

(* ------------------------------------------------------------------ *)
(* Dependence                                                          *)
(* ------------------------------------------------------------------ *)

(* Monomorphic equality for the hot loops: polymorphic [=], [List.mem]
   and [compare] on choices and object-id lists go through
   caml_compare. The membership tests recurse directly: a
   [List.exists] predicate capturing its key is a closure allocated per
   call. *)
let choice_equal a b =
  match (a, b) with
  | Step i, Step j | Flush i, Flush j -> Int.equal i j
  | Flush_obj (i, o), Flush_obj (j, o') -> Int.equal i j && Int.equal o o'
  | (Step _ | Flush _ | Flush_obj _), _ -> false

let rec mem_choice c = function
  | [] -> false
  | c' :: tl -> choice_equal c c' || mem_choice c tl

let rec mem_assoc_choice c = function
  | [] -> false
  | (c', _) :: tl -> choice_equal c c' || mem_assoc_choice c tl

let assoc_choice c l =
  List.find_map (fun (c', a) -> if choice_equal c c' then Some a else None) l

let rec mem_int x = function [] -> false | y :: tl -> Int.equal x y || mem_int x tl
let nonempty = function [] -> false | _ :: _ -> true
let rec inter a b = match a with [] -> false | x :: tl -> mem_int x b || inter tl b

(* Two accesses conflict iff executing them in either order can differ:
   write/write or read/write on a shared object, or a pause against any
   committing write (pause enabledness watches the global write
   counter, so every write is treated as potentially waking it — a
   sound overapproximation that costs exploration, never misses
   schedules). Buffer inserts are invisible to other threads and never
   conflict; their ordering constraint is carried by the insert→flush
   happens-before edge instead. *)
let conflicts (a : Vstate.access) (b : Vstate.access) =
  inter a.Vstate.writes b.Vstate.writes
  || inter a.Vstate.writes b.Vstate.reads
  || inter a.Vstate.reads b.Vstate.writes
  || (a.Vstate.wakes && nonempty b.Vstate.writes)
  || (b.Vstate.wakes && nonempty a.Vstate.writes)
  (* two pauses don't commute either: resuming one spinner flips the
     only-party-left enabledness of the other, and deadlock detection
     (all_spun) needs the schedules where starved spinners get their
     turn inside the no-write window *)
  || (a.Vstate.wakes && b.Vstate.wakes)

(* ------------------------------------------------------------------ *)
(* One execution                                                       *)
(* ------------------------------------------------------------------ *)

(* One node per position of the current DPOR exploration path.
   nd_enabled is the affordable set observed when the node's state was
   first reached, and nd_preempts, nd_delays and nd_last the bound
   state there: the preemptions and delays spent before the position,
   and the thread that ran last (-1 before any). The state is a
   deterministic function of the choices before it, so none of these
   changes across visits, and a rerun diverging at the node resumes
   from them. nd_choice is the transition taken, nd_access its pending
   access, and nd_wrote whether it actually committed a write (a failed
   CAS declares writes but commits nothing — pauses it precedes stay
   live). nd_done holds the choices tried before nd_choice. nd_sleep is
   the node's live sleep set: the inherited sleep-in plus every sibling
   choice whose subtree is already fully explored. *)
type node = {
  nd_enabled : (choice * Vstate.access) list;
  nd_preempts : int;
  nd_delays : int;
  nd_last : int;
  mutable nd_choice : choice;
  mutable nd_access : Vstate.access;
  mutable nd_wrote : bool;
  mutable nd_backtrack : choice list;
  mutable nd_done : choice list;
  mutable nd_sleep : (choice * Vstate.access) list;
  mutable nd_saturated : bool;
}

let tried nd c = choice_equal c nd.nd_choice || mem_choice c nd.nd_done

(* Every choice enabled at [nd] is tried, scheduled or asleep, so no
   race can add a backtrack candidate there. This only ever turns true
   while the node is on the path: its tried, backtrack and sleep sets
   only grow. *)
let saturated nd =
  nd.nd_saturated
  || List.for_all
       (fun (c, _) ->
         tried nd c || mem_choice c nd.nd_backtrack
         || mem_assoc_choice c nd.nd_sleep)
       nd.nd_enabled
     && begin
          nd.nd_saturated <- true;
          true
        end

(* The growable path (OCaml 5.1 has no Dynarray): nodes [0, depth)
   are the path; the slots past it hold stale nodes. [tids] holds, per
   node, the thread its choice steps (-1 for a flush): the plan a
   rerun's replayed prefix follows ({!Vstate.suspend}). *)
type path = {
  mutable nodes : node array;
  mutable tids : int array;
  mutable depth : int;
}

let tid_of = function Step i -> i | Flush _ | Flush_obj _ -> -1

let push_node path nd =
  if path.depth = Array.length path.nodes then begin
    let size = max 256 (2 * path.depth) in
    let bigger = Array.make size nd and tids = Array.make size (-1) in
    Array.blit path.nodes 0 bigger 0 path.depth;
    Array.blit path.tids 0 tids 0 path.depth;
    path.nodes <- bigger;
    path.tids <- tids
  end;
  path.nodes.(path.depth) <- nd;
  path.tids.(path.depth) <- tid_of nd.nd_choice;
  path.depth <- path.depth + 1

(* What an execution follows before it picks its own choices. *)
type replay =
  | Forced of choice array
      (* naive: these choices from the root, their bound costs counted
         on the way *)
  | Resume of path * int
      (* dpor: the path, whose node [d] holds a new choice (d = -1 on
         the first execution, from the empty path). Positions below [d]
         only execute; node [d]'s choice runs from the node's bound
         state and refreshes its nd_wrote; every position past it is
         appended as a fresh node. *)

type exec_result = {
  taken : choice array; (* naive: the choices made; empty under DPOR *)
  branch : (int * choice list) list; (* naive: untried alternatives *)
  length : int;
      (* positions executed. Under DPOR the path holds one more when
         the rerun was cut while executing its new choice *)
  nthreads : int;
  end_pending : (choice * Vstate.access) list;
      (* transitions still pending when the run was cut by the bounds:
         they never executed, but may still race with executed events *)
  bad : (violation * string list) option;
  nsteps : int;
  sleep_hits : int;
  complete : bool; (* ran to quiescence *)
  cut : bool; (* sleep-blocked or fairness-pruned: proves nothing *)
  blocked : bool; (* cut because every affordable choice slept *)
}

(* The executed (reads-from-refined) access of a step: one that
   committed nothing acted as a pure read, whatever it declared. *)
let executed (a : Vstate.access) ~wrote =
  if wrote || not (nonempty a.Vstate.writes) then a
  else { a with Vstate.writes = [] }

exception Abort_run of violation
exception Prune
(* an unfair schedule ran a spinner unboundedly while another thread
   could have progressed: cut the path, it proves nothing *)

(* Can [o] take its next step? A paused thread does not count: like
   the spinner asking, it moves only once another party writes. The
   await predicates are pure reads, so evaluating them in any order, or
   not at all, changes nothing. *)
let can_step (o : Vstate.thread) =
  match o.Vstate.status with
  | Vstate.Not_started | Vstate.Ready -> true
  | Vstate.Waiting -> o.Vstate.pred ()
  | Vstate.Paused | Vstate.Finished -> false

let rec others_can_act (threads : Vstate.thread array) th i =
  i < Array.length threads
  && (let o = threads.(i) in
      (o != th && ((not (Queue.is_empty o.Vstate.buffer)) || can_step o))
      || others_can_act threads th (i + 1))

(* A paused spinner resumes when something was committed since it
   paused — the fairness assumption behind every spinloop — or when
   nothing else in the system can possibly act (it is the only party
   left, so spinning on is its own business). *)
let pause_enabled (run : Vstate.run) (th : Vstate.thread) =
  run.Vstate.writes <> th.Vstate.snap
  || not
       ((not (Queue.is_empty th.Vstate.buffer))
       || others_can_act run.Vstate.threads th 0)

(* Is a thread's pending transition enabled? *)
let ready run (th : Vstate.thread) =
  match th.Vstate.status with
  | Vstate.Paused -> pause_enabled run th
  | Vstate.Not_started | Vstate.Ready | Vstate.Waiting | Vstate.Finished ->
      can_step th

(* Start a thread. Its handler is allocated once: every scheduling
   point performs the one [Suspend] effect, and the operation has
   already described itself on the thread record, so a suspension only
   stores the continuation. *)
let spawn (th : Vstate.thread) =
  let suspended = Some (fun k -> th.Vstate.k <- k) in
  Effect.Deep.match_with th.Vstate.body ()
    {
      retc = (fun () -> th.Vstate.status <- Vstate.Finished);
      exnc = raise;
      effc =
        (fun (type a) (eff : a Effect.t) :
             ((a, unit) Effect.Deep.continuation -> unit) option ->
          match eff with Vstate.Suspend -> suspended | _ -> None);
    }

let trace_of (run : Vstate.run) =
  List.rev_map
    (fun (tid, verb, obj) ->
      Printf.sprintf "t%d: %s" tid (Vstate.describe verb obj))
    run.trace

let desc_of (th : Vstate.thread) =
  match th.status with
  | Vstate.Not_started -> "start"
  | Vstate.Ready | Vstate.Waiting | Vstate.Paused ->
      Vstate.describe th.Vstate.verb th.Vstate.obj
  | Vstate.Finished -> "done"

(* The sleepers a step with executed access [a] does not wake. *)
let rec still_asleep a = function
  | [] -> []
  | ((_, sa) as e) :: tl ->
      if conflicts sa a then still_asleep a tl else e :: still_asleep a tl

(* One execution. It records a trace only when [tracing]: see
   [run_once]. *)
let execute_once ~tracing cfg scenario ~sleep0 replay =
  let plan, plan_len =
    match replay with
    | Resume (path, d) when d >= 0 -> (path.tids, d)
    | Forced _ | Resume _ -> ([||], 0)
  in
  let run =
    {
      Vstate.mode = cfg.mode;
      threads = [||];
      running = -1;
      in_cs = 0;
      tracing;
      trace = [];
      writes = 0;
      steps_since_write = 0;
      next_obj = 0;
      nsteps = 0;
      plan;
      plan_len;
      cursor = 0;
    }
  in
  Vstate.set_current (Some run);
  let finally () = Vstate.set_current None in
  Fun.protect ~finally @@ fun () ->
  let bodies = scenario () in
  let threads =
    Array.of_list
      (List.mapi
         (fun i body ->
           {
             Vstate.tid = i;
             body;
             status = Vstate.Not_started;
             verb = "start";
             obj = "";
             access = Vstate.no_access;
             pred = (fun () -> true);
             snap = 0;
             k = Vstate.unstarted;
             buffer = Queue.create ();
             steps = 0;
             window_steps = 0;
           })
         bodies)
  in
  run.threads <- threads;
  (* positions below [plen] take the replayed choice [forced pos] *)
  let plen, forced =
    match replay with
    | Forced prefix -> (Array.length prefix, Array.get prefix)
    | Resume (path, d) -> (d + 1, fun pos -> path.nodes.(pos).nd_choice)
  in
  let step_of = Array.init (Array.length threads) (fun i -> Step i) in
  let taken = ref [] in
  let branch = ref [] in
  let length = ref 0 in
  let sleep = ref sleep0 in
  let sleep_hits = ref 0 in
  let complete = ref false in
  let cut = ref false in
  let blocked = ref false in
  let end_pending = ref [] in
  (* steps with no write after which the spinloop watchdog fires *)
  let quiet_limit = Int.max 256 (32 * Array.length threads) in
  let weak =
    match cfg.mode with Vstate.Sc -> false | Vstate.Tso | Vstate.Relaxed -> true
  in
  (* cost of a choice, in preemptions and in delays. Switching away
     from the thread that ran last costs [switch_cost last]: a
     preemption if that thread could still run. *)
  let switch_cost last =
    if last >= 0 && ready run threads.(last) then 1 else 0
  in
  let preempt_cost last switch = function
    | Step i when i <> last -> switch
    | Step _ | Flush _ | Flush_obj _ -> 0
  in
  let delay_cost = function
    | Flush _ | Flush_obj _ -> 0
    | Step i ->
        if weak && not (Queue.is_empty threads.(i).Vstate.buffer) then 1
        else 0
  in
  (* a thread's flush choices, oldest first: under Relaxed one per
     distinct buffered location, in the order they were first buffered *)
  let flushes th =
    let buffer = th.Vstate.buffer in
    if Queue.is_empty buffer then []
    else
      match cfg.mode with
      | Vstate.Sc -> []
      | Vstate.Tso -> [ (Flush th.Vstate.tid, (Queue.peek buffer).b_flush) ]
      | Vstate.Relaxed ->
          let rec fresh obj = function
            | [] -> true
            | (b : Vstate.buffered) :: tl ->
                (not (Int.equal b.b_obj obj)) && fresh obj tl
          in
          Queue.fold
            (fun seen (b : Vstate.buffered) ->
              if fresh b.b_obj seen then b :: seen else seen)
            [] buffer
          |> List.rev_map (fun (b : Vstate.buffered) ->
                 (Flush_obj (th.Vstate.tid, b.b_obj), b.b_flush))
  in
  (* the enabled choices in thread order, each thread's step before its
     flushes, newest location first *)
  let enabled () =
    let acc = ref [] in
    for i = Array.length threads - 1 downto 0 do
      let th = threads.(i) in
      acc := List.rev_append (flushes th) !acc;
      if ready run th then acc := (step_of.(i), th.Vstate.access) :: !acc
    done;
    !acc
  in
  (* every unfinished thread's next transition, enabled or not: when
     the bounds cut a run, these may still race with executed events
     and must seed backtrack points (they never execute again) *)
  let gather_pending () =
    let acc = ref [] in
    Array.iter
      (fun th ->
        (match th.Vstate.status with
        | Vstate.Not_started | Vstate.Ready | Vstate.Waiting | Vstate.Paused ->
            acc := (step_of.(th.Vstate.tid), th.Vstate.access) :: !acc
        | Vstate.Finished -> ());
        acc := flushes th @ !acc)
      threads;
    !acc
  in
  let execute = function
    | Flush i ->
        let th = threads.(i) in
        let b = Queue.pop th.Vstate.buffer in
        Vstate.record run i "flush " b.b_name;
        b.b_commit ()
    | Flush_obj (i, obj) ->
        (* commit the oldest buffered store to [obj]; entries for other
           locations keep their places *)
        let th = threads.(i) in
        let keep = Queue.create () in
        let popped = ref None in
        Queue.iter
          (fun (b : Vstate.buffered) ->
            if Int.equal b.b_obj obj && Option.is_none !popped then
              popped := Some b
            else Queue.add b keep)
          th.Vstate.buffer;
        Queue.clear th.Vstate.buffer;
        Queue.transfer keep th.Vstate.buffer;
        (match !popped with
        | Some b ->
            Vstate.record run i "flush " b.b_name;
            b.b_commit ()
        | None -> assert false)
    | Step i -> (
        let th = threads.(i) in
        Vstate.count_step run th;
        if th.Vstate.steps > cfg.max_steps then
          raise
            (Abort_run
               (Runaway
                  (Printf.sprintf "t%d exceeded %d steps at '%s'" i
                     cfg.max_steps (desc_of th))));
        if run.steps_since_write > quiet_limit then begin
          (* nothing has been written for a long time: a real spinloop
             failure only if every live thread had its fair share of
             the window and still wrote nothing; otherwise this is just
             an unfair schedule *)
          let all_spun = ref true in
          Array.iter
            (fun o ->
              if
                o.Vstate.status <> Vstate.Finished
                && o.Vstate.window_steps < 8
              then all_spun := false;
              (* a non-empty store buffer can still commit a write, so
                 "nothing is ever written" would be wrong *)
              if not (Queue.is_empty o.Vstate.buffer) then
                all_spun := false)
            threads;
          if !all_spun then
            raise
              (Abort_run
                 (Deadlock
                    "threads keep spinning but nothing is ever written \
                     — a spinloop no schedule can release"))
          else raise Prune
        end;
        Vstate.record run i th.Vstate.verb th.Vstate.obj;
        let status = th.Vstate.status in
        (* the operation resumed sets the next status; a thread that
           ends or raises stays finished *)
        th.Vstate.status <- Vstate.Finished;
        run.running <- i;
        match status with
        | Vstate.Not_started -> spawn th
        | Vstate.Ready | Vstate.Waiting | Vstate.Paused ->
            Effect.Deep.continue th.Vstate.k ()
        | Vstate.Finished -> assert false)
  in
  (* execute [c]: did it commit a write? *)
  let commits c =
    let before = run.Vstate.writes in
    execute c;
    run.Vstate.writes > before
  in
  let ran_next last = function Step i -> i | Flush _ | Flush_obj _ -> last in
  let affordable_at preempts delays last switch (c, _) =
    (cfg.preemptions < 0
    || preempts + preempt_cost last switch c <= cfg.preemptions)
    && (cfg.delays < 0 || delays + delay_cost c <= cfg.delays)
  in
  let rec affordable preempts delays last switch = function
    | [] -> []
    | ca :: rest ->
        if affordable_at preempts delays last switch ca then
          ca :: affordable preempts delays last switch rest
        else affordable preempts delays last switch rest
  in
  (* rotate among free steps by window share so default schedules are
     fair to spinners *)
  let weight = function
    | Flush _ | Flush_obj _ -> -1
    | Step i -> threads.(i).Vstate.window_steps
  in
  (* one pass over the affordable choices: how many sleep (added to
     [sleep_hits]), and the first of least weight among the free awake
     ones (no preemption, no delay), else the first awake one *)
  let rec scan last switch first pick best = function
    | [] -> if Option.is_some pick then pick else first
    | ((c, _) as ca) :: rest ->
        if mem_assoc_choice c !sleep then begin
          incr sleep_hits;
          scan last switch first pick best rest
        end
        else
          let first = if Option.is_none first then Some ca else first in
          if
            preempt_cost last switch c = 0
            && delay_cost c = 0
            && weight c < best
          then scan last switch first (Some ca) (weight c) rest
          else scan last switch first pick best rest
  in
  let outcome = ref None in
  (try
     let rec loop pos preempts delays last =
       length := pos;
       if pos < plen then begin
         (* The prefix choice was recorded at this very state — taken
            there, or a backtrack candidate drawn from its recorded
            affordable set — so it is enabled and affordable by
            construction. Enabled sets, the bound filter and sleep sets
            only matter past the prefix. *)
         let chosen = forced pos in
         let p = preempt_cost last (switch_cost last) chosen in
         let d = delay_cost chosen in
         let wrote = commits chosen in
         (match replay with
         | Forced _ -> taken := chosen :: !taken
         | Resume (path, _) -> path.nodes.(pos).nd_wrote <- wrote);
         loop (pos + 1) (preempts + p) (delays + d) (ran_next last chosen)
       end
       else
         match enabled () with
         | [] ->
             let stuck =
               Array.to_list threads
               |> List.filter (fun th -> th.Vstate.status <> Vstate.Finished)
             in
             if stuck <> [] then
               raise
                 (Abort_run
                    (Deadlock
                       (String.concat ", "
                          (List.map
                             (fun th ->
                               Printf.sprintf "t%d blocked at '%s'"
                                 th.Vstate.tid (desc_of th))
                             stuck))));
             complete := true
         | all -> (
             let switch = switch_cost last in
             match affordable preempts delays last switch all with
             | [] ->
                 (* cut off by the bounds; not a violation *)
                 end_pending := gather_pending ()
             | affordable -> (
                 match scan last switch None None max_int affordable with
                 | None ->
                     (* every affordable choice sleeps: this state's whole
                        subtree was already covered from a sibling *)
                     cut := true;
                     blocked := true
                 | Some (pick, access) ->
                     let p = preempt_cost last switch pick in
                     let d = delay_cost pick in
                     (match replay with
                     | Forced _ -> (
                         match
                           List.filter_map
                             (fun (c, _) ->
                               if choice_equal c pick then None else Some c)
                             affordable
                         with
                         | [] -> ()
                         | rest -> branch := (pos, rest) :: !branch)
                     | Resume _ -> ());
                     let wrote = commits pick in
                     (match replay with
                     | Forced _ -> taken := pick :: !taken
                     | Resume (path, _) -> (
                         push_node path
                           {
                             nd_enabled = affordable;
                             nd_preempts = preempts;
                             nd_delays = delays;
                             nd_last = last;
                             nd_choice = pick;
                             nd_access = access;
                             nd_wrote = wrote;
                             nd_backtrack = [];
                             nd_done = [];
                             nd_sleep = !sleep;
                             nd_saturated = false;
                           };
                         (* reads-from refinement: declared accesses
                            over-approximate; once executed we know
                            whether the step committed anything. A failed
                            CAS (or a CAS whose reservation was lost)
                            declared a write but acted as a pure read —
                            retiring sleepers against the executed access
                            keeps them asleep across it, exactly as GenMC
                            treats a failed RMW as its read component. *)
                         match !sleep with
                         | [] -> ()
                         | sl ->
                             sleep := still_asleep (executed access ~wrote) sl));
                     loop (pos + 1) (preempts + p) (delays + d)
                       (ran_next last pick)))
     in
     match replay with
     | Resume (path, d) when d >= 0 ->
         (* Replay. The state before position [d] is a deterministic
            function of the choices before it, and its bound state was
            recorded when node [d] was first reached: the prefix only
            needs executing. A thread whose next replayed position is
            its own step runs on in place, past the cursor. *)
         while run.cursor < d do
           let k = run.cursor in
           run.cursor <- k + 1;
           execute path.nodes.(k).nd_choice
         done;
         let nd = path.nodes.(d) in
         loop d nd.nd_preempts nd.nd_delays nd.nd_last
     | Forced _ | Resume _ -> loop 0 0 0 (-1)
   with
  | Abort_run v -> outcome := Some v
  | Prune ->
      cut := true;
      end_pending := gather_pending ()
  | Vstate.Prop_violation msg -> outcome := Some (Property msg)
  | Stack_overflow -> outcome := Some (Crash "stack overflow")
  | e when e <> Out_of_memory ->
      outcome := Some (Crash (Printexc.to_string e)));
  {
    taken = Array.of_list (List.rev !taken);
    branch = !branch;
    length = !length;
    nthreads = Array.length threads;
    end_pending = !end_pending;
    bad = Option.map (fun v -> (v, trace_of run)) !outcome;
    nsteps = run.nsteps;
    sleep_hits = !sleep_hits;
    complete = !complete;
    cut = !cut;
    blocked = !blocked;
  }

(* Execution records no trace: a violation's counterexample is rendered
   by running the violating execution once more with tracing on. The
   state before each position is a deterministic function of the
   choices before it, so the rerun makes the same choices and fails at
   the same point. It is not counted as an execution. *)
let run_once cfg scenario ~sleep0 replay =
  let r = execute_once ~tracing:false cfg scenario ~sleep0 replay in
  match r.bad with
  | None -> r
  | Some (v, _) ->
      let again = execute_once ~tracing:true cfg scenario ~sleep0 replay in
      let trace = match again.bad with Some (_, t) -> t | None -> [] in
      { r with bad = Some (v, trace) }

(* ------------------------------------------------------------------ *)
(* Naive bounded DFS (the differential-testing oracle)                 *)
(* ------------------------------------------------------------------ *)

let naive_check config name scenario =
  let t0 = Clof_atomics.Real_mem.now () in
  let executions = ref 0 in
  let steps = ref 0 in
  let complete = ref 0 in
  let pruned = ref 0 in
  let truncated = ref false in
  let violation = ref None in
  let stack = ref [ [||] ] in
  let rec go () =
    match !stack with
    | [] -> ()
    | prefix :: rest ->
        stack := rest;
        if !executions >= config.max_executions then truncated := true
        else begin
          incr executions;
          let r = run_once config scenario ~sleep0:[] (Forced prefix) in
          steps := !steps + r.nsteps;
          if r.complete then incr complete;
          if r.cut then incr pruned;
          match r.bad with
          | Some v -> violation := Some v
          | None ->
              (* push deepest first so the stack pops the shallowest:
                 weak-memory divergences live near the root, and this
                 order reaches them before the deep spin tails. The
                 order is load-bearing: it finds peterson-nofence [tso]
                 at execution 25 238, while popping the deepest first
                 (the order a path shared with DPOR would impose)
                 truncates at the entry's 200 000 budget without
                 finding it, and peterson-nofence [rlx] already needs
                 195 167 of its 200 000. So Naive keeps its own prefix
                 stack. *)
              List.iter
                (fun (pos, alts) ->
                  List.iter
                    (fun alt ->
                      let prefix' = Array.sub r.taken 0 pos in
                      stack := Array.append prefix' [| alt |] :: !stack)
                    alts)
                r.branch;
              go ()
        end
  in
  go ();
  {
    name;
    strategy = Naive;
    executions = !executions;
    steps = !steps;
    complete = !complete;
    pruned = !pruned;
    sleep_blocked = 0;
    sleep_hits = 0;
    races = 0;
    violation = !violation;
    truncated = !truncated;
    exhaustive = (not !truncated) && !violation = None;
    seconds = seconds_since t0;
  }

(* ------------------------------------------------------------------ *)
(* DPOR                                                                *)
(* ------------------------------------------------------------------ *)

(* A growable int buffer (OCaml 5.1 has no Dynarray). Slots never
   written hold -1. *)
type ibuf = { mutable a : int array; mutable len : int }

let ibuf () = { a = Array.make 64 (-1); len = 0 }

let reserve b n =
  if n > Array.length b.a then begin
    let a = Array.make (max n (2 * Array.length b.a)) (-1) in
    Array.blit b.a 0 a 0 (Array.length b.a);
    b.a <- a
  end

let push b x =
  reserve b (b.len + 1);
  b.a.(b.len) <- x;
  b.len <- b.len + 1

let dpor_check cfg name scenario =
  let t0 = Clof_atomics.Real_mem.now () in
  let executions = ref 0 in
  let steps = ref 0 in
  let complete = ref 0 in
  let pruned = ref 0 in
  let sleep_blocked = ref 0 in
  let sleep_hits = ref 0 in
  let races = ref 0 in
  let truncated = ref false in
  let violation = ref None in
  let path = { nodes = [||]; tids = [||]; depth = 0 } in
  let node d = path.nodes.(d) in
  let run_with replay sleep0 =
    incr executions;
    let r = run_once cfg scenario ~sleep0 replay in
    steps := !steps + r.nsteps;
    sleep_hits := !sleep_hits + r.sleep_hits;
    if r.complete then incr complete;
    if r.cut then incr pruned;
    if r.blocked then incr sleep_blocked;
    (match r.bad with Some v -> violation := Some v | None -> ());
    r
  in
  let r0 = run_with (Resume (path, -1)) [] in
  (* Vector-clock pass over one recorded execution: detect races
     (conflicting accesses not ordered by happens-before) and schedule
     the reversal at the earlier access's node. Procs are 2*tid for the
     thread and 2*tid+1 for its store buffer (TSO: the buffer is one
     FIFO, so one sequential proc is exact). Under Relaxed the buffer
     is FIFO only per location, so every (thread, object) flush lane is
     its own proc — sharing one proc index would thread a false
     happens-before from a flush into the next flush of an unrelated
     location, hiding the store-store reordering from race detection
     (a waiter woken by the second flush would look ordered after the
     first, and the stale-read reversal would never be scheduled).
     Lanes are numbered once per check, in first-appearance order.
     Clock entries hold trace positions, so "event at position i by
     proc q happens-before proc p's current point" is just
     i <= clock_p.(q).

     The pass resumes at the divergence depth [from]. Its state after
     position d-1 depends only on positions < d, and a position j <
     [from] replays the same transition over the same prefix as the
     execution analysed last, so that state is already at hand: every
     overwrite of it goes on an int trail, and undoing the trail to
     position [from]'s watermark restores it exactly. Flagging a
     replayed position again could add nothing either: every candidate
     it added then is now in nd_backtrack or [tried], and sleep sets
     only grow. The state is flat int buffers owned by the check —
     OCaml values in stale slots would keep garbage alive, and
     per-node copies cost heap (DESIGN.md §5):
     - [clk]: event clocks, row k the post-join clock of position k;
     - [st]: every other mutable int, in blocks allocated on first
       use — per proc its last event; per object its last committing
       write and, per thread, the head of the thread's reads-since
       chain, the head of its buffered-insert chain, the last insert
       flushed and the flush lane's proc (set once, never undone);
       globally the last committing write and, per thread, the head of
       its pauses-since chain and its last buffer drain;
     - [cells]: the chains, as (position, next cell) pairs, newest
       first, truncated on resume.
     The since-chains are per thread because one thread's events are
     one proc's, and a proc's clock rows only grow: its newest event
     happens-after all its older ones. So a dependence join needs only
     each chain's head, and a race walk stops at the first event
     already ordered before the current one — every older event of
     that chain is ordered too. *)
  let nthreads = r0.nthreads in
  let st = ibuf () and trail = ibuf () and cells = ibuf () in
  (* per position: trail and cell lengths before it; position 0 starts
     from the empty state *)
  let marks = ibuf () in
  push marks 0;
  push marks 0;
  (* proc -> offset of its last event in [st] *)
  let proc_at = ibuf () in
  (* object -> offset of its block: ids >= 0 are dense within a run;
     cells made outside any run have negative ids, looked up in [ext] *)
  let obj_at = ibuf () and ext = ref [] in
  let clk = ref [||] and stride = ref 0 in
  let cur = ref 0 (* rows below it are valid *) in
  let alloc k =
    let off = st.len in
    reserve st (off + k);
    Array.fill st.a off k (-1);
    st.len <- off + k;
    off
  in
  (* [st] may move when a block is allocated: index it only through
     these, after the offset is computed *)
  let get off = st.a.(off) in
  let set off v =
    let old = st.a.(off) in
    if old <> v then begin
      push trail off;
      push trail old;
      st.a.(off) <- v
    end
  in
  let cell pos next =
    push cells pos;
    push cells next;
    (cells.len / 2) - 1
  in
  (* per-thread slots are interleaved: thread t's sits [step * t] ints
     after thread 0's, with [step] 2 in the global block and 4 in an
     object's *)
  let g = alloc (1 + (2 * nthreads)) in
  let last_any_write = g in
  let pauses i = g + 1 + (2 * i) and drained i = g + 2 + (2 * i) in
  let obj_block x =
    if x >= 0 then begin
      reserve obj_at (x + 1);
      if obj_at.a.(x) < 0 then obj_at.a.(x) <- alloc (1 + (4 * nthreads));
      obj_at.a.(x)
    end
    else
      match List.find_opt (fun (y, _) -> Int.equal x y) !ext with
      | Some (_, b) -> b
      | None ->
          let b = alloc (1 + (4 * nthreads)) in
          ext := (x, b) :: !ext;
          b
  in
  let last_write x = obj_block x and reads i x = obj_block x + 1 + (4 * i) in
  let inserts i x = obj_block x + 2 + (4 * i) in
  let flushed i x = obj_block x + 3 + (4 * i) in
  let lane i x = obj_block x + 4 + (4 * i) in
  (* a new proc widens every valid row by one column *)
  let new_proc () =
    let p = proc_at.len in
    push proc_at (alloc 1);
    let s = !stride and s' = p + 1 in
    let rows = if s = 0 then 0 else Array.length !clk / s in
    let a = Array.make (rows * s') (-1) in
    for k = 0 to !cur - 1 do
      Array.blit !clk (k * s) a (k * s') s
    done;
    clk := a;
    stride := s';
    p
  in
  for _ = 1 to 2 * nthreads do
    ignore (new_proc ())
  done;
  let thread_of = function Step i | Flush i | Flush_obj (i, _) -> i in
  let proc = function
    | Step i -> 2 * i
    | Flush i -> (2 * i) + 1
    | Flush_obj (i, x) ->
        let l = lane i x in
        if get l < 0 then begin
          let p = new_proc () in
          st.a.(l) <- p
        end;
        get l
  in
  let last_event p = get proc_at.a.(p) in
  (* row [dst] := row [dst] joined with row [src] *)
  let join dst src =
    let m = !clk and w = !stride in
    let d = dst * w and s = src * w in
    for k = 0 to w - 1 do
      if m.(s + k) > m.(d + k) then m.(d + k) <- m.(s + k)
    done
  in
  (* row [row] := proc [p]'s current clock *)
  let load_clock row p =
    let w = !stride and e = last_event p in
    if e >= 0 then Array.blit !clk (e * w) !clk (row * w) w
    else Array.fill !clk (row * w) w (-1)
  in
  (* position of thread [i]'s oldest buffered insert to [x] still
     awaiting its flush, or -1: inserts are chained newest first, and
     one is gone once flushed or drained by a committing step *)
  let oldest_insert i x =
    let taken = get (flushed i x) and drain = get (drained i) in
    let rec go c oldest =
      if c < 0 then oldest
      else
        let pos = cells.a.(2 * c) in
        if pos > taken && pos >= drain then go cells.a.((2 * c) + 1) pos
        else oldest
    in
    go (get (inserts i x)) (-1)
  in
  (* the executed access of the step at position [k] *)
  let eff k =
    let nd = node k in
    executed nd.nd_access ~wrote:nd.nd_wrote
  in
  let flushed_obj (a : Vstate.access) =
    match a.Vstate.writes with [ obj ] -> Some obj | _ -> None
  in
  (* a new chain cell in the per-thread slot [h] *)
  let push_cell h pos = set h (cell pos (get h)) in
  let reset_chains base step =
    for t = 0 to nthreads - 1 do
      set (base + (step * t)) (-1)
    done
  in
  (* per analysed position: its proc *)
  let pos_proc = ibuf () in
  (* Race candidates of one transition: the conflicting events not
     ordered before it, collected into [candidates] with no repeats.
     Each position is stamped with the number of the check that
     collected it (an RMW is both its object's last write and a read in
     its own chain). [check_proc] is the transition's proc and
     [check_row] the offset of its clock row. *)
  let candidates = ibuf () and stamp = ibuf () and checks = ref 0 in
  (* [flag]'s first v-event per proc, reused across calls *)
  let first_v_buf = ibuf () in
  let check_proc = ref 0 and check_row = ref 0 in
  let consider i q =
    if q <> !check_proc && i > !clk.(!check_row + q) && stamp.a.(i) <> !checks
    then begin
      stamp.a.(i) <- !checks;
      push candidates i
    end
  in
  let consider_last i = if i >= 0 then consider i pos_proc.a.(i) in
  (* a chain of proc [q]'s events, newest first, down to its first event
     already ordered before the transition *)
  let rec walk q cl =
    if cl >= 0 then begin
      let i = cells.a.(2 * cl) in
      if i > !clk.(!check_row + q) then begin
        consider i q;
        walk q cells.a.((2 * cl) + 1)
      end
    end
  in
  let walk_chains base step =
    for t = 0 to nthreads - 1 do
      if 2 * t <> !check_proc then walk (2 * t) (get (base + (step * t)))
    done
  in
  let rec collect_reads = function
    | [] -> ()
    | x :: tl ->
        consider_last (get (last_write x));
        collect_reads tl
  in
  let rec collect_writes = function
    | [] -> ()
    | x :: tl ->
        consider_last (get (last_write x));
        walk_chains (reads 0 x) 4;
        collect_writes tl
  in
  (* the candidates of a transition by proc [p] with access [a], against
     the clock in row [row] *)
  let collect row p (a : Vstate.access) =
    incr checks;
    check_proc := p;
    check_row := row * !stride;
    candidates.len <- 0;
    collect_reads a.Vstate.reads;
    collect_writes a.Vstate.writes;
    if a.Vstate.wakes then begin
      consider_last (get last_any_write);
      (* pause-pause races: every unretired pause, not just the last —
         reversing deep ones alone is too late for the starved spinner
         to share the no-write window *)
      walk_chains (pauses 0) 2
    end;
    if nonempty a.Vstate.writes then walk_chains (pauses 0) 2
  in
  (* dependence edges into the event at [j]: the last write of what it
     reads or writes, and the newest event of every chain it must
     follow *)
  let join_last j i = if i >= 0 then join j i in
  let join_heads j base step =
    for t = 0 to nthreads - 1 do
      let h = get (base + (step * t)) in
      if h >= 0 then join j cells.a.(2 * h)
    done
  in
  let rec join_reads j = function
    | [] -> ()
    | x :: tl ->
        join_last j (get (last_write x));
        join_reads j tl
  in
  let rec join_writes j = function
    | [] -> ()
    | x :: tl ->
        join_last j (get (last_write x));
        join_heads j (reads 0 x) 4;
        join_writes j tl
  in
  (* what the event at [j] by thread [t] leaves for later events *)
  let rec record_writes j = function
    | [] -> ()
    | x :: tl ->
        set (last_write x) j;
        reset_chains (reads 0 x) 4;
        record_writes j tl
  in
  let rec record_reads j t = function
    | [] -> ()
    | x :: tl ->
        push_cell (reads t x) j;
        record_reads j t tl
  in
  let rec record_inserts j t = function
    | [] -> ()
    | x :: tl ->
        push_cell (inserts t x) j;
        record_inserts j t tl
  in
  let analyze ~from (r : exec_result) =
    let n = r.length in
    if n > 0 then begin
      reserve stamp (n + 1);
      reserve pos_proc n;
      (* back to the state before position [from] *)
      let t = marks.a.(2 * from) in
      let k = ref (trail.len - 2) in
      while !k >= t do
        st.a.(trail.a.(!k)) <- trail.a.(!k + 1);
        k := !k - 2
      done;
      trail.len <- t;
      cells.len <- marks.a.((2 * from) + 1);
      if (n + 1) * !stride > Array.length !clk then begin
        let a = Array.make ((n + 1 + (n / 4)) * !stride) (-1) in
        Array.blit !clk 0 a 0 (from * !stride);
        clk := a
      end;
      (* To reverse the race between the event at position [at] and the
         later conflicting transition [later], it is not enough to
         schedule proc-of-[later] at node [at]: if that choice is
         sleeping there, [later] can still depend on intermediate
         independent events that must come first (and that the sleeping
         subtree, rooted at an ancestor, schedules differently).  This
         is the source-set condition of Abdulla et al. (POPL'14): let
         v = notdep(e_at)·later — the events after [at] that do not
         happen-after it, then the later transition itself — and add an
         initial of v (an event no other v-event happens-before) to the
         backtrack set.  Proc-of-[later] alone is only correct when it
         is such an initial. *)
      let flag at ~upto later_choice later_access =
        if at < path.depth && not (saturated (node at)) then begin
          let nd = node at in
          let qi = pos_proc.a.(at) in
          let m = !clk and w = !stride in
          (* first v-event per proc; each is that proc's first
             transition after [at], so its choice is affordable-at-[at]
             shaped *)
          reserve first_v_buf w;
          let first_v = first_v_buf.a in
          Array.fill first_v 0 w (-1);
          let inits = ref [] in
          let later_dep = ref false in
          for k = at + 1 to upto - 1 do
            let kc = k * w in
            if m.(kc + qi) < at then begin
              (* e_k ∈ v *)
              if conflicts (eff k) later_access then
                later_dep := true;
              let pk = pos_proc.a.(k) in
              if first_v.(pk) < 0 then begin
                first_v.(pk) <- k;
                let pred = ref false in
                for q = 0 to w - 1 do
                  if q <> pk && first_v.(q) >= 0 && first_v.(q) <= m.(kc + q)
                  then pred := true
                done;
                if not !pred then
                  inits := (node k).nd_choice :: !inits
              end
            end
          done;
          let inits = List.rev !inits in
          (* prefer proc-of-[later] itself when it qualifies: reversing
             the race directly keeps the search order close to plain
             Flanagan-Godefroid *)
          let inits =
            if first_v.(proc later_choice) < 0 && not !later_dep then
              later_choice :: inits
            else inits
          in
          let covered c =
            tried nd c || mem_choice c nd.nd_backtrack
          in
          let sleeping c = mem_assoc_choice c nd.nd_sleep in
          let add c =
            nd.nd_backtrack <- c :: nd.nd_backtrack;
            incr races
          in
          match
            List.filter (fun c -> mem_assoc_choice c nd.nd_enabled) inits
          with
          | [] ->
              (* no initial is schedulable at [at]: conservatively try
                 every untried alternative (the Flanagan-Godefroid
                 else-branch) *)
              List.iter
                (fun (c, _) ->
                  if not (covered c) && not (sleeping c) then add c)
                nd.nd_enabled
          | cands ->
              if not (List.exists covered cands) then (
                match List.find_opt (fun c -> not (sleeping c)) cands with
                | Some c -> add c
                | None ->
                    (* every initial sleeps: the reversal is reachable
                       from the ancestor that put them to sleep *)
                    ())
        end
      in
      (* Race-check transition [c] against the clock in row [row].
         [flag] touches only node [at], and flagging a node twice for
         one [c] adds nothing, so the candidates' order does not
         matter. *)
      let race_check row ~upto c a =
        collect row (proc c) a;
        for k = 0 to candidates.len - 1 do
          flag candidates.a.(k) ~upto c a
        done
      in
      (* a flush happens after its insert: inherit that clock *)
      let join_insert row c (a : Vstate.access) ~take =
        match (c, flushed_obj a) with
        | (Flush i | Flush_obj (i, _)), Some x ->
            let k = oldest_insert i x in
            if k >= 0 then begin
              if take then set (flushed i x) k;
              join row k
            end
        | _ -> ()
      in
      for j = from to n - 1 do
        let nd = node j in
        let c = nd.nd_choice in
        let a = eff j in
        reserve marks ((2 * j) + 2);
        marks.a.(2 * j) <- trail.len;
        marks.a.((2 * j) + 1) <- cells.len;
        cur := j;
        let p = proc c in
        pos_proc.a.(j) <- p;
        load_clock j p;
        join_insert j c nd.nd_access ~take:true;
        race_check j ~upto:j c a;
        join_reads j a.Vstate.reads;
        join_writes j a.Vstate.writes;
        if a.Vstate.wakes then begin
          join_last j (get last_any_write);
          join_heads j (pauses 0) 2
        end;
        if nonempty a.Vstate.writes then join_heads j (pauses 0) 2;
        !clk.((j * !stride) + p) <- j;
        set proc_at.a.(p) j;
        let t = thread_of c in
        record_writes j a.Vstate.writes;
        record_reads j t a.Vstate.reads;
        if nonempty a.Vstate.writes then set last_any_write j;
        (* only an actual commit wakes (and thereby retires) earlier
           pauses; a failed CAS only declared the write *)
        if nd.nd_wrote then reset_chains (pauses 0) 2;
        if a.Vstate.wakes then push_cell (pauses t) j;
        match c with
        | Step i ->
            (* a committing step drains the buffer, retiring any inserts
               a flush will now never pop *)
            if nonempty a.Vstate.writes then set (drained i) j;
            record_inserts j i a.Vstate.inserts
        | Flush _ | Flush_obj _ -> ()
      done;
      (* transitions left pending when the bounds cut the run never get
         a "next execution of their proc" to race-check from — do it
         here, against their proc's final clock (in the spare row n) *)
      cur := n;
      List.iter
        (fun (c, a) ->
          load_clock n (proc c);
          join_insert n c a ~take:false;
          race_check n ~upto:n c a)
        r.end_pending
    end
  in
  if !violation = None then analyze ~from:0 r0;
  let continue = ref (!violation = None) in
  while !continue do
    if !executions >= cfg.max_executions then begin
      truncated := true;
      continue := false
    end
    else begin
      (* deepest node with an unexplored backtrack candidate *)
      let d = ref (path.depth - 1) in
      let found = ref None in
      while Option.is_none !found && !d >= 0 do
        let nd = node !d in
        (match
           List.find_opt
             (fun c ->
               (not (tried nd c))
               && not (mem_assoc_choice c nd.nd_sleep))
             nd.nd_backtrack
         with
        | Some c -> found := Some (!d, c)
        | None -> decr d)
      done;
      match !found with
      | None -> continue := false
      | Some (d, c) ->
          let nd = node d in
          (* the subtree under the current choice is fully explored:
             siblings must not wander back into it *)
          nd.nd_sleep <- (nd.nd_choice, nd.nd_access) :: nd.nd_sleep;
          let c_access =
            match assoc_choice c nd.nd_enabled with
            | Some a -> a
            | None -> Vstate.no_access
          in
          nd.nd_done <- nd.nd_choice :: nd.nd_done;
          nd.nd_choice <- c;
          path.tids.(d) <- tid_of c;
          nd.nd_access <- c_access;
          path.depth <- d + 1;
          let sleep0 =
            List.filter
              (fun (_, sa) -> not (conflicts sa c_access))
              nd.nd_sleep
          in
          let r = run_with (Resume (path, d)) sleep0 in
          if !violation = None then analyze ~from:d r else continue := false
    end
  done;
  {
    name;
    strategy = Dpor;
    executions = !executions;
    steps = !steps;
    complete = !complete;
    pruned = !pruned;
    sleep_blocked = !sleep_blocked;
    sleep_hits = !sleep_hits;
    races = !races;
    violation = !violation;
    truncated = !truncated;
    (* the while loop ends by truncation, by violation, or by draining
       the backtrack frontier — only the last is completeness *)
    exhaustive = (not !truncated) && !violation = None;
    seconds = seconds_since t0;
  }

let check ?(config = default) ~name scenario =
  match config.strategy with
  | Naive -> naive_check config name scenario
  | Dpor -> dpor_check config name scenario

let violation_to_string = function
  | Property m -> "property: " ^ m
  | Deadlock m -> "deadlock: " ^ m
  | Runaway m -> "runaway: " ^ m
  | Crash m -> "crash: " ^ m

let pp_report ppf r =
  Format.fprintf ppf "%-34s %8d execs %9d steps %6.2fs %s%s%s" r.name
    r.executions r.steps r.seconds
    (match r.violation with
    | None -> "ok"
    | Some (v, _) -> "VIOLATION " ^ violation_to_string v)
    (if r.truncated then " (truncated)"
     else if r.exhaustive then " (exhaustive)"
     else "")
    (match r.strategy with
    | Naive -> ""
    | Dpor ->
        Printf.sprintf
          " [dpor %d complete, %d pruned (%d sleep-blocked), %d races, %d \
           sleep]"
          r.complete r.pruned r.sleep_blocked r.races r.sleep_hits)
