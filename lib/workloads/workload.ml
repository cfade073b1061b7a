module M = Clof_sim.Sim_mem
module E = Clof_sim.Engine
open Clof_topology

type params = {
  duration : int;
  cs_reads : int;
  cs_writes : int;
  cs_work : int;
  noncs_work : int;
}

let dram_read = 90

let leveldb =
  {
    duration = 400_000;
    cs_reads = 4;
    cs_writes = 3;
    cs_work = 80;
    noncs_work = 2200;
  }

let kyoto =
  {
    duration = 600_000;
    cs_reads = 12;
    cs_writes = 6;
    cs_work = 2000;
    noncs_work = 26_000;
  }

(* ---------- backend-parametric thread body ----------

   The per-thread benchmark loop is shared between the simulator runner
   below and the native runner ([Clof_native.Native]): both execute the
   exact same acquire / read-index / write-hot / compute / release /
   think sequence, differing only in how the six primitive operations
   are performed. The simulator charges virtual time through engine
   effects; the native backend burns real cycles and reads the
   monotonic clock. Keeping the loop in one place is what makes the
   cross-validation experiment an apples-to-apples comparison. *)

type ops = {
  op_work : int -> unit;
      (** perform [n] ns-ish of lock-free work (simulated: charged to
          virtual time; native: a calibrated arithmetic spin) *)
  op_now : unit -> int;  (** the backend clock ({!Memory_intf.S.now}) *)
  op_running : unit -> bool;  (** benchmark window still open *)
  op_hot_store : int -> int -> unit;
      (** [op_hot_store slot tid]: write the [slot]-th hot line *)
  op_probe_enter : unit -> unit;  (** mutual-exclusion race detector *)
  op_probe_exit : unit -> unit;
}

let thread_body ops (p : params) ~deadline ~cpu ~tid
    ~(handle : Clof_core.Runtime.handle) ~sink ~counts ~last_progress =
  let read_work = p.cs_reads * dram_read in
  let rng = Random.State.make [| 0x5eed; tid; cpu |] in
  (* Heterogeneous thread rates and a staggered start keep the queue
     order mixing; without them FIFO locks settle into a stable
     neighbour-to-neighbour rotation no real workload exhibits. *)
  let rate = 0.6 +. Random.State.float rng 0.8 in
  let think () =
    if p.noncs_work > 0 then
      ops.op_work
        (int_of_float
           (rate
           *. float_of_int
                ((p.noncs_work / 2) + Random.State.int rng p.noncs_work)))
  in
  think ();
  while ops.op_running () do
    let t0 = ops.op_now () in
    let owned =
      match deadline with
      | None ->
          handle.Clof_core.Runtime.acquire ();
          true
      | Some d -> handle.Clof_core.Runtime.try_acquire ~deadline:(t0 + d)
    in
    if not owned then begin
      (* deadline hit: record, back off, try again next iteration *)
      Clof_stats.Stats.Sink.timeout sink;
      think ()
    end
    else begin
      Clof_stats.Stats.Sink.acquired sink ~ns:(ops.op_now () - t0);
      ops.op_probe_enter ();
      if read_work > 0 then ops.op_work read_work;
      for j = 0 to p.cs_writes - 1 do
        ops.op_hot_store j tid
      done;
      if p.cs_work > 0 then ops.op_work p.cs_work;
      ops.op_probe_exit ();
      handle.Clof_core.Runtime.release ();
      counts.(tid) <- counts.(tid) + 1;
      last_progress.(tid) <- ops.op_now ();
      think ()
    end
  done

type result = {
  lock : string;
  nthreads : int;
  total_ops : int;
  per_thread : int array;
  last_progress : int array;
  sim_ns : int;
  throughput : float;
  hung : bool;
  aborted : bool;
  crashed : int list;
  recoveries : int;
  transfers : (Clof_topology.Level.proximity * int) list;
  stats : Clof_stats.Stats.recorder;
  events : int;
}

exception Lock_failure of string

type thread = {
  cpu : int;
  tid : int;
  handles : Clof_core.Runtime.handle array;
  recorder : Clof_stats.Stats.recorder;
  enter : int -> unit;
  exit : int -> unit;
  counts : int array;
  progress : int array;
}

let simulate ?(check = true) ?(faults = []) ?watchdog ~locks ~duration
    ~platform ~cpus ~spec body =
  let instances =
    Array.init locks (fun _ ->
        spec.Clof_core.Runtime.instantiate platform.Platform.topo)
  in
  let lock = instances.(0) in
  let nthreads = Array.length cpus in
  let counts = Array.make nthreads 0 in
  let progress = Array.make nthreads 0 in
  (* one recorder per thread: recording stays single-writer, the
     recorders are merged after the run *)
  let recorders =
    Array.init nthreads (fun _ -> Clof_stats.Stats.create ())
  in
  (* The mutual-exclusion probe lives on [M]'s cells, not plain OCaml
     refs, so probe state belongs to the simulated memory rather than
     the host heap when simulations run one per domain. Accesses go
     through the op-neutral [peek]/[poke] pair: charging simulated cost
     (or ops) for instrumentation would perturb every measurement and
     shift the op counts that fault injection anchors to. *)
  let in_cs = Array.init locks (fun _ -> M.make ~name:"probe.in_cs" 0) in
  let violated = M.make ~name:"probe.violated" false in
  (* [owner] tracks which thread is inside the CS (-1 when none); the
     watchdog reads it to name the victim of a holder crash, and
     [E.cs_mark] brackets the section for [Crash_in_cs] targeting.
     Both are op-neutral, so runs without faults or watchdog are
     bit-identical to runs before they existed. *)
  let owner = M.make ~name:"probe.owner" (-1) in
  let enter s =
    let nesting = M.peek in_cs.(s) in
    M.poke in_cs.(s) (nesting + 1);
    if nesting <> 0 then M.poke violated true;
    M.poke owner (E.tid ());
    E.cs_mark true
  in
  let exit s =
    M.poke in_cs.(s) (M.peek in_cs.(s) - 1);
    M.poke owner (-1);
    E.cs_mark false
  in
  (* Every thread's contexts are created up front so the watchdog can
     force-release through the dead holder's context — the locks are
     thread-oblivious (DESIGN.md): a context acquired by one thread may
     be released by another holding it. Context creation performs no
     engine effects, so creating them before the run is
     behavior-neutral. *)
  let handles =
    Array.mapi
      (fun tid cpu ->
        Array.map
          (fun l -> l.Clof_core.Runtime.handle ~stats:recorders.(tid) ~cpu ())
          instances)
      cpus
  in
  let thread cpu tid =
    let handles = handles.(tid) and recorder = recorders.(tid) in
    body { cpu; tid; handles; recorder; enter; exit; counts; progress }
  in
  let recoveries = ref 0 in
  (* The recovery watchdog: an extra green thread that samples (CS
     owner, total completed ops) once per [lease]. A full lease with
     the same parked owner and zero completions anywhere means the
     holder died inside its critical section (a live holder, even one
     stalled by a fault, resumes well within a lease): reclaim by
     repairing the probe, force-releasing through the victim's handle,
     and — for truly abortable locks — confirming the lock serves
     again with a deadline-sliced timed acquisition ([confirm]). *)
  let watchdog_body lease _tid =
    let wd_handle =
      lock.Clof_core.Runtime.handle ~cpu:cpus.(0) ()
    in
    let total () = Array.fold_left ( + ) 0 counts in
    (* One timed attempt with the whole lease can starve in an MCS/CLH
       timeout storm (see [Mcs]): when every waiter's deadline sits
       below the churn-inflated handover latency and failed waiters
       re-enqueue at once, the abandon and append rates balance into a
       livelock where almost no acquisition succeeds. So the lease is
       split into attempts with growing sub-deadlines, the first an
       eighth of it, so an abandoned wait re-arms instead of camping in
       the queue and late attempts outlast the inflated handover
       latency; failed attempts are spaced by exponential [pause] runs
       (up to 64) so re-arms do not feed the storm. *)
    let confirm () =
      let deadline = E.now () + lease in
      let rec go slice delay =
        let now = E.now () in
        if now >= deadline then false
        else if
          wd_handle.Clof_core.Runtime.try_acquire
            ~deadline:(min deadline (now + slice))
        then true
        else begin
          for _ = 1 to delay do
            E.pause ()
          done;
          go (min (2 * slice) lease) (min (2 * delay) 64)
        end
      in
      go (max 1 (lease / 8)) 1
    in
    let reclaim victim =
      recoveries := !recoveries + 1;
      M.poke owner (-1);
      M.poke in_cs.(0) (M.peek in_cs.(0) - 1);
      handles.(victim).(0).Clof_core.Runtime.release ();
      if lock.Clof_core.Runtime.l_abortable && confirm () then
        wd_handle.Clof_core.Runtime.release ()
    in
    let rec loop last_owner last_total =
      E.sleep lease;
      let o = M.peek owner and t = total () in
      if o >= 0 && o = last_owner && t = last_total then reclaim o;
      if E.running () then loop (M.peek owner) (total ())
    in
    loop (-1) (-1)
  in
  let threads =
    Array.to_list (Array.map (fun cpu -> (cpu, thread cpu)) cpus)
    @
    match watchdog with
    | None -> []
    | Some lease -> [ (cpus.(0), watchdog_body (max 1 lease)) ]
  in
  let o = E.run ~duration ~faults ~platform ~threads () in
  if check then begin
    let fail what =
      raise (Lock_failure (Printf.sprintf "%s: %s" lock.l_name what))
    in
    if M.peek violated then fail "mutual exclusion violated";
    if o.hung then fail "benchmark hung";
    if o.aborted then fail "benchmark livelocked"
  end;
  let total_ops = Array.fold_left ( + ) 0 counts in
  let sim_ns = max 1 o.end_time in
  {
    lock = lock.l_name;
    nthreads;
    total_ops;
    per_thread = counts;
    last_progress = progress;
    sim_ns;
    throughput = 1000.0 *. float_of_int total_ops /. float_of_int sim_ns;
    hung = o.hung;
    aborted = o.aborted;
    crashed = o.E.crashed;
    recoveries = !recoveries;
    transfers = o.E.transfers;
    stats = Clof_stats.Stats.merge_all (Array.to_list recorders);
    events = o.E.events;
  }

let run_on_cpus ?check ?faults ?deadline ?watchdog ~platform ~cpus ~spec
    (p : params) =
  let hot = Array.init (max 1 p.cs_writes) (fun i ->
      M.make ~name:(Printf.sprintf "hot.%d" i) 0)
  in
  simulate ?check ?faults ?watchdog ~locks:1 ~duration:p.duration ~platform
    ~cpus ~spec (fun t ->
      let ops =
        {
          op_work = E.work;
          op_now = E.now;
          op_running = E.running;
          op_hot_store = (fun j tid -> M.store hot.(j) tid);
          op_probe_enter = (fun () -> t.enter 0);
          op_probe_exit = (fun () -> t.exit 0);
        }
      in
      thread_body ops p ~deadline ~cpu:t.cpu ~tid:t.tid
        ~handle:t.handles.(0)
        ~sink:(Clof_stats.Stats.Sink.of_recorder t.recorder)
        ~counts:t.counts ~last_progress:t.progress)

let run ?check ?faults ?deadline ?watchdog ~platform ~nthreads ~spec p =
  let cpus = Topology.pick_cpus platform.Platform.topo ~nthreads in
  run_on_cpus ?check ?faults ?deadline ?watchdog ~platform ~cpus ~spec p
