open Clof_topology
module M = Clof_atomics.Real_mem
module W = Clof_workloads.Workload
module RT = Clof_core.Runtime
module S = Clof_stats.Stats

type result = {
  lock : string;
  nthreads : int;
  total_ops : int;
  per_thread : int array;
  last_progress : int array;
  wall_ns : int;
  throughput : float;
  pinned : bool;
  stats : S.recorder;
}

(* Opaque arithmetic spin the compiler cannot delete; the unit of
   [op_work] calibration. *)
let spin k =
  let acc = ref 0 in
  for i = 1 to k do
    acc := !acc + i
  done;
  ignore (Sys.opaque_identity !acc)

(* How many spin iterations approximate one nanosecond on this host,
   measured once over a ~2 ms window. The workload params are expressed
   in simulated ns (cs_work, noncs_work); scaling them through this
   factor keeps the native critical-section-to-think ratio in the same
   regime the simulator models, which is what makes the two backends'
   contention levels comparable. Precision is irrelevant — only ratios
   matter, and they are exact because every op_work call uses the same
   factor. *)
let iters_per_ns =
  lazy
    (let t0 = M.now () in
     let iters = ref 0 in
     while M.now () - t0 < 2_000_000 do
       spin 1000;
       iters := !iters + 1000
     done;
     Float.max 0.01 (float_of_int !iters /. float_of_int (M.now () - t0)))

let run ?deadline ?(duration_ms = 200) ~platform ~nthreads
    ~spec (p : W.params) =
  let topo = platform.Platform.topo in
  let cpus = Topology.pick_cpus topo ~nthreads in
  let lock = spec.RT.instantiate topo in
  let hot =
    Array.init
      (max 1 p.W.cs_writes)
      (fun i -> M.make ~name:(Printf.sprintf "hot.%d" i) 0)
  in
  let counts = Array.make nthreads 0 in
  let last_progress = Array.make nthreads 0 in
  let recorders = Array.init nthreads (fun _ -> S.create ()) in
  (* The race detector is its own (padded) real atomic: a genuine
     mutual-exclusion violation shows up as a nested fetch_add from two
     domains, exactly like the simulator's probe cells — and like them
     it costs a couple of uncontended-in-the-common-case RMWs per
     operation, identical for every lock under test. *)
  let in_cs = M.make ~name:"probe.in_cs" 0 in
  let violated = M.make ~name:"probe.violated" false in
  let all_pinned = Atomic.make true in
  let ready = Atomic.make 0 in
  let stop_at = Atomic.make max_int in
  let scale = Lazy.force iters_per_ns in
  let ops =
    {
      W.op_work =
        (fun n -> spin (max 1 (int_of_float (float_of_int n *. scale))));
      op_now = M.now;
      op_running = (fun () -> M.now () < Atomic.get stop_at);
      op_hot_store = (fun j tid -> M.store hot.(j) tid);
      op_probe_enter =
        (fun () ->
          if M.fetch_add in_cs 1 <> 0 then M.store violated true);
      op_probe_exit = (fun () -> ignore (M.fetch_add in_cs (-1)));
    }
  in
  let body tid () =
    let cpu = cpus.(tid) in
    if not (Affinity.pin_current cpu) then Atomic.set all_pinned false;
    let stats = recorders.(tid) in
    let sink = S.Sink.of_recorder stats in
    let h = lock.RT.handle ~stats ~cpu () in
    ignore (Atomic.fetch_and_add ready 1);
    (* park until the measurement window opens, yielding so that on an
       oversubscribed host the remaining set-up work gets the core *)
    let spins = ref 0 in
    while Atomic.get stop_at = max_int do
      incr spins;
      if !spins land 0xFF = 0 then M.sched_yield () else M.pause ()
    done;
    W.thread_body ops p ~deadline ~cpu ~tid ~handle:h ~sink ~counts
      ~last_progress
  in
  let domains = Array.init nthreads (fun tid -> Domain.spawn (body tid)) in
  let spins = ref 0 in
  while Atomic.get ready < nthreads do
    incr spins;
    if !spins land 0xFF = 0 then M.sched_yield () else M.pause ()
  done;
  (* open the window only once every domain is pinned and has built its
     context: set-up cost (spawn, allocation) never pollutes the
     measured span *)
  let t_go = M.now () in
  Atomic.set stop_at (t_go + (duration_ms * 1_000_000));
  let failures =
    Array.to_list domains
    |> List.filter_map (fun d ->
           match Domain.join d with () -> None | exception e -> Some e)
  in
  let t_end = M.now () in
  (match failures with e :: _ -> raise e | [] -> ());
  if M.load violated then
    raise
      (W.Lock_failure
         (Printf.sprintf "%s: mutual exclusion violated on %d domains"
            lock.RT.l_name nthreads));
  let total_ops = Array.fold_left ( + ) 0 counts in
  (* wall clock includes the drain of in-flight acquisitions past the
     nominal window — matching how ops are counted *)
  let wall_ns = max 1 (t_end - t_go) in
  {
    lock = lock.RT.l_name;
    nthreads;
    total_ops;
    per_thread = counts;
    last_progress =
      Array.map (fun t -> if t = 0 then 0 else max 0 (t - t_go)) last_progress;
    wall_ns;
    throughput = 1000.0 *. float_of_int total_ops /. float_of_int wall_ns;
    pinned = Affinity.available && Atomic.get all_pinned;
    stats = S.merge_all (Array.to_list recorders);
  }
