(* sim-throughput: how fast the discrete-event engine itself runs.

   Every number this reproduction produces is bottlenecked on the
   engine's per-event cost, so we track it the way the paper tracks
   lock handovers: simulated events per wall-clock second, and minor
   words allocated per event, on the two inner loops everything else is
   built from — the two-thread ping-pong (wake/transfer path) and the
   contended scripted workload (full lock traffic). Extra rows time one
   uncontended acquire+release on real atomics (an "event" there is
   one such pair): the lock fast path the simulator cannot clock.
   Results are wall-clock dependent, so BENCH_sim.json is tracked as a
   trajectory (bench_check prints it) and never diffed or gated. *)

open Clof_topology
module E = Clof_sim.Engine
module M = Clof_sim.Sim_mem
module W = Clof_workloads.Workload
module RT = Clof_core.Runtime
module RM = Clof_atomics.Real_mem
module RR = Clof_locks.Registry.Make (RM)
module RG = Clof_core.Generator.Make (RM)

type sample = {
  label : string;
  runs : int; (* simulations executed *)
  events : int; (* engine events across all runs *)
  wall_s : float;
  events_per_us : float; (* thousands of events per wall ms = ev/us *)
  words_per_event : float; (* minor-heap words allocated per event *)
}

(* One ping-pong simulation; returns the engine event count. The body
   mirrors Workloads.Pingpong but reads the outcome instead of
   iterations: this exercises the wake_watchers/transfer path. *)
let pingpong_events ~duration ~platform cpu1 cpu2 =
  let c = M.make ~name:"pingpong" 0 in
  let body parity _tid =
    while E.running () do
      let v = M.await c (fun v -> v mod 2 = parity) in
      M.store c (v + 1)
    done
  in
  let o =
    E.run ~duration ~platform
      ~threads:[ (cpu1, body 0); (cpu2, body 1) ]
      ()
  in
  o.E.events

let time_loop ~label ~runs (run1 : unit -> int) =
  (* warm caches and code paths outside the measured window *)
  ignore (run1 ());
  Gc.minor ();
  let w0 = Gc.minor_words () in
  let t0 = Clof_exec.Exec.now_s () in
  let events = ref 0 in
  for _ = 1 to runs do
    events := !events + run1 ()
  done;
  let wall_s = Clof_exec.Exec.now_s () -. t0 in
  let words = Gc.minor_words () -. w0 in
  let ev = max 1 !events in
  {
    label;
    runs;
    events = !events;
    wall_s;
    events_per_us =
      float_of_int ev /. (Float.max wall_s 1e-9 *. 1_000_000.0);
    words_per_event = words /. float_of_int ev;
  }

(* [n] uncontended acquire+release pairs through one handle of [spec]
   instantiated over real atomics. *)
let uncontended ~n spec =
  let lock = spec.RT.instantiate Platform.x86.Platform.topo in
  let h = lock.RT.handle ~cpu:0 () in
  fun () ->
    for _ = 1 to n do
      h.RT.acquire ();
      h.RT.release ()
    done;
    n

let real_specs () =
  List.map RT.of_basic
    [ RR.ticket; RR.mcs; RR.clh; RR.hemlock ~ctr:false () ]
  @ [
      RT.rename "clof<4> tkt-tkt-mcs-mcs"
        (RT.of_clof
           ~hierarchy:(Platform.hier4 Platform.x86)
           (Option.get
              (RG.of_name ~basics:(RR.basics ~ctr:true) "tkt-tkt-mcs-mcs")));
    ]

let scripted_spec () =
  Scripted.spec_of_name ~platform:Platform.x86 ~depth:2 "mcs-mcs"

let run ?(quick = false) () =
  let p = Platform.x86 in
  let reps = if quick then 30 else 150 in
  let spec = scripted_spec () in
  let params = { W.leveldb with W.duration = 150_000 } in
  [
    time_loop ~label:"pingpong" ~runs:(4 * reps) (fun () ->
        pingpong_events ~duration:200_000 ~platform:p 0 24);
    time_loop ~label:"scripted" ~runs:reps (fun () ->
        (W.run ~platform:p ~nthreads:8 ~spec params).W.events);
  ]
  @ List.map
      (fun spec ->
        time_loop ~label:("real/" ^ spec.RT.s_name) ~runs:reps
          (uncontended ~n:10_000 spec))
      (real_specs ())

(* ---------- report plumbing ----------

   One point-less series per sample; the measurements travel in its
   typed meta. *)

let exp_id = "sim-throughput"

let to_report samples =
  let series =
    List.map
      (fun s ->
        {
          Report.lock = s.label;
          meta =
            Some
              [
                ("events", Report.I s.events);
                ("runs", Report.I s.runs);
                ("events_per_us", Report.F s.events_per_us);
                ( "ns_per_event",
                  Report.F (s.wall_s *. 1e9 /. float_of_int (max 1 s.events))
                );
                ("words_per_event", Report.F s.words_per_event);
              ];
          points = [];
        })
      samples
  in
  {
    Report.version = Report.schema_version;
    quick = false;
    meta = None;
    experiments =
      [
        {
          Report.exp_id;
          platform = Topology.name Platform.x86.Platform.topo;
          workload = "engine-hot-path+real-uncontended";
          series;
        };
      ];
  }
