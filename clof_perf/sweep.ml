(* sweep: Fig. 9a — every depth-4 composition of {tkt, mcs, clh, hem}
   plus hmcs<4> on the simulated x86-2x24ht box, at each thread count
   of the paper's grid. Closed loop, one domain. Nearly all the host
   time is the engine's spin/wake and line-transfer path plus Compose's
   handover code; no timers, no checker, no real atomics. *)

open Clof_topology
module M = Clof_sim.Sim_mem
module E = Clof_sim.Engine
module R = Clof_locks.Registry.Make (M)
module G = Clof_core.Generator.Make (M)
module Hmcs = Clof_baselines.Hmcs.Make (M)
module W = Clof_workloads.Workload
module RT = Clof_core.Runtime
module S = Clof_stats.Stats
module Prng = Clof_workloads.Kvservice.Prng

let platform = Platform.x86

(* Fig. 9a's x86 contention grid, ending one CPU short of the machine
   as the paper runs it. *)
let grid = [ 1; 4; 8; 16; 24; 32; 48; 64; 95 ]
let top = 95

(* Seed 0 is LevelDB exactly. Any other seed draws cs_work, cs_writes
   and noncs_work within +/-25% of it, once per thread count: the
   compositions of one column always share their inputs, and the pass
   averages its cost over nine draws, so its host time stays comparable
   across seeds. *)
let column_params ~seed ~duration n =
  let base = { W.leveldb with W.duration } in
  if seed = 0 then base
  else
    let g = Prng.create ((seed * 1_000_003) + n) in
    let jitter v =
      int_of_float (Float.round (float_of_int v *. (0.75 +. (0.5 *. Prng.float g))))
    in
    let cs_work = jitter base.W.cs_work in
    let cs_writes = max 1 (jitter base.W.cs_writes) in
    let noncs_work = jitter base.W.noncs_work in
    { base with W.cs_work; cs_writes; noncs_work }

type cell = {
  label : string;
  spec : RT.spec;
  n : int;
  params : W.params;
  hmcs : bool;
}

(* The engine with no lock at all: two threads bouncing one line, the
   shape of the repo's sim-throughput benchmark. It separates engine
   cost from lock code. *)
let pingpong ~duration () =
  let c = M.make ~name:"pingpong" 0 in
  let body parity _tid =
    while E.running () do
      let v = M.await c (fun v -> v mod 2 = parity) in
      M.store c (v + 1)
    done
  in
  (E.run ~duration ~platform ~threads:[ (0, body 0); (24, body 1) ] ()).E.events

let remote_rank = Level.prox_rank Level.Same_package

let check_cell t b c (r : W.result) =
  Meter.expect t
    (r.W.total_ops > 0
    && S.acquisitions r.W.stats = r.W.total_ops
    && (not r.W.hung) && not r.W.aborted)
    (fun () ->
      Printf.sprintf "%s: %d ops, %d acquisitions recorded" c.label
        r.W.total_ops (S.acquisitions r.W.stats));
  Buffer.add_string b
    (Printf.sprintf "%s %d %d %d [%s] [%s] %s\n" c.label r.W.total_ops
       r.W.sim_ns r.W.events
       (String.concat ","
          (Array.to_list (Array.map string_of_int r.W.per_thread)))
       (String.concat ","
          (List.map
             (fun (p, k) -> Printf.sprintf "%d:%d" (Level.prox_rank p) k)
             r.W.transfers))
       (Clof_stats.Json.to_string (S.to_json r.W.stats)))

let details cells results ~pingpong_events ~pingpong_ns ~call_ns =
  let comps =
    List.filter_map
      (fun (c, r) -> match r with Some r when not c.hmcs -> Some (c, r) | _ -> None)
      results
  in
  let at_top = List.filter (fun (c, _) -> c.n = top) comps in
  let thr (_, r) = r.W.throughput in
  let best = List.fold_left (fun a x -> Float.max a (thr x)) 0.0 at_top in
  let hmcs_top =
    List.fold_left
      (fun a (c, r) ->
        match r with Some r when c.hmcs && c.n = top -> r.W.throughput | _ -> a)
      nan results
  in
  let top_stats = S.merge_all (List.map (fun (_, r) -> r.W.stats) at_top) in
  let transfers = List.concat_map (fun (_, r) -> r.W.transfers) comps in
  let ntrans = Meter.sum snd transfers in
  let remote =
    Meter.sum snd (List.filter (fun (p, _) -> Level.prox_rank p >= remote_rank) transfers)
  in
  let events = Meter.sum (fun (_, r) -> r.W.events) comps in
  [
    Meter.host "sim_runs_per_s" "runs/s"
      (float_of_int (List.length cells) /. Meter.seconds_of_ns call_ns);
    Meter.sim "sim_best_ops_per_us" "ops/us" best;
    Meter.sim "sim_mean_ops_per_us" "ops/us"
      (List.fold_left (fun a x -> a +. thr x) 0.0 comps
      /. float_of_int (max 1 (List.length comps)));
    Meter.sim "sim.clof_vs_hmcs_95t" "ratio" (best /. hmcs_top);
    Meter.sim "sim.events" "count" (float_of_int events);
    Meter.sim "sim.transfers_remote_frac" "fraction" (Meter.ratio remote ntrans);
    Meter.sim "clof.locality" "fraction" (S.locality top_stats);
    Meter.sim "clof.keep_local_fraction" "fraction" (S.keep_local_fraction top_stats);
    Meter.sim "clof.h_exhausted" "count" (float_of_int (Meter.h_exhausted top_stats));
    Meter.sim "clof.acquire_p99_ns" "ns" (1000.0 *. Meter.pct_us top_stats 99.0);
    Meter.host "sim.pingpong_events_per_s" "events/s"
      (float_of_int pingpong_events /. Meter.seconds_of_ns pingpong_ns);
  ]

let setup ~seed ~quick () =
  let duration = if quick then 40_000 else 200_000 in
  let grid = if quick then [ 1; top ] else grid in
  let hierarchy = Platform.hier4 platform in
  let comps = G.generate ~basics:(R.basics ~ctr:true) ~depth:4 in
  let comps =
    if quick then List.filteri (fun i _ -> i mod 32 = 0) comps else comps
  in
  let specs =
    List.map (fun p -> (RT.of_clof ~hierarchy p, false)) comps
    @ [ (RT.rename "hmcs<4>" (Hmcs.spec ~hierarchy ()), true) ]
  in
  let cells =
    List.concat_map
      (fun (spec, hmcs) ->
        List.map
          (fun n ->
            {
              label = Printf.sprintf "Workload.run %s %dT" spec.RT.s_name n;
              spec;
              n;
              params = column_params ~seed ~duration n;
              hmcs;
            })
          grid)
      specs
  in
  let pingpongs = if quick then 2 else 16 in
  fun () ->
    let t = Meter.tally () in
    let b = Buffer.create (1 lsl 20) in
    let c0 = !Meter.ncalls in
    let runs =
      Meter.calls
        (fun c -> c.label)
        (fun c ->
          match W.run ~platform ~nthreads:c.n ~spec:c.spec c.params with
          | r -> Ok r
          | exception W.Lock_failure m -> Error m)
        cells
    in
    let call_ns = Meter.sum Fun.id (Meter.calls_since c0) in
    let c1 = !Meter.ncalls in
    let pp_events = ref 0 in
    for _ = 1 to pingpongs do
      pp_events := !pp_events + Meter.call "Engine.run pingpong" (pingpong ~duration)
    done;
    let pp_ns = Meter.sum Fun.id (Meter.calls_since c1) in
    Meter.span Meter.Check "check sweep" (fun () ->
        let results =
          List.map2
            (fun c -> function
              | Ok r ->
                  check_cell t b c r;
                  (c, Some r)
              | Error m ->
                  Meter.expect t false (fun () -> m);
                  (c, None))
            cells runs
        in
        Buffer.add_string b (Printf.sprintf "pingpong %d\n" !pp_events);
        let ok = List.filter_map snd results in
        Meter.finish t
          ~steps:(Meter.sum (fun r -> r.W.events) ok + !pp_events)
          ~details:
            (details cells results ~pingpong_events:!pp_events
               ~pingpong_ns:pp_ns ~call_ns
            @ Meter.lock_counters ~kind:Meter.Sim
                (S.merge_all (List.map (fun r -> r.W.stats) ok)))
          b)
