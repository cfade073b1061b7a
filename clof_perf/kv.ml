(* kv: the sharded KV service (Clof_workloads.Kvservice), open loop,
   64 workers over 4 stripes, one domain. It runs the same engine as
   [sweep] but mostly through idle sleepers and the timer path; locks
   are light except in bursts, so ordering and tails matter more than
   throughput. A barging or keep_local change that helps [sweep] but
   costs tails shows here.

   (a) The diurnal low -> MMPP peak -> low schedule of the repo's kv
   experiment, over its panel. (b) A Poisson ladder of 0.004, 0.008, ...
   req/us per worker; the SLO rate of a lock is the highest rung below
   its first failing one (p99 sojourn above 25 us, or a drain past the
   rung span longer than 5% of it). Every rung runs for every lock, so
   a pass does the same work whatever the seed.

   Inboxes are precomputed from the seed before the simulation starts,
   so the generator is never late; sojourn is timed from the scheduled
   arrival. The panel is rebuilt here from the public functors. *)

open Clof_topology
module M = Clof_sim.Sim_mem
module S = Clof_stats.Stats
module KV = Clof_workloads.Kvservice
module RT = Clof_core.Runtime
module Cna = Clof_baselines.Cna.Make (M)
module Shfl = Clof_baselines.Shfllock.Make (M)
module Clh = Clof_locks.Clh.Make (M)
module Root = Clof_core.Compose.Base (Clh)
module C2 = Clof_core.Compose.Compose (M) (Clh) (Root)
module C3 = Clof_core.Compose.Compose (M) (Clh) (C2)
module C4 = Clof_core.Compose.Compose (M) (Clh) (C3)
module F = Clof_core.Fastpath.Make (M) (C4)
module A = Clof_core.Adaptive.Make (M) (C4)

let platform = Platform.x86
let nworkers = 64
let slo_p99_us = 25.0
let slo_drain_share = 0.05
let rungs = List.init 8 (fun k -> 0.004 *. float_of_int (k + 1))

let adaptive_spec ~hierarchy =
  let name = "ad-clof<4>" in
  {
    RT.s_name = name;
    instantiate =
      (fun topo ->
        let t = A.create ~topo ~hierarchy () in
        A.arm ~epoch:32 t;
        {
          RT.l_name = name;
          l_fair = false;
          l_abortable = A.abortable;
          l_adaptive = true;
          handle =
            (fun ?stats ~cpu () ->
              let ctx = A.ctx_create t ~cpu in
              Option.iter (fun r -> A.set_sink ctx (S.Sink.of_recorder r)) stats;
              {
                RT.acquire = (fun () -> A.acquire t ctx);
                release = (fun () -> A.release t ctx);
                try_acquire = (fun ~deadline -> A.try_acquire t ctx ~deadline);
              });
        });
  }

let panel () =
  let hierarchy = Platform.hier4 platform in
  [
    RT.rename "clof<4>" (RT.of_clof ~hierarchy (module C4));
    RT.rename "fp-clof<4>" (RT.of_clof ~hierarchy (module F));
    RT.rename "fair-h1"
      (RT.of_clof ~h:1 ~hierarchy:[ Level.System ]
         (module Root : Clof_core.Clof_intf.S));
    adaptive_spec ~hierarchy;
    Cna.spec ();
    Shfl.spec ();
  ]

let base ~seed ~quick =
  let ms = if quick then 100_000 else 1_000_000 in
  {
    KV.stripes = 4;
    keys = 1024;
    zipf_s = 0.99;
    read_fraction = 0.9;
    read_ns = 1000;
    write_ns = 2000;
    phases =
      [
        { KV.ph_label = "low-1"; ph_ns = 2 * ms; ph_process = KV.Poisson 0.004 };
        {
          KV.ph_label = "peak";
          ph_ns = 15 * ms;
          ph_process =
            KV.Mmpp { rate_low = 0.009; rate_high = 0.036; dwell_ns = 100_000 };
        };
        { KV.ph_label = "low-2"; ph_ns = 2 * ms; ph_process = KV.Poisson 0.004 };
      ];
    seed = (if seed = 0 then 20_260_809 else seed);
  }

let rung p ~quick rate =
  let ph_ns = if quick then 500_000 else 6_000_000 in
  {
    p with
    KV.phases =
      [ { KV.ph_label = Printf.sprintf "poisson-%.3f" rate; ph_ns; ph_process = KV.Poisson rate } ];
  }

(* Requests offered per phase, counted from the precomputed inboxes. *)
let offered p =
  let n = Array.make (List.length p.KV.phases) 0 in
  for worker = 0 to nworkers - 1 do
    Array.iter
      (fun rq -> n.(rq.KV.rq_phase) <- n.(rq.KV.rq_phase) + 1)
      (KV.schedule p ~worker)
  done;
  n

(* One Kvservice.run of a pass: a lock over the diurnal schedule
   ([rate = None]) or over one ladder rung, with the requests its
   inboxes hold. *)
type job = {
  spec : RT.spec;
  p : KV.params;
  offered : int array;
  rate : float option;
  label : string;
}

let job spec (p, offered, rate) =
  {
    spec;
    p;
    offered;
    rate;
    label =
      Printf.sprintf "Kvservice.run %s %s" spec.RT.s_name
        (String.concat "+" (List.map (fun ph -> ph.KV.ph_label) p.KV.phases));
  }

let serve j =
  match KV.run ~platform ~nworkers ~spec:j.spec j.p with
  | r -> Ok r
  | exception Clof_workloads.Workload.Lock_failure m -> Error m

(* Every offered request completes, phase by phase. Returns the
   requests served. *)
let check t b j = function
  | Error m ->
      let total = Array.fold_left ( + ) 0 j.offered in
      Meter.record t ~n:total ~failed:total (fun () -> m);
      0
  | Ok r ->
      List.iteri
        (fun i ph ->
          let want = j.offered.(i) in
          Meter.record t ~n:want
            ~failed:
              (if ph.KV.p_offered <> want then want
               else want - ph.KV.p_completed)
            (fun () ->
              Printf.sprintf "%s %s: %d of %d requests completed" j.label
                ph.KV.p_label ph.KV.p_completed want);
          Buffer.add_string b
            (Printf.sprintf "%s %s %d %d %s\n" j.label ph.KV.p_label
               ph.KV.p_offered ph.KV.p_completed
               (Clof_stats.Json.to_string (S.to_json ph.KV.p_sojourn))))
        r.KV.r_phases;
      Buffer.add_string b
        (Printf.sprintf "%s %d %s\n" j.label r.KV.r_sim_ns
           (Clof_stats.Json.to_string (S.to_json r.KV.r_lock_stats)));
      min (Array.fold_left ( + ) 0 j.offered) r.KV.r_total

(* A rung passes when its p99 sojourn, counting unserved requests as
   infinite, meets the SLO and the service drained in time. *)
let rung_ok j = function
  | Error _ -> false
  | Ok r ->
      let span = KV.total_ns j.p in
      Meter.pct_us ~offered:j.offered.(0) (List.hd r.KV.r_phases).KV.p_sojourn 99.0
      <= slo_p99_us
      && float_of_int (r.KV.r_sim_ns - span) <= slo_drain_share *. float_of_int span

let phase (r : KV.result) label =
  List.find (fun ph -> ph.KV.p_label = label) r.KV.r_phases

let setup ~seed ~quick () =
  let diurnal = base ~seed ~quick in
  let rates = if quick then List.filteri (fun i _ -> i < 3) rungs else rungs in
  let plans =
    List.map
      (fun (p, rate) -> (p, offered p, rate))
      ((diurnal, None) :: List.map (fun rate -> (rung diurnal ~quick rate, Some rate)) rates)
  in
  let jobs = List.concat_map (fun spec -> List.map (job spec) plans) (panel ()) in
  fun () ->
    let t = Meter.tally () in
    let b = Buffer.create (1 lsl 16) in
    let c0 = !Meter.ncalls in
    let w0 = Gc.minor_words () in
    let results = Meter.calls (fun j -> j.label) serve jobs in
    let words = Gc.minor_words () -. w0 in
    let call_ns = Meter.sum Fun.id (Meter.calls_since c0) in
    Meter.span Meter.Check "check kv" (fun () ->
        let checked = List.map2 (fun j res -> (j, res, check t b j res)) jobs results in
        let served = Meter.sum (fun (_, _, n) -> n) checked in
        (* per lock: its diurnal result and its SLO rate, the highest
           rung below the first failing one *)
        let per_lock =
          List.filter_map
            (fun (j, res, _) ->
              match (j.rate, res) with
              | None, Ok r ->
                  let rec slo best = function
                    | (j', res', _) :: tl when rung_ok j' res' ->
                        slo (Option.value j'.rate ~default:best) tl
                    | _ -> best
                  in
                  let ladder =
                    List.filter (fun (j', _, _) -> j'.spec == j.spec && j'.rate <> None) checked
                  in
                  Some (j.spec.RT.s_name, r, slo 0.0 ladder)
              | _ -> None)
            checked
        in
        let peak r p = Meter.pct_us (phase r "peak").KV.p_sojourn p in
        let low_p99 r =
          Meter.pct_us
            (S.merge (phase r "low-1").KV.p_sojourn (phase r "low-2").KV.p_sojourn)
            99.0
        in
        let panel f = Meter.geomean (List.map f per_lock) in
        let lock_details (name, r, slo) =
          let st = r.KV.r_lock_stats in
          let k = "kv." ^ name ^ "." in
          [
            Meter.sim (k ^ "peak_p999_us") "us" (peak r 99.9);
            Meter.sim (k ^ "locality") "fraction" (S.locality st);
            Meter.sim (k ^ "fastpath_frac") "fraction"
              (Meter.ratio (S.fastpath st) r.KV.r_total);
            Meter.sim (k ^ "drain_overrun_us") "us"
              (float_of_int (max 0 (r.KV.r_sim_ns - KV.total_ns diurnal)) /. 1000.0);
            Meter.sim (k ^ "slo_rate") "req/us" slo;
          ]
        in
        Meter.finish t ~steps:served
          ~details:
            ([
               Meter.sim "kv.requests" "count" (float_of_int served);
               Meter.host "kv_reqs_per_s" "req/s"
                 (float_of_int served /. Meter.seconds_of_ns call_ns);
               Meter.host "kv.words_per_req" "words" (words /. float_of_int (max 1 served));
               (* inboxes are precomputed before the simulation starts *)
               Meter.sim "kv.generator_lateness_us" "us" 0.0;
               Meter.sim "kv_peak_p50_us" "us" (panel (fun (_, r, _) -> peak r 50.0));
               Meter.sim "kv_peak_p999_us" "us" (panel (fun (_, r, _) -> peak r 99.9));
               Meter.sim "kv_low_p99_us" "us" (panel (fun (_, r, _) -> low_p99 r));
               Meter.sim "kv_slo_rate" "req/us" (panel (fun (_, _, s) -> s));
             ]
            @ List.concat_map lock_details per_lock
            @ Meter.lock_counters ~kind:Meter.Sim
                ~acquisitions:(Meter.sum (fun (_, r, _) -> r.KV.r_total) per_lock)
                (S.merge_all (List.map (fun (_, r, _) -> r.KV.r_lock_stats) per_lock)))
          b)
