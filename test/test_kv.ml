(* The KV macro-workload's open-loop traffic generator and service:
   qcheck properties on the seeded processes (Poisson mean rate, Zipf
   rank monotonicity, seed determinism) plus end-to-end service
   invariants on the tiny platform. *)

open Clof_topology
module KV = Clof_workloads.Kvservice
module W = Clof_workloads.Workload
module M = Clof_sim.Sim_mem
module R = Clof_locks.Registry.Make (M)
module RT = Clof_core.Runtime
module S = Clof_stats.Stats

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let qcheck t = QCheck_alcotest.to_alcotest t

(* ---------- PRNG ---------- *)

let test_prng_reference () =
  (* splitmix64 reference stream for seed 1234567
     (https://prng.di.unimi.it reference implementation) *)
  let g = KV.Prng.create 1234567 in
  let got = List.init 3 (fun _ -> KV.Prng.next g) in
  check_bool "pinned splitmix64 stream" true
    (got
    = [ 0x599ED017FB08FC85L; 0x2C73F08458540FA5L; 0x883EBCE5A3F27C77L ])

let test_prng_float_range =
  QCheck.Test.make ~name:"Prng.float in [0,1)" ~count:500 QCheck.int
    (fun seed ->
      let g = KV.Prng.create seed in
      List.for_all
        (fun _ ->
          let u = KV.Prng.float g in
          u >= 0.0 && u < 1.0)
        (List.init 50 Fun.id))

(* ---------- Zipf ---------- *)

let test_zipf_pmf_monotone =
  QCheck.Test.make ~name:"Zipf pmf monotone decreasing in rank" ~count:100
    QCheck.(pair (int_range 2 500) (float_range 0.5 1.5))
    (fun (n, s) ->
      let z = KV.Zipf.create ~s n in
      let ok = ref true in
      for k = 1 to n - 1 do
        if KV.Zipf.pmf z k > KV.Zipf.pmf z (k - 1) +. 1e-12 then ok := false
      done;
      !ok)

let test_zipf_frequencies_monotone () =
  (* empirical draw frequencies follow the rank order for the head of
     the distribution (the tail is noise-bound at any sample size) *)
  let n = 64 in
  let z = KV.Zipf.create ~s:0.99 n in
  let g = KV.Prng.create 42 in
  let counts = Array.make n 0 in
  let draws = 200_000 in
  for _ = 1 to draws do
    let k = KV.Zipf.sample z g in
    check_bool "sample in range" true (k >= 0 && k < n);
    counts.(k) <- counts.(k) + 1
  done;
  for k = 1 to 7 do
    check_bool
      (Printf.sprintf "rank %d drawn no more than rank %d" k (k - 1))
      true
      (counts.(k) <= counts.(k - 1))
  done;
  (* and the empirical head frequency tracks the pmf within a few
     percent of the total *)
  let f0 = float_of_int counts.(0) /. float_of_int draws in
  check_bool "head frequency near pmf" true
    (Float.abs (f0 -. KV.Zipf.pmf z 0) < 0.01)

(* ---------- arrival processes ---------- *)

(* One worker's arrivals over [phases], read off its schedule: each
   request's arrival time and phase index. *)
let arrivals ~seed ~worker phases =
  let p =
    {
      KV.stripes = 1;
      keys = 16;
      zipf_s = 0.99;
      read_fraction = 0.5;
      read_ns = 100;
      write_ns = 100;
      phases;
      seed;
    }
  in
  Array.map (fun rq -> (rq.KV.rq_at, rq.KV.rq_phase)) (KV.schedule p ~worker)

let test_poisson_mean_rate =
  QCheck.Test.make ~name:"Poisson empirical rate within CI bounds" ~count:30
    QCheck.(pair small_int (float_range 0.5 8.0))
    (fun (seed, rate) ->
      let span = 4_000_000 in
      let phases =
        [ { KV.ph_label = "p"; ph_ns = span; ph_process = KV.Poisson rate } ]
      in
      let arr = arrivals ~seed ~worker:0 phases in
      let n = float_of_int (Array.length arr) in
      let expected = rate *. float_of_int span /. 1000.0 in
      (* a Poisson count's std dev is sqrt(mean); 5 sigma plus a +/-2%
         systematic allowance never flakes over 30 cases *)
      let slack = (5.0 *. sqrt expected) +. (0.02 *. expected) in
      Float.abs (n -. expected) <= slack)

let test_same_seed_identical () =
  let phases =
    [
      { KV.ph_label = "a"; ph_ns = 500_000; ph_process = KV.Poisson 2.0 };
      {
        KV.ph_label = "b";
        ph_ns = 500_000;
        ph_process =
          KV.Mmpp { rate_low = 1.0; rate_high = 6.0; dwell_ns = 50_000 };
      };
    ]
  in
  let a = arrivals ~seed:7 ~worker:3 phases in
  let b = arrivals ~seed:7 ~worker:3 phases in
  check_bool "same seed, same schedule" true (a = b);
  let c = arrivals ~seed:8 ~worker:3 phases in
  let d = arrivals ~seed:7 ~worker:4 phases in
  check_bool "seed changes schedule" true (a <> c);
  check_bool "worker changes schedule" true (a <> d)

let test_arrivals_well_formed =
  QCheck.Test.make ~name:"arrivals increasing, in phase bounds" ~count:50
    QCheck.small_int (fun seed ->
      let phases =
        [
          { KV.ph_label = "lo"; ph_ns = 300_000; ph_process = KV.Poisson 1.5 };
          {
            KV.ph_label = "pk";
            ph_ns = 200_000;
            ph_process =
              KV.Mmpp { rate_low = 2.0; rate_high = 10.0; dwell_ns = 20_000 };
          };
          { KV.ph_label = "lo2"; ph_ns = 300_000; ph_process = KV.Poisson 1.5 };
        ]
      in
      let arr = arrivals ~seed ~worker:1 phases in
      let ok = ref true in
      let last = ref (-1) in
      Array.iter
        (fun (at, pi) ->
          if at < !last then ok := false;
          last := at;
          let lo, hi =
            match pi with
            | 0 -> (0, 300_000)
            | 1 -> (300_000, 500_000)
            | 2 -> (500_000, 800_000)
            | _ -> (-1, -1)
          in
          if not (lo <= at && at < hi) then ok := false)
        arr;
      !ok)

let test_mmpp_burstier_than_poisson () =
  (* same mean rate: MMPP alternating 0.4/8.0 with equal dwell has
     mean 4.2; its arrival-count variance across windows must exceed
     the Poisson's (index of dispersion > 1 is the definition of
     bursty) *)
  let span = 8_000_000 in
  let window = 100_000 in
  let dispersion process =
    let arr =
      arrivals ~seed:11 ~worker:0
        [ { KV.ph_label = "x"; ph_ns = span; ph_process = process } ]
    in
    let nwin = span / window in
    let counts = Array.make nwin 0.0 in
    Array.iter
      (fun (at, _) ->
        let w = min (nwin - 1) (at / window) in
        counts.(w) <- counts.(w) +. 1.0)
      arr;
    let mean = Array.fold_left ( +. ) 0.0 counts /. float_of_int nwin in
    let var =
      Array.fold_left (fun a c -> a +. ((c -. mean) ** 2.0)) 0.0 counts
      /. float_of_int nwin
    in
    var /. mean
  in
  let poisson = dispersion (KV.Poisson 4.2) in
  let mmpp =
    dispersion
      (KV.Mmpp { rate_low = 0.4; rate_high = 8.0; dwell_ns = 200_000 })
  in
  check_bool
    (Printf.sprintf "MMPP dispersion %.2f > Poisson %.2f" mmpp poisson)
    true
    (mmpp > poisson *. 1.5)

(* ---------- schedules ---------- *)

let small_params =
  {
    KV.stripes = 2;
    keys = 128;
    zipf_s = 0.99;
    read_fraction = 0.8;
    read_ns = 120;
    write_ns = 200;
    phases =
      [
        { KV.ph_label = "low"; ph_ns = 120_000; ph_process = KV.Poisson 0.4 };
        {
          KV.ph_label = "peak";
          ph_ns = 120_000;
          ph_process =
            KV.Mmpp { rate_low = 0.5; rate_high = 4.0; dwell_ns = 20_000 };
        };
        { KV.ph_label = "low2"; ph_ns = 120_000; ph_process = KV.Poisson 0.4 };
      ];
    seed = 1;
  }

let test_schedule_deterministic () =
  let a = KV.schedule small_params ~worker:2 in
  let b = KV.schedule small_params ~worker:2 in
  check_bool "same params, same schedule" true (a = b);
  Array.iter
    (fun rq ->
      check_bool "key in range" true
        (rq.KV.rq_key >= 0 && rq.KV.rq_key < small_params.KV.keys))
    a

(* [schedule] built on a fresh domain, whose Zipf memo is empty: the
   result with a table built for this key space alone. *)
let reference_schedule p ~worker =
  Domain.join (Domain.spawn (fun () -> KV.schedule p ~worker))

(* two key spaces x two skews, visited so that every step changes the
   key space, the skew or both *)
let key_spaces =
  List.map
    (fun (keys, zipf_s) -> { small_params with KV.keys; zipf_s })
    [
      (128, 0.99);
      (300, 0.99);
      (300, 0.5);
      (128, 0.5);
      (300, 0.99);
      (128, 0.5);
      (128, 0.99);
      (300, 0.5);
    ]

let test_schedule_no_stale_table () =
  List.iteri
    (fun i p ->
      for worker = 0 to 2 do
        check_bool
          (Printf.sprintf "step %d (keys %d, s %.2f) worker %d" i p.KV.keys
             p.KV.zipf_s worker)
          true
          (KV.schedule p ~worker = reference_schedule p ~worker)
      done)
    key_spaces

let test_schedule_memo_hits () =
  (* 1024 floats is past Max_young_wosize, so a table is allocated
     straight into the major heap; about 100 requests per worker keep
     every inbox array in the minor heap *)
  let p =
    {
      small_params with
      KV.keys = 1024;
      phases =
        [ { KV.ph_label = "p"; ph_ns = 100_000; ph_process = KV.Poisson 1.0 } ];
    }
  in
  ignore (KV.schedule p ~worker:0);
  let direct_major () =
    let _, promoted, major = Gc.counters () in
    major -. promoted
  in
  let before = direct_major () in
  let longest = ref 0 in
  for worker = 0 to 63 do
    longest := max !longest (Array.length (KV.schedule p ~worker))
  done;
  let words = direct_major () -. before in
  check_bool "inboxes stay minor" true (!longest < 256);
  check_bool
    (Printf.sprintf "64 schedules: %.0f direct major words < one table (%d)"
       words p.KV.keys)
    true
    (words < float_of_int p.KV.keys)

let test_schedule_two_domains () =
  let jobs =
    List.concat_map
      (fun p -> List.init 4 (fun worker -> (p, worker)))
      key_spaces
  in
  let build (p, worker) = KV.schedule p ~worker in
  let one = List.map build jobs in
  Clof_exec.Exec.set_jobs 2;
  let two =
    Fun.protect
      ~finally:(fun () -> Clof_exec.Exec.set_jobs 1)
      (fun () -> Clof_exec.Exec.map build jobs)
  in
  check_bool "two domains build what one builds" true (one = two)

(* ---------- end-to-end service ---------- *)

let run_small spec =
  KV.run ~platform:Platform.tiny ~nworkers:8 ~spec small_params

let test_service_invariants () =
  let r = run_small (RT.of_basic R.mcs) in
  check_int "workers" 8 r.KV.r_workers;
  check_int "stripes" 2 r.KV.r_stripes;
  check_bool "served something" true (r.KV.r_total > 0);
  check_int "per-worker sums to total" r.KV.r_total
    (Array.fold_left ( + ) 0 r.KV.r_per_worker);
  let offered =
    List.fold_left (fun a p -> a + p.KV.p_offered) 0 r.KV.r_phases
  in
  let completed =
    List.fold_left (fun a p -> a + p.KV.p_completed) 0 r.KV.r_phases
  in
  check_int "open loop: every arrival served" offered r.KV.r_total;
  check_int "per-phase completions sum to total" completed r.KV.r_total;
  (* sojourn histograms carry exactly the completions *)
  List.iter
    (fun p ->
      check_int
        (Printf.sprintf "phase %s sojourn samples" p.KV.p_label)
        p.KV.p_completed
        (S.latency_samples p.KV.p_sojourn))
    r.KV.r_phases

let test_service_deterministic () =
  let fingerprint (r : KV.result) =
    ( r.KV.r_total,
      r.KV.r_sim_ns,
      List.map
        (fun p -> (p.KV.p_completed, S.percentile_interp p.KV.p_sojourn 99.0))
        r.KV.r_phases )
  in
  let a = run_small (RT.of_basic R.ticket) in
  let b = run_small (RT.of_basic R.ticket) in
  check_bool "byte-reproducible" true (fingerprint a = fingerprint b)

let test_service_catches_broken_lock () =
  (* a no-op "lock" must trip the per-stripe exclusion probe *)
  let broken =
    RT.make ~name:"broken" ~fair:false ~abortable:false
      ~ctx:(fun _ () ~cpu:_ -> ())
      ~acquire:(fun () () -> ())
      ~release:(fun () () -> ())
      ~try_acquire:(fun () () ~deadline:_ -> true)
      (fun _ -> ())
  in
  check_bool "violation detected" true
    (match run_small broken with
    | exception W.Lock_failure _ -> true
    | _ -> false)

let test_service_hang_named () =
  (* an acquire that waits on a cell nothing writes wedges every
     worker: the run must fail naming the lock, not return a result *)
  let stuck =
    RT.make ~name:"stuck" ~fair:false ~abortable:false
      ~ctx:(fun _ _ ~cpu:_ -> ())
      ~acquire:(fun never () -> ignore (M.await never Fun.id))
      ~release:(fun _ () -> ())
      ~try_acquire:(fun _ () ~deadline:_ -> false)
      (fun _ -> M.make ~name:"stuck.never" false)
  in
  match run_small stuck with
  | exception W.Lock_failure msg ->
      check_bool ("names the lock: " ^ msg) true
        (String.starts_with ~prefix:"stuck: " msg)
  | _ -> Alcotest.fail "a wedged service returned a result"

let () =
  Alcotest.run "kv"
    [
      ( "prng",
        [
          Alcotest.test_case "splitmix64 reference stream" `Quick
            test_prng_reference;
          qcheck test_prng_float_range;
        ] );
      ( "zipf",
        [
          qcheck test_zipf_pmf_monotone;
          Alcotest.test_case "empirical frequencies monotone" `Quick
            test_zipf_frequencies_monotone;
        ] );
      ( "arrivals",
        [
          qcheck test_poisson_mean_rate;
          qcheck test_arrivals_well_formed;
          Alcotest.test_case "same seed identical" `Quick
            test_same_seed_identical;
          Alcotest.test_case "MMPP burstier than Poisson" `Quick
            test_mmpp_burstier_than_poisson;
          Alcotest.test_case "schedule deterministic" `Quick
            test_schedule_deterministic;
          Alcotest.test_case "schedule: no stale Zipf table" `Quick
            test_schedule_no_stale_table;
          Alcotest.test_case "schedule: Zipf table reused" `Quick
            test_schedule_memo_hits;
          Alcotest.test_case "schedule: two domains match one" `Quick
            test_schedule_two_domains;
        ] );
      ( "service",
        [
          Alcotest.test_case "invariants" `Quick test_service_invariants;
          Alcotest.test_case "deterministic" `Quick
            test_service_deterministic;
          Alcotest.test_case "broken lock caught" `Quick
            test_service_catches_broken_lock;
          Alcotest.test_case "hang raises naming the lock" `Quick
            test_service_hang_named;
        ] );
    ]
