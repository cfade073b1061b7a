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

(* The generator that draws [u = m / 2^53] first: splitmix64 outputs
   [mix (state + golden)], and [mix] is a bijection, so undoing it
   gives the state. Of the 2^11 outputs with top bits [m], the first
   whose state fits an OCaml int is the seed. *)
let prng_drawing m =
  let golden = 0x9E3779B97F4A7C15L in
  (* c * inv c = 1 (mod 2^64) for odd c, by Newton's iteration *)
  let inv c =
    let x = ref c in
    for _ = 1 to 5 do
      x := Int64.mul !x (Int64.sub 2L (Int64.mul c !x))
    done;
    !x
  in
  (* undo [x lxor (x lsr k)] *)
  let unshift k y =
    let x = ref y and s = ref k in
    while !s < 64 do
      x := Int64.logxor !x (Int64.shift_right_logical y !s);
      s := !s + k
    done;
    !x
  in
  let unmix out =
    let z = unshift 31 out in
    let z = unshift 27 (Int64.mul z (inv 0x94D049BB133111EBL)) in
    unshift 30 (Int64.mul z (inv 0xBF58476D1CE4E5B9L))
  in
  let rec search low =
    let state =
      Int64.sub
        (unmix (Int64.logor (Int64.shift_left (Int64.of_int m) 11)
           (Int64.of_int low)))
        golden
    in
    if Int64.of_int (Int64.to_int state) = state then
      KV.Prng.create (Int64.to_int state)
    else search (low + 1)
  in
  search 0

(* A CDF built with [Zipf.create]'s arithmetic, and the smallest rank
   whose cdf exceeds [u] by binary search over it. *)
let reference_cdf ~s n =
  let cdf = Array.make n 0.0 and acc = ref 0.0 in
  for k = 0 to n - 1 do
    acc := !acc +. (1.0 /. (float_of_int (k + 1) ** s));
    cdf.(k) <- !acc
  done;
  Array.map (fun c -> c /. !acc) cdf

let binary_search cdf u =
  let lo = ref 0 and hi = ref (Array.length cdf - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if cdf.(mid) > u then hi := mid else lo := mid + 1
  done;
  !lo

let test_zipf_guide_exact () =
  let two53 = 9007199254740992.0 in
  List.iter
    (fun (n, s) ->
      let z = KV.Zipf.create ~s n and cdf = reference_cdf ~s n in
      let check m =
        if m >= 0 && m < 1 lsl 53 then begin
          let u = float_of_int m /. two53 in
          if KV.Prng.float (prng_drawing m) <> u then
            Alcotest.failf "no generator draws %h first" u;
          let want = binary_search cdf u
          and got = KV.Zipf.sample z (prng_drawing m) in
          if got <> want then
            Alcotest.failf "n %d s %.2f u %h: rank %d, binary search %d" n s
              u got want
        end
      in
      (* the draws nearest each critical value: one grid step below it
         up to two above. At s = 0 every cdf value is a bucket bound,
         k/n, and for n = 6 or 1000 a draw just below one rounds into
         the bucket above it: only the walk down finds its rank. *)
      let around x =
        let m = int_of_float (Float.floor (x *. two53)) in
        for d = -1 to 2 do
          check (m + d)
        done
      in
      Array.iter around cdf;
      for j = 0 to n do
        around (float_of_int j /. float_of_int n)
      done;
      (* and random draws, through one generator *)
      let g = KV.Prng.create (n + int_of_float (s *. 100.0)) in
      let g' = KV.Prng.create (n + int_of_float (s *. 100.0)) in
      for _ = 1 to 2000 do
        let want = binary_search cdf (KV.Prng.float g') in
        check_int "random draw" want (KV.Zipf.sample z g)
      done)
    (List.concat_map
       (fun n -> List.map (fun s -> (n, s)) [ 0.0; 0.5; 0.99; 1.5 ])
       [ 1; 2; 3; 6; 1000; 1024; 4096 ])

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

(* The 9 plans of [clof_perf kv]'s set-up (the diurnal schedule and
   the eight ladder rungs) at its seed-0 seed, 64 workers each: 78 420
   requests, pinned by a digest of their text and a few literal
   requests. A change to the draws, their order or the arrival
   arithmetic moves every benchmark number, so it fails here first. *)
let perf_plans =
  let ms = 1_000_000 in
  let diurnal =
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
      seed = 20_260_809;
    }
  in
  diurnal
  :: List.init 8 (fun k ->
         let rate = 0.004 *. float_of_int (k + 1) in
         {
           diurnal with
           KV.phases =
             [
               {
                 KV.ph_label = Printf.sprintf "poisson-%.3f" rate;
                 ph_ns = 6 * ms;
                 ph_process = KV.Poisson rate;
               };
             ];
         })

let test_schedules_frozen () =
  let line rq =
    Printf.sprintf "%d %d %d %b" rq.KV.rq_at rq.KV.rq_phase rq.KV.rq_key
      rq.KV.rq_read
  in
  let b = Buffer.create (1 lsl 21) and n = ref 0 in
  List.iter
    (fun p ->
      for worker = 0 to 63 do
        Array.iter
          (fun rq ->
            incr n;
            Buffer.add_string b (line rq);
            Buffer.add_char b '\n')
          (KV.schedule p ~worker)
      done)
    perf_plans;
  check_int "requests" 78_420 !n;
  Alcotest.(check string)
    "digest" "dbb4270d7a3b6a0de7d420648ae825c4"
    (Digest.to_hex (Digest.string (Buffer.contents b)));
  let nth p ~worker i = line (KV.schedule p ~worker).(i) in
  let diurnal = List.hd perf_plans and top_rung = List.nth perf_plans 8 in
  Alcotest.(check (list string))
    "diurnal worker 0 requests 0 and 1, worker 63 request 200; top rung \
     worker 5 request 0"
    [ "521193 0 1 true"; "628672 0 266 true"; "11272857 1 23 true";
      "4930 0 0 true" ]
    [ nth diurnal ~worker:0 0; nth diurnal ~worker:0 1;
      nth diurnal ~worker:63 200; nth top_rung ~worker:5 0 ]

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

(* [run] draws each worker's requests as it serves them: the offered
   count of each phase is what the workers' schedules hold *)
let test_service_offered_is_schedule () =
  let r = run_small (RT.of_basic R.mcs) in
  let want = Array.make (List.length small_params.KV.phases) 0 in
  for worker = 0 to 7 do
    Array.iter
      (fun rq -> want.(rq.KV.rq_phase) <- want.(rq.KV.rq_phase) + 1)
      (KV.schedule small_params ~worker)
  done;
  List.iteri
    (fun i p ->
      check_int (Printf.sprintf "phase %s offered" p.KV.p_label) want.(i)
        p.KV.p_offered)
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
  let mentions msg needle =
    let n = String.length needle in
    let rec at i =
      i + n <= String.length msg && (String.sub msg i n = needle || at (i + 1))
    in
    at 0
  in
  match run_small stuck with
  | exception W.Lock_failure msg ->
      check_bool ("names the lock: " ^ msg) true
        (String.starts_with ~prefix:"stuck: " msg);
      check_bool ("names the line it waits on: " ^ msg) true
        (mentions msg "on stuck.never")
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
          Alcotest.test_case "Zipf guide = binary search" `Quick
            test_zipf_guide_exact;
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
          Alcotest.test_case "schedules frozen" `Quick test_schedules_frozen;
        ] );
      ( "service",
        [
          Alcotest.test_case "invariants" `Quick test_service_invariants;
          Alcotest.test_case "offered = schedule counts" `Quick
            test_service_offered_is_schedule;
          Alcotest.test_case "deterministic" `Quick
            test_service_deterministic;
          Alcotest.test_case "broken lock caught" `Quick
            test_service_catches_broken_lock;
          Alcotest.test_case "hang raises naming the lock" `Quick
            test_service_hang_named;
        ] );
    ]
