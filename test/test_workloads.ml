open Clof_topology
module W = Clof_workloads.Workload
module Pingpong = Clof_workloads.Pingpong
module M = Clof_sim.Sim_mem
module E = Clof_sim.Engine
module S = Clof_stats.Stats
module R = Clof_locks.Registry.Make (M)
module RT = Clof_core.Runtime

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let small = { W.duration = 100_000; cs_reads = 2; cs_writes = 1; cs_work = 50; noncs_work = 400 }

let test_result_invariants () =
  let r =
    W.run ~platform:Platform.tiny ~nthreads:8 ~spec:(RT.of_basic R.mcs) small
  in
  check_int "thread count" 8 r.W.nthreads;
  check_int "per-thread sums to total" r.W.total_ops
    (Array.fold_left ( + ) 0 r.W.per_thread);
  check_bool "made progress" true (r.W.total_ops > 0);
  check_bool "throughput consistent" true
    (Float.abs
       (r.W.throughput
       -. (1000.0 *. float_of_int r.W.total_ops /. float_of_int r.W.sim_ns))
    < 1e-9);
  check_bool "clean" true ((not r.W.hung) && not r.W.aborted)

let test_deterministic () =
  let go () =
    (W.run ~platform:Platform.tiny ~nthreads:4 ~spec:(RT.of_basic R.ticket)
       small)
      .W.total_ops
  in
  check_int "same seed, same result" (go ()) (go ())

let test_all_threads_progress () =
  let r =
    W.run ~platform:Platform.tiny ~nthreads:16 ~spec:(RT.of_basic R.clh)
      small
  in
  Array.iteri
    (fun i ops ->
      check_bool (Printf.sprintf "thread %d ran" i) true (ops > 0))
    r.W.per_thread

(* a no-op "lock": every acquire succeeds at once *)
let broken =
  RT.make ~name:"broken" ~fair:false ~abortable:false
    ~ctx:(fun _ () ~cpu:_ -> ())
    ~acquire:(fun () () -> ())
    ~release:(fun () () -> ())
    ~try_acquire:(fun () () ~deadline:_ -> true)
    (fun _ -> ())

let test_broken_lock_detected () =
  check_bool "raises Lock_failure" true
    (try
       ignore (W.run ~platform:Platform.tiny ~nthreads:8 ~spec:broken small);
       false
     with W.Lock_failure _ -> true)

let test_run_on_cpus () =
  let r =
    W.run_on_cpus ~platform:Platform.tiny ~cpus:[| 0; 15 |]
      ~spec:(RT.of_basic R.mcs) small
  in
  check_int "two threads" 2 r.W.nthreads

(* [simulate] with three instances: each operation takes all three
   locks in turn, one critical section each *)
let simulate3 spec =
  let seen = Array.make 4 0 in
  let r =
    W.simulate ~locks:3 ~duration:50_000 ~platform:Platform.tiny
      ~cpus:[| 0; 1; 8; 15 |] ~spec (fun t ->
        seen.(t.W.tid) <- Array.length t.W.handles;
        let sink = S.Sink.of_recorder t.W.recorder in
        while E.running () do
          Array.iteri
            (fun i (h : RT.handle) ->
              h.RT.acquire ();
              S.Sink.acquired sink ~ns:0;
              t.W.enter i;
              E.work 40;
              t.W.exit i;
              h.RT.release ())
            t.W.handles;
          t.W.counts.(t.W.tid) <- t.W.counts.(t.W.tid) + 1;
          t.W.progress.(t.W.tid) <- E.now ();
          E.work 100
        done)
  in
  (r, seen)

let test_simulate_instances () =
  let r, seen = simulate3 (RT.of_basic R.mcs) in
  Array.iteri
    (fun tid n -> check_int (Printf.sprintf "thread %d contexts" tid) 3 n)
    seen;
  check_int "thread count" 4 r.W.nthreads;
  check_int "per-thread sums to total" r.W.total_ops
    (Array.fold_left ( + ) 0 r.W.per_thread);
  check_bool "every thread progressed" true
    (Array.for_all (fun n -> n > 0) r.W.per_thread
    && Array.for_all (fun t -> t > 0) r.W.last_progress);
  check_int "one recorder per thread, all instances"
    (3 * r.W.total_ops) (S.acquisitions r.W.stats);
  check_bool "raises Lock_failure on a no-op lock" true
    (match simulate3 broken with
    | exception W.Lock_failure _ -> true
    | _ -> false)

let test_more_contention_less_per_thread () =
  let per_thread n =
    let r =
      W.run ~platform:Platform.tiny ~nthreads:n ~spec:(RT.of_basic R.mcs)
        small
    in
    float_of_int r.W.total_ops /. float_of_int n
  in
  check_bool "per-thread ops shrink with contention" true
    (per_thread 2 > per_thread 16)

let test_pingpong_positive () =
  let t = Pingpong.throughput ~platform:Platform.tiny 0 1 in
  check_bool "positive" true (t > 0.0)

let test_pingpong_locality () =
  let near = Pingpong.throughput ~platform:Platform.x86 0 1 in
  let far = Pingpong.throughput ~platform:Platform.x86 0 24 in
  check_bool "near pair faster" true (near > far)

let test_transfer_stats () =
  (* a NUMA-aware lock must keep a larger share of its transfers inside
     the near distance classes than plain MCS does *)
  let near_share spec =
    let r =
      W.run ~platform:Platform.x86 ~nthreads:48 ~spec
        { W.duration = 200_000; cs_reads = 2; cs_writes = 2; cs_work = 60;
          noncs_work = 800 }
    in
    let total = List.fold_left (fun a (_, n) -> a + n) 0 r.W.transfers in
    let near =
      List.fold_left
        (fun a (p, n) ->
          match p with
          | Level.Same_cpu | Level.Same_core | Level.Same_cache -> a + n
          | Level.Same_numa | Level.Same_package | Level.Same_system -> a)
        0 r.W.transfers
    in
    float_of_int near /. float_of_int (max 1 total)
  in
  let module G = Clof_core.Generator.Make (M) in
  let clof =
    RT.of_clof
      ~hierarchy:(Platform.hier4 Platform.x86)
      (G.build [ R.clh; R.clh; R.clh; R.clh ])
  in
  check_bool "clof keeps transfers near" true
    (near_share clof > near_share (RT.of_basic R.mcs) +. 0.2)

let test_params_presets () =
  check_bool "kyoto CS longer than leveldb" true
    (W.kyoto.W.cs_work > W.leveldb.W.cs_work);
  check_bool "durations positive" true
    (W.kyoto.W.duration > 0 && W.leveldb.W.duration > 0)

let () =
  Alcotest.run "workloads"
    [
      ( "workload",
        [
          Alcotest.test_case "result invariants" `Quick
            test_result_invariants;
          Alcotest.test_case "deterministic" `Quick test_deterministic;
          Alcotest.test_case "all threads progress" `Quick
            test_all_threads_progress;
          Alcotest.test_case "broken lock detected" `Quick
            test_broken_lock_detected;
          Alcotest.test_case "run_on_cpus" `Quick test_run_on_cpus;
          Alcotest.test_case "simulate: three instances" `Quick
            test_simulate_instances;
          Alcotest.test_case "contention shrinks per-thread share" `Quick
            test_more_contention_less_per_thread;
        ] );
      ( "pingpong",
        [
          Alcotest.test_case "positive" `Quick test_pingpong_positive;
          Alcotest.test_case "locality" `Quick test_pingpong_locality;
        ] );
      ( "params",
        [ Alcotest.test_case "presets" `Quick test_params_presets ] );
      ( "stats",
        [ Alcotest.test_case "transfer locality" `Quick test_transfer_stats ]
      );
    ]
