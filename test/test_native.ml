(* Native-backend tests: the real-memory substrate (padding, monotonic
   clock, waits), host topology detection, and — on multi-core hosts —
   mutual-exclusion stress of every registry lock and a composition on
   real domains through the full Native runner. Multi-domain cases skip
   cleanly on single-core machines; everything else runs anywhere. *)

open Clof_topology
module M = Clof_atomics.Real_mem
module R = Clof_locks.Registry.Make (M)
module G = Clof_core.Generator.Make (M)
module RT = Clof_core.Runtime
module W = Clof_workloads.Workload
module Native = Clof_native.Native
module Hosttopo = Clof_native.Hosttopo
module Xval = Clof_harness.Xval

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ---------- Real_mem substrate ---------- *)

(* Padded allocation: every aref must occupy at least a cache line
   (16 words on 64-bit), so two hot locations never share one. *)
let test_padding () =
  let words v = Obj.size (Obj.repr (M.make v)) in
  check_bool "int aref padded" true (words 42 >= 16);
  check_bool "bool aref padded" true (words false >= 16);
  check_bool "option aref padded" true (words (Some 3) >= 16)

let test_semantics_survive_padding () =
  let r = M.make 5 in
  check_int "load" 5 (M.load r);
  M.store r 7;
  check_int "store" 7 (M.load r);
  check_bool "cas hit" true (M.cas r ~expected:7 ~desired:9);
  check_bool "cas miss" false (M.cas r ~expected:7 ~desired:11);
  check_int "after cas" 9 (M.load r);
  check_int "exchange returns old" 9 (M.exchange r 1);
  check_int "fetch_add returns old" 1 (M.fetch_add r 41);
  check_int "after fetch_add" 42 (M.load r);
  (* make_on is a documented no-op that must still allocate a working
     (padded) location *)
  let c = M.make_on (M.anchor r) 3 in
  check_int "make_on works" 3 (M.load c);
  check_bool "make_on padded" true (Obj.size (Obj.repr c) >= 16)

let test_monotonic_clock () =
  let t0 = M.now () in
  let t1 = M.now () in
  check_bool "now positive" true (t0 > 0);
  check_bool "now monotonic" true (t1 >= t0);
  (* a real delay must be visible in ns *)
  let t2 = M.now () in
  Unix.sleepf 0.005;
  let t3 = M.now () in
  check_bool "5ms measured >= 1ms" true (t3 - t2 >= 1_000_000)

let test_await () =
  let r = M.make 1 in
  check_int "await on satisfied pred" 1 (M.await r (fun v -> v = 1));
  (* timed wait on a never-true predicate must return None at the
     deadline instead of spinning forever *)
  let deadline = M.now () + 20_000_000 in
  match M.await_until r ~deadline (fun v -> v = 2) with
  | Some _ -> Alcotest.fail "await_until satisfied impossible predicate"
  | None -> check_bool "deadline passed" true (M.now () >= deadline)

(* The wait loop is a top-level function: a wait whose predicate
   already holds allocates nothing of its own, and a timed one only its
   [Some]. Measured against an empty window, so the boxed floats
   [Gc.minor_words] returns cancel out. *)
let test_await_allocation () =
  let r = M.make 1 in
  let expected = M.load r in
  let pred v = v = expected in
  let deadline = max_int - 1 in
  let w0 = Gc.minor_words () in
  let base = Gc.minor_words () -. w0 in
  let w0 = Gc.minor_words () in
  for _ = 1 to 1000 do
    ignore (M.await r pred)
  done;
  let words = Gc.minor_words () -. w0 -. base in
  check_bool
    (Printf.sprintf "%.0f minor words for 1000 satisfied awaits" words)
    true (words = 0.0);
  let w0 = Gc.minor_words () in
  for _ = 1 to 1000 do
    ignore (M.await_until r ~deadline pred)
  done;
  let words = Gc.minor_words () -. w0 -. base in
  check_bool
    (Printf.sprintf "%.0f minor words for 1000 satisfied timed awaits" words)
    true (words <= 2000.0)

(* ---------- host topology ---------- *)

(* A single-CPU machine cannot have a validating hierarchy (every
   non-System level has exactly one cohort — nothing discriminates),
   so there the check is only shape; with >= 2 CPUs the chosen
   hierarchy must pass Topology.validate_hierarchy. *)
let check_hierarchy label (p : Platform.t) =
  let topo = p.Platform.topo in
  let h = Hosttopo.hierarchy p in
  check_int (label ^ ": two levels") 2 (List.length h);
  check_bool
    (label ^ ": ends at system")
    true
    (List.nth h 1 = Level.System);
  if Topology.ncpus topo >= 2 then
    match Topology.validate_hierarchy topo h with
    | Ok () -> ()
    | Error e -> Alcotest.fail (label ^ ": hierarchy invalid: " ^ e)

let test_host_detect () =
  let p = Hosttopo.detect () in
  let topo = p.Platform.topo in
  check_bool "at least one cpu" true (Topology.ncpus topo >= 1);
  check_int "host ncpus matches" (Hosttopo.ncpus ()) (Topology.ncpus topo);
  check_hierarchy "host" p;
  (* pick_cpus must accept every thread count up to the machine *)
  let n = Topology.ncpus topo in
  let cpus = Topology.pick_cpus topo ~nthreads:n in
  check_int "pick_cpus covers machine" n
    (List.length (List.sort_uniq compare (Array.to_list cpus)))

let test_synthetic_detect () =
  (* the forced-ncpus path is the fallback every non-Linux or
     sysfs-less host takes; it must always produce a usable machine *)
  List.iter
    (fun n ->
      let p = Hosttopo.detect ~ncpus:n () in
      check_int "forced ncpus" n (Topology.ncpus p.Platform.topo);
      check_hierarchy (Printf.sprintf "synthetic %d-cpu" n) p)
    [ 1; 2; 3; 4; 8 ]

(* ---------- xval plumbing (no benchmarks) ---------- *)

let test_thread_grid () =
  check_bool "quick 1cpu" true (Xval.thread_grid ~quick:true 1 = [ 1 ]);
  check_bool "quick 8cpu" true (Xval.thread_grid ~quick:true 8 = [ 1; 8 ]);
  check_bool "full 8cpu" true
    (Xval.thread_grid ~quick:false 8 = [ 1; 2; 4; 8 ]);
  check_bool "full 6cpu includes machine" true
    (Xval.thread_grid ~quick:false 6 = [ 1; 2; 4; 6 ])

(* ---------- native runner ---------- *)

let host = lazy (Hosttopo.detect ())

(* 2..4 domains, never more than the host offers; single-core machines
   run the single-domain smoke instead and skip the stress. *)
let stress_domains = min 4 (Hosttopo.ncpus ())

let specs ~ctr =
  let flats = List.map RT.of_basic (R.all ~ctr) in
  let p = Lazy.force host in
  let hierarchy = Hosttopo.hierarchy p in
  let basics = R.basics ~ctr in
  let comps =
    List.filter_map (fun n -> G.of_name ~basics n) [ "tkt-mcs"; "mcs-clh" ]
  in
  flats @ List.map (fun c -> RT.of_clof ~hierarchy c) comps

(* One domain: trivially mutually exclusive, but exercises the whole
   runner — calibration, pinning, window, probe, stats merge — on any
   machine including single-core CI containers. *)
let test_single_domain () =
  let p = Lazy.force host in
  let spec = RT.of_basic R.ticket in
  let r = Native.run ~duration_ms:10 ~platform:p ~nthreads:1 ~spec W.leveldb in
  check_bool "made progress" true (r.Native.total_ops > 0);
  check_int "one thread" 1 (Array.length r.Native.per_thread);
  check_int "ops add up" r.Native.total_ops r.Native.per_thread.(0);
  check_bool "wall clock sane" true (r.Native.wall_ns >= 10_000_000);
  check_bool "throughput positive" true (r.Native.throughput > 0.0)

let test_mutex_stress () =
  if stress_domains < 2 then
    Alcotest.skip () (* single-core machine: nothing to contend *)
  else
    let p = Lazy.force host in
    List.iter
      (fun (spec : RT.spec) ->
        (* Native.run's probe raises Lock_failure when two domains
           overlap in the critical section *)
        match
          Native.run ~duration_ms:25 ~platform:p ~nthreads:stress_domains
            ~spec W.leveldb
        with
        | exception W.Lock_failure msg -> Alcotest.fail msg
        | r ->
            check_bool
              (spec.RT.s_name ^ ": progress under contention")
              true
              (r.Native.total_ops > 0))
      (specs ~ctr:true)

(* The expired-deadline contract on real domains: a [try_acquire]
   whose deadline has already passed, issued while another domain holds
   the lock, must return false without waiting the holder out, and the
   lock must remain serviceable for a third party afterwards. Runs over
   every lock with a non-blocking timed path — flats, compositions, and
   HMCS-T on the host hierarchy. *)
module Hmcs = Clof_baselines.Hmcs.Make (M)

let test_expired_deadline () =
  if stress_domains < 2 then Alcotest.skip ()
  else
    let p = Lazy.force host in
    let hierarchy = Hosttopo.hierarchy p in
    let expired_specs =
      specs ~ctr:false @ [ Hmcs.abortable_spec ~hierarchy () ]
    in
    List.iter
      (fun (spec : RT.spec) ->
        let name = spec.RT.s_name in
        let lock = spec.RT.instantiate p.Platform.topo in
        let holder = lock.RT.handle ~cpu:0 () in
        let held = Atomic.make true in
        holder.RT.acquire ();
        let victim =
          Domain.spawn (fun () ->
              let h = lock.RT.handle ~cpu:1 () in
              let refused = not (h.RT.try_acquire ~deadline:(M.now ())) in
              (refused, Atomic.get held))
        in
        let refused, still_held = Domain.join victim in
        check_bool (name ^ ": expired deadline refused") true refused;
        check_bool (name ^ ": refused before holder released") true
          still_held;
        Atomic.set held false;
        holder.RT.release ();
        (* the abandoned attempt must not have corrupted the queue:
           a fresh party with a generous deadline gets served *)
        let third =
          Domain.spawn (fun () ->
              let h =
                lock.RT.handle ~cpu:(min 1 (stress_domains - 1)) ()
              in
              let got =
                h.RT.try_acquire ~deadline:(M.now () + 1_000_000_000)
              in
              if got then h.RT.release ();
              got)
        in
        check_bool (name ^ ": lock serviceable afterwards") true
          (Domain.join third))
      expired_specs

let test_deadline_path () =
  if stress_domains < 2 then Alcotest.skip ()
  else
    let p = Lazy.force host in
    (* timed acquisitions on an abortable lock: still mutually
       exclusive, still progressing, some timeouts are fine *)
    let r =
      Native.run ~deadline:50_000 ~duration_ms:25 ~platform:p
        ~nthreads:stress_domains ~spec:(RT.of_basic R.mcs) W.leveldb
    in
    check_bool "progress with deadlines" true (r.Native.total_ops > 0)

let () =
  Alcotest.run "native"
    [
      ( "real_mem",
        [
          Alcotest.test_case "cache-line padding" `Quick test_padding;
          Alcotest.test_case "semantics survive padding" `Quick
            test_semantics_survive_padding;
          Alcotest.test_case "monotonic clock" `Quick test_monotonic_clock;
          Alcotest.test_case "await / await_until" `Quick test_await;
          Alcotest.test_case "await allocation" `Quick test_await_allocation;
        ] );
      ( "hosttopo",
        [
          Alcotest.test_case "detect host" `Quick test_host_detect;
          Alcotest.test_case "synthetic fallback" `Quick
            test_synthetic_detect;
        ] );
      ( "xval",
        [ Alcotest.test_case "thread grid" `Quick test_thread_grid ] );
      ( "runner",
        [
          Alcotest.test_case "single domain smoke" `Quick
            test_single_domain;
          Alcotest.test_case "mutex stress, all registry locks" `Quick
            test_mutex_stress;
          Alcotest.test_case "timed acquisitions" `Quick
            test_deadline_path;
          Alcotest.test_case "expired deadline on domains" `Quick
            test_expired_deadline;
        ] );
    ]
