open Clof_topology
module M = Clof_sim.Sim_mem
module E = Clof_sim.Engine
module Hmcs = Clof_baselines.Hmcs.Make (M)
module Cna = Clof_baselines.Cna.Make (M)
module Shfl = Clof_baselines.Shfllock.Make (M)
module Cohort = Clof_baselines.Cohort.Make (M)
module RT = Clof_core.Runtime
module W = Clof_workloads.Workload

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let exercise_spec ?(platform = Platform.tiny) ?(nthreads = 16) ?(iters = 100)
    spec =
  let lock = spec.RT.instantiate platform.Platform.topo in
  let counter = ref 0 in
  let in_cs = ref 0 in
  let overlaps = ref 0 in
  let body cpu =
    let h = lock.RT.handle ~cpu () in
    fun _tid ->
      for _ = 1 to iters do
        h.RT.acquire ();
        incr in_cs;
        if !in_cs <> 1 then incr overlaps;
        E.work 15;
        counter := !counter + 1;
        decr in_cs;
        h.RT.release ()
      done
  in
  let cpus = Topology.pick_cpus platform.Platform.topo ~nthreads in
  let threads =
    Array.to_list (Array.map (fun cpu -> (cpu, body cpu)) cpus)
  in
  let o = E.run ~duration:max_int ~platform ~threads () in
  (!counter, !overlaps, o)

let check_correct name spec ~nthreads ~iters =
  let count, overlaps, o = exercise_spec ~nthreads ~iters spec in
  check_int (name ^ ": count") (nthreads * iters) count;
  check_int (name ^ ": overlap") 0 overlaps;
  check_bool (name ^ ": no hang") true (not o.E.hung)

(* ---------- HMCS and HMCS-T ---------- *)

(* The one tree's two specs: store-granted HMCS and CAS-arbitrated
   HMCS-T. Hierarchy validation is shared, so it is checked on both. *)
let hmcs_both ?h ~hierarchy () =
  [ Hmcs.spec ?h ~hierarchy (); Hmcs.abortable_spec ?h ~hierarchy () ]

let test_hmcs_depths () =
  List.iter
    (fun depth ->
      let spec =
        Hmcs.spec ~hierarchy:(Platform.hierarchy_of_depth Platform.tiny depth) ()
      in
      check_correct
        (Printf.sprintf "hmcs<%d>" depth)
        spec ~nthreads:16 ~iters:100)
    [ 2; 3; 4 ]

let test_hmcs_small_threshold () =
  let spec = Hmcs.spec ~h:1 ~hierarchy:(Platform.hier4 Platform.tiny) () in
  check_correct "hmcs h=1" spec ~nthreads:16 ~iters:100

let test_hmcs_single_thread () =
  let spec = Hmcs.spec ~hierarchy:(Platform.hier2 Platform.tiny) () in
  check_correct "hmcs 1T" spec ~nthreads:1 ~iters:25

let test_hmcs_rejects_bad_hierarchy () =
  List.iter
    (fun spec ->
      check_bool
        (spec.RT.s_name ^ ": invalid hierarchy rejected")
        true
        (try
           ignore (spec.RT.instantiate Platform.tiny.Platform.topo);
           false
         with Invalid_argument _ -> true))
    (hmcs_both ~hierarchy:[ Level.Numa_node ] ())

let test_hmcs_spec_name () =
  Alcotest.(check string)
    "name" "hmcs<3>"
    (Hmcs.spec ~hierarchy:(Platform.hier3 Platform.tiny) ()).RT.s_name

let test_hmcst_depths () =
  List.iter
    (fun depth ->
      let spec =
        Hmcs.abortable_spec
          ~hierarchy:(Platform.hierarchy_of_depth Platform.tiny depth)
          ()
      in
      check_correct
        (Printf.sprintf "hmcst<%d>" depth)
        spec ~nthreads:16 ~iters:100)
    [ 2; 3; 4 ]

let test_hmcst_small_threshold () =
  let spec =
    Hmcs.abortable_spec ~h:1 ~hierarchy:(Platform.hier4 Platform.tiny) ()
  in
  check_correct "hmcst h=1" spec ~nthreads:16 ~iters:100

let test_hmcst_metadata () =
  let spec = Hmcs.abortable_spec ~hierarchy:(Platform.hier3 Platform.tiny) () in
  Alcotest.(check string) "name" "hmcst<3>" spec.RT.s_name;
  let lock = spec.RT.instantiate Platform.tiny.Platform.topo in
  check_bool "fair" true lock.RT.l_fair;
  check_bool "abortable" true lock.RT.l_abortable

(* One holder, one timed waiter whose deadline lands inside the hold:
   the attempt must fail, and the same context must then succeed both
   on the timed path (generous deadline) and the blocking path — the
   abandoned node left in the queue is skipped by the release walk and
   the replacement node keeps the context reusable. *)
let test_hmcst_timeout_then_reuse () =
  let platform = Platform.tiny in
  let lock =
    (Hmcs.abortable_spec ~hierarchy:(Platform.hier2 platform) ()).RT.instantiate
      platform.Platform.topo
  in
  let entries = ref 0 in
  let in_cs = ref 0 in
  let overlaps = ref 0 in
  let cs work =
    incr in_cs;
    if !in_cs <> 1 then incr overlaps;
    E.work work;
    incr entries;
    decr in_cs
  in
  let timed_out = ref false in
  let timed_won = ref false in
  let holder _tid =
    let h = lock.RT.handle ~cpu:0 () in
    h.RT.acquire ();
    cs 20_000;
    h.RT.release ()
  in
  let waiter _tid =
    let h = lock.RT.handle ~cpu:1 () in
    E.work 1_000;
    (* expires mid-hold: must abandon *)
    if not (h.RT.try_acquire ~deadline:(E.now () + 2_000)) then
      timed_out := true;
    (* generous deadline: granted once the holder releases *)
    if h.RT.try_acquire ~deadline:(E.now () + 200_000) then begin
      timed_won := true;
      cs 100;
      h.RT.release ()
    end;
    (* and the blocking path still works on the same context *)
    h.RT.acquire ();
    cs 100;
    h.RT.release ()
  in
  let o =
    E.run ~duration:max_int ~platform
      ~threads:[ (0, holder); (1, waiter) ]
      ()
  in
  check_bool "no hang" true (not o.E.hung);
  check_bool "timed out mid-hold" true !timed_out;
  check_bool "timed retry won" true !timed_won;
  check_int "entries" 3 !entries;
  check_int "overlap" 0 !overlaps

(* Two waiters abandon mid-queue while a third keeps holding; the
   release walk must skip both corpses and every context must stay
   usable for a subsequent blocking acquisition. *)
let test_hmcst_abandon_mid_queue () =
  let platform = Platform.tiny in
  let lock =
    (Hmcs.abortable_spec ~hierarchy:(Platform.hier3 platform) ()).RT.instantiate
      platform.Platform.topo
  in
  let entries = ref 0 in
  let in_cs = ref 0 in
  let overlaps = ref 0 in
  let timeouts = ref 0 in
  let cs work =
    incr in_cs;
    if !in_cs <> 1 then incr overlaps;
    E.work work;
    incr entries;
    decr in_cs
  in
  let holder _tid =
    let h = lock.RT.handle ~cpu:0 () in
    h.RT.acquire ();
    cs 30_000;
    h.RT.release ()
  in
  let waiter cpu delay _tid =
    let h = lock.RT.handle ~cpu () in
    E.work delay;
    if not (h.RT.try_acquire ~deadline:(E.now () + 2_000)) then
      incr timeouts;
    h.RT.acquire ();
    cs 100;
    h.RT.release ()
  in
  let o =
    E.run ~duration:max_int ~platform
      ~threads:[ (0, holder); (1, waiter 1 1_000); (2, waiter 2 1_500) ]
      ()
  in
  check_bool "no hang" true (not o.E.hung);
  check_int "both timed out" 2 !timeouts;
  check_int "entries" 3 !entries;
  check_int "overlap" 0 !overlaps

(* The full benchmark harness on the timed path: contended enough that
   deadlines fire, yet everything must recover and keep completing. *)
let test_hmcst_timed_workload () =
  let spec = Hmcs.abortable_spec ~hierarchy:(Platform.hier2 Platform.tiny) () in
  let r =
    W.run ~deadline:1_000 ~platform:Platform.tiny ~nthreads:16 ~spec
      {
        W.duration = 150_000;
        cs_reads = 2;
        cs_writes = 2;
        cs_work = 200;
        noncs_work = 500;
      }
  in
  check_bool "no hang" true (not r.W.hung);
  check_bool "made progress" true (r.W.total_ops > 0);
  check_bool "observed abandonment" true
    (Clof_stats.Stats.timeouts r.W.stats > 0)

(* HMCS-T's counters pinned: no golden runs hmcst, so this is what
   catches a release-walk change that moves a handover, keep_local or
   abort event. A small H and a deadline of a few CS lengths exercise
   every walk branch: local passes, H exhaustion, abandoned nodes
   skipped, and a relinquish that frees a level without a handover. *)
let test_hmcst_counters () =
  let module S = Clof_stats.Stats in
  let spec =
    Hmcs.abortable_spec ~h:4 ~hierarchy:(Platform.hier2 Platform.tiny) ()
  in
  let r =
    W.run ~deadline:2_000 ~platform:Platform.tiny ~nthreads:16 ~spec
      {
        W.duration = 150_000;
        cs_reads = 2;
        cs_writes = 2;
        cs_work = 200;
        noncs_work = 500;
      }
  in
  check_int "timeouts" 724 (S.timeouts r.W.stats);
  List.iter
    (fun (level, local, remote, kept, exhausted, aborts) ->
      let at name = Printf.sprintf "level %d %s" level name in
      check_int (at "local_pass") local (S.local_pass r.W.stats ~level);
      check_int (at "remote_pass") remote (S.remote_pass r.W.stats ~level);
      check_int (at "keep_local_kept") kept
        (S.keep_local_kept r.W.stats ~level);
      check_int (at "h_exhausted") exhausted (S.h_exhausted r.W.stats ~level);
      check_int (at "aborts") aborts (S.aborts r.W.stats ~level))
    [ (0, 2, 19, 2, 0, 91); (1, 73, 251, 73, 24, 633) ]

(* ---------- CNA ---------- *)

let test_cna_correct () =
  check_correct "cna" (Cna.spec ()) ~nthreads:16 ~iters:150

let test_cna_tiny_budget () =
  (* splices constantly; correctness must not depend on the budget *)
  check_correct "cna h=1" (Cna.spec ~h:1 ()) ~nthreads:16 ~iters:100

let test_cna_single_thread () =
  check_correct "cna 1T" (Cna.spec ()) ~nthreads:1 ~iters:50

let test_cna_no_starvation () =
  (* every thread must complete its iterations (the benchmark only
     terminates if none starves), with waiters from two NUMA nodes *)
  check_correct "cna all make progress" (Cna.spec ~h:4 ()) ~nthreads:8
    ~iters:200

(* ---------- ShflLock ---------- *)

let test_shfl_correct () =
  check_correct "shfl" (Shfl.spec ()) ~nthreads:16 ~iters:150

let test_shfl_scan_bounds () =
  List.iter
    (fun scan ->
      check_correct
        (Printf.sprintf "shfl scan=%d" scan)
        (Shfl.spec ~scan ())
        ~nthreads:12 ~iters:80)
    [ 0; 1; 32 ]

(* ---------- cohort locks ---------- *)

let test_cohort_correct () =
  List.iter
    (fun spec -> check_correct spec.RT.s_name spec ~nthreads:16 ~iters:100)
    Cohort.all

let test_cohort_names () =
  Alcotest.(check (list string))
    "names"
    [ "c-bo-mcs"; "c-mcs-mcs"; "c-tkt-tkt" ]
    (List.map (fun s -> s.RT.s_name) Cohort.all)

(* ---------- capability flags ---------- *)

(* Every lock the runtime constructor builds declares its name and
   capability flags once; pin them, since the fault gate and the
   regression tooling read them. *)
let test_capability_flags () =
  let module R = Clof_locks.Registry.Make (M) in
  let module G = Clof_core.Generator.Make (M) in
  let module A = Clof_harness.Adaptbench in
  let tiny = Platform.tiny in
  let hier2 = Platform.hier2 tiny in
  List.iter
    (fun (spec, name, fair, abortable, adaptive) ->
      let lock = spec.RT.instantiate tiny.Platform.topo in
      Alcotest.(check (list string))
        name
        [ name; name ]
        [ spec.RT.s_name; lock.RT.l_name ];
      Alcotest.(check (list bool))
        (name ^ ": fair, abortable, adaptive")
        [ fair; abortable; adaptive ]
        [ lock.RT.l_fair; lock.RT.l_abortable; lock.RT.l_adaptive ])
    [
      (Hmcs.spec ~hierarchy:hier2 (), "hmcs<2>", true, false, false);
      (Hmcs.abortable_spec ~hierarchy:hier2 (), "hmcst<2>", true, true, false);
      (Cna.spec (), "cna", false, false, false);
      (Shfl.spec (), "shfl", false, false, false);
      ( A.adaptive_spec ~hierarchy:(Platform.hier4 tiny) (),
        "ad-clof<4>", false, true, true );
      ( RT.of_clof ~hierarchy:hier2 (G.build [ R.mcs; R.ticket ]),
        "mcs-tkt", true, false, false );
      (RT.of_basic R.ttas, "ttas", false, false, false);
    ]

(* ---------- comparative shapes (paper headlines) ---------- *)

let tput ?(nthreads = 95) spec =
  let r =
    W.run ~platform:Platform.x86 ~nthreads ~spec
      { W.leveldb with W.duration = 250_000 }
  in
  r.W.throughput

let test_hmcs4_beats_mcs_high_contention () =
  let hmcs4 = tput (Hmcs.spec ~hierarchy:(Platform.hier4 Platform.x86) ()) in
  let module R = Clof_locks.Registry.Make (M) in
  let mcs = tput (RT.of_basic R.mcs) in
  check_bool
    (Printf.sprintf "hmcs4 %.3f > mcs %.3f at 95T" hmcs4 mcs)
    true (hmcs4 > mcs *. 1.2)

let test_hmcs4_beats_hmcs2 () =
  let h4 = tput (Hmcs.spec ~hierarchy:(Platform.hier4 Platform.x86) ()) in
  let h2 = tput (Hmcs.spec ~hierarchy:(Platform.hier2 Platform.x86) ()) in
  check_bool
    (Printf.sprintf "hmcs4 %.3f > hmcs2 %.3f" h4 h2)
    true (h4 > h2)

let () =
  Alcotest.run "baselines"
    [
      ( "hmcs",
        [
          Alcotest.test_case "depths 2-4" `Quick test_hmcs_depths;
          Alcotest.test_case "h=1" `Quick test_hmcs_small_threshold;
          Alcotest.test_case "single thread" `Quick test_hmcs_single_thread;
          Alcotest.test_case "bad hierarchy" `Quick
            test_hmcs_rejects_bad_hierarchy;
          Alcotest.test_case "spec name" `Quick test_hmcs_spec_name;
        ] );
      ( "hmcs-t",
        [
          Alcotest.test_case "depths 2-4" `Quick test_hmcst_depths;
          Alcotest.test_case "h=1" `Quick test_hmcst_small_threshold;
          Alcotest.test_case "metadata" `Quick test_hmcst_metadata;
          Alcotest.test_case "timeout then reuse" `Quick
            test_hmcst_timeout_then_reuse;
          Alcotest.test_case "abandon mid-queue" `Quick
            test_hmcst_abandon_mid_queue;
          Alcotest.test_case "timed workload" `Quick
            test_hmcst_timed_workload;
          Alcotest.test_case "counters pinned" `Quick test_hmcst_counters;
        ] );
      ( "cna",
        [
          Alcotest.test_case "correct" `Quick test_cna_correct;
          Alcotest.test_case "tiny budget" `Quick test_cna_tiny_budget;
          Alcotest.test_case "single thread" `Quick test_cna_single_thread;
          Alcotest.test_case "no starvation" `Quick test_cna_no_starvation;
        ] );
      ( "shfllock",
        [
          Alcotest.test_case "correct" `Quick test_shfl_correct;
          Alcotest.test_case "scan bounds" `Quick test_shfl_scan_bounds;
        ] );
      ( "cohort",
        [
          Alcotest.test_case "correct" `Quick test_cohort_correct;
          Alcotest.test_case "names" `Quick test_cohort_names;
        ] );
      ( "spec",
        [ Alcotest.test_case "capability flags" `Quick test_capability_flags ]
      );
      ( "shapes",
        [
          Alcotest.test_case "hmcs4 > mcs at high contention" `Slow
            test_hmcs4_beats_mcs_high_contention;
          Alcotest.test_case "hmcs4 > hmcs2" `Slow test_hmcs4_beats_hmcs2;
        ] );
    ]
