open Clof_topology
module M = Clof_sim.Sim_mem
module E = Clof_sim.Engine
module R = Clof_locks.Registry.Make (M)
module G = Clof_core.Generator.Make (M)
module Sel = Clof_core.Selection
module RT = Clof_core.Runtime
module Clof_intf = Clof_core.Clof_intf
module Level = Clof_topology.Level

let qcheck = QCheck_alcotest.to_alcotest
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let basics () = R.basics ~ctr:false

(* ---------- generator ---------- *)

let test_generate_counts () =
  List.iter
    (fun depth ->
      let n = List.length (G.generate ~basics:(basics ()) ~depth) in
      check_int
        (Printf.sprintf "4^%d combinations" depth)
        (int_of_float (4.0 ** float_of_int depth))
        n)
    [ 1; 2; 3; 4 ]

let test_generated_names_unique () =
  let names =
    List.map Clof_intf.name (G.generate ~basics:(basics ()) ~depth:3)
  in
  check_int "unique names" (List.length names)
    (List.length (List.sort_uniq compare names))

let test_build_metadata () =
  let (module L) = G.build [ R.ticket; R.clh; R.mcs ] in
  Alcotest.(check string) "name" "tkt-clh-mcs" L.name;
  check_int "depth" 3 L.depth;
  check_bool "fair" true L.fair;
  let (module U) = G.build [ R.ticket; R.tas ] in
  check_bool "tas composition unfair" false U.fair

let test_build_empty () =
  Alcotest.check_raises "empty" (Invalid_argument "Generator.build: no levels")
    (fun () -> ignore (G.build []))

let test_of_name () =
  (match G.of_name ~basics:(basics ()) "hem-mcs-tkt" with
  | Some (module L) -> Alcotest.(check string) "roundtrip" "hem-mcs-tkt" L.name
  | None -> Alcotest.fail "of_name failed");
  check_bool "unknown basic" true
    (G.of_name ~basics:(basics ()) "tkt-bogus" = None)

let prop_of_name_roundtrip =
  QCheck.Test.make ~name:"of_name inverts generated names" ~count:60
    QCheck.(list_of_size (Gen.int_range 1 4) (int_bound 3))
    (fun picks ->
      let bs = basics () in
      let combo = List.map (List.nth bs) picks in
      let (module L) = G.build combo in
      match G.of_name ~basics:bs L.name with
      | Some (module L') -> L'.name = L.name && L'.depth = L.depth
      | None -> false)

(* ---------- composed lock correctness ---------- *)

let run_clof ?(h = 8) ?(nthreads = 16) ?(iters = 100) packed platform
    hierarchy =
  let (module L) = (packed : Clof_intf.packed) in
  let lock = L.create ~h ~topo:platform.Platform.topo ~hierarchy () in
  let counter = ref 0 in
  let in_cs = ref 0 in
  let overlaps = ref 0 in
  let body cpu =
    let ctx = L.ctx_create lock ~cpu in
    fun _tid ->
      for _ = 1 to iters do
        L.acquire lock ctx;
        incr in_cs;
        if !in_cs <> 1 then incr overlaps;
        E.work 15;
        counter := !counter + 1;
        decr in_cs;
        L.release lock ctx
      done
  in
  let cpus = Topology.pick_cpus platform.Platform.topo ~nthreads in
  let threads =
    Array.to_list (Array.map (fun cpu -> (cpu, body cpu)) cpus)
  in
  let o = E.run ~duration:max_int ~platform ~threads () in
  (!counter, !overlaps, o)

let test_all_two_level () =
  List.iter
    (fun (packed : Clof_intf.packed) ->
      let (module L) = packed in
      let count, overlaps, o =
        run_clof packed Platform.tiny [ Level.Numa_node; Level.System ]
      in
      check_int (L.name ^ ": count") 1600 count;
      check_int (L.name ^ ": overlap") 0 overlaps;
      check_bool (L.name ^ ": no hang") true (not o.E.hung))
    (G.generate ~basics:(basics ()) ~depth:2)

let test_sampled_four_level () =
  let combos = G.choices ~basics:(basics ()) ~depth:4 in
  List.iteri
    (fun i combo ->
      if i mod 23 = 0 then begin
        let packed : Clof_intf.packed = G.build combo in
        let (module L) = packed in
        let count, overlaps, o =
          run_clof packed Platform.tiny (Platform.hier4 Platform.tiny)
        in
        check_int (L.name ^ ": count") 1600 count;
        check_int (L.name ^ ": overlap") 0 overlaps;
        check_bool (L.name ^ ": no hang") true (not o.E.hung)
      end)
    combos

let test_arm_hierarchy () =
  let packed = G.build [ R.ticket; R.clh; R.ticket; R.ticket ] in
  let count, overlaps, o =
    run_clof ~nthreads:16 ~iters:40 packed Platform.tiny_arm
      (Platform.hier4 Platform.tiny_arm)
  in
  check_int "count" 640 count;
  check_int "overlap" 0 overlaps;
  check_bool "no hang" true (not o.E.hung)

let test_h_one_always_releases () =
  (* H=1 forbids local passing entirely; the lock must still be correct *)
  let packed = G.build [ R.mcs; R.mcs ] in
  let count, overlaps, o =
    run_clof ~h:1 packed Platform.tiny [ Level.Numa_node; Level.System ]
  in
  check_int "count" 1600 count;
  check_int "overlap" 0 overlaps;
  check_bool "no hang" true (not o.E.hung)

let test_create_validation () =
  let (module L) = G.build [ R.ticket; R.ticket ] in
  Alcotest.check_raises "depth mismatch"
    (Invalid_argument "Clof.Compose.create: hierarchy depth mismatch")
    (fun () ->
      ignore
        (L.create ~topo:Platform.tiny.Platform.topo
           ~hierarchy:[ Level.Core; Level.Numa_node; Level.System ]
           ()));
  Alcotest.check_raises "empty hierarchy"
    (Invalid_argument "Clof.Compose.create: empty hierarchy") (fun () ->
      ignore (L.create ~topo:Platform.tiny.Platform.topo ~hierarchy:[] ()));
  let (module B) = G.build [ R.ticket ] in
  Alcotest.check_raises "base needs [System]"
    (Invalid_argument "Clof.Base.create: hierarchy must be exactly [System]")
    (fun () ->
      ignore
        (B.create ~topo:Platform.tiny.Platform.topo
           ~hierarchy:[ Level.Numa_node ] ()))

(* ---------- keep_local locality ---------- *)

let test_keep_local_effect () =
  (* with a big H and waiters present, consecutive owners should stay
     within a cohort most of the time: compare hot-line transfer counts
     indirectly through throughput vs H=1 *)
  let name = "clh-clh" in
  let spec h =
    RT.of_clof ~h
      ~hierarchy:[ Level.Numa_node; Level.System ]
      (Option.get (G.of_name ~basics:(basics ()) name))
  in
  let tput h =
    let r =
      Clof_workloads.Workload.run ~platform:Platform.tiny ~nthreads:16
        ~spec:(spec h)
        {
          Clof_workloads.Workload.duration = 150_000;
          cs_reads = 2;
          cs_writes = 2;
          cs_work = 50;
          noncs_work = 400;
        }
    in
    r.Clof_workloads.Workload.throughput
  in
  check_bool "H=64 beats H=1 under contention" true (tput 64 > tput 1)

(* ---------- fast path ---------- *)

let test_fastpath_correct () =
  let packed = G.build [ R.ticket; R.mcs ] in
  let (module L) = packed in
  let module F = Clof_core.Fastpath.Make (M) (L) in
  let count, overlaps, o =
    run_clof
      (module F : Clof_intf.S)
      Platform.tiny
      [ Level.Numa_node; Level.System ]
  in
  check_int "count" 1600 count;
  check_int "no overlap" 0 overlaps;
  check_bool "no hang" true (not o.E.hung);
  Alcotest.(check string) "name" "fp-tkt-mcs" F.name;
  check_bool "fast path is not fair" false F.fair

let test_fastpath_verified () =
  (* model-check the extension like any other lock (Figure 5) *)
  let module T = Clof_locks.Ticket.Make (Clof_verify.Vmem) in
  let module B = Clof_core.Compose.Base (T) in
  let module F = Clof_core.Fastpath.Make (Clof_verify.Vmem) (B) in
  let topo =
    Topology.create ~name:"fp1" ~ncpus:3 ~core_of:Fun.id ~cache_of:Fun.id
      ~numa_of:Fun.id
      ~pkg_of:(fun _ -> 0)
  in
  let scenario () =
    let lock = F.create ~topo ~hierarchy:[ Level.System ] () in
    let data = Clof_verify.Vmem.make ~name:"data" 0 in
    List.init 3 (fun cpu ->
        let ctx = F.ctx_create lock ~cpu in
        fun () ->
          for _ = 1 to 2 do
            F.acquire lock ctx;
            Clof_verify.Checker.cs_enter ();
            let v = Clof_verify.Vmem.load data in
            Clof_verify.Vmem.store data (v + 1);
            Clof_verify.Checker.cs_exit ();
            F.release lock ctx
          done)
  in
  let r =
    Clof_verify.Checker.check
      ~config:{ Clof_verify.Checker.default with max_executions = 20_000 }
      ~name:"fastpath" scenario
  in
  check_bool "no violation" true (r.Clof_verify.Checker.violation = None)

(* ---------- adaptive aspect ---------- *)

let test_adaptive_correct () =
  (* live controller (short epochs, no hysteresis) plus thread 0
     dragging the policy through every mode mid-stream: counts must
     stay exact and critical sections exclusive across the flips *)
  let packed = G.build [ R.ticket; R.mcs ] in
  let (module L) = packed in
  let module A = Clof_core.Adaptive.Make (M) (L) in
  let platform = Platform.tiny in
  let lock =
    A.create ~h:8 ~topo:platform.Platform.topo
      ~hierarchy:[ Level.Numa_node; Level.System ]
      ()
  in
  A.arm ~epoch:8 ~hysteresis:1 lock;
  Alcotest.(check string) "name" "ad-tkt-mcs" A.name;
  let counter = ref 0 in
  let in_cs = ref 0 in
  let overlaps = ref 0 in
  let body cpu =
    let ctx = A.ctx_create lock ~cpu in
    fun tid ->
      for i = 1 to 100 do
        if tid = 0 then
          A.force lock
            (match i mod 3 with
            | 0 -> Clof_core.Adaptive.Fastpath_mostly
            | 1 -> Clof_core.Adaptive.Keep_local_heavy
            | _ -> Clof_core.Adaptive.Fair);
        A.acquire lock ctx;
        incr in_cs;
        if !in_cs <> 1 then incr overlaps;
        E.work 15;
        counter := !counter + 1;
        decr in_cs;
        A.release lock ctx
      done
  in
  let cpus = Topology.pick_cpus platform.Platform.topo ~nthreads:16 in
  let threads =
    Array.to_list (Array.map (fun cpu -> (cpu, body cpu)) cpus)
  in
  let o = E.run ~duration:max_int ~platform ~threads () in
  check_int "count" 1600 !counter;
  check_int "no overlap" 0 !overlaps;
  check_bool "no hang" true (not o.E.hung);
  check_bool "controller switched" true (A.switches lock > 0)

let test_adaptive_verified () =
  (* model-check the aspect like any other lock, controller live on
     every acquire (epoch 1) so decide/vote interleave with the
     word/fission protocol under DPOR *)
  let module T = Clof_locks.Ticket.Make (Clof_verify.Vmem) in
  let module B = Clof_core.Compose.Base (T) in
  let module A = Clof_core.Adaptive.Make (Clof_verify.Vmem) (B) in
  let topo =
    Topology.create ~name:"ad1" ~ncpus:3 ~core_of:Fun.id ~cache_of:Fun.id
      ~numa_of:Fun.id
      ~pkg_of:(fun _ -> 0)
  in
  let scenario () =
    let lock = A.create ~topo ~hierarchy:[ Level.System ] () in
    A.arm ~epoch:1 ~hysteresis:1 lock;
    let data = Clof_verify.Vmem.make ~name:"data" 0 in
    List.init 3 (fun cpu ->
        let ctx = A.ctx_create lock ~cpu in
        fun () ->
          for _ = 1 to 2 do
            A.acquire lock ctx;
            Clof_verify.Checker.cs_enter ();
            let v = Clof_verify.Vmem.load data in
            Clof_verify.Vmem.store data (v + 1);
            Clof_verify.Checker.cs_exit ();
            A.release lock ctx
          done)
  in
  let r =
    Clof_verify.Checker.check
      ~config:{ Clof_verify.Checker.default with max_executions = 20_000 }
      ~name:"adaptive" scenario
  in
  check_bool "no violation" true (r.Clof_verify.Checker.violation = None)

let test_adaptive_zero_alloc () =
  (* the zero-overhead claim: with the controller off, acquire/release
     through the wrapper allocates nothing — measured on the native
     backend (the simulator's engine allocates for its own bookkeeping) *)
  let module NR = Clof_locks.Registry.Make (Clof_atomics.Real_mem) in
  let module NG = Clof_core.Generator.Make (Clof_atomics.Real_mem) in
  let (module L) = NG.build [ NR.ticket; NR.mcs ] in
  let module A = Clof_core.Adaptive.Make (Clof_atomics.Real_mem) (L) in
  let topo = Platform.tiny.Platform.topo in
  let lock =
    A.create ~topo ~hierarchy:[ Level.Numa_node; Level.System ] ()
  in
  let ctx = A.ctx_create lock ~cpu:0 in
  (* warm up once outside the window *)
  A.acquire lock ctx;
  A.release lock ctx;
  let w0 = Gc.minor_words () in
  for _ = 1 to 10_000 do
    A.acquire lock ctx;
    A.release lock ctx
  done;
  let words = Gc.minor_words () -. w0 in
  check_bool
    (Printf.sprintf "%.0f minor words for 10k acquire/release" words)
    true (words < 256.0)

(* ---------- selection ---------- *)

let mk_series lock points = { Sel.lock; points }

let test_selection_policies () =
  let low_friendly = mk_series "low" [ (1, 10.0); (16, 1.0) ] in
  let high_friendly = mk_series "high" [ (1, 1.0); (16, 10.0) ] in
  let series = [ low_friendly; high_friendly ] in
  Alcotest.(check (option string))
    "HC picks high" (Some "high")
    (Option.map (fun s -> s.Sel.lock) (Sel.best Sel.High_contention series));
  Alcotest.(check (option string))
    "LC picks low" (Some "low")
    (Option.map (fun s -> s.Sel.lock) (Sel.best Sel.Low_contention series));
  Alcotest.(check (option string))
    "worst of HC is low" (Some "low")
    (Option.map (fun s -> s.Sel.lock) (Sel.worst Sel.High_contention series))

let test_selection_empty () =
  check_bool "empty best" true (Sel.best Sel.High_contention [] = None);
  Alcotest.(check (float 1e-9)) "empty score" 0.0
    (Sel.score Sel.High_contention [])

(* The scripted benchmark reports its winners by name, so the ranking
   must be a pure function of the series *set*: ties broken
   lexicographically, input order irrelevant. *)
let test_rank_deterministic () =
  let series =
    [
      mk_series "clh-mcs" [ (1, 2.0); (16, 4.0) ];
      mk_series "mcs-clh" [ (1, 3.0); (16, 1.0) ];
      mk_series "tkt-tkt" [ (1, 1.0); (16, 5.0) ];
    ]
  in
  let names l = List.map (fun s -> s.Sel.lock) l in
  let reference = names (Sel.rank Sel.High_contention series) in
  List.iter
    (fun shuffled ->
      check_bool "order-independent" true
        (names (Sel.rank Sel.High_contention shuffled) = reference))
    [
      List.rev series;
      (match series with [ a; b; c ] -> [ b; c; a ] | _ -> assert false);
    ]

let test_rank_tie_break () =
  (* identical points -> identical scores; rank must fall back to the
     lock name, never the input order *)
  let pts = [ (1, 2.0); (16, 2.0) ] in
  let tied = [ mk_series "zzz" pts; mk_series "aaa" pts; mk_series "mmm" pts ] in
  List.iter
    (fun (tag, policy) ->
      Alcotest.(check (list string))
        (tag ^ " ties are lexicographic")
        [ "aaa"; "mmm"; "zzz" ]
        (List.map (fun s -> s.Sel.lock) (Sel.rank policy tied)))
    [ ("HC", Sel.High_contention); ("LC", Sel.Low_contention) ];
  List.iter
    (fun shuffled ->
      Alcotest.(check (list string))
        "tie-break ignores input order" [ "aaa"; "mmm"; "zzz" ]
        (List.map (fun s -> s.Sel.lock) (Sel.rank Sel.High_contention shuffled)))
    [ List.rev tied ]

let test_score_weighting () =
  (* HC weights by threads, LC by 1/threads: with points (1, a) and
     (16, b) the HC score is (a + 16b)/17 and the LC is (a + b/16) /
     (1 + 1/16) *)
  let pts = [ (1, 10.0); (16, 1.0) ] in
  Alcotest.(check (float 1e-9))
    "HC weighted mean"
    ((10.0 +. (16.0 *. 1.0)) /. 17.0)
    (Sel.score Sel.High_contention pts);
  Alcotest.(check (float 1e-9))
    "LC weighted mean"
    ((10.0 +. (1.0 /. 16.0)) /. (1.0 +. (1.0 /. 16.0)))
    (Sel.score Sel.Low_contention pts);
  (* a flat series scores its constant value under both policies *)
  let flat = [ (1, 3.0); (8, 3.0); (64, 3.0) ] in
  List.iter
    (fun (tag, policy) ->
      Alcotest.(check (float 1e-9)) (tag ^ " flat") 3.0 (Sel.score policy flat))
    [ ("HC", Sel.High_contention); ("LC", Sel.Low_contention) ]

let prop_rank_is_permutation =
  QCheck.Test.make ~name:"rank permutes the series" ~count:100
    QCheck.(list (pair (int_bound 1000) (list (pair (int_range 1 128) pos_float))))
    (fun raw ->
      let series =
        List.mapi
          (fun i (_, pts) ->
            mk_series (string_of_int i)
              (List.map (fun (t, x) -> (t, Float.abs x)) pts))
          raw
      in
      let ranked = Sel.rank Sel.High_contention series in
      List.sort compare (List.map (fun s -> s.Sel.lock) ranked)
      = List.sort compare (List.map (fun s -> s.Sel.lock) series))

let prop_rank_sorted_by_score =
  QCheck.Test.make ~name:"rank is sorted by score" ~count:100
    QCheck.(list (list (pair (int_range 1 128) pos_float)))
    (fun raw ->
      let series =
        List.mapi
          (fun i pts ->
            mk_series (string_of_int i)
              (List.map (fun (t, x) -> (t, Float.abs x)) pts))
          raw
      in
      let ranked = Sel.rank Sel.Low_contention series in
      let scores = List.map (fun s -> Sel.score Sel.Low_contention s.Sel.points) ranked in
      let rec sorted = function
        | [] | [ _ ] -> true
        | a :: (b :: _ as rest) -> a >= b && sorted rest
      in
      sorted scores)

(* ---------- runtime ---------- *)

let test_runtime_of_basic () =
  let spec = RT.of_basic R.mcs in
  Alcotest.(check string) "name" "mcs" spec.RT.s_name;
  let lock = spec.RT.instantiate Platform.tiny.Platform.topo in
  let h = lock.RT.handle ~cpu:0 () in
  let ran = ref false in
  ignore
    (E.run ~duration:max_int ~platform:Platform.tiny
       ~threads:
         [
           ( 0,
             fun _ ->
               h.RT.acquire ();
               ran := true;
               h.RT.release () );
         ]
       ());
  check_bool "usable" true !ran

let test_runtime_rename () =
  let spec = RT.rename "alias" (RT.of_basic R.mcs) in
  Alcotest.(check string) "renamed" "alias" spec.RT.s_name;
  let lock = spec.RT.instantiate Platform.tiny.Platform.topo in
  Alcotest.(check string) "instance renamed" "alias" lock.RT.l_name

let test_aspects_table () =
  check_int "nine algorithms" 9 (List.length Clof_core.Aspects.table);
  let clof =
    List.find (fun e -> e.Clof_core.Aspects.algorithm = "CLoF")
      Clof_core.Aspects.table
  in
  check_bool "clof covers all" true
    Clof_core.Aspects.(clof.a1 && clof.a2 && clof.a3 && clof.a4)

let () =
  Alcotest.run "clof"
    [
      ( "generator",
        [
          Alcotest.test_case "combination counts" `Quick test_generate_counts;
          Alcotest.test_case "unique names" `Quick
            test_generated_names_unique;
          Alcotest.test_case "metadata" `Quick test_build_metadata;
          Alcotest.test_case "empty build" `Quick test_build_empty;
          Alcotest.test_case "of_name" `Quick test_of_name;
          qcheck prop_of_name_roundtrip;
        ] );
      ( "composition",
        [
          Alcotest.test_case "all 2-level combos" `Quick test_all_two_level;
          Alcotest.test_case "sampled 4-level combos" `Quick
            test_sampled_four_level;
          Alcotest.test_case "armv8-like hierarchy" `Quick
            test_arm_hierarchy;
          Alcotest.test_case "H=1" `Quick test_h_one_always_releases;
          Alcotest.test_case "create validation" `Quick
            test_create_validation;
          Alcotest.test_case "keep_local pays" `Quick test_keep_local_effect;
          Alcotest.test_case "fast path correct" `Quick
            test_fastpath_correct;
          Alcotest.test_case "fast path verified" `Quick
            test_fastpath_verified;
          Alcotest.test_case "adaptive correct" `Quick
            test_adaptive_correct;
          Alcotest.test_case "adaptive verified" `Quick
            test_adaptive_verified;
          Alcotest.test_case "adaptive zero-alloc" `Quick
            test_adaptive_zero_alloc;
        ] );
      ( "selection",
        [
          Alcotest.test_case "policies" `Quick test_selection_policies;
          Alcotest.test_case "empty" `Quick test_selection_empty;
          Alcotest.test_case "rank deterministic" `Quick
            test_rank_deterministic;
          Alcotest.test_case "lexicographic tie-break" `Quick
            test_rank_tie_break;
          Alcotest.test_case "HC/LC weighting" `Quick test_score_weighting;
          qcheck prop_rank_is_permutation;
          qcheck prop_rank_sorted_by_score;
        ] );
      ( "runtime",
        [
          Alcotest.test_case "of_basic" `Quick test_runtime_of_basic;
          Alcotest.test_case "rename" `Quick test_runtime_rename;
          Alcotest.test_case "aspects table" `Quick test_aspects_table;
        ] );
    ]
