open Clof_topology

let qcheck = QCheck_alcotest.to_alcotest

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ---------- Level ---------- *)

let test_level_order () =
  let rec pairs = function
    | [] | [ _ ] -> ()
    | a :: (b :: _ as rest) ->
        check_bool "inner < outer" true (Level.compare a b < 0);
        pairs rest
  in
  pairs Level.all;
  check_int "compare refl" 0 (Level.compare Level.Numa_node Level.Numa_node)

(* ---------- presets ---------- *)

let test_x86_shape () =
  let t = Platform.x86.Platform.topo in
  check_int "cpus" 96 (Topology.ncpus t);
  check_int "cores" 48 (Topology.ncohorts t Level.Core);
  check_int "cache groups" 16 (Topology.ncohorts t Level.Cache_group);
  check_int "numa" 2 (Topology.ncohorts t Level.Numa_node);
  check_int "packages" 2 (Topology.ncohorts t Level.Package);
  check_int "system" 1 (Topology.ncohorts t Level.System);
  check_int "hts per core" 2 (Topology.cpus_per_cohort t Level.Core);
  check_int "cpus per cache group" 6
    (Topology.cpus_per_cohort t Level.Cache_group)

let test_armv8_shape () =
  let t = Platform.armv8.Platform.topo in
  check_int "cpus" 128 (Topology.ncpus t);
  check_int "cores" 128 (Topology.ncohorts t Level.Core);
  check_int "cache groups" 32 (Topology.ncohorts t Level.Cache_group);
  check_int "numa" 4 (Topology.ncohorts t Level.Numa_node);
  check_int "packages" 2 (Topology.ncohorts t Level.Package);
  check_int "cpus per numa" 32 (Topology.cpus_per_cohort t Level.Numa_node)

let test_x86_ht_siblings () =
  let t = Platform.x86.Platform.topo in
  (* the paper's numbering: c and c+48 are hyperthread siblings *)
  check_bool "0 and 48 same core" true
    (Topology.proximity t 0 48 = Level.Same_core);
  check_bool "0 and 1 same cache" true
    (Topology.proximity t 0 1 = Level.Same_cache);
  check_bool "0 and 3 same numa" true
    (Topology.proximity t 0 3 = Level.Same_numa);
  check_bool "0 and 24 cross package" true
    (Topology.proximity t 0 24 = Level.Same_system);
  check_bool "same cpu" true (Topology.proximity t 7 7 = Level.Same_cpu)

let test_armv8_proximities () =
  let t = Platform.armv8.Platform.topo in
  check_bool "0-1 cache" true (Topology.proximity t 0 1 = Level.Same_cache);
  check_bool "0-4 numa" true (Topology.proximity t 0 4 = Level.Same_numa);
  check_bool "0-32 package" true
    (Topology.proximity t 0 32 = Level.Same_package);
  check_bool "0-64 system" true
    (Topology.proximity t 0 64 = Level.Same_system)

let test_nesting_rejected () =
  (* cpu 0 and 1 share a "cache group" but live in different NUMA
     nodes: cohorts do not nest *)
  Alcotest.check_raises "non-nesting"
    (Invalid_argument
       "Topology.create bad: cohorts do not nest at level cache-group")
    (fun () ->
      ignore
        (Topology.create ~name:"bad" ~ncpus:4 ~core_of:Fun.id
           ~cache_of:(fun i -> i / 2)
           ~numa_of:(fun i -> i mod 2)
           ~pkg_of:(fun _ -> 0)))

let test_bad_ncpus () =
  Alcotest.check_raises "ncpus 0" (Invalid_argument "Topology.create: ncpus <= 0")
    (fun () ->
      ignore
        (Topology.create ~name:"z" ~ncpus:0 ~core_of:Fun.id ~cache_of:Fun.id
           ~numa_of:Fun.id ~pkg_of:Fun.id))

let test_cpus_of_cohort () =
  let t = Platform.x86.Platform.topo in
  Alcotest.(check (list int))
    "core 0 = {0, 48}"
    [ 0; 48 ]
    (Topology.cpus_of_cohort t Level.Core (Topology.cohort_of t Level.Core 0));
  Alcotest.(check (list int))
    "cache group of cpu 3"
    [ 3; 4; 5; 51; 52; 53 ]
    (Topology.cpus_of_cohort t Level.Cache_group
       (Topology.cohort_of t Level.Cache_group 3))

(* ---------- hierarchies ---------- *)

let test_hierarchy_validation () =
  let t = Platform.x86.Platform.topo in
  let valid h = Topology.validate_hierarchy t h = Ok () in
  check_bool "hier4" true (valid (Platform.hier4 Platform.x86));
  check_bool "hier2" true (valid (Platform.hier2 Platform.x86));
  check_bool "empty" false (valid []);
  check_bool "no system" false (valid [ Level.Core; Level.Numa_node ]);
  check_bool "not inner-to-outer" false
    (valid [ Level.Numa_node; Level.Core; Level.System ]);
  check_bool "duplicate" false
    (valid [ Level.Core; Level.Core; Level.System ])

let test_hierarchy_names () =
  Alcotest.(check string)
    "x86 hier4" "core-cache-numa-sys"
    (Topology.hierarchy_to_string (Platform.hier4 Platform.x86));
  Alcotest.(check string)
    "arm hier4" "cache-numa-pkg-sys"
    (Topology.hierarchy_to_string (Platform.hier4 Platform.armv8));
  Alcotest.(check string)
    "arm hier3" "cache-numa-sys"
    (Topology.hierarchy_to_string (Platform.hier3 Platform.armv8))

let test_hierarchy_of_depth () =
  List.iter
    (fun p ->
      List.iter
        (fun d ->
          check_int "depth" d
            (List.length (Platform.hierarchy_of_depth p d)))
        [ 2; 3; 4 ])
    [ Platform.x86; Platform.armv8 ];
  Alcotest.check_raises "depth 5" (Invalid_argument "hierarchy_of_depth: 5")
    (fun () -> ignore (Platform.hierarchy_of_depth Platform.x86 5))

(* ---------- pick_cpus ---------- *)

let test_first_cpu_bounds () =
  let t = Platform.x86.Platform.topo in
  let n = Topology.ncohorts t Level.Numa_node in
  Alcotest.check_raises "past the last cohort"
    (Invalid_argument
       (Printf.sprintf "Topology.first_cpu: cohort %d out of range" n))
    (fun () -> ignore (Topology.first_cpu t Level.Numa_node n))

let test_pick_cpus_fill_order () =
  let t = Platform.x86.Platform.topo in
  let cpus24 = Topology.pick_cpus t ~nthreads:24 in
  Array.iter
    (fun cpu ->
      check_int "first 24 threads stay in package 0" 0
        (Topology.cohort_of t Level.Package cpu))
    cpus24;
  let cpus48 = Topology.pick_cpus t ~nthreads:48 in
  let cores = Hashtbl.create 64 in
  Array.iter
    (fun cpu -> Hashtbl.replace cores (Topology.cohort_of t Level.Core cpu) ())
    cpus48;
  check_int "48 threads use 48 distinct cores" 48 (Hashtbl.length cores)

let test_pick_cpus_arm_numa_crossing () =
  let t = Platform.armv8.Platform.topo in
  let cpus32 = Topology.pick_cpus t ~nthreads:32 in
  Array.iter
    (fun cpu ->
      check_int "32 threads stay in numa 0" 0
        (Topology.cohort_of t Level.Numa_node cpu))
    cpus32

let test_pick_cpus_bounds () =
  let t = Platform.tiny.Platform.topo in
  Alcotest.check_raises "too many"
    (Invalid_argument "Topology.pick_cpus: nthreads 17 not in [1,16]")
    (fun () -> ignore (Topology.pick_cpus t ~nthreads:17))

(* ---------- properties ---------- *)

let arb_preset =
  QCheck.make
    ~print:(fun p -> Topology.name p.Platform.topo)
    (QCheck.Gen.oneofl
       [ Platform.x86; Platform.armv8; Platform.tiny; Platform.tiny_arm ])

let prop_proximity_symmetric =
  QCheck.Test.make ~name:"proximity is symmetric" ~count:200
    QCheck.(pair arb_preset (pair small_nat small_nat))
    (fun (p, (a, b)) ->
      let t = p.Platform.topo in
      let a = a mod Topology.ncpus t and b = b mod Topology.ncpus t in
      Topology.proximity t a b = Topology.proximity t b a)

let prop_cohorts_partition =
  QCheck.Test.make ~name:"cohorts partition the cpus" ~count:50
    QCheck.(pair arb_preset (oneofl Level.all))
    (fun (p, lvl) ->
      let t = p.Platform.topo in
      let total = ref 0 in
      for id = 0 to Topology.ncohorts t lvl - 1 do
        let cpus = Topology.cpus_of_cohort t lvl id in
        total := !total + List.length cpus;
        if not (List.for_all (fun c -> Topology.cohort_of t lvl c = id) cpus)
        then QCheck.Test.fail_report "member has wrong cohort id"
      done;
      !total = Topology.ncpus t)

let prop_pick_cpus_distinct =
  QCheck.Test.make ~name:"pick_cpus returns distinct cpus" ~count:100
    QCheck.(pair arb_preset small_nat)
    (fun (p, n) ->
      let t = p.Platform.topo in
      let n = 1 + (n mod Topology.ncpus t) in
      let cpus = Topology.pick_cpus t ~nthreads:n in
      let sorted = Array.copy cpus in
      Array.sort compare sorted;
      let distinct = ref true in
      for i = 0 to n - 2 do
        if sorted.(i) = sorted.(i + 1) then distinct := false
      done;
      Array.length cpus = n && !distinct)

(* Random topologies built from per-level group sizes, so nesting holds
   by construction; exercises shapes (odd sizes, degenerate levels) the
   presets never hit. *)
let arb_topo =
  let nested =
    QCheck.Gen.(
      map
        (fun (ht, (cores, (caches, (numas, pkgs)))) ->
          let ht = 1 + ht
          and cores = 1 + cores
          and caches = 1 + caches
          and numas = 1 + numas
          and pkgs = 1 + pkgs in
          let ncpus = ht * cores * caches * numas * pkgs in
          Topology.create
            ~name:
              (Printf.sprintf "rand-%dx%dx%dx%dx%d" pkgs numas caches
                 cores ht)
            ~ncpus
            ~core_of:(fun c -> c / ht)
            ~cache_of:(fun c -> c / (ht * cores))
            ~numa_of:(fun c -> c / (ht * cores * caches))
            ~pkg_of:(fun c -> c / (ht * cores * caches * numas)))
        (pair (int_bound 1)
           (pair (int_bound 2)
              (pair (int_bound 2) (pair (int_bound 1) (int_bound 1))))))
  in
  let preset =
    QCheck.Gen.oneofl
      (List.map
         (fun p -> p.Platform.topo)
         [ Platform.x86; Platform.armv8; Platform.tiny; Platform.tiny_arm ])
  in
  QCheck.make ~print:Topology.name
    QCheck.Gen.(oneof [ nested; preset ])

(* the pre-optimization implementation: walk the levels inner to outer
   and report the first one whose cohorts agree *)
let reference_prox t a b =
  if a = b then Level.Same_cpu
  else
    let rec walk = function
      | [] -> assert false
      | lvl :: rest ->
          if Topology.cohort_of t lvl a = Topology.cohort_of t lvl b then
            Level.proximity_of_level lvl
          else walk rest
    in
    walk Level.all

let prop_matrix_matches_walk =
  QCheck.Test.make ~name:"proximity matrix matches cohort walk"
    ~count:200
    QCheck.(pair arb_topo (pair small_nat small_nat))
    (fun (t, (a, b)) ->
      let a = a mod Topology.ncpus t and b = b mod Topology.ncpus t in
      let want = reference_prox t a b in
      let r = Topology.proximity_rank t a b in
      Topology.proximity t a b = want
      && r = Level.prox_rank want
      && Level.prox_of_rank r = want)

(* the pre-table implementation: sort every cpu by a tuple key with
   polymorphic compare on each call; the hyperthread rank is the cpu's
   position among the cpus of its core, found by a cohort walk *)
let reference_pick t =
  let ht_rank cpu =
    let mates =
      Topology.cpus_of_cohort t Level.Core (Topology.cohort_of t Level.Core cpu)
    in
    let rec index i = function
      | [] -> -1
      | x :: tl -> if x = cpu then i else index (i + 1) tl
    in
    index 0 mates
  in
  let key cpu =
    ( ht_rank cpu,
      Topology.cohort_of t Level.Package cpu,
      Topology.cohort_of t Level.Numa_node cpu,
      Topology.cohort_of t Level.Cache_group cpu,
      Topology.cohort_of t Level.Core cpu,
      cpu )
  in
  let cpus = Array.init (Topology.ncpus t) Fun.id in
  Array.sort (fun a b -> compare (key a) (key b)) cpus;
  cpus

let prop_pick_cpus_matches_sort =
  QCheck.Test.make ~name:"pick_cpus matches the tuple-key sort" ~count:200
    QCheck.(pair arb_topo small_nat)
    (fun (t, n) ->
      let n = 1 + (n mod Topology.ncpus t) in
      Topology.pick_cpus t ~nthreads:n = Array.sub (reference_pick t) 0 n)

let prop_first_cpu_is_lowest =
  QCheck.Test.make ~name:"first_cpu is the cohort's lowest cpu" ~count:100
    QCheck.(pair arb_topo (oneofl Level.all))
    (fun (t, lvl) ->
      List.for_all
        (fun id ->
          Some (Topology.first_cpu t lvl id)
          = List.nth_opt (Topology.cpus_of_cohort t lvl id) 0)
        (List.init (Topology.ncohorts t lvl) Fun.id))

let () =
  Alcotest.run "topology"
    [
      ( "level",
        [
          Alcotest.test_case "order" `Quick test_level_order;
        ] );
      ( "presets",
        [
          Alcotest.test_case "x86 shape" `Quick test_x86_shape;
          Alcotest.test_case "armv8 shape" `Quick test_armv8_shape;
          Alcotest.test_case "x86 siblings" `Quick test_x86_ht_siblings;
          Alcotest.test_case "armv8 proximities" `Quick
            test_armv8_proximities;
          Alcotest.test_case "cpus_of_cohort" `Quick test_cpus_of_cohort;
        ] );
      ( "validation",
        [
          Alcotest.test_case "nesting rejected" `Quick test_nesting_rejected;
          Alcotest.test_case "bad ncpus" `Quick test_bad_ncpus;
          Alcotest.test_case "hierarchy validation" `Quick
            test_hierarchy_validation;
          Alcotest.test_case "hierarchy names" `Quick test_hierarchy_names;
          Alcotest.test_case "hierarchy_of_depth" `Quick
            test_hierarchy_of_depth;
        ] );
      ( "pick_cpus",
        [
          Alcotest.test_case "fill order x86" `Quick
            test_pick_cpus_fill_order;
          Alcotest.test_case "arm numa crossing" `Quick
            test_pick_cpus_arm_numa_crossing;
          Alcotest.test_case "bounds" `Quick test_pick_cpus_bounds;
          Alcotest.test_case "first_cpu bounds" `Quick test_first_cpu_bounds;
        ] );
      ( "properties",
        [
          qcheck prop_proximity_symmetric;
          qcheck prop_matrix_matches_walk;
          qcheck prop_cohorts_partition;
          qcheck prop_pick_cpus_distinct;
          qcheck prop_pick_cpus_matches_sort;
          qcheck prop_first_cpu_is_lowest;
        ] );
    ]
