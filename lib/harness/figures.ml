open Clof_topology
module M = Clof_sim.Sim_mem
module R = Clof_locks.Registry.Make (M)
module G = Clof_core.Generator.Make (M)
module Hmcs = Clof_baselines.Hmcs.Make (M)
module Cna = Clof_baselines.Cna.Make (M)
module Shfl = Clof_baselines.Shfllock.Make (M)
module Cohort = Clof_baselines.Cohort.Make (M)
module W = Clof_workloads.Workload
module RT = Clof_core.Runtime
module Sel = Clof_core.Selection
module S = Clof_stats.Stats
module Exec = Clof_exec.Exec

let both = [ Platform.x86; Platform.armv8 ]

let kyoto ~quick =
  if quick then { W.kyoto with W.duration = 300_000 } else W.kyoto

let exp ~id ?(workload = "leveldb") p series =
  {
    Report.exp_id = id;
    platform = Topology.name p.Platform.topo;
    workload;
    series;
  }

let meta_series lock meta = { Report.lock; meta = Some meta; points = [] }
let hmcs4 p = RT.rename "hmcs<4>" (Hmcs.spec ~hierarchy:(Platform.hier4 p) ())

(* ---------- memoized building blocks ---------- *)

(* Both memos are keyed by [quick] too: a quick heatmap or sweep must
   never stand in for a full one run later in the same process. *)
let heatmaps : (string * bool, Heatmap.t) Hashtbl.t = Hashtbl.create 4

let stride ~quick p =
  (if p.Platform.arch = Platform.X86 then 3 else 4) * if quick then 2 else 1

let heatmap_of ~quick p =
  let key = (Topology.name p.Platform.topo, quick) in
  match Hashtbl.find_opt heatmaps key with
  | Some h -> h
  | None ->
      let h = Heatmap.measure ~stride:(stride ~quick p) ~platform:p () in
      Hashtbl.add heatmaps key h;
      h

let sweeps : (string * int * bool, Scripted.t) Hashtbl.t = Hashtbl.create 8

let sweep_of ~quick p depth =
  let key = (Topology.name p.Platform.topo, depth, quick) in
  match Hashtbl.find_opt sweeps key with
  | Some s -> s
  | None ->
      let s =
        Scripted.run ~params:(Scripted.leveldb ~quick)
          ~threadcounts:(Scripted.grid ~quick p) ~platform:p ~depth ()
      in
      Hashtbl.add sweeps key s;
      s

let lc_best_name ~quick p depth =
  (Scripted.lc_best (sweep_of ~quick p depth)).Sel.lock

let clof_spec ~quick p depth =
  let name = lc_best_name ~quick p depth in
  let label =
    Printf.sprintf "clof<%d>-%s (%s)" depth
      (Platform.arch_to_string p.Platform.arch)
      name
  in
  RT.rename label (Scripted.spec_of_name ~platform:p ~depth name)

(* A swept composition as a series with its full points. *)
let swept s lock =
  {
    Report.lock;
    meta = None;
    points =
      List.map Report.point_of_result (List.assoc lock s.Scripted.results);
  }

(* The compositions the selection policies pick (Section 4.3): each row
   is named by its policy and carries the composition's name. *)
let ranked s =
  List.map
    (fun (policy, (pick : Sel.series)) ->
      {
        (swept s pick.Sel.lock) with
        Report.lock = policy;
        meta = Some [ ("composition", Report.S pick.Sel.lock) ];
      })
    [
      ("HC-best", Scripted.hc_best s);
      ("LC-best", Scripted.lc_best s);
      ("worst", Scripted.worst s);
    ]

(* A panel run once at [nthreads], one series per lock with [meta] of
   its raw result. *)
let runs ~quick p nthreads specs meta =
  List.map
    (fun r ->
      {
        Report.lock = r.W.lock;
        meta = Some (meta r);
        points = [ Report.point_of_result (nthreads, r) ];
      })
    (Exec.map
       (fun spec ->
         W.run ~platform:p ~nthreads ~spec (Scripted.leveldb ~quick))
       specs)

(* ---------- the figures ---------- *)

let table1 ~id ~quick:_ =
  [
    {
      Report.exp_id = id;
      platform = "static";
      workload = "aspects";
      series =
        List.map
          (fun (a : Clof_core.Aspects.entry) ->
            meta_series a.algorithm
              Report.
                [
                  ("A1", B a.a1);
                  ("A2", B a.a2);
                  ("A3", B a.a3);
                  ("A4", B a.a4);
                ])
          Clof_core.Aspects.table;
    };
  ]

let discovered ~id ~quick p =
  let h = heatmap_of ~quick p in
  let hier h = Report.S (Topology.hierarchy_to_string h) in
  exp ~id ~workload:"pingpong" p
    [
      meta_series "hierarchy"
        [
          ("inferred", hier (Heatmap.infer_hierarchy h));
          ("paper", hier (Platform.hier4 p));
          ("pairs", Report.I (Heatmap.pairs h));
        ];
    ]

(* The sampled pair-throughput matrix, one series per sampled CPU. *)
let fig1 ~id ~quick =
  List.concat_map
    (fun p ->
      let h = heatmap_of ~quick p in
      let cpus =
        List.filter
          (fun c -> c mod stride ~quick p = 0)
          (List.init (Topology.ncpus p.Platform.topo) Fun.id)
      in
      let row i =
        List.map
          (fun j -> (string_of_int j, Report.F (Heatmap.throughput h i j)))
          cpus
      in
      [
        exp ~id ~workload:"pingpong" p
          (List.map (fun i -> meta_series (Printf.sprintf "cpu%d" i) (row i))
             cpus);
        discovered ~id ~quick p;
      ])
    both

let table2 ~id ~quick =
  List.map
    (fun p ->
      let measured = Heatmap.speedups (heatmap_of ~quick p) in
      exp ~id ~workload:"pingpong" p
        (List.filter_map
           (fun (prox, paper) ->
             match List.assoc_opt prox measured with
             | Some m when prox <> Level.Same_cpu ->
                 Some
                   (meta_series
                      (Level.proximity_to_string prox)
                      [ ("measured", Report.F m); ("paper", Report.F paper) ])
             | Some _ | None -> None)
           (Heatmap.paper_speedups p)))
    both

let fig2 ~id ~quick =
  let p = Platform.x86 in
  [
    Report.sweep ~quick ~exp_id:id p
      [
        RT.of_basic R.mcs;
        Hmcs.spec ~hierarchy:(Platform.hier2 p) ();
        RT.rename "hmcs<3>"
          (Hmcs.spec ~hierarchy:(Platform.hier3_hmcs_orig p) ());
        hmcs4 p;
        clof_spec ~quick p 4;
      ];
  ]

(* One thread per child cohort of a level's first cohort (one per
   hyperthread at the core level): the lowest CPU of each. *)
let cohort_cpus topo level =
  let cpus =
    Topology.cpus_of_cohort topo level (Topology.cohort_of topo level 0)
  in
  (match Level.rank level with
  | 0 -> cpus
  | r ->
      let child = List.nth Level.all (r - 1) in
      List.filter
        (fun cpu ->
          Topology.first_cpu topo child (Topology.cohort_of topo child cpu)
          = cpu)
        cpus)
  |> Array.of_list

(* Basic locks on isolated cohorts at maximum contention, one series per
   lock and one point per level of the platform's hierarchy, which the
   workload names in order. *)
let fig3 ~id ~quick =
  let params = { (Scripted.leveldb ~quick) with W.noncs_work = 300 } in
  let specs =
    List.map RT.of_basic
      [ R.ticket; R.mcs; R.clh; R.hemlock ~ctr:false () ]
    @ [ RT.rename "hem-ctr" (RT.of_basic (R.hemlock ~ctr:true ())) ]
  in
  List.map
    (fun p ->
      let levels = Platform.hier4 p in
      let points =
        Exec.product_map
          (fun spec cpus ->
            Report.point_of_result
              ( Array.length cpus,
                W.run_on_cpus ~check:false ~platform:p ~cpus ~spec params ))
          specs
          (List.map (cohort_cpus p.Platform.topo) levels)
      in
      exp ~id p
        ~workload:("leveldb per cohort: " ^ Topology.hierarchy_to_string levels)
        (List.map2
           (fun spec points ->
             { Report.lock = spec.RT.s_name; meta = None; points })
           specs points))
    both

let fig4 ~id ~quick =
  let p = Platform.armv8 in
  [
    Report.sweep ~quick ~exp_id:id p
      [
        clof_spec ~quick p 4; hmcs4 p; RT.of_basic R.mcs; Cna.spec ();
        Shfl.spec ();
      ];
  ]

(* The selected compositions and the baseline with their full points,
   then the min/mean/max over every composition at each thread count.
   Those three rows are aggregates, not runs: their points carry the
   throughput only (no ops, no counters). *)
let fig9 p depth ~id ~quick =
  let s = sweep_of ~quick p depth in
  let beam label f =
    let at i threads =
      {
        Report.threads;
        throughput =
          f (List.map (fun c -> snd (List.nth c.Sel.points i)) s.series);
        total_ops = 0;
        sim_ns = 0;
        jain = 1.0;
        stats = S.create ();
      }
    in
    { Report.lock = label; meta = None; points = List.mapi at s.threadcounts }
  in
  let mean vals =
    List.fold_left ( +. ) 0.0 vals /. float_of_int (List.length vals)
  in
  [
    exp ~id p
      ~workload:
        (Printf.sprintf "leveldb, all %d compositions, hierarchy %s"
           (List.length s.Scripted.series)
           (Topology.hierarchy_to_string (Platform.hierarchy_of_depth p depth)))
      (ranked s
      @ [
          swept s s.Scripted.hmcs.Sel.lock;
          beam "others(min)" (List.fold_left min infinity);
          beam "others(mean)" mean;
          beam "others(max)" (List.fold_left max 0.0);
        ]);
  ]

(* Cross-platform: each platform's winners also run on the other. *)
let fig10 ~id ~quick =
  let winners =
    List.concat_map
      (fun p -> [ clof_spec ~quick p 3; clof_spec ~quick p 4 ])
      both
  in
  List.concat_map
    (fun (workload, params) ->
      List.map
        (fun p ->
          Report.sweep ~quick ~exp_id:id ~workload ~params p
            (winners @ [ hmcs4 p; Cna.spec (); Shfl.spec () ]))
        both)
    [ ("leveldb", Scripted.leveldb ~quick); ("kyoto", kyoto ~quick) ]

(* The oracle gets a tighter budget: the point of the comparison is
   that it truncates where DPOR completes. *)
let verify_scaling ~id ~quick:_ =
  let module C = Clof_verify.Checker in
  let exp workload reports =
    {
      Report.exp_id = id;
      platform = "model";
      workload;
      series =
        List.map
          (fun (_, (r : C.report)) ->
            Verifybench.series_of ~lock:r.C.name ~ok:(r.C.violation = None) r)
          reports;
    }
  in
  [
    exp "checker/dpor" (Clof_verify.Scenarios.scaling ~max_depth:3 ());
    exp "checker/naive"
      (Clof_verify.Scenarios.scaling ~max_depth:3 ~strategy:C.Naive
         ~executions:50_000 ());
  ]

let fairness ~id ~quick =
  List.map
    (fun p ->
      let nthreads = if p.Platform.arch = Platform.X86 then 64 else 96 in
      exp ~id p
        (runs ~quick p nthreads
           [
             clof_spec ~quick p 4; hmcs4 p; Cna.spec (); RT.of_basic R.mcs;
             Cohort.c_bo_mcs;
           ]
           (fun r ->
             let ops = r.W.per_thread in
             [
               ("jain", Report.F (Report.jain ops));
               ("min_ops", Report.I (Array.fold_left min max_int ops));
               ("max_ops", Report.I (Array.fold_left max 0 ops));
             ])))
    both

let ablate_h ~id ~quick =
  let p = Platform.armv8 in
  let name = lc_best_name ~quick p 4 in
  [
    Report.sweep ~quick ~exp_id:id ~threadcounts:[ 8; 32; 127 ] p
      (List.map
         (fun h ->
           RT.rename
             (Printf.sprintf "%s H=%d" name h)
             (Scripted.spec_of_name ~platform:p ~depth:4 ~h name))
         [ 1; 8; 32; 128; 512; 4096 ]);
  ]

let ablate_levels ~id ~quick =
  let p = Platform.armv8 in
  [
    Report.sweep ~quick ~exp_id:id ~threadcounts:[ 1; 8; 32; 127 ] p
      (List.map
         (fun depth ->
           RT.rename
             (Printf.sprintf "clof<%d> clh" depth)
             (if depth = 1 then RT.of_basic R.clh
              else
                RT.of_clof
                  ~hierarchy:(Platform.hierarchy_of_depth p depth)
                  (G.build (List.init depth (fun _ -> R.clh)))))
         [ 1; 2; 3; 4 ]);
  ]

let cohorts ~id ~quick =
  [
    Report.sweep ~quick ~exp_id:id Platform.x86
      (Cohort.all @ [ RT.of_basic R.mcs ]);
  ]

let observed ~quick p =
  [ RT.of_basic R.mcs; hmcs4 p; Cna.spec (); clof_spec ~quick p 4 ]

(* Cache-line transfers by distance class, in percent: the keep_local
   mechanism observed directly. *)
let locality ~id ~quick =
  let p = Platform.x86 in
  let percents r =
    let total =
      max 1 (List.fold_left (fun a (_, n) -> a + n) 0 r.W.transfers)
    in
    List.filter_map
      (fun (prox, n) ->
        if prox = Level.Same_cpu then None
        else
          Some
            ( Level.abbrev_of_prox prox ^ "%",
              Report.F (100.0 *. float_of_int n /. float_of_int total) ))
      r.W.transfers
  in
  [ exp ~id p (runs ~quick p 95 (observed ~quick p) percents) ]

(* The interpolated acquire-latency median and p99, then the handover
   counters of every level that passed the lock. *)
let stats ~id ~quick =
  let p = Platform.x86 in
  let e =
    Report.sweep ~quick ~exp_id:id ~threadcounts:[ 95 ] p (observed ~quick p)
  in
  let meta st =
    (match (S.percentile_interp st 50.0, S.percentile_interp st 99.0) with
    | Some p50, Some p99 ->
        [ ("p50_ns", Report.F p50); ("p99_ns", Report.F p99) ]
    | _ -> [])
    @ List.concat
        (List.init (S.levels_used st) (fun level ->
             let local = S.local_pass st ~level
             and remote = S.remote_pass st ~level in
             let key k = Printf.sprintf "L%d.%s" level k in
             if local + remote = 0 then []
             else
               Report.
                 [
                   (key "local", I local);
                   (key "remote", I remote);
                   (key "keep", I (S.keep_local_kept st ~level));
                   (key "H-exh", I (S.h_exhausted st ~level));
                 ]))
  in
  let with_meta (s : Report.series) =
    { s with meta = Some (meta (List.hd s.Report.points).Report.stats) }
  in
  [ { e with Report.series = List.map with_meta e.Report.series } ]

(* A composition behind the TAS fast-path extension (paper Section 6). *)
let with_fastpath ~hierarchy (module L : Clof_core.Clof_intf.S) =
  let module F = Clof_core.Fastpath.Make (M) (L) in
  RT.of_clof ~hierarchy (module F : Clof_core.Clof_intf.S)

let fastpath ~id ~quick =
  let p = Platform.x86 in
  let name = lc_best_name ~quick p 4 in
  let packed =
    Option.get (G.of_name ~basics:(R.basics ~ctr:(Scripted.ctr_for p)) name)
  in
  let hierarchy = Platform.hier4 p in
  [
    Report.sweep ~quick ~exp_id:id ~threadcounts:[ 1; 2; 4; 8; 32; 95 ] p
      [ RT.of_clof ~hierarchy packed; with_fastpath ~hierarchy packed ];
  ]

let scripted ~id ~quick =
  let p = Platform.x86 in
  let s = sweep_of ~quick p 2 in
  [ exp ~id p (List.map (fun (lock, _) -> swept s lock) s.results @ ranked s) ]

let discover ~id ~quick = List.map (discovered ~id ~quick) both

(* The lock panel: every major family the paper compares (plain MCS,
   the HMCS tree, flat NUMA-aware CNA and ShflLock, a homogeneous
   4-level CLoF composition and its TAS fast-path variant, and a
   classic cohort lock), one experiment per platform under its own
   exp-id. Names are pinned by [RT.rename], so a registry reshuffle
   leaves the archive byte-identical to its golden. *)
let report ~id:_ ~quick =
  List.map
    (fun (exp_id, p) ->
      let hierarchy = Platform.hier4 p in
      let packed = G.build [ R.clh; R.clh; R.clh; R.clh ] in
      Report.sweep ~quick ~exp_id p
        [
          RT.rename "mcs" (RT.of_basic R.mcs);
          RT.rename "hmcs<4>" (Hmcs.spec ~hierarchy ());
          RT.rename "cna" (Cna.spec ());
          RT.rename "shfl" (Shfl.spec ());
          RT.rename "clof<4>-clh" (RT.of_clof ~hierarchy packed);
          RT.rename "fp-clof<4>-clh" (with_fastpath ~hierarchy packed);
          RT.rename "c-bo-mcs" Cohort.c_bo_mcs;
        ])
    [ ("report-x86", Platform.x86); ("report-armv8", Platform.armv8) ]

let all =
  List.map
    (fun (id, doc, f) ->
      ( id,
        doc,
        fun ~quick ->
          {
            Report.version = Report.schema_version;
            quick;
            experiments = f ~id ~quick;
          } ))
    [
      ("table1", "aspect coverage of NUMA-aware locks (Table 1)", table1);
      ("fig1", "ping-pong pair matrices of both platforms (Figure 1)", fig1);
      ("table2", "cohort speedups vs paper values (Table 2)", table2);
      ("fig2", "LevelDB x86: HMCS depths + CLoF<4> (Figure 2)", fig2);
      ("fig3", "basic locks per cohort at max contention (Figure 3)", fig3);
      ("fig4", "LevelDB Armv8: CLoF<4> vs SOTA (Figure 4)", fig4);
      ("fig9a", "all 4-level CLoF locks, x86 (Figure 9a)", fig9 Platform.x86 4);
      ( "fig9b",
        "all 4-level CLoF locks, Armv8 (Figure 9b)",
        fig9 Platform.armv8 4 );
      ("fig9c", "all 3-level CLoF locks, x86 (Figure 9c)", fig9 Platform.x86 3);
      ( "fig9d",
        "all 3-level CLoF locks, Armv8 (Figure 9d)",
        fig9 Platform.armv8 3 );
      ( "fig10",
        "LC-best CLoF vs SOTA, LevelDB+Kyoto, both platforms (Figure 10)",
        fig10 );
      ( "verify_scaling",
        "checker effort vs depth, DPOR vs naive (3.3/4.2.3)",
        verify_scaling );
      ("fairness", "per-thread fairness, CLoF vs HMCS (5.2.3)", fairness);
      ("ablate_h", "keep_local threshold sweep (ablation)", ablate_h);
      ("ablate_levels", "hierarchy depth sweep (ablation)", ablate_levels);
      ("cohorts", "classic lock-cohorting compositions (2.3)", cohorts);
      ( "locality",
        "cache-line transfer distances per lock (keep_local observed)",
        locality );
      ( "stats",
        "per-level lock counters: handover locality, keep_local, latency",
        stats );
      ("fastpath", "TAS fast-path extension ablation (paper 6)", fastpath);
      ("scripted", "2-level scripted sweep with HC/LC ranking (4.3)", scripted);
      ("discover", "automated hierarchy inference (Figure 5)", discover);
      ( "report",
        "representative lock panel: throughput, fairness and per-level \
         counters per (lock, threads) point",
        report );
    ]
