open Clof_topology
module H = Clof_harness.Heatmap
module Render = Clof_harness.Render
module Scripted = Clof_harness.Scripted
module Sel = Clof_core.Selection

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ---------- render ---------- *)

let test_table_render () =
  let s =
    Render.table ~header:[ "lock"; "1"; "8" ]
      ~rows:[ ("mcs", [ 1.5; 0.25 ]); ("a-very-long-name", [ 0.0; 2.0 ]) ]
  in
  check_bool "header present" true
    (String.length s > 0 && String.sub s 0 4 = "lock");
  check_bool "contains value" true
    (let re = "1.500" in
     let rec find i =
       i + String.length re <= String.length s
       && (String.sub s i (String.length re) = re || find (i + 1))
     in
     find 0)

let test_heatmap_render () =
  let s = Render.heatmap (fun i j -> float_of_int (i + j + 1)) ~n:8 in
  check_int "8 lines" 8
    (List.length (String.split_on_char '\n' (String.trim s)))

let test_section () =
  Alcotest.(check string) "banner" "\nhi\n==\n" (Render.section "hi")

(* ---------- heatmap discovery on small machines ---------- *)

let test_heatmap_tiny () =
  let h = H.measure ~duration:60_000 ~platform:Platform.tiny () in
  let sp = H.speedups h in
  check_bool "system class present" true
    (List.mem_assoc Level.Same_system sp);
  List.iter
    (fun (p, s) ->
      if p <> Level.Same_cpu then
        check_bool
          (Level.proximity_to_string p ^ " >= system")
          true (s >= 0.99))
    sp

let test_infer_presets () =
  (* the headline: discovery reproduces the paper's 4-level hierarchies *)
  List.iter
    (fun (p, stride) ->
      let h = H.measure ~duration:60_000 ~stride ~platform:p () in
      Alcotest.(check string)
        ("inferred hierarchy " ^ Topology.name p.Platform.topo)
        (Topology.hierarchy_to_string (Platform.hier4 p))
        (Topology.hierarchy_to_string (H.infer_hierarchy h)))
    [ (Platform.x86, 5); (Platform.armv8, 7) ]

let test_paper_speedups_table () =
  check_int "x86 rows" 5 (List.length (H.paper_speedups Platform.x86));
  check_int "arm rows" 4 (List.length (H.paper_speedups Platform.armv8))

(* Regression: a stride that aliases with the cohort sizes leaves whole
   proximity classes with no measured pair, and the backfill pass used
   to skip diagonal (i, i) candidates, so Same_cpu (and on tiny, any
   same-core pair: stride 6 only samples CPUs 0, 6 and 12, which share
   nothing below the NUMA level) could end up without samples. Every
   class that exists on the machine must get a mean. *)
let test_heatmap_stride_aliasing () =
  let h =
    H.measure ~duration:40_000 ~stride:6 ~platform:Platform.tiny ()
  in
  let means = H.by_proximity h in
  List.iter
    (fun p ->
      check_bool (Level.proximity_to_string p ^ " sampled") true
        (List.mem_assoc p means))
    [
      Level.Same_cpu;
      Level.Same_core;
      Level.Same_cache;
      Level.Same_numa;
      Level.Same_system;
    ]

(* ---------- scripted benchmark ---------- *)

let test_scripted_tiny () =
  let s =
    Scripted.run
      ~params:
        {
          Clof_workloads.Workload.duration = 60_000;
          cs_reads = 1;
          cs_writes = 1;
          cs_work = 50;
          noncs_work = 300;
        }
      ~threadcounts:[ 2; 8 ] ~platform:Platform.tiny ~depth:2 ()
  in
  check_int "16 compositions" 16 (List.length s.Scripted.series);
  let hc = Scripted.hc_best s and lc = Scripted.lc_best s in
  check_bool "bests are ranked members" true
    (List.exists (fun x -> x.Sel.lock = hc.Sel.lock) s.Scripted.series
    && List.exists (fun x -> x.Sel.lock = lc.Sel.lock) s.Scripted.series);
  let w = Scripted.worst s in
  check_bool "worst scores below best" true
    (Sel.score Sel.High_contention w.Sel.points
    <= Sel.score Sel.High_contention hc.Sel.points)

let test_spec_of_name () =
  let spec =
    Scripted.spec_of_name ~platform:Platform.tiny ~depth:2 "tkt-mcs"
  in
  Alcotest.(check string) "name" "tkt-mcs" spec.Clof_core.Runtime.s_name;
  check_bool "unknown rejected" true
    (try
       ignore
         (Scripted.spec_of_name ~platform:Platform.tiny ~depth:2 "xxx-yyy");
       false
     with Invalid_argument _ -> true)

let test_grids () =
  check_int "x86 max" 95
    (List.fold_left max 0 (Scripted.thread_grid Platform.x86));
  check_int "arm max" 127
    (List.fold_left max 0 (Scripted.thread_grid Platform.armv8));
  check_bool "ctr on x86 only" true
    (Scripted.ctr_for Platform.x86 && not (Scripted.ctr_for Platform.armv8))

(* a platform smaller than the paper's preset grids: 8 CPUs, two 4-CPU
   NUMA nodes of two 2-CPU cache groups each *)
let small8 =
  {
    Platform.topo =
      Topology.create ~name:"small-8" ~ncpus:8 ~core_of:Fun.id
        ~cache_of:(fun i -> i / 2)
        ~numa_of:(fun i -> i / 4)
        ~pkg_of:(fun i -> i / 4);
    arch = Platform.X86;
  }

(* Regression: the grid used to hard-code the presets' 95/127-thread
   points, so any platform with fewer CPUs crashed Topology.pick_cpus.
   Clamped grids must stay within ncpus, keep the paper's ncpus-1
   point, and be duplicate-free. *)
let test_grid_clamped_to_platform () =
  List.iter
    (fun p ->
      let n = Topology.ncpus p.Platform.topo in
      let g = Scripted.thread_grid p in
      check_bool (Printf.sprintf "nonempty (%d cpus)" n) true (g <> []);
      List.iter
        (fun t ->
          check_bool (Printf.sprintf "%d <= %d cpus" t n) true (t <= n);
          check_bool (Printf.sprintf "%d >= 1" t) true (t >= 1))
        g;
      check_bool "ncpus-1 present" true (List.mem (max 1 (n - 1)) g);
      check_bool "sorted, no duplicates" true
        (g = List.sort_uniq compare g))
    [ small8; Platform.tiny; Platform.tiny_arm; Platform.x86; Platform.armv8 ];
  (* preset grids keep the paper's exact contention points *)
  check_bool "x86 preset grid" true
    (Scripted.thread_grid Platform.x86 = [ 1; 4; 8; 16; 24; 32; 48; 64; 95 ]);
  check_bool "armv8 preset grid" true
    (Scripted.thread_grid Platform.armv8
    = [ 1; 4; 8; 16; 24; 32; 48; 64; 96; 127 ])

(* ISSUE acceptance: a full scripted sweep on a custom 8-CPU platform
   must succeed (it used to raise from pick_cpus at 95 threads). *)
let test_scripted_small_platform () =
  let s =
    Scripted.run
      ~params:
        {
          Clof_workloads.Workload.duration = 40_000;
          cs_reads = 1;
          cs_writes = 1;
          cs_work = 50;
          noncs_work = 300;
        }
      ~platform:small8 ~depth:2 ()
  in
  check_bool "default grid used and clamped" true
    (s.Scripted.threadcounts = Scripted.thread_grid small8);
  check_int "16 compositions" 16 (List.length s.Scripted.series);
  List.iter
    (fun srs ->
      check_int
        (srs.Sel.lock ^ " has every grid point")
        (List.length s.Scripted.threadcounts)
        (List.length srs.Sel.points))
    s.Scripted.series

(* The (composition x threadcount) matrix is one parallel batch; the
   series must not depend on the job count. *)
let test_scripted_parallel_deterministic () =
  let module Exec = Clof_exec.Exec in
  let run () =
    Scripted.run
      ~params:
        {
          Clof_workloads.Workload.duration = 40_000;
          cs_reads = 1;
          cs_writes = 1;
          cs_work = 50;
          noncs_work = 300;
        }
      ~threadcounts:[ 2; 8 ] ~platform:Platform.tiny ~depth:2 ()
  in
  Exec.set_jobs 1;
  let seq = run () in
  Exec.set_jobs 3;
  let par = run () in
  Exec.set_jobs 1;
  check_bool "series identical under -j 3" true
    (seq.Scripted.series = par.Scripted.series);
  check_bool "hmcs identical under -j 3" true
    (seq.Scripted.hmcs = par.Scripted.hmcs)

(* ---------- experiments plumbing ---------- *)

let test_experiment_ids () =
  let ids = List.map fst Clof_harness.Experiments.ids in
  List.iter
    (fun required ->
      check_bool ("has " ^ required) true (List.mem required ids))
    [
      "table1"; "fig1"; "table2"; "fig2"; "fig3"; "fig4"; "fig9a"; "fig9b";
      "fig9c"; "fig9d"; "fig10"; "verify"; "verify_scaling"; "fairness";
      "xval";
    ]

let test_experiment_dispatch () =
  let buf = Buffer.create 256 in
  let ppf = Format.formatter_of_buffer buf in
  check_bool "table1 runs" true (Clof_harness.Experiments.run ppf "table1");
  Format.pp_print_flush ppf ();
  check_bool "produced output" true (Buffer.length buf > 100);
  check_bool "unknown id" false (Clof_harness.Experiments.run ppf "nope")

(* ---------- experiment registry ---------- *)

module Reg = Clof_harness.Registry

let test_registry_entries () =
  let ids = List.map (fun (e : Reg.entry) -> e.Reg.id) Reg.all in
  check_bool "ids unique" true
    (List.length ids = List.length (List.sort_uniq compare ids));
  List.iter
    (fun required -> check_bool ("has " ^ required) true (List.mem required ids))
    [ "report"; "sim"; "verify"; "xval"; "faults"; "adapt"; "kv" ];
  List.iter
    (fun (e : Reg.entry) ->
      (* entries hold closures: compare the found entry by id *)
      check_bool (e.Reg.id ^ " findable") true
        (match Reg.find e.Reg.id with
        | Some e' -> e'.Reg.id = e.Reg.id
        | None -> false);
      check_bool
        (e.Reg.id ^ " owns an exp_id")
        true
        (e.Reg.exp_ids <> []))
    Reg.all;
  check_bool "unknown id" true (Reg.find "nope" = None)

let test_registry_kinds () =
  (* the panel's archived ids are gated; every own-gate experiment's
     ids are not; unregistered ids default to gated so they fail the
     cross-run join loudly *)
  check_bool "report-x86 gated" true (Reg.is_gated "report-x86");
  List.iter
    (fun id -> check_bool (id ^ " not gated") false (Reg.is_gated id))
    [ "sim-throughput"; "verify"; "xval"; "faults"; "adapt"; "kv" ];
  check_bool "unknown exp_id gated" true (Reg.is_gated "some-future-exp");
  List.iter
    (fun (e : Reg.entry) ->
      check_bool (e.Reg.id ^ " gated iff the panel") (e.Reg.id = "report")
        e.Reg.gated)
    Reg.all

let test_registry_gated_strip () =
  let exp id =
    {
      Clof_harness.Report.exp_id = id;
      platform = "x86";
      workload = "w";
      series = [];
    }
  in
  let r =
    {
      Clof_harness.Report.version = Clof_harness.Report.schema_version;
      quick = true;
      meta = None;
      experiments = [ exp "report-x86"; exp "kv"; exp "verify" ];
    }
  in
  let kept =
    List.map
      (fun (e : Clof_harness.Report.experiment) ->
        e.Clof_harness.Report.exp_id)
      (Reg.gated r).Clof_harness.Report.experiments
  in
  check_bool "only gated survives" true (kept = [ "report-x86" ])

(* ---------- generic archive rendering ---------- *)

module Report = Clof_harness.Report

let index_of hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i =
    if i + nn > nh then None
    else if String.sub hay i nn = needle then Some i
    else go (i + 1)
  in
  go 0

let contains hay needle = index_of hay needle <> None

let render r = Format.asprintf "%a" Report.pp r

let parse s =
  match Report.of_string s with Ok r -> r | Error e -> Alcotest.fail e

let check_shows rendered needles =
  List.iter
    (fun n ->
      check_bool (Printf.sprintf "shows %S" n) true (contains rendered n))
    needles

let test_pp_v1 () =
  let stats =
    Clof_stats.Json.to_string
      (Clof_stats.Stats.to_json (Clof_stats.Stats.create ()))
  in
  let r =
    parse
      ({|{
  "schema_version": 1,
  "quick": true,
  "experiments": [
    { "id": "report-x86", "platform": "x86", "workload": "leveldb",
      "series": [
        { "lock": "mcs", "points": [
          { "threads": 8, "throughput": 1.25, "total_ops": 10, "sim_ns": 8,
            "jain": 1.0, "stats": |}
      ^ stats
      ^ {| } ] },
        { "lock": "cna", "points": [] } ] }
  ]
}|})
  in
  let out = render r in
  check_shows out [ "report-x86"; "leveldb"; "mcs"; "cna"; "8T"; "1.25" ]

let test_pp_v2_meta () =
  let series lock meta =
    { Report.lock; meta = Some meta; points = [] }
  in
  let r =
    {
      Report.version = Report.schema_version;
      quick = true;
      meta = None;
      experiments =
        [
          {
            Report.exp_id = "demo";
            platform = "model";
            workload = "w";
            series =
              [
                series "a" [ ("execs", Report.I 42); ("ok", Report.B true) ];
                series "b"
                  [ ("rate", Report.F 0.125); ("mode", Report.S "fair") ];
              ];
          };
        ];
    }
  in
  let out = render (parse (Report.to_string r)) in
  check_shows out
    [ "demo"; "execs"; "42"; "true"; "rate"; "0.125"; "mode"; "fair" ];
  (* keys in first-seen order, "-" where a series lacks one *)
  let header =
    List.find (fun l -> contains l "execs") (String.split_on_char '\n' out)
  in
  let cols = List.map (index_of header) [ "execs"; "ok"; "rate"; "mode" ] in
  check_bool "first-seen column order" true (cols = List.sort compare cols);
  check_bool "missing key is -" true
    (List.exists
       (fun l -> String.length l > 0 && l.[0] = 'a' && contains l " -")
       (String.split_on_char '\n' out))

(* A registry entry's quick report renders and names its series and
   meta values. The verify suite is left out: its quick run alone takes
   most of a minute, and test_verify already checks every scenario. *)
let check_entry_renders id =
  match Reg.find id with
  | None -> Alcotest.fail ("no entry " ^ id)
  | Some e -> (
      match e.Reg.run ~quick:true with
      | Error msg -> Alcotest.fail msg
      | Ok r ->
          let out = render r in
          List.iter
            (fun (x : Report.experiment) ->
              List.iter
                (fun (s : Report.series) ->
                  check_shows out [ s.Report.lock ];
                  List.iter
                    (fun (_, a) -> check_shows out [ Report.attr_to_string a ])
                    (Option.value ~default:[] s.Report.meta))
                x.Report.series)
            r.Report.experiments)

let test_pp_registry_quick () =
  List.iter check_entry_renders [ "report"; "sim"; "adapt"; "faults"; "xval" ]

let test_pp_registry_kv () = check_entry_renders "kv"

(* bench_check renders the current archive, falling back to the
   baseline's copy of an experiment the current one lacks — and never
   renders an experiment archived in neither *)
let test_readback_current_else_baseline () =
  let exp id =
    { Report.exp_id = id; platform = "x86"; workload = "w"; series = [] }
  in
  let report ids =
    {
      Report.version = Report.schema_version;
      quick = true;
      meta = None;
      experiments = List.map exp ids;
    }
  in
  let shown ~baseline ~current =
    List.map
      (fun (label, (r : Report.t)) ->
        ( label,
          List.map
            (fun (e : Report.experiment) -> e.Report.exp_id)
            r.Report.experiments ))
      (Report.readback ~baseline:(report baseline) ~current:(report current))
  in
  check_bool "falls back to baseline" true
    (shown ~baseline:[ "kv" ] ~current:[] = [ ("baseline", [ "kv" ]) ]);
  check_bool "prefers current" true
    (shown ~baseline:[ "kv"; "verify" ] ~current:[ "kv" ]
    = [ ("current", [ "kv" ]); ("baseline", [ "verify" ]) ]);
  check_bool "nothing archived, nothing shown" true
    (shown ~baseline:[] ~current:[] = [])

(* ---------- fault-injection watchdog ---------- *)

module Ex = Clof_harness.Faultbench

(* One sweep for the whole section. *)
let fault_report = lazy (Ex.run ~quick:true ())

type fault_cell = { cls : string; reclaims : int; hung : bool }

(* The archived matrix read back: (series, declares abort, cells), each
   cell parsed from its "class(timeouts)[+rN][!]" string. *)
let fault_rows () =
  List.map
    (fun (s : Report.series) ->
      let meta = Option.value ~default:[] s.Report.meta in
      ( s.Report.lock,
        List.assoc_opt "abort" meta = Some (Report.B true),
        List.filter_map
          (function
            | fault, Report.S c ->
                Some
                  ( fault,
                    {
                      cls = Scanf.sscanf c "%[a-z]" Fun.id;
                      reclaims =
                        Option.value ~default:0
                          (Scanf.sscanf_opt c "%_[a-z](%_d)+r%d" Fun.id);
                      hung = String.ends_with ~suffix:"!" c;
                    } )
            | _ -> None)
          meta ))
    (Report.all_series (Lazy.force fault_report))

let test_faults_text_table () =
  let s =
    Render.text_table ~header:[ "lock"; "a"; "b" ]
      ~rows:[ ("mcs", [ "ok"; "wedged!" ]); ("x", [ "-"; "-" ]) ]
  in
  let lines = String.split_on_char '\n' (String.trim s) in
  check_int "3 lines" 3 (List.length lines);
  check_bool "contains cell" true (contains s "wedged!")

(* With no injected fault every cell is recovered. *)
let test_faults_baseline_recovers () =
  List.iter
    (fun (lock, _, cells) ->
      let c = List.assoc "none" cells in
      Alcotest.(check string) (lock ^ "/none recovers") "recovered" c.cls;
      check_bool (lock ^ "/none not hung") false c.hung)
    (fault_rows ())

(* A stall injected into a queue waiter leaves every abortable lock
   unwedged — timed-out waiters re-arm and the run completes with
   [hung = false]. *)
let test_faults_stall_abortable_recovers () =
  let abortables = List.filter (fun (_, abort, _) -> abort) (fault_rows ()) in
  check_bool "panel has abortable compositions" true
    (List.exists (fun (lock, _, _) -> String.contains lock '-') abortables);
  List.iter
    (fun (lock, _, cells) ->
      List.iter
        (fun (fault, c) ->
          if String.starts_with ~prefix:"stall" fault then begin
            check_bool (lock ^ "/" ^ fault ^ " not wedged") true
              (c.cls <> "wedged");
            check_bool (lock ^ "/" ^ fault ^ " not hung") false c.hung
          end)
        cells)
    abortables

(* A holder crash inside the critical section never wedges a true-abort
   lock — the watchdog reclaims ownership through the timed-acquire
   path and confirms the lock is serviceable again. *)
let test_faults_crash_hold_recovered () =
  let abortables = List.filter (fun (_, abort, _) -> abort) (fault_rows ()) in
  check_bool "panel has abortable rows" true (abortables <> []);
  List.iter
    (fun (lock, _, cells) ->
      List.iter
        (fun (fault, c) ->
          if String.starts_with ~prefix:"crash-hold" fault then begin
            Alcotest.(check string)
              (lock ^ "/" ^ fault ^ " recovered")
              "recovered" c.cls;
            check_bool (lock ^ "/" ^ fault ^ " watchdog reclaimed") true
              (c.reclaims > 0)
          end)
        cells)
    abortables

(* The gate passes on the report and on its archive read back. *)
let test_faults_gate_passes () =
  let r = Lazy.force fault_report in
  Alcotest.(check (list string)) "no violation" [] (Ex.gate r);
  Alcotest.(check (list string))
    "no violation in the archive" []
    (Ex.gate (parse (Report.to_string r)))

let test_faults_experiment_renders () =
  let r = Lazy.force fault_report in
  let out = render r in
  check_shows out [ "recovered"; "crash-hold-t3" ];
  List.iter (fun (lock, _, _) -> check_shows out [ lock ]) (fault_rows ());
  (* the archive round-trips into the same rendering *)
  Alcotest.(check string) "archived rendering" out
    (render (parse (Report.to_string r)))

(* ---------- gates on hand-built reports ---------- *)

let report_of series =
  Report.single ~quick:true ~exp_id:"t" ~platform:"x86" ~workload:"w" series

let meta_series lock meta = { Report.lock; meta = Some meta; points = [] }

(* [gate] passes [ok]; each [(rule, report, name)] makes exactly one
   violation, and its message names [name]. *)
let check_gate gate ok fires =
  Alcotest.(check (list string)) "passing report" [] (gate ok);
  List.iter
    (fun (rule, r, name) ->
      match gate r with
      | [ msg ] ->
          check_bool (Printf.sprintf "%s: %S names %s" rule msg name) true
            (contains msg name)
      | msgs ->
          Alcotest.failf "%s: expected one violation, got [%s]" rule
            (String.concat "; " msgs))
    fires

let test_kv_gate () =
  let lock ?(low = 5_000.0) ?(peak = 100_000.0) ?(rate = 1.0) name =
    meta_series name
      [
        ("service_rate", Report.F rate);
        ("low-1.p99", Report.F low);
        ("peak.p99.9", Report.F peak);
      ]
  in
  let report ?(fair = lock ~peak:50_000.0 "fair-h1") ?(other = lock "cna") ()
      =
    report_of
      [
        other;
        fair;
        lock "fp-clof<4>";
        meta_series "slo" [ ("low_p99_ns", Report.F 25_000.0) ];
      ]
  in
  check_gate Clof_harness.Kvbench.gate (report ())
    [
      ("low-phase SLO", report ~other:(lock ~low:30_000.0 "cna") (), "cna");
      ( "missing reading",
        report ~other:(meta_series "cna" [ ("service_rate", Report.F 1.0) ]) (),
        "cna" );
      ( "peak-tail margin",
        report ~fair:(lock ~peak:80_000.0 "fair-h1") (),
        "fair-h1" );
      ( "service-rate parity",
        report ~fair:(lock ~peak:50_000.0 ~rate:0.5 "fair-h1") (),
        "fair-h1" );
    ]

let test_adapt_gate () =
  let lock name tps =
    {
      Report.lock = name;
      meta = Some [ ("phases", Report.S "low-1,high,low-2") ];
      points =
        List.map
          (fun throughput ->
            {
              Report.threads = 1;
              throughput;
              total_ops = 0;
              sim_ns = 0;
              jain = 1.0;
              stats = Clof_stats.Stats.create ();
            })
          tps;
    }
  in
  (* fp-clof<4> is best in the low phases, clof<4> in the high one *)
  let report ?(adaptive = [ 2.0; 5.0; 2.0 ]) ?(fair = [ 0.5; 0.5; 0.5 ]) () =
    report_of
      [
        lock "ad-clof<4>" adaptive;
        lock "clof<4>" [ 1.0; 5.0; 1.0 ];
        lock "fair-h1" fair;
        lock "fp-clof<4>" [ 2.0; 2.0; 2.0 ];
        meta_series "controller" [ ("high.switches", Report.I 3) ];
      ]
  in
  check_gate Clof_harness.Adaptbench.gate (report ())
    [
      ("within slack", report ~adaptive:[ 2.0; 4.0; 2.0 ] (), "high");
      ("statics must lose", report ~fair:[ 1.9; 4.9; 1.9 ] (), "fair-h1");
    ]

let test_faults_gate () =
  let lock name ~fair ~abort cells =
    meta_series ("faults/" ^ name)
      (("fair", Report.B fair) :: ("abort", Report.B abort)
      :: List.map (fun (f, c) -> (f, Report.S c)) cells)
  in
  let report ?(tkt_stall = "recovered(0)") ?(comp_stall = "recovered(4)")
      ?(comp_hold = "recovered(20)+r1") () =
    report_of
      [
        lock "tkt" ~fair:true ~abort:false
          [
            ("none", "recovered(0)");
            ("stall-t3", tkt_stall);
            ("crash-hold-t3", "degraded(0)");
          ];
        lock "mcs-mcs" ~fair:true ~abort:true
          [
            ("none", "recovered(0)");
            ("stall-t3", comp_stall);
            ("crash-hold-t3", comp_hold);
          ];
      ]
  in
  check_gate Clof_harness.Faultbench.gate (report ())
    [
      ("fair lock wedged by a stall", report ~tkt_stall:"wedged(0)!" (), "tkt");
      ( "true-abort lock not recovered",
        report ~comp_hold:"degraded(20)" (),
        "mcs-mcs" );
      ( "capability audit",
        report ~comp_stall:"recovered(0)" ~comp_hold:"recovered(0)+r1" (),
        "mcs-mcs" );
      ("unreadable cell", report ~tkt_stall:"?" (), "tkt");
    ]

let test_xval_gate () =
  (* a negative Kendall coefficient must not matter: only the overall
     Spearman rho gates *)
  let report overall =
    report_of
      [
        meta_series "xval/spearman"
          (("nlocks", Report.I 12)
          :: Option.fold ~none:[] ~some:(fun r -> [ ("overall", Report.F r) ])
               overall);
        meta_series "xval/kendall" [ ("overall", Report.F (-0.9)) ];
      ]
  in
  check_gate Clof_harness.Xval.gate (report (Some 0.5))
    [
      ("undefined rho", report None, "undefined");
      ("negative rho", report (Some (-0.2)), "spearman");
    ]

let test_verify_gate () =
  let report ok =
    report_of
      [
        meta_series "base/mcs 2T x2 [sc]"
          [ ("executions", Report.I 10); ("ok", Report.B true) ];
        meta_series "exhibits/peterson-nofence [tso]" [ ("ok", Report.B ok) ];
      ]
  in
  check_gate Clof_harness.Verifybench.gate (report true)
    [ ("verdict mismatch", report false, "exhibits/peterson-nofence") ]

let () =
  Alcotest.run "harness"
    [
      ( "render",
        [
          Alcotest.test_case "table" `Quick test_table_render;
          Alcotest.test_case "heatmap" `Quick test_heatmap_render;
          Alcotest.test_case "section" `Quick test_section;
        ] );
      ( "heatmap",
        [
          Alcotest.test_case "tiny platform" `Quick test_heatmap_tiny;
          Alcotest.test_case "infer presets" `Slow test_infer_presets;
          Alcotest.test_case "paper table" `Quick test_paper_speedups_table;
          Alcotest.test_case "stride aliasing backfill" `Quick
            test_heatmap_stride_aliasing;
        ] );
      ( "scripted",
        [
          Alcotest.test_case "tiny sweep" `Slow test_scripted_tiny;
          Alcotest.test_case "spec_of_name" `Quick test_spec_of_name;
          Alcotest.test_case "grids" `Quick test_grids;
          Alcotest.test_case "grid clamped to platform" `Quick
            test_grid_clamped_to_platform;
          Alcotest.test_case "small custom platform" `Slow
            test_scripted_small_platform;
          Alcotest.test_case "parallel deterministic" `Slow
            test_scripted_parallel_deterministic;
        ] );
      ( "experiments",
        [
          Alcotest.test_case "ids" `Quick test_experiment_ids;
          Alcotest.test_case "dispatch" `Quick test_experiment_dispatch;
          Alcotest.test_case "registry entries" `Quick test_registry_entries;
          Alcotest.test_case "registry kinds" `Quick test_registry_kinds;
          Alcotest.test_case "registry gated strip" `Quick
            test_registry_gated_strip;
          Alcotest.test_case "archive current else baseline" `Quick
            test_readback_current_else_baseline;
        ] );
      ( "report pp",
        [
          Alcotest.test_case "v1 document" `Quick test_pp_v1;
          Alcotest.test_case "v2 meta" `Quick test_pp_v2_meta;
          Alcotest.test_case "registry quick reports" `Slow
            test_pp_registry_quick;
          Alcotest.test_case "kv quick report" `Slow test_pp_registry_kv;
        ] );
      ( "faults",
        [
          Alcotest.test_case "text table" `Quick test_faults_text_table;
          Alcotest.test_case "baseline recovers" `Slow
            test_faults_baseline_recovers;
          Alcotest.test_case "stall vs abortable" `Slow
            test_faults_stall_abortable_recovers;
          Alcotest.test_case "holder crash recovered" `Slow
            test_faults_crash_hold_recovered;
          Alcotest.test_case "gate passes" `Slow test_faults_gate_passes;
          Alcotest.test_case "experiment renders" `Slow
            test_faults_experiment_renders;
        ] );
      ( "gates",
        [
          Alcotest.test_case "kv" `Quick test_kv_gate;
          Alcotest.test_case "adapt" `Quick test_adapt_gate;
          Alcotest.test_case "faults" `Quick test_faults_gate;
          Alcotest.test_case "xval" `Quick test_xval_gate;
          Alcotest.test_case "verify" `Quick test_verify_gate;
        ] );
    ]
