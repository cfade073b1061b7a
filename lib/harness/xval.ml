(* Sim-vs-native cross-validation (`clof_bench xval`).
 *
 * The paper's core claim is that benchmark-driven selection finds the
 * best lock *on the machine you have*. This experiment does exactly
 * that, twice, on the same machine: the scripted composition sweep
 * runs once on the discrete-event simulator configured with the
 * host's own detected topology (the "simulate the machine you have"
 * leg) and once natively on real OCaml domains pinned to the host's
 * cores — same lock sources through the same MEMORY abstraction, same
 * per-thread workload loop (Workload.thread_body), same thread
 * placement (Topology.pick_cpus). Absolute numbers are incomparable
 * (simulated ns vs wall ns), so the deliverable is the *rank
 * correlation* (Spearman rho / Kendall tau-b, Clof_stats.Rank)
 * between the two backends' throughput orderings, per contention
 * level and overall on the HC selection score.
 *
 * Report encoding (BENCH_native.json, printed by bench_check): one
 * "xval" experiment whose series are
 *   "<lock>"          native points (throughput = ops per wall us,
 *                     sim_ns = measured wall ns)
 *   "<lock>/sim"      the matching simulator points
 *   "xval/spearman",
 *   "xval/kendall"    no points; the coefficients travel in the
 *                     series' typed [meta] block (schema v2):
 *                     "nlocks", "threads" (comma-separated levels),
 *                     "overall" (the coefficient on HC scores) and
 *                     "t<N>" per contention level — an undefined
 *                     coefficient (all-tied input) is an absent key
 *   "xval/host"       no points; meta "cpus", "arch", "hierarchy",
 *                     "pinned", and the HC-best lock of each backend
 *                     ("hc_best_native", "hc_best_sim")
 * The whole experiment is excluded from bench_check's regression join
 * (native wall clock on shared runners must never gate), mirroring
 * how the verify statistics are handled. *)

open Clof_topology
module RT = Clof_core.Runtime
module Sel = Clof_core.Selection
module W = Clof_workloads.Workload
module Rank = Clof_stats.Rank
module Native = Clof_native.Native

(* The same lock panel, instantiated over either memory backend. Both
   instantiations produce identical spec-name lists, which is what the
   series join relies on: names come from the lock modules themselves,
   and the functors are applied to backends over identical registry
   contents. *)
module Panel (M : Clof_atomics.Memory_intf.S) = struct
  module R = Clof_locks.Registry.Make (M)
  module G = Clof_core.Generator.Make (M)
  module H = Clof_baselines.Hmcs.Make (M)

  (* Quick mode keeps the spread that makes the ranking meaningful on
     a small host: all seven flat locks (the unfair TAS family
     collapses under contention on both backends — easy rank signal)
     plus four heterogeneous compositions and the HMCS baseline. *)
  let quick_compositions = [ "tkt-tkt"; "mcs-mcs"; "clh-tkt"; "hem-mcs" ]

  let specs ~quick ~ctr ~hierarchy ~with_hmcs =
    let basics = R.basics ~ctr in
    let flats = List.map RT.of_basic (R.all ~ctr) in
    let comps =
      if quick then
        List.filter_map (fun n -> G.of_name ~basics n) quick_compositions
      else G.generate ~basics ~depth:2
    in
    flats
    @ List.map (fun c -> RT.of_clof ~hierarchy c) comps
    @ (if with_hmcs then [ H.spec ~hierarchy () ] else [])
end

module SimPanel = Panel (Clof_sim.Sim_mem)
module NatPanel = Panel (Clof_atomics.Real_mem)

(* Contention levels: powers of two up to the machine, always
   including the full machine; quick mode keeps only the uncontended
   and fully-contended endpoints. *)
let thread_grid ~quick ncpus =
  if quick then List.sort_uniq compare [ 1; ncpus ]
  else begin
    let rec go n acc = if n >= ncpus then acc else go (2 * n) (n :: acc) in
    List.sort_uniq compare (ncpus :: go 1 [])
  end

let exp_id = "xval"

let native_point ~threads (r : Native.result) =
  {
    Report.threads;
    throughput = r.Native.throughput;
    total_ops = r.Native.total_ops;
    sim_ns = r.Native.wall_ns;
    jain = Report.jain r.Native.per_thread;
    stats = r.Native.stats;
  }

(* (lock, (threads, throughput) list): the shape rank correlation and
   selection scoring consume, projected from either backend's points. *)
let throughputs rows =
  List.map
    (fun (l, pts) ->
      (l, List.map (fun p -> (p.Report.threads, p.Report.throughput)) pts))
    rows

let correlate xs ys = (Rank.spearman xs ys, Rank.kendall xs ys)

let run ?(quick = false) ?duration_ms ?platform () =
  let platform =
    match platform with Some p -> p | None -> Clof_native.Hosttopo.detect ()
  in
  let topo = platform.Platform.topo in
  let ncpus = Topology.ncpus topo in
  let hierarchy = Clof_native.Hosttopo.hierarchy platform in
  let ctr = Scripted.ctr_for platform in
  let threadcounts = thread_grid ~quick ncpus in
  let duration_ms =
    match duration_ms with Some d -> d | None -> if quick then 40 else 250
  in
  let params = Scripted.leveldb ~quick in
  (* HMCS requires every level to discriminate (>= 2 cohorts); on a
     degenerate host (one core, or no level grouping several multi-CPU
     cohorts) the leaf collapses to a single cohort and the baseline
     is skipped — CLoF compositions tolerate the degenerate level. *)
  let with_hmcs = Topology.ncohorts topo (List.hd hierarchy) > 1 in
  let specs_sim = SimPanel.specs ~quick ~ctr ~hierarchy ~with_hmcs in
  let specs_nat = NatPanel.specs ~quick ~ctr ~hierarchy ~with_hmcs in
  let names = List.map (fun s -> s.RT.s_name) specs_sim in
  if names <> List.map (fun s -> s.RT.s_name) specs_nat then
    invalid_arg "Xval.run: backend panels disagree on lock names";
  (* simulated leg: deterministic independent jobs, fanned out on the
     default executor like every other sweep *)
  let sim =
    List.combine names
      (Clof_exec.Exec.product_map
         (fun spec n ->
           Report.point_of_result (n, W.run ~platform ~nthreads:n ~spec params))
         specs_sim threadcounts)
  in
  (* native leg: strictly sequential — each run saturates the machine,
     so overlapping two would measure executor interference *)
  let native_results =
    List.map
      (fun spec ->
        List.map
          (fun n -> Native.run ~platform ~duration_ms ~nthreads:n ~spec params)
          threadcounts)
      specs_nat
  in
  let native =
    List.combine names
      (List.map
         (List.map2 (fun n r -> native_point ~threads:n r) threadcounts)
         native_results)
  in
  let stp = throughputs sim and ntp = throughputs native in
  let tp_at tps n =
    Array.of_list (List.map (fun (_, points) -> List.assoc n points) tps)
  in
  let per_thread =
    List.map
      (fun n ->
        let rho, tau = correlate (tp_at stp n) (tp_at ntp n) in
        (n, rho, tau))
      threadcounts
  in
  let overall =
    let score tps =
      Array.of_list
        (List.map
           (fun (_, points) -> Sel.score Sel.High_contention points)
           tps)
    in
    correlate (score stp) (score ntp)
  in
  let pinned =
    List.for_all (List.for_all (fun r -> r.Native.pinned)) native_results
  in
  let series suffix =
    List.map (fun (lock, points) ->
        { Report.lock = lock ^ suffix; meta = None; points })
  in
  let corr pick name =
    let coef key = function
      | Some c -> [ (key, Report.F c) ]
      | None -> []
    in
    {
      Report.lock = "xval/" ^ name;
      meta =
        Some
          ([
             ("nlocks", Report.I (List.length names));
             ( "threads",
               Report.S
                 (String.concat "," (List.map string_of_int threadcounts)) );
           ]
          @ coef "overall" (pick overall)
          @ List.concat_map
              (fun (n, rho, tau) ->
                coef (Printf.sprintf "t%d" n) (pick (rho, tau)))
              per_thread);
      points = [];
    }
  in
  let hc_best tps =
    Report.S
      (match
         Sel.best Sel.High_contention
           (List.map (fun (lock, points) -> { Sel.lock; points }) tps)
       with
      | Some s -> s.Sel.lock
      | None -> "-")
  in
  let host =
    {
      Report.lock = "xval/host";
      meta =
        Some
          [
            ("cpus", Report.I ncpus);
            ("arch", Report.S (Platform.arch_to_string platform.Platform.arch));
            ("hierarchy", Report.S (Topology.hierarchy_to_string hierarchy));
            ("pinned", Report.B pinned);
            ("hc_best_native", hc_best ntp);
            ("hc_best_sim", hc_best stp);
          ];
      points = [];
    }
  in
  Report.single ~quick ~exp_id ~platform:(Topology.name topo)
    ~workload:
      (Printf.sprintf "leveldb-xval/%s%s"
         (Topology.hierarchy_to_string hierarchy)
         (if pinned then "" else "/unpinned"))
    ((corr fst "spearman" :: corr snd "kendall" :: host :: series "" native)
    @ series "/sim" sim)

(* ---------- gate ---------- *)

(* Only anti-correlation fails: hosted runners have few cores,
   unpinnable vCPUs and noisy neighbours, so the quick panel's ordering
   signal is weak; a meaningful floor (>= 0.5) only makes sense on
   dedicated multi-socket hardware running the full sweep. An absent
   "overall" key is the undefined (all-tied) coefficient. *)
let min_corr = 0.0

let gate r =
  match
    Option.bind
      (Report.find_series r "xval/spearman")
      (fun s -> Report.meta_float s "overall")
  with
  | None -> [ "overall rank correlation undefined (all-tied HC scores)" ]
  | Some rho when rho < min_corr ->
      [ Printf.sprintf "overall spearman %.3f below floor %.3f" rho min_corr ]
  | Some _ -> []
