open Clof_topology
module M = Clof_sim.Sim_mem
module R = Clof_locks.Registry.Make (M)
module G = Clof_core.Generator.Make (M)
module Hmcs = Clof_baselines.Hmcs.Make (M)
module W = Clof_workloads.Workload
module RT = Clof_core.Runtime
module Sel = Clof_core.Selection

type t = { series : Report.series list; hmcs : Report.series }

(* The paper's contention levels, clamped to the machine: points past
   [ncpus] would crash [Topology.pick_cpus] on platforms smaller than
   the two presets. The [ncpus - 1] point (95 of 96, 127 of 128 — one
   CPU left to the OS, as the paper runs it) is always included. *)
let thread_grid p =
  let n = Topology.ncpus p.Platform.topo in
  let base =
    match p.Platform.arch with
    | Platform.X86 -> [ 1; 4; 8; 16; 24; 32; 48; 64 ]
    | Platform.Armv8 -> [ 1; 4; 8; 16; 24; 32; 48; 64; 96 ]
  in
  List.sort_uniq compare
    (max 1 (n - 1) :: List.filter (fun t -> t <= n) base)

let grid ~quick p =
  let g = thread_grid p in
  if quick then List.filter (fun n -> n = 1 || n = 8 || n = 32 || n >= 95) g
  else g

let leveldb ~quick =
  if quick then { W.leveldb with W.duration = 150_000 } else W.leveldb

let ctr_for p = p.Platform.arch = Platform.X86

let point_of_result (n, r) =
  {
    Report.threads = n;
    throughput = r.W.throughput;
    total_ops = r.W.total_ops;
    sim_ns = r.W.sim_ns;
    jain = Report.jain r.W.per_thread;
    stats = r.W.stats;
  }

(* The one (spec x threadcount) batch: every cell is an independent,
   deterministically seeded simulation on the default executor, so the
   series come back identical for any job count. *)
let sweep ?params ?threadcounts ~quick p specs =
  let params = Option.value params ~default:(leveldb ~quick) in
  let threadcounts = Option.value threadcounts ~default:(grid ~quick p) in
  List.map2
    (fun spec points -> { Report.lock = spec.RT.s_name; meta = None; points })
    specs
    (Clof_exec.Exec.product_map
       (fun spec n ->
         point_of_result (n, W.run ~platform:p ~nthreads:n ~spec params))
       specs threadcounts)

let run ?params ?threadcounts ~platform ~depth () =
  let hierarchy = Platform.hierarchy_of_depth platform depth in
  let comps =
    List.map
      (fun packed -> RT.of_clof ~hierarchy packed)
      (G.generate ~basics:(R.basics ~ctr:(ctr_for platform)) ~depth)
  in
  let all =
    sweep ?params ?threadcounts ~quick:false platform
      (comps @ [ Hmcs.spec ~hierarchy () ])
  in
  let n = List.length comps in
  { series = List.filteri (fun i _ -> i < n) all; hmcs = List.nth all n }

let selection (s : Report.series) =
  {
    Sel.lock = s.Report.lock;
    points =
      List.map (fun p -> (p.Report.threads, p.Report.throughput)) s.points;
  }

(* [Sel] ranks projections and returns one of them; [assq] maps it
   back to the series it was projected from. *)
let pick f t =
  let keyed = List.map (fun s -> (selection s, s)) t.series in
  match f (List.map fst keyed) with
  | Some sel -> List.assq sel keyed
  | None -> invalid_arg "Scripted: empty series"

let hc_best t = pick (Sel.best Sel.High_contention) t
let lc_best t = pick (Sel.best Sel.Low_contention) t
let worst t = pick (Sel.worst Sel.High_contention) t

let spec_of_name ~platform ~depth ?h name =
  let basics = R.basics ~ctr:(ctr_for platform) in
  match G.of_name ~basics name with
  | Some packed ->
      RT.of_clof ?h
        ~hierarchy:(Platform.hierarchy_of_depth platform depth)
        packed
  | None -> invalid_arg ("Scripted.spec_of_name: " ^ name)
