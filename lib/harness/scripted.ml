open Clof_topology
module M = Clof_sim.Sim_mem
module R = Clof_locks.Registry.Make (M)
module G = Clof_core.Generator.Make (M)
module Hmcs = Clof_baselines.Hmcs.Make (M)
module W = Clof_workloads.Workload
module RT = Clof_core.Runtime
module Sel = Clof_core.Selection

type t = {
  platform : Platform.t;
  depth : int;
  threadcounts : int list;
  series : Sel.series list;
  hmcs : Sel.series;
  results : (string * (int * W.result) list) list;
}

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

(* The N^M x threadcounts job matrix runs as one flat batch on the
   default executor: each (composition, threadcount) cell is an
   independent, deterministically seeded simulation, so the series come
   back identical for any job count. *)
let run ?(params = W.leveldb) ?threadcounts ?h ~platform ~depth () =
  let threadcounts =
    match threadcounts with Some t -> t | None -> thread_grid platform
  in
  let hierarchy = Platform.hierarchy_of_depth platform depth in
  let basics = R.basics ~ctr:(ctr_for platform) in
  let specs =
    List.map
      (fun packed -> RT.of_clof ?h ~hierarchy packed)
      (G.generate ~basics ~depth)
    @ [ Hmcs.spec ?h ~hierarchy () ]
  in
  let rows =
    Clof_exec.Exec.product_map
      (fun spec n -> (n, W.run ~platform ~nthreads:n ~spec params))
      specs threadcounts
  in
  let results = List.map2 (fun spec r -> (spec.RT.s_name, r)) specs rows in
  let all =
    List.map
      (fun (lock, r) ->
        {
          Sel.lock;
          points = List.map (fun (n, r) -> (n, r.W.throughput)) r;
        })
      results
  in
  let rec split_last = function
    | [] -> invalid_arg "Scripted.run: no specs"
    | [ x ] -> ([], x)
    | x :: tl ->
        let l, last = split_last tl in
        (x :: l, last)
  in
  let series, hmcs = split_last all in
  { platform; depth; threadcounts; series; hmcs; results }

let pick f t =
  match f t.series with
  | Some s -> s
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
