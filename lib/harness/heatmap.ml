open Clof_topology

type t = {
  platform : Platform.t;
  measured : (int * int, float) Hashtbl.t;
  class_mean : (Level.proximity * float) list;
}

let classes =
  [
    Level.Same_cpu;
    Level.Same_core;
    Level.Same_cache;
    Level.Same_numa;
    Level.Same_package;
    Level.Same_system;
  ]

let measure ?(duration = 120_000) ?(stride = 1) ~platform () =
  let topo = platform.Platform.topo in
  let n = Topology.ncpus topo in
  let measured = Hashtbl.create 1024 in
  (* the pairwise pingpong grid: every cell is an independent two-thread
     simulation, measured as one batch of parallel jobs *)
  let pairs = ref [] in
  for i = n - 1 downto 0 do
    if i mod stride = 0 then
      for j = n - 1 downto i do
        if j mod stride = 0 then pairs := (i, j) :: !pairs
      done
  done;
  let pairs = !pairs in
  List.iter2
    (fun (i, j) v -> Hashtbl.replace measured (i, j) v)
    pairs
    (Clof_exec.Exec.map
       (fun (i, j) ->
         Clof_workloads.Pingpong.throughput ~duration ~platform i j)
       pairs);
  (* strides can alias with cohort sizes (e.g. stride 3 never pairs two
     cores of one 3-core L3 partition), so guarantee every proximity
     class that exists on the machine has at least a few samples. The
     candidate scan starts at j = i, not i + 1: [Same_cpu] pairs live
     on the diagonal, and skipping it would leave that class without a
     backfill path. *)
  let covered p =
    Hashtbl.fold
      (fun (i, j) _ acc -> acc || Topology.proximity topo i j = p)
      measured false
  in
  List.iter
    (fun p ->
      if not (covered p) then begin
        let found = ref 0 in
        (try
           for i = 0 to n - 1 do
             for j = i to n - 1 do
               if !found < 3 && Topology.proximity topo i j = p then begin
                 let v =
                   Clof_workloads.Pingpong.throughput ~duration ~platform i
                     j
                 in
                 Hashtbl.replace measured (i, j) v;
                 incr found
               end
             done;
             if !found >= 3 then raise Exit
           done
         with Exit -> ())
      end)
    classes;
  let sums = Hashtbl.create 8 in
  Hashtbl.iter
    (fun (i, j) v ->
      let p = Topology.proximity topo i j in
      let s, c = try Hashtbl.find sums p with Not_found -> (0.0, 0) in
      Hashtbl.replace sums p (s +. v, c + 1))
    measured;
  let class_mean =
    List.filter_map
      (fun p ->
        match Hashtbl.find_opt sums p with
        | Some (s, c) when c > 0 -> Some (p, s /. float_of_int c)
        | Some _ | None -> None)
      classes
  in
  { platform; measured; class_mean }

let throughput t i j =
  let a = min i j and b = max i j in
  match Hashtbl.find_opt t.measured (a, b) with
  | Some v -> v
  | None -> (
      let p = Topology.proximity t.platform.Platform.topo i j in
      match List.assoc_opt p t.class_mean with Some v -> v | None -> 0.0)

let pairs t = Hashtbl.length t.measured

let speedups t =
  match List.assoc_opt Level.Same_system t.class_mean with
  | None | Some 0.0 -> []
  | Some base ->
      List.map (fun (p, v) -> (p, v /. base)) t.class_mean

let paper_speedups p =
  match p.Platform.arch with
  | Platform.X86 ->
      [
        (Level.Same_core, 12.18);
        (Level.Same_cache, 9.07);
        (Level.Same_numa, 1.54);
        (Level.Same_package, 1.54);
        (Level.Same_system, 1.0);
      ]
  | Platform.Armv8 ->
      [
        (Level.Same_cache, 7.04);
        (Level.Same_numa, 2.98);
        (Level.Same_package, 1.76);
        (Level.Same_system, 1.0);
      ]

(* Keep a level when (1) it actually groups more than one CPU per
   cohort and splits the machine, (2) its cohorts differ from the next
   kept outer level, and (3) its speedup improves on that outer level by
   more than 15%. *)
let infer_hierarchy t =
  let topo = t.platform.Platform.topo in
  let sp = speedups t in
  let speedup_of lvl =
    List.assoc_opt (Level.proximity_of_level lvl) sp
  in
  let candidates =
    [ Level.Package; Level.Numa_node; Level.Cache_group; Level.Core ]
  in
  let keep (kept, outer_speedup, outer_cohorts) lvl =
    let ncoh = Topology.ncohorts topo lvl in
    let usable =
      ncoh > 1
      && ncoh <> outer_cohorts
      && Topology.cpus_per_cohort topo lvl > 1
    in
    match speedup_of lvl with
    | Some s when usable && s > outer_speedup *. 1.15 ->
        (lvl :: kept, s, ncoh)
    | Some _ | None -> (kept, outer_speedup, outer_cohorts)
  in
  let kept, _, _ = List.fold_left keep ([ Level.System ], 1.0, 1) candidates in
  (* when package and NUMA node coincide (x86: one node per package),
     report the level under its NUMA name, as the paper does *)
  if
    List.mem Level.Package kept
    && Topology.ncohorts topo Level.Package
       = Topology.ncohorts topo Level.Numa_node
  then
    List.map
      (fun l -> if l = Level.Package then Level.Numa_node else l)
      kept
  else kept
