type t = {
  name : string;
  ncpus : int;
  cohort : int array array;
      (* cohort.(rank).(cpu) = dense cohort id; rank as in [Level.all] *)
  counts : int array; (* counts.(rank) = number of cohorts at that rank *)
  prox : Bytes.t;
      (* prox.[a*ncpus + b] = proximity rank of the pair, as in
         [Level.prox_rank]; the simulator reads this on every miss *)
  first : int array array; (* first.(rank).(id) = lowest cpu of the cohort *)
  order : int array; (* every cpu, in [pick_cpus] placement order *)
}

type hierarchy = Level.t list

let nlevels = List.length Level.all
let rank_of_level = Level.rank

(* [pick_cpus] sort digits after the hyperthread rank, major first *)
let placement_ranks =
  Array.map rank_of_level
    [| Level.Package; Level.Numa_node; Level.Cache_group; Level.Core |]

(* Renumber arbitrary cohort labels into dense ids 0..n-1, preserving
   first-appearance order so that preset numbering stays intuitive. *)
let densify labels =
  let table = Hashtbl.create 16 in
  let next = ref 0 in
  let out =
    Array.map
      (fun l ->
        match Hashtbl.find_opt table l with
        | Some id -> id
        | None ->
            let id = !next in
            incr next;
            Hashtbl.add table l id;
            id)
      labels
  in
  (out, !next)

let check_nesting name cohort counts =
  (* Two CPUs sharing a cohort at rank r must share cohorts at all ranks
     > r. Equivalently: the inner cohort id determines the outer one. *)
  let ncpus = Array.length cohort.(0) in
  for r = 0 to nlevels - 2 do
    let outer_of = Array.make counts.(r) (-1) in
    for cpu = 0 to ncpus - 1 do
      let inner = cohort.(r).(cpu) and outer = cohort.(r + 1).(cpu) in
      if outer_of.(inner) = -1 then outer_of.(inner) <- outer
      else if outer_of.(inner) <> outer then
        invalid_arg
          (Printf.sprintf
             "Topology.create %s: cohorts do not nest at level %s"
             name
             (Level.to_string (List.nth Level.all r)))
    done
  done

let create ~name ~ncpus ~core_of ~cache_of ~numa_of ~pkg_of =
  if ncpus <= 0 then invalid_arg "Topology.create: ncpus <= 0";
  let tabulate f = Array.init ncpus f in
  let raw =
    [|
      tabulate core_of;
      tabulate cache_of;
      tabulate numa_of;
      tabulate pkg_of;
      tabulate (fun _ -> 0);
    |]
  in
  let cohort = Array.make nlevels [||] in
  let counts = Array.make nlevels 0 in
  Array.iteri
    (fun r labels ->
      let dense, n = densify labels in
      cohort.(r) <- dense;
      counts.(r) <- n)
    raw;
  check_nesting name cohort counts;
  (* Dense pairwise proximity ranks, one byte per pair: the innermost
     shared level by walking levels once here instead of on every
     simulated cache miss. [Level.prox_rank] of the innermost shared
     level [lvl] is [Level.rank lvl + 1]; the diagonal is [Same_cpu]. *)
  let prox = Bytes.create (ncpus * ncpus) in
  for a = 0 to ncpus - 1 do
    let row = a * ncpus in
    for b = 0 to ncpus - 1 do
      let rank =
        if a = b then 0
        else begin
          let r = ref 0 in
          while !r < nlevels && cohort.(!r).(a) <> cohort.(!r).(b) do
            incr r
          done;
          !r + 1 (* the System row always matches, so !r < nlevels *)
        end
      in
      Bytes.unsafe_set prox (row + b) (Char.unsafe_chr rank)
    done
  done;
  let first = Array.map (fun n -> Array.make n (-1)) counts in
  for r = 0 to nlevels - 1 do
    for cpu = ncpus - 1 downto 0 do
      first.(r).(cohort.(r).(cpu)) <- cpu
    done
  done;
  (* Placement order: by (hyperthread rank, package, numa, cache, core),
     packed into one mixed-radix int per cpu and stable-sorted, so equal
     keys keep cpu order. Each digit is below its level's cohort count,
     so a key is below ncpus^5 and fits an int up to 5000 cpus. The
     hyperthread rank, the leading digit, is the position of each cpu
     among the cpus of its core, in increasing cpu order — one O(ncpus)
     pass over the dense core ids instead of a per-cpu cohort scan. *)
  let key = Array.make ncpus 0 in
  let seen = Array.make counts.(0) 0 in
  for cpu = 0 to ncpus - 1 do
    let core = cohort.(0).(cpu) in
    key.(cpu) <- seen.(core);
    seen.(core) <- seen.(core) + 1
  done;
  Array.iter
    (fun r ->
      let ids = cohort.(r) and radix = counts.(r) in
      for cpu = 0 to ncpus - 1 do
        key.(cpu) <- (key.(cpu) * radix) + ids.(cpu)
      done)
    placement_ranks;
  let order = Array.init ncpus Fun.id in
  Array.stable_sort (fun a b -> Int.compare key.(a) key.(b)) order;
  { name; ncpus; cohort; counts; prox; first; order }

let name t = t.name
let ncpus t = t.ncpus

let check_cpu t cpu =
  if cpu < 0 || cpu >= t.ncpus then
    invalid_arg (Printf.sprintf "Topology: cpu %d out of range" cpu)

let cohort_of t lvl cpu =
  check_cpu t cpu;
  t.cohort.(rank_of_level lvl).(cpu)

let ncohorts t lvl = t.counts.(rank_of_level lvl)

let first_cpu t lvl id =
  let r = rank_of_level lvl in
  if id < 0 || id >= t.counts.(r) then
    invalid_arg
      (Printf.sprintf "Topology.first_cpu: cohort %d out of range" id);
  t.first.(r).(id)

let cpus_of_cohort t lvl id =
  let r = rank_of_level lvl in
  let acc = ref [] in
  for cpu = t.ncpus - 1 downto 0 do
    if t.cohort.(r).(cpu) = id then acc := cpu :: !acc
  done;
  !acc

let proximity_rank t a b =
  check_cpu t a;
  check_cpu t b;
  Char.code (Bytes.unsafe_get t.prox ((a * t.ncpus) + b))

let proximity t a b = Level.prox_of_rank (proximity_rank t a b)

let cpus_per_cohort t lvl =
  let r = rank_of_level lvl in
  let sizes = Array.make t.counts.(r) 0 in
  Array.iter (fun id -> sizes.(id) <- sizes.(id) + 1) t.cohort.(r);
  Array.fold_left max 0 sizes

let validate_hierarchy t hier =
  let rec strictly_inner = function
    | [] | [ _ ] -> true
    | a :: (b :: _ as rest) -> Level.compare a b < 0 && strictly_inner rest
  in
  match List.rev hier with
  | [] -> Error "hierarchy is empty"
  | outermost :: _ when outermost <> Level.System ->
      Error "hierarchy must end at the system level"
  | _ when not (strictly_inner hier) ->
      Error "hierarchy levels must be strictly inner-to-outer"
  | _ ->
      let degenerate =
        List.exists
          (fun lvl -> lvl <> Level.System && ncohorts t lvl <= 1)
          hier
      in
      if degenerate then
        Error "hierarchy contains a level with a single cohort"
      else Ok ()

let hierarchy_to_string hier =
  String.concat "-" (List.map Level.abbrev hier)

let pick_cpus t ~nthreads =
  if nthreads <= 0 || nthreads > t.ncpus then
    invalid_arg
      (Printf.sprintf "Topology.pick_cpus: nthreads %d not in [1,%d]"
         nthreads t.ncpus);
  Array.sub t.order 0 nthreads
