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
module S = Clof_stats.Stats
module J = Clof_stats.Json

(* v2 added the optional typed [meta] field on series; v1 documents
   still parse, with [meta = None] on every series. *)
let schema_version = 2

let min_schema_version = 1

type point = {
  threads : int;
  throughput : float;
  total_ops : int;
  sim_ns : int;
  jain : float;
  stats : S.recorder;
}

(* Typed per-series metadata: the schema-level replacement for the
   per-experiment "slot encoding" conventions (capability flags hidden
   in a fake point's [total_ops], phase indices in [threads], ...)
   that v1 readers had to know about positionally. Keys are
   experiment-defined; values carry their own type. *)
type attr = I of int | F of float | S of string | B of bool
type series_meta = (string * attr) list
type series = { lock : string; meta : series_meta option; points : point list }

type experiment = {
  exp_id : string;
  platform : string;
  workload : string;
  series : series list;
}

type t = { version : int; quick : bool; experiments : experiment list }

(* ---------- rendering ---------- *)

(* Four significant digits below 1000, whole numbers above: enough to
   rank locks and read tails, narrow enough for a table cell. *)
let num f =
  if Float.abs f >= 1000.0 then Printf.sprintf "%.0f" f
  else Printf.sprintf "%.4g" f

(* Free-form string cells, the label left-aligned and every other
   column right-aligned, each sized to its widest entry. *)
let text_table ~header ~rows =
  let ncols = List.length header in
  let width i =
    let of_row cells =
      match List.nth_opt cells i with
      | Some c -> String.length c
      | None -> 0
    in
    List.fold_left
      (fun w (label, cells) ->
        max w (of_row (label :: cells)))
      (match List.nth_opt header i with
      | Some h -> String.length h
      | None -> 0)
      rows
  in
  let widths = List.init ncols width in
  let buf = Buffer.create 1024 in
  let line cells =
    List.iteri
      (fun i c ->
        let w = List.nth widths i in
        if i = 0 then Buffer.add_string buf (Printf.sprintf "%-*s" (w + 2) c)
        else Buffer.add_string buf (Printf.sprintf "  %*s" w c))
      cells;
    Buffer.add_char buf '\n'
  in
  line header;
  List.iter (fun (label, cells) -> line (label :: cells)) rows;
  Buffer.contents buf

let section title =
  Printf.sprintf "\n%s\n%s\n" title (String.make (String.length title) '=')

let attr_to_string = function
  | I i -> string_of_int i
  | F f -> num f
  | S s -> s
  | B b -> string_of_bool b

(* One table per experiment, one row per series: the typed meta keys
   in first-seen order ("-" where a series lacks one), then the point
   throughputs, each column headed by its thread count when every
   series agrees on it. The archive is the whole input, so a rendering
   needs no per-experiment code. *)
let pp_experiment ppf e =
  let meta (s : series) = Option.value ~default:[] s.meta in
  let keys =
    List.fold_left
      (fun acc s ->
        List.fold_left
          (fun acc (k, _) -> if List.mem k acc then acc else k :: acc)
          acc (meta s))
      [] e.series
    |> List.rev
  in
  let npoints =
    List.fold_left (fun n s -> max n (List.length s.points)) 0 e.series
  in
  let nth_point s i = List.nth_opt s.points i in
  let point_header i =
    let threads s = Option.map (fun p -> p.threads) (nth_point s i) in
    match List.sort_uniq compare (List.filter_map threads e.series) with
    | [ n ] -> Printf.sprintf "%dT" n
    | _ -> Printf.sprintf "point%d" (i + 1)
  in
  let header = ("series" :: keys) @ List.init npoints point_header in
  let cell f = Option.fold ~none:"-" ~some:f in
  let rows =
    List.map
      (fun s ->
        ( s.lock,
          List.map
            (fun k -> cell attr_to_string (List.assoc_opt k (meta s)))
            keys
          @ List.init npoints (fun i ->
                cell (fun p -> num p.throughput) (nth_point s i)) ))
      e.series
  in
  Format.pp_print_string ppf
    (section (Printf.sprintf "%s (%s, %s)" e.exp_id e.platform e.workload));
  Format.pp_print_string ppf (text_table ~header ~rows)

let pp ppf t =
  List.iter (pp_experiment ppf) t.experiments;
  Format.pp_print_flush ppf ()

let readback ~baseline ~current =
  let in_current e =
    List.exists (fun c -> c.exp_id = e.exp_id) current.experiments
  in
  List.filter
    (fun (_, r) -> r.experiments <> [])
    [
      ("current", current);
      ( "baseline",
        {
          baseline with
          experiments =
            List.filter (fun e -> not (in_current e)) baseline.experiments;
        } );
    ]

let single ~quick ~exp_id ~platform ~workload series =
  {
    version = schema_version;
    quick;
    experiments = [ { exp_id; platform; workload; series } ];
  }

let all_series t = List.concat_map (fun e -> e.series) t.experiments
let find_series t lock = List.find_opt (fun s -> s.lock = lock) (all_series t)
let lookup (s : series) key = Option.bind s.meta (List.assoc_opt key)

let meta_float s key =
  match lookup s key with Some (F f) -> Some f | _ -> None

let jain counts =
  let xs = Array.map float_of_int counts in
  let s = Array.fold_left ( +. ) 0.0 xs in
  let s2 = Array.fold_left (fun a x -> a +. (x *. x)) 0.0 xs in
  if s2 = 0.0 then 1.0
  else s *. s /. (float_of_int (Array.length xs) *. s2)

let point_of_result (n, r) =
  {
    threads = n;
    throughput = r.W.throughput;
    total_ops = r.W.total_ops;
    sim_ns = r.W.sim_ns;
    jain = jain r.W.per_thread;
    stats = r.W.stats;
  }

(* ---------- experiment definitions ---------- *)

(* A fixed, platform-independent lock panel: every major family the
   paper compares (plain MCS, the HMCS tree, flat NUMA-aware CNA and
   ShflLock, a homogeneous 4-level CLoF composition and its TAS
   fast-path variant, and a classic cohort lock). Names are pinned by
   [RT.rename] so a report produced today matches one produced after a
   registry reshuffle — bench_check joins series on these names. *)
let panel p =
  let hierarchy = Platform.hier4 p in
  let packed = G.build [ R.clh; R.clh; R.clh; R.clh ] in
  let fp =
    let (module L) = packed in
    let module F = Clof_core.Fastpath.Make (M) (L) in
    RT.of_clof ~hierarchy (module F : Clof_core.Clof_intf.S)
  in
  [
    RT.rename "mcs" (RT.of_basic R.mcs);
    RT.rename "hmcs<4>" (Hmcs.spec ~hierarchy ());
    RT.rename "cna" (Cna.spec ());
    RT.rename "shfl" (Shfl.spec ());
    RT.rename "clof<4>-clh" (RT.of_clof ~hierarchy packed);
    RT.rename "fp-clof<4>-clh" fp;
    RT.rename "c-bo-mcs" Cohort.c_bo_mcs;
  ]

let platforms =
  [ ("report-x86", Platform.x86); ("report-armv8", Platform.armv8) ]

let exp_ids = List.map fst platforms

(* A spec panel swept over thread counts as one flat (spec x
   threadcount) batch of parallel jobs, one series per spec — the
   shape of the lock panel and of most paper figures. *)
let sweep ~quick ~exp_id ?(workload = "leveldb")
    ?(params = Scripted.leveldb ~quick) ?threadcounts p specs =
  let threadcounts =
    Option.value threadcounts ~default:(Scripted.grid ~quick p)
  in
  let rows =
    Clof_exec.Exec.product_map
      (fun spec n ->
        point_of_result (n, W.run ~platform:p ~nthreads:n ~spec params))
      specs threadcounts
  in
  {
    exp_id;
    platform = Topology.name p.Platform.topo;
    workload;
    series =
      List.map2
        (fun spec points -> { lock = spec.RT.s_name; meta = None; points })
        specs rows;
  }

let run ~quick =
  {
    version = schema_version;
    quick;
    experiments =
      List.map
        (fun (exp_id, p) -> sweep ~quick ~exp_id p (panel p))
        platforms;
  }

(* ---------- JSON ---------- *)

let point_to_json p =
  J.Obj
    [
      ("threads", J.Int p.threads);
      ("throughput", J.Float p.throughput);
      ("total_ops", J.Int p.total_ops);
      ("sim_ns", J.Int p.sim_ns);
      ("jain", J.Float p.jain);
      ("stats", S.to_json p.stats);
    ]

let attr_to_json = function
  | I i -> J.Int i
  | F f -> J.Float f
  | S s -> J.Str s
  | B b -> J.Bool b

let series_to_json s =
  J.Obj
    ([ ("lock", J.Str s.lock) ]
    @ (match s.meta with
      | None -> []
      | Some kvs ->
          [ ("meta", J.Obj (List.map (fun (k, v) -> (k, attr_to_json v)) kvs)) ])
    @ [ ("points", J.Arr (List.map point_to_json s.points)) ])

let experiment_to_json e =
  J.Obj
    [
      ("id", J.Str e.exp_id);
      ("platform", J.Str e.platform);
      ("workload", J.Str e.workload);
      ("series", J.Arr (List.map series_to_json e.series));
    ]

let to_json t =
  J.Obj
    [
      ("schema_version", J.Int t.version);
      ("quick", J.Bool t.quick);
      ("experiments", J.Arr (List.map experiment_to_json t.experiments));
    ]

let to_string t = J.to_string ~indent:2 (to_json t)

let ( let* ) = Result.bind

let field name conv ctx j =
  match Option.bind (J.member name j) conv with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "%s: missing or ill-typed %S" ctx name)

let point_of_json j =
  let ctx = "point" in
  let* threads = field "threads" J.to_int ctx j in
  let* throughput = field "throughput" J.to_float ctx j in
  let* total_ops = field "total_ops" J.to_int ctx j in
  let* sim_ns = field "sim_ns" J.to_int ctx j in
  let* jain = field "jain" J.to_float ctx j in
  let* stats_j = field "stats" Option.some ctx j in
  let* stats = S.of_json stats_j in
  Ok { threads; throughput; total_ops; sim_ns; jain; stats }

let rec map_result f = function
  | [] -> Ok []
  | x :: rest ->
      let* y = f x in
      let* ys = map_result f rest in
      Ok (y :: ys)

(* [I] vs [F] survives the round-trip because the printer always emits
   a decimal point for [Float] (even integral ones) and the parser
   types numbers by the presence of one. *)
let attr_of_json ~key = function
  | J.Int i -> Ok (I i)
  | J.Float f -> Ok (F f)
  | J.Str s -> Ok (S s)
  | J.Bool b -> Ok (B b)
  | _ -> Error (Printf.sprintf "series meta %S: expected a scalar" key)

let series_meta_of_json j =
  match j with
  | J.Obj kvs ->
      map_result
        (fun (k, v) ->
          let* a = attr_of_json ~key:k v in
          Ok (k, a))
        kvs
  | _ -> Error "series meta: expected an object"

let series_of_json j =
  let ctx = "series" in
  let* lock = field "lock" J.to_str ctx j in
  let* meta =
    match J.member "meta" j with
    | None -> Ok None
    | Some m ->
        let* kvs = series_meta_of_json m in
        Ok (Some kvs)
  in
  let* pts = field "points" J.to_list ctx j in
  let* points = map_result point_of_json pts in
  Ok { lock; meta; points }

let experiment_of_json j =
  let ctx = "experiment" in
  let* exp_id = field "id" J.to_str ctx j in
  let* platform = field "platform" J.to_str ctx j in
  let* workload = field "workload" J.to_str ctx j in
  let* srs = field "series" J.to_list ctx j in
  let* series = map_result series_of_json srs in
  Ok { exp_id; platform; workload; series }

(* Older lock-panel archives carry a top-level [meta] member (the
   executor's wall-clock timing); it is not read, so they still parse. *)
let of_json j =
  let ctx = "report" in
  let* version = field "schema_version" J.to_int ctx j in
  if version < min_schema_version || version > schema_version then
    Error
      (Printf.sprintf "unsupported schema_version %d (expected %d..%d)" version
         min_schema_version schema_version)
  else
    let* quick = field "quick" J.to_bool ctx j in
    let* exps = field "experiments" J.to_list ctx j in
    let* experiments = map_result experiment_of_json exps in
    Ok { version; quick; experiments }

let of_string s =
  let* j = J.of_string s in
  of_json j
