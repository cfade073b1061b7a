module S = Clof_stats.Stats
module J = Clof_stats.Json

(* v2 added the optional typed [meta] field on series. *)
let schema_version = 2

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
