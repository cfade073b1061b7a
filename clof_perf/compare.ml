(* clof_perf compare A.json B.json: B against A, metric by metric.

   End-to-end host metrics may worsen by at most the share bound that
   BENCHMARK.json declares for them. Simulated metrics and counts are
   deterministic in the seed, so they must match exactly, and so must
   the sim_digest; any difference is a regression. Host details are
   printed with their delta and never gate: each workload's headline
   host detail restates its pass time, which pass_s already gates.
   Exit 0 when nothing regressed, 1 on a regression, 2 on unusable
   input. *)

module Json = Clof_stats.Json

exception Bad of string

let load file =
  let text =
    try In_channel.with_open_bin file In_channel.input_all
    with Sys_error e -> raise (Bad e)
  in
  match Json.of_string text with
  | Ok j -> j
  | Error e -> raise (Bad (file ^ ": " ^ e))

let str k j = Option.bind (Json.member k j) Json.to_str
let num k j = Option.bind (Json.member k j) Json.to_float
let items k j = Option.value (Option.bind (Json.member k j) Json.to_list) ~default:[]
let named name l = List.find_opt (fun m -> str "name" m = Some name) l

(* Direction and share bound of each end-to-end metric. *)
let bounds file =
  List.filter_map
    (fun m ->
      match (str "name" m, str "better" m, num "bound" m) with
      | Some n, Some better, Some bound -> Some (n, (better, bound))
      | _ -> None)
    (items "end_to_end" (load file))

let show = function
  | Some v -> Printf.sprintf "%.6g" v
  | None -> "-"

let run ~bounds_file a_file b_file =
  let bounds = bounds bounds_file in
  let a = load a_file and b = load b_file in
  List.iter
    (fun k ->
      if Json.member k a <> Json.member k b then
        raise (Bad (Printf.sprintf "%s differs: the two runs measured different inputs" k)))
    [ "workload"; "seed"; "quick" ];
  let regressions = ref 0 in
  let row name clock va vb delta bound verdict =
    if verdict <> "ok" && verdict <> "same" && verdict <> "info" then incr regressions;
    Printf.printf "%-36s %-5s %13s %13s %9s %8s  %s\n" name clock (show va) (show vb) delta
      bound verdict
  in
  Printf.printf "clof_perf compare: %s (A) -> %s (B), workload %s seed %s\n" a_file b_file
    (Option.value (str "workload" a) ~default:"?")
    (show (num "seed" a));
  Printf.printf "%-36s %-5s %13s %13s %9s %8s  %s\n" "metric" "clock" "A" "B" "delta" "bound"
    "verdict";
  List.iter
    (fun ma ->
      let name = Option.value (str "name" ma) ~default:"?" in
      let va = num "value" ma in
      let vb = Option.bind (named name (items "end_to_end" b)) (num "value") in
      match (va, vb, List.assoc_opt name bounds) with
      | Some va, Some vb, Some (better, bound) ->
          let worse = if better = "lower" then (vb -. va) /. va else (va -. vb) /. va in
          row name "host" (Some va) (Some vb)
            (Printf.sprintf "%+.1f%%" (100.0 *. (vb -. va) /. va))
            (Printf.sprintf "%.0f%%" (100.0 *. bound))
            (if worse > bound then "REGRESSED" else "ok")
      | _, None, _ -> row name "host" va None "" "" "MISSING in B"
      | _ -> row name "host" va vb "" "" "no bound in BENCHMARK.json")
    (items "end_to_end" a);
  List.iter
    (fun da ->
      let name = Option.value (str "name" da) ~default:"?" in
      let clock = Option.value (str "clock" da) ~default:"?" in
      match named name (items "details" b) with
      | None -> row name clock (num "value" da) None "" "" "MISSING in B"
      | Some db ->
          let va = num "value" da and vb = num "value" db in
          if clock = "sim" then
            row name clock va vb "" "exact"
              (if Json.member "value" da = Json.member "value" db then "same" else "CHANGED")
          else
            let delta =
              match (va, vb) with
              | Some x, Some y when x <> 0.0 -> Printf.sprintf "%+.1f%%" (100.0 *. (y -. x) /. x)
              | _ -> ""
            in
            row name clock va vb delta "" "info")
    (items "details" a);
  let da = str "sim_digest" a and db = str "sim_digest" b in
  Printf.printf "sim_digest %s %s  %s\n"
    (Option.value da ~default:"-")
    (Option.value db ~default:"-")
    (if da = db then "same" else "CHANGED");
  if da <> db then incr regressions;
  List.iter
    (fun (label, j) ->
      if Json.member "correct" j <> Some (Json.Bool true) then begin
        Printf.printf "%s: outputs were not correct\n" label;
        incr regressions
      end)
    [ ("A", a); ("B", b) ];
  Printf.printf "%s\n"
    (if !regressions = 0 then "compare: no regression"
     else Printf.sprintf "compare: %d regression(s)" !regressions);
  if !regressions = 0 then 0 else 1
