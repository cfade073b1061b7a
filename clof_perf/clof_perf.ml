(* clof_perf: the repo's performance benchmark.

     clof_perf --workload W --seed N [--seconds S] [--trace 0|1]
               [--quick] [--out FILE.json] [--trace-file FILE.json]
     clof_perf compare A.json B.json [--bounds BENCHMARK.json]
     clof_perf selfcheck

   A run prints every metric as "name value unit clock", then, as its
   last line, a one-line JSON summary; it exits non-zero when any
   output was wrong. See README.md in this directory. *)

let usage () =
  prerr_string
    "usage: clof_perf --workload W --seed N [--seconds S] [--trace 0|1] [--quick]\n\
    \                 [--out FILE.json] [--trace-file FILE.json]\n\
    \       clof_perf compare A.json B.json [--bounds BENCHMARK.json]\n\
    \       clof_perf selfcheck\n";
  exit 2

let die fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline ("clof_perf: " ^ s);
      exit 2)
    fmt

let int_arg k v =
  match int_of_string_opt v with Some n when n >= 0 -> n | _ -> die "%s: not a count: %s" k v

let write_file file text =
  try Out_channel.with_open_bin file (fun oc -> Out_channel.output_string oc text)
  with Sys_error e -> die "%s" e

let trace_dir = "_clof_perf"

let run_cmd args =
  let rec parse acc = function
    | ("--workload" | "--seed" | "--seconds" | "--trace" | "--out" | "--trace-file") as k
      :: v :: tl ->
        parse ((k, v) :: acc) tl
    | "--quick" :: tl -> parse (("--quick", "") :: acc) tl
    | _ :: _ -> usage ()
    | [] -> acc
  in
  let opts = parse [] args in
  let get k = List.assoc_opt k opts in
  let name = match get "--workload" with Some w -> w | None -> usage () in
  let w =
    match Runner.find name with
    | Some w -> w
    | None ->
        die "unknown workload %s (one of: %s)" name
          (String.concat ", " (List.map (fun w -> w.Runner.name) Runner.workloads))
  in
  let seed = match get "--seed" with Some v -> int_arg "--seed" v | None -> 0 in
  let seconds = match get "--seconds" with Some v -> int_arg "--seconds" v | None -> 20 in
  let trace =
    match get "--trace" with
    | None | Some "0" -> false
    | Some "1" -> true
    | Some v -> die "--trace takes 0 or 1, not %s" v
  in
  let quick = get "--quick" <> None in
  let r = Runner.run w ~seed ~seconds ~trace ~quick in
  Runner.print_result Format.std_formatter w r;
  List.iteri
    (fun i m -> if i < 20 then prerr_endline ("clof_perf: FAILED " ^ m))
    r.Runner.failures;
  if trace then begin
    let file =
      match get "--trace-file" with
      | Some f -> f
      | None ->
          if not (Sys.file_exists trace_dir) then Sys.mkdir trace_dir 0o755;
          Filename.concat trace_dir (Printf.sprintf "trace-%s-%d.json" name seed)
    in
    write_file file (Clof_stats.Json.to_string (Meter.chrome_trace ()));
    Format.printf "# trace written to %s@." file
  end;
  Option.iter
    (fun file ->
      write_file file (Clof_stats.Json.to_string ~indent:1 (Runner.result_json r)))
    (get "--out");
  Format.print_flush ();
  print_endline (Clof_stats.Json.to_string (Runner.summary_json r));
  exit (if Runner.correct r then 0 else 1)

let compare_cmd = function
  | [ a; b ] -> (a, b, "BENCHMARK.json")
  | [ a; b; "--bounds"; bounds ] -> (a, b, bounds)
  | _ -> usage ()

(* The in-process smoke check: every workload at --quick size, twice
   with seed 0 (once traced) and once with seed 1. Each must be
   correct, print every declared metric exactly once with its unit,
   reproduce its sim_digest for the same seed and change it for another
   seed (proof that the seed reaches the inputs). *)
let selfcheck () =
  let t0 = Meter.now () in
  let problems = ref [] in
  let bad fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  (match Compare.load "BENCHMARK.json" with
  | exception Compare.Bad _ -> print_endline "selfcheck: no BENCHMARK.json here, skipping its check"
  | j ->
      let declared k =
        List.map
          (fun m ->
            let field f = Option.value (Compare.str f m) ~default:"" in
            (field "name", field "unit", field "better"))
          (Compare.items k j)
      in
      if declared "end_to_end" <> Runner.end_to_end then
        bad "BENCHMARK.json end_to_end differs from the metrics the runs print";
      if declared "per_layer" <> Runner.per_layer then
        bad "BENCHMARK.json per_layer differs from the metrics the traced runs print";
      if
        List.map (fun (name, _, _) -> name) (declared "workloads")
        <> List.map (fun w -> w.Runner.name) Runner.workloads
      then bad "BENCHMARK.json workloads differ from the workloads the tool runs");
  List.iter
    (fun (w : Runner.workload) ->
      let t1 = Meter.now () in
      let run ~seed ~trace = Runner.run w ~seed ~seconds:0 ~trace ~quick:true in
      let a = run ~seed:0 ~trace:false in
      let a' = run ~seed:0 ~trace:true in
      let other = run ~seed:1 ~trace:false in
      List.iter
        (fun (r : Runner.result) ->
          if not (Runner.correct r) then
            bad "%s seed %d: %d of %d failed (%s)" w.name r.seed r.failed r.attempted
              (String.concat "; " r.failures))
        [ a; a'; other ];
      let printed_once r metrics =
        let buf = Buffer.create 4096 in
        let ppf = Format.formatter_of_buffer buf in
        Runner.print_result ppf w r;
        Format.pp_print_flush ppf ();
        let lines = String.split_on_char '\n' (Buffer.contents buf) in
        List.iter
          (fun (name, unit_, _) ->
            match List.filter (String.starts_with ~prefix:(name ^ " ")) lines with
            | [ l ] ->
                if not (List.mem unit_ (String.split_on_char ' ' l)) then
                  bad "%s: %s printed without its unit %s" w.name name unit_
            | l -> bad "%s: %s printed %d times" w.name name (List.length l))
          metrics
      in
      printed_once a Runner.end_to_end;
      printed_once a' Runner.per_layer;
      List.iter
        (fun (name, _, s) ->
          if not (s.Runner.value > 0.0) then bad "%s: %s is not positive" w.name name)
        a.Runner.e2e;
      if a.Runner.digest <> a'.Runner.digest then
        bad "%s: sim_digest differs between two runs of seed 0" w.name;
      if a.Runner.digest = other.Runner.digest then
        bad "%s: seeds 0 and 1 give the same sim_digest" w.name;
      Printf.printf "selfcheck %s: %d + %d + %d ops checked, digest %s, %.1f s\n%!" w.name
        a.Runner.attempted a'.Runner.attempted other.Runner.attempted a.Runner.digest
        (Meter.seconds_of_ns (Meter.now () - t1)))
    Runner.workloads;
  List.iter (fun p -> print_endline ("selfcheck: FAILED " ^ p)) (List.rev !problems);
  Printf.printf "selfcheck: %s in %.1f s\n"
    (if !problems = [] then "ok" else "FAILED")
    (Meter.seconds_of_ns (Meter.now () - t0));
  exit (if !problems = [] then 0 else 1)

let () =
  match List.tl (Array.to_list Sys.argv) with
  | "compare" :: rest -> (
      let a, b, bounds_file = compare_cmd rest in
      match Compare.run ~bounds_file a b with
      | code -> exit code
      | exception Compare.Bad e -> die "%s" e)
  | [ "selfcheck" ] -> selfcheck ()
  | [] | ("-h" | "--help" | "help") :: _ -> usage ()
  | rest -> run_cmd rest
