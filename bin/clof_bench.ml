(* Command-line front end: every table, figure and experiment of the
   reproduction is a registry entry (Clof_harness.Registry) that returns
   a report. `clof_bench list` shows the index; `clof_bench <id>` runs
   one entry, renders and archives its report and applies its gate;
   `clof_bench run [ids]` renders and gates without archiving. Both fail
   on the same verdicts. This file holds no per-experiment id lists. *)

module Registry = Clof_harness.Registry
module Report = Clof_harness.Report

let list_experiments () =
  print_endline "experiments (clof_bench <id> [--quick] [--out FILE]):";
  List.iter
    (fun (e : Registry.entry) ->
      Printf.printf "%-16s %s\n" e.Registry.id e.Registry.doc)
    Registry.all

(* [-j 0] (the cmdliner default) means "pick for me": one job per
   recommended domain. Results are identical for every job count — each
   simulation is deterministic and runs wholly on one domain — so -j
   only changes wall-clock. *)
let set_jobs j =
  Clof_exec.Exec.set_jobs
    (if j <= 0 then max 1 (Domain.recommended_domain_count ()) else j)

(* open, write and close can each raise Sys_error (unwritable path,
   full disk, I/O error); all must surface as a one-line failure, not a
   backtrace *)
let write_report out (r : Report.t) =
  let doc = Report.to_string r in
  match
    let oc = open_out out in
    Fun.protect
      ~finally:(fun () -> try close_out oc with Sys_error _ -> ())
      (fun () ->
        output_string oc doc;
        close_out oc)
  with
  | exception Sys_error msg -> Error msg
  | () ->
      Printf.printf "wrote %s (schema v%d)\n" out Report.schema_version;
      Ok ()

(* The one judge every path ends in: render the report, archive it
   when given a file (also on a gate failure, so CI keeps the
   evidence), then apply the entry's gate to that same report and
   print its verdicts. *)
let judge ?out (e : Registry.entry) r =
  Report.pp Format.std_formatter r;
  let archived =
    match out with Some out -> write_report out r | None -> Ok ()
  in
  Result.bind archived (fun () ->
      let gate = e.Registry.gate r in
      Registry.pp_gate Format.std_formatter e.Registry.id gate;
      if gate = [] then Ok ()
      else
        Error
          (Printf.sprintf "%s gate: %d violation(s)" e.Registry.id
             (List.length gate)))

let verdict = function Ok () -> `Ok () | Error msg -> `Error (false, msg)

(* Validate every id up front: a typo at the end of the list must not
   surface only after the experiments before it already ran. Then run
   every id, even past a failure, and fail if any errored or violated
   its gate. *)
let run_ids quick jobs ids =
  let ids =
    if ids <> [] then ids
    else List.map (fun (e : Registry.entry) -> e.Registry.id) Registry.all
  in
  match List.filter (fun id -> Registry.find id = None) ids with
  | _ :: _ as unknown ->
      `Error
        ( false,
          Printf.sprintf "unknown experiment(s): %s (try 'list')"
            (String.concat ", " unknown) )
  | [] -> (
      set_jobs jobs;
      let failed =
        List.filter
          (fun id ->
            let e = Option.get (Registry.find id) in
            match Registry.run e ~quick with
            | Ok r -> Result.is_error (judge e r)
            | Error msg ->
                Format.printf "%s@." msg;
                true)
          ids
      in
      match failed with
      | [] -> `Ok ()
      | _ ->
          `Error
            (false, Printf.sprintf "failed: %s" (String.concat ", " failed)))

let registry_gate (e : Registry.entry) quick jobs out =
  set_jobs jobs;
  verdict (Result.bind (Registry.run e ~quick) (judge ~out e))

open Cmdliner

let quick =
  Arg.(
    value & flag
    & info [ "quick" ]
        ~doc:"Shorter simulations and coarser sampling (smoke mode).")

let jobs_arg =
  Arg.(
    value & opt int 0
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Run simulations on $(docv) domains in parallel. 0 (the \
           default) picks the recommended domain count; 1 is exactly \
           sequential. Benchmark results are identical for every value \
           - only wall-clock changes.")

let ids_arg =
  Arg.(
    value & pos_all string []
    & info [] ~docv:"EXPERIMENT"
        ~doc:
          "Experiment ids to run (see $(b,clof_bench list)); all of them \
           when omitted.")

let run_cmd =
  let doc = "Run experiments and print their reports and gate verdicts" in
  Cmd.v
    (Cmd.info "run" ~doc)
    Term.(ret (const run_ids $ quick $ jobs_arg $ ids_arg))

let list_cmd =
  let doc = "List the available experiments" in
  Cmd.v (Cmd.info "list" ~doc) Term.(const list_experiments $ const ())

let out_arg (e : Registry.entry) =
  Arg.(
    value
    & opt string ("BENCH_" ^ e.Registry.id ^ ".json")
    & info [ "o"; "out" ] ~docv:"FILE" ~doc:"Output report file.")

(* Every subcommand takes the same --quick/-j/--out and comes straight
   off the registry. *)
let registry_cmd (e : Registry.entry) =
  Cmd.v
    (Cmd.info e.Registry.id ~doc:e.Registry.doc)
    Term.(ret (const (registry_gate e) $ quick $ jobs_arg $ out_arg e))

let main =
  let doc =
    "CLoF reproduction: compositional NUMA-aware locks on a simulated \
     multi-level NUMA machine"
  in
  Cmd.group
    ~default:
      Term.(ret (const run_ids $ quick $ jobs_arg $ ids_arg))
    (Cmd.info "clof_bench" ~doc ~version:"1.0.0")
    (run_cmd :: list_cmd :: List.map registry_cmd Registry.all)

let () = exit (Cmd.eval main)
