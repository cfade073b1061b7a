(* Command-line front end: every table, figure and experiment of the
   reproduction is a registry entry (Clof_harness.Registry) that returns
   a report. `clof_bench list` shows the index; `clof_bench <id>` runs
   one entry, renders and archives its report and applies its gate;
   `clof_bench run [ids]` renders and gates without archiving. This file
   holds no per-experiment id lists. *)

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

(* Validate every id up front: a typo at the end of the list must not
   surface only after the experiments before it already ran. *)
let run_ids quick jobs list ids =
  let ids =
    if ids <> [] then ids
    else List.map (fun (e : Registry.entry) -> e.Registry.id) Registry.all
  in
  if list then `Ok (list_experiments ())
  else
    match List.filter (fun id -> Registry.find id = None) ids with
    | _ :: _ as unknown ->
        `Error
          ( false,
            Printf.sprintf "unknown experiment(s): %s (try 'list')"
              (String.concat ", " unknown) )
    | [] ->
        set_jobs jobs;
        List.iter
          (fun id ->
            let e = Option.get (Registry.find id) in
            match e.Registry.run ~quick with
            | Ok r ->
                Report.pp Format.std_formatter r;
                Registry.pp_gate Format.std_formatter id (e.Registry.gate r)
            | Error msg -> Format.printf "%s: %s@." id msg)
          ids;
        `Ok ()

(* Every experiment subcommand ends here: render the report,
   archive it (also on a gate failure, so CI keeps the evidence), then
   apply the entry's gate to that same report, print and fail on its
   verdicts. *)
let emit (e : Registry.entry) out r =
  Report.pp Format.std_formatter r;
  match write_report out r with
  | Error msg -> `Error (false, msg)
  | Ok () -> (
      let gate = e.Registry.gate r in
      Registry.pp_gate Format.std_formatter e.Registry.id gate;
      match gate with
      | [] -> `Ok ()
      | errs ->
          `Error
            ( false,
              Printf.sprintf "%s gate: %d violation(s)" e.Registry.id
                (List.length errs) ))

let registry_gate (e : Registry.entry) quick jobs out =
  set_jobs jobs;
  match e.Registry.run ~quick with
  | Error msg -> `Error (false, msg)
  | Ok r -> emit e out r

(* One-command repro of a CI differential failure: the seed fully
   determines the random program, so `clof_bench verify --seed N
   --memmode tso` replays exactly the DPOR-vs-oracle comparison that
   failed. *)
let verify_seed memmode seed =
  let module D = Clof_verify.Differential in
  let modes =
    match memmode with
    | Some m -> [ m ]
    | None ->
        [ Clof_verify.Vstate.Sc; Clof_verify.Vstate.Tso;
          Clof_verify.Vstate.Relaxed ]
  in
  let prog = D.generate ~seed in
  Printf.printf "seed %d: %s\n" seed (D.to_string prog);
  let bad =
    List.filter_map
      (fun mode ->
        let tag = Clof_verify.Scenarios.mode_tag mode in
        match D.run ~mode prog with
        | D.Agree ->
            Printf.printf "  [%s] dpor = naive\n" tag;
            None
        | D.Skipped why ->
            Printf.printf "  [%s] skipped: %s\n" tag why;
            None
        | D.Disagree why ->
            Printf.printf "  [%s] DISAGREE: %s\n" tag why;
            Some tag)
      modes
  in
  if bad = [] then `Ok ()
  else
    `Error
      ( false,
        Printf.sprintf "differential seed %d: strategies disagree under %s"
          seed
          (String.concat ", " bad) )

let verify_suite e quick naive memmode out =
  let strategy =
    if naive then Some Clof_verify.Checker.Naive else None
  in
  emit e out (Clof_harness.Verifybench.run ~quick ?strategy ?mode:memmode ())

let verify e quick jobs naive memmode seed out =
  set_jobs jobs;
  match seed with
  | Some seed -> verify_seed memmode seed
  | None -> verify_suite e quick naive memmode out

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

let list_flag =
  Arg.(
    value & flag
    & info [ "list" ]
        ~doc:"List the available experiments and exit (same as $(b,list)).")

let run_cmd =
  let doc = "Run experiments and print their reports and gate verdicts" in
  Cmd.v
    (Cmd.info "run" ~doc)
    Term.(ret (const run_ids $ quick $ jobs_arg $ list_flag $ ids_arg))

let list_cmd =
  let doc = "List the available experiments" in
  Cmd.v (Cmd.info "list" ~doc) Term.(const list_experiments $ const ())

let out_arg (e : Registry.entry) =
  Arg.(
    value
    & opt string ("BENCH_" ^ e.Registry.id ^ ".json")
    & info [ "o"; "out" ] ~docv:"FILE" ~doc:"Output report file.")

(* Subcommands with no knobs beyond --quick/-j/--out come straight off
   the registry; verify adds bespoke flags below but shares the
   default artifact name and the emit helper. *)
let registry_cmd (e : Registry.entry) =
  Cmd.v
    (Cmd.info e.Registry.id ~doc:e.Registry.doc)
    Term.(ret (const (registry_gate e) $ quick $ jobs_arg $ out_arg e))

let verify_cmd =
  let e = Option.get (Registry.find "verify") in
  let doc =
    "Model-check the whole verification suite (base steps, abortable \
     steps, induction steps, the A4 exhibits, and the weak-memory \
     litmus battery, under SC, TSO, and relaxed store buffers) and \
     write the exploration statistics as a JSON report. Fails when any \
     scenario's verdict does not match its expectation (the CI \
     verification gate); the statistics themselves never gate. With \
     $(b,--seed), instead replay one DPOR-vs-oracle differential on the \
     random program that seed denotes — the one-command repro for a CI \
     differential failure."
  in
  let naive =
    Arg.(
      value & flag
      & info [ "naive" ]
          ~doc:
            "Explore with the exhaustive DFS oracle instead of DPOR \
             (slow; for differential runs).")
  in
  let memmode =
    Arg.(
      value
      & opt
          (some
             (enum
                [
                  ("sc", Clof_verify.Vstate.Sc);
                  ("tso", Clof_verify.Vstate.Tso);
                  ("rlx", Clof_verify.Vstate.Relaxed);
                ]))
          None
      & info [ "memmode" ] ~docv:"MODE"
          ~doc:
            "Restrict to one memory mode (sc, tso, rlx): only that \
             mode's suite entries, or with $(b,--seed) only that \
             mode's differential. Default: all three.")
  in
  let seed =
    Arg.(
      value
      & opt (some int) None
      & info [ "seed" ] ~docv:"N"
          ~doc:
            "Run the randomized DPOR-vs-naive differential on the \
             program generated by seed $(docv) instead of the suite. \
             Exits nonzero if the strategies disagree.")
  in
  Cmd.v
    (Cmd.info e.Registry.id ~doc)
    Term.(
      ret
        (const (verify e) $ quick $ jobs_arg $ naive $ memmode $ seed
       $ out_arg e))

let main =
  let doc =
    "CLoF reproduction: compositional NUMA-aware locks on a simulated \
     multi-level NUMA machine"
  in
  let generic =
    List.filter_map
      (fun (e : Registry.entry) ->
        if e.Registry.id = "verify" then None else Some (registry_cmd e))
      Registry.all
  in
  Cmd.group
    ~default:
      Term.(ret (const run_ids $ quick $ jobs_arg $ list_flag $ ids_arg))
    (Cmd.info "clof_bench" ~doc ~version:"1.0.0")
    ([ run_cmd; list_cmd; verify_cmd ] @ generic)

let () = exit (Cmd.eval main)
