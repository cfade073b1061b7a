(* CI gate over two clof_bench JSON reports: join their benchmark
   points by (experiment, lock, threads) and fail when the current
   report shows a throughput regression or a fairness loss against the
   baseline. Exit codes: 0 clean, 1 regression (or nothing comparable),
   2 unreadable/invalid report.

   Which experiments join the comparison comes from the experiment
   registry (Clof_harness.Registry), and every archived experiment is
   rendered by the generic Report.pp — this file knows no experiment
   ids. *)

module Report = Clof_harness.Report
module Registry = Clof_harness.Registry

let load path =
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error msg -> Error msg
  | text -> (
      match Report.of_string text with
      | Ok r -> Ok r
      | Error msg -> Error (Printf.sprintf "%s: %s" path msg))

type keyed = { key : string * string * int; point : Report.point }

let flatten (r : Report.t) =
  List.concat_map
    (fun (e : Report.experiment) ->
      List.concat_map
        (fun (s : Report.series) ->
          List.map
            (fun (p : Report.point) ->
              { key = (e.exp_id, s.lock, p.threads); point = p })
            s.points)
        e.series)
    r.experiments

let pp_key (e, l, t) = Printf.sprintf "%s/%s/%dT" e l t

(* The tolerances per joined point: a throughput drop in percent of the
   baseline, and an absolute drop of the Jain fairness index (which lies
   in [1/n, 1]). *)
let max_drop = 10.0
let max_jain_drop = 0.2

let check baseline current =
  match (load baseline, load current) with
  | Error msg, _ | _, Error msg ->
      prerr_endline ("bench_check: " ^ msg);
      exit 2
  | Ok base, Ok cur ->
      (* every archived experiment, preferring the current report's
         copy: the only view of the ones the join below skips *)
      List.iter
        (fun (label, r) ->
          Printf.printf "bench_check: %s archive:\n%!" label;
          Report.pp Format.std_formatter r)
        (Report.readback ~baseline:base ~current:cur);
      (* the regression join runs only on gated experiments:
         everything else is either bookkeeping in benchmark clothing or
         trajectory data under a gate that already ran at produce time *)
      let base = Registry.gated base and cur = Registry.gated cur in
      let cur_points = flatten cur in
      let find key =
        List.find_opt (fun k -> k.key = key) cur_points
        |> Option.map (fun k -> k.point)
      in
      let compared = ref 0 in
      let missing = ref 0 in
      let violations = ref [] in
      let violate fmt =
        Printf.ksprintf (fun s -> violations := s :: !violations) fmt
      in
      List.iter
        (fun { key; point = b } ->
          match find key with
          | None ->
              incr missing;
              Printf.eprintf "bench_check: warning: %s in baseline only\n"
                (pp_key key)
          | Some c ->
              incr compared;
              if b.Report.throughput > 0.0 then begin
                let drop =
                  100.0
                  *. (b.Report.throughput -. c.Report.throughput)
                  /. b.Report.throughput
                in
                if drop > max_drop then
                  violate
                    "%s: throughput %.4f -> %.4f ops/us (-%.1f%%, limit \
                     %.1f%%)"
                    (pp_key key) b.Report.throughput c.Report.throughput
                    drop max_drop
              end;
              let jain_drop = b.Report.jain -. c.Report.jain in
              if jain_drop > max_jain_drop then
                violate "%s: fairness %.4f -> %.4f (drop %.4f, limit %.4f)"
                  (pp_key key) b.Report.jain c.Report.jain jain_drop
                  max_jain_drop)
        (flatten base);
      if !compared = 0 then
        if flatten base = [] && flatten cur = [] then begin
          (* archives with no gateable experiments (verify-only, kv-only,
             ...): the readbacks printed above are all there is *)
          print_endline "bench_check: OK — no gateable points";
          exit 0
        end
        else begin
          prerr_endline
            "bench_check: no comparable points (different experiments, \
             locks or thread grids?)";
          exit 1
        end;
      List.iter prerr_endline (List.rev !violations);
      if !violations <> [] then begin
        Printf.eprintf "bench_check: %d regression(s) over %d point(s)\n"
          (List.length !violations) !compared;
        exit 1
      end;
      Printf.printf
        "bench_check: OK — %d point(s) within -%.1f%% throughput / %.2f \
         fairness drop%s\n"
        !compared max_drop max_jain_drop
        (if !missing > 0 then
           Printf.sprintf " (%d baseline point(s) unmatched)" !missing
         else "")

open Cmdliner

let baseline =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"BASELINE" ~doc:"Reference report (clof_bench report).")

let current =
  Arg.(
    required
    & pos 1 (some string) None
    & info [] ~docv:"CURRENT" ~doc:"Report under test.")

let main =
  let doc =
    Printf.sprintf
      "Compare two clof_bench JSON reports and fail when a joined point \
       loses more than %.0f%% throughput or %.1f Jain fairness"
      max_drop max_jain_drop
  in
  Cmd.v
    (Cmd.info "bench_check" ~doc ~version:"1.0.0")
    Term.(const check $ baseline $ current)

let () = exit (Cmd.eval main)
