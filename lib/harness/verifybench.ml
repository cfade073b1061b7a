(* The verify experiment as a first-class benchmark: run the whole
   Scenarios.suite through the parallel executor and ship the
   exploration statistics through the Report schema as
   BENCH_verify.json.

   Each scenario becomes one series named "<group>/<scenario>" with no
   points: the checker's counters travel in the series' typed [meta]
   block (schema v2) — executions, steps, executions-per-wall-second,
   pruned/sleep_blocked/sleep/races/complete, seconds, the ok / exhaustive /
   truncated verdicts and the kind of any violation found.

   The gate reads the "ok" verdicts back from the report: CI fails on
   any scenario whose verdict does not match its expectation (a clean
   pass for ordinary scenarios, a found violation for the seeded
   exhibits), never on the statistics. *)

module S = Clof_verify.Scenarios
module C = Clof_verify.Checker

let strategy_name = function C.Naive -> "naive" | C.Dpor -> "dpor"

let exp_id = "verify"

let series_of (o : S.outcome) =
  let r = o.S.o_report in
  let per_s = float_of_int r.C.executions /. Float.max r.C.seconds 1e-9 in
  {
    (* scenario names are unique and already carry their group
       ("base/tkt ...", "induction/clof<2> ..."); exhibits are the only
       group with bare names *)
    Report.lock =
      (let name = o.S.o_entry.S.e_named.S.sname in
       if String.contains name '/' then name
       else S.group_tag o.S.o_entry.S.e_group ^ "/" ^ name);
    meta =
      Some
        ([
           ("executions", Report.I r.C.executions);
           ("steps", Report.I r.C.steps);
           ("per_s", Report.F per_s);
           ("ok", Report.B o.S.o_ok);
           ("pruned", Report.I r.C.pruned);
           ("sleep_blocked", Report.I r.C.sleep_blocked);
           ("sleep", Report.I r.C.sleep_hits);
           ("races", Report.I r.C.races);
           ("complete", Report.I r.C.complete);
           ("exhaustive", Report.B r.C.exhaustive);
           ("truncated", Report.B r.C.truncated);
           ("seconds", Report.F r.C.seconds);
         ]
        @ Option.fold ~none:[]
            ~some:(fun (v, _) ->
              [ ("violation", Report.S (C.violation_to_string v)) ])
            r.C.violation);
    points = [];
  }

let run ?(quick = false) ?strategy ?mode () =
  let entries = S.suite ~quick ?strategy () in
  let entries =
    match mode with
    | None -> entries
    | Some m ->
        List.filter
          (fun e -> C.Config.mode e.S.e_named.S.config = m)
          entries
  in
  let outcomes = S.run_suite ~map:Clof_exec.Exec.map entries in
  let workload =
    match outcomes with
    | o :: _ -> "checker/" ^ strategy_name o.S.o_report.C.strategy
    | [] -> "checker"
  in
  Report.single ~quick ~exp_id ~platform:"model" ~workload
    (List.map series_of outcomes)

let gate r =
  List.filter_map
    (fun (s : Report.series) ->
      if Report.lookup s "ok" = Some (Report.B true) then None
      else Some s.Report.lock)
    (Report.all_series r)
