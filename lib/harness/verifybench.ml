(* The verify experiment as a first-class benchmark: run the whole
   Scenarios.suite through the parallel executor and ship the
   exploration statistics through the Report schema as
   BENCH_verify.json.

   Each scenario becomes one series named "<group>/<scenario>" with no
   points: the checker's counters travel in the series' typed [meta]
   block (schema v2) — executions, steps,
   pruned/sleep_blocked/sleep/races/complete, the ok / exhaustive /
   truncated verdicts and the kind of any violation found. No wall
   clock: the counters are deterministic for fixed budgets, so the
   archive is byte-identical for every job count and CI diffs it
   against a committed golden (checker speed is clof_perf verify's
   layer).

   The gate reads the "ok" verdicts back from the report: CI fails on
   any scenario whose verdict does not match its expectation (a clean
   pass for ordinary scenarios, a found violation for the seeded
   exhibits), never on the statistics. *)

module S = Clof_verify.Scenarios
module C = Clof_verify.Checker

let exp_id = "verify"

let series_of ~lock ~ok (r : C.report) =
  {
    Report.lock;
    meta =
      Some
        ([
           ("executions", Report.I r.C.executions);
           ("steps", Report.I r.C.steps);
           ("ok", Report.B ok);
           ("pruned", Report.I r.C.pruned);
           ("sleep_blocked", Report.I r.C.sleep_blocked);
           ("sleep", Report.I r.C.sleep_hits);
           ("races", Report.I r.C.races);
           ("complete", Report.I r.C.complete);
           ("exhaustive", Report.B r.C.exhaustive);
           ("truncated", Report.B r.C.truncated);
         ]
        @ Option.fold ~none:[]
            ~some:(fun (v, _) ->
              [ ("violation", Report.S (C.violation_to_string v)) ])
            r.C.violation);
    points = [];
  }

let run ~quick =
  let outcomes = S.run_suite ~map:Clof_exec.Exec.map (S.suite ~quick ()) in
  (* scenario names are unique and already carry their group
     ("base/tkt ...", "induction/clof<2> ..."); exhibits are the only
     group with bare names *)
  let lock (o : S.outcome) =
    let name = o.S.o_entry.S.e_named.S.sname in
    if String.contains name '/' then name
    else S.group_tag o.S.o_entry.S.e_group ^ "/" ^ name
  in
  Report.single ~quick ~exp_id ~platform:"model" ~workload:"checker/dpor"
    (List.map
       (fun o -> series_of ~lock:(lock o) ~ok:o.S.o_ok o.S.o_report)
       outcomes)

let gate r =
  List.filter_map
    (fun (s : Report.series) ->
      if Report.lookup s "ok" = Some (Report.B true) then None
      else Some s.Report.lock)
    (Report.all_series r)
