(* The experiment registry: every report-producing experiment declares
   itself here once — dispatch name, archived experiment ids, join
   policy, how to run it and how to gate its report — and clof_bench
   and bench_check both consume the table instead of keeping their own
   id lists and per-experiment special cases. Rendering needs no entry:
   archives describe themselves (Report.pp). *)

type entry = {
  id : string;
  doc : string;
  exp_ids : string list;
  gated : bool;
  default_out : string;
  run : quick:bool -> (Report.t, string) result;
  gate : Report.t -> string list;
}

let no_gate (_ : Report.t) = []

(* The gated lock panel: its points are the regression join. *)
let report_entry =
  {
    id = "report";
    doc =
      "representative lock panel: throughput, fairness and per-level \
       counters per (lock, threads) point";
    exp_ids = List.map fst Report.ids;
    gated = true;
    default_out = "bench_report.json";
    run = (fun ~quick -> Report.run ~quick (List.map fst Report.ids));
    gate = no_gate;
  }

(* Genuine measurements, but of the engine's wall clock — a shared CI
   runner's wall clock must never gate, so the samples are archived as
   a trajectory. *)
let sim_entry =
  {
    id = "sim";
    doc = "engine events/us + words/event, uncontended real-atomics ns/op";
    exp_ids = [ Simbench.exp_id ];
    gated = false;
    default_out = "BENCH_sim.json";
    run = (fun ~quick -> Ok (Simbench.run ~quick ()));
    gate = no_gate;
  }

(* Checker counters depend on schedule budgets and wall clock; the
   verdicts are gated here. *)
let verify_entry =
  {
    id = "verify";
    doc = "model-check the verification suite (DPOR, all memory modes)";
    exp_ids = [ Verifybench.exp_id ];
    gated = false;
    default_out = "BENCH_verify.json";
    run = (fun ~quick -> Ok (Verifybench.run ~quick ()));
    gate = Verifybench.gate;
  }

(* Native throughput is wall clock on whatever runner produced it; the
   correlation floor is gated here. *)
let xval_entry =
  {
    id = "xval";
    doc = "sim-vs-native rank correlation on this host";
    exp_ids = [ Xval.exp_id ];
    gated = false;
    default_out = "BENCH_native.json";
    run =
      (fun ~quick ->
        match Xval.run ~quick () with
        | exception Clof_native.Native.Lock_failure msg ->
            Error ("native backend: " ^ msg)
        | exception Clof_workloads.Workload.Lock_failure msg ->
            Error ("simulated backend: " ^ msg)
        | r -> Ok r);
    gate = Xval.gate;
  }

(* Recovery classes are pass/fail trajectory data under the gate that
   runs here. *)
let faults_entry =
  {
    id = "faults";
    doc = "fault-injection matrix with recovery classification";
    exp_ids = [ Faultbench.exp_id ];
    gated = false;
    default_out = "BENCH_faults.json";
    run = (fun ~quick -> Ok (Faultbench.run ~quick ()));
    gate = Faultbench.gate;
  }

(* The two low phases share a thread count, so the points cannot join
   the (lock, threads) regression key. *)
let adapt_entry =
  {
    id = "adapt";
    doc = "contention-adaptive composition on the phase-shift workload";
    exp_ids = [ Adaptbench.exp_id ];
    gated = false;
    default_out = "BENCH_adaptive.json";
    run = (fun ~quick -> Ok (Adaptbench.run ~quick ()));
    gate = Adaptbench.gate;
  }

(* Every phase runs at the same worker count, so the points cannot join
   the (lock, threads) regression key. *)
let kv_entry =
  {
    id = "kv";
    doc = "sharded KV service: open-loop sojourn tails under SLOs";
    exp_ids = [ Kvbench.exp_id ];
    gated = false;
    default_out = "BENCH_kv.json";
    run =
      (fun ~quick ->
        match Kvbench.run ~quick () with
        | exception Clof_workloads.Workload.Lock_failure msg ->
            Error ("kv service: " ^ msg)
        | r -> Ok r);
    gate = Kvbench.gate;
  }

let all =
  [
    report_entry; sim_entry; verify_entry; xval_entry; faults_entry;
    adapt_entry; kv_entry;
  ]

let find id = List.find_opt (fun e -> e.id = id) all

let is_gated exp_id =
  match List.find_opt (fun e -> List.mem exp_id e.exp_ids) all with
  | Some e -> e.gated
  | None -> true

let gated (r : Report.t) =
  {
    r with
    Report.experiments =
      List.filter
        (fun (e : Report.experiment) -> is_gated e.Report.exp_id)
        r.Report.experiments;
  }

let pp_gate ppf id = function
  | [] -> Format.fprintf ppf "%s gate: ok@." id
  | errs -> List.iter (Format.fprintf ppf "%s gate: %s@." id) errs
