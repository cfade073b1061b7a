(* The experiment registry: every experiment declares itself here once
   — dispatch name, how to run it and how to gate its report — and
   clof_bench consumes the table instead of keeping its own id lists
   and per-experiment special cases. Rendering needs no entry: reports
   describe themselves (Report.pp). *)

type entry = {
  id : string;
  doc : string;
  run : quick:bool -> (Report.t, string) result;
  gate : Report.t -> string list;
}

let no_gate (_ : Report.t) = []

(* The paper's tables and figures and the lock panel: no gate. Only the
   lock panel's and the scripted sweep's quick archives are pinned by
   committed goldens (test/golden, diffed by `dune runtest`); for every
   other figure CI only checks that its quick archive is the same at
   -j 1 and -j 2. *)
let figure (id, doc, run) =
  { id; doc; run = (fun ~quick -> Ok (run ~quick)); gate = no_gate }

(* Genuine measurements, but of wall clock — a shared CI runner's wall
   clock must never gate, so the samples are archived as a
   trajectory. *)
let real_entry =
  {
    id = "real";
    doc = "uncontended acquire+release ns/op and words/op on real atomics";
    run = (fun ~quick -> Ok (Realbench.run ~quick ()));
    gate = no_gate;
  }

(* The counters are deterministic for fixed budgets (`dune runtest`
   diffs the quick suite's against a golden); the verdicts are gated
   here. *)
let verify_entry =
  {
    id = "verify";
    doc = "model-check the verification suite (DPOR, all memory modes)";
    run = (fun ~quick -> Ok (Verifybench.run ~quick ()));
    gate = Verifybench.gate;
  }

(* Native throughput is wall clock on whatever runner produced it; the
   correlation floor is gated here. *)
let xval_entry =
  {
    id = "xval";
    doc = "sim-vs-native rank correlation on this host";
    run =
      (fun ~quick ->
        match Xval.run ~quick () with
        | exception Clof_workloads.Workload.Lock_failure msg -> Error msg
        | r -> Ok r);
    gate = Xval.gate;
  }

let faults_entry =
  {
    id = "faults";
    doc = "fault-injection matrix with recovery classification";
    run = (fun ~quick -> Ok (Faultbench.run ~quick ()));
    gate = Faultbench.gate;
  }

let adapt_entry =
  {
    id = "adapt";
    doc = "contention-adaptive composition on the phase-shift workload";
    run = (fun ~quick -> Ok (Adaptbench.run ~quick ()));
    gate = Adaptbench.gate;
  }

let kv_entry =
  {
    id = "kv";
    doc = "sharded KV service: open-loop sojourn tails under SLOs";
    run =
      (fun ~quick ->
        match Kvbench.run ~quick () with
        | exception Clof_workloads.Workload.Lock_failure msg ->
            Error ("kv service: " ^ msg)
        | r -> Ok r);
    gate = Kvbench.gate;
  }

let all =
  List.map figure Figures.all
  @ [ real_entry; verify_entry; xval_entry; faults_entry; adapt_entry; kv_entry ]

let find id = List.find_opt (fun e -> e.id = id) all

let pp_gate ppf id = function
  | [] -> Format.fprintf ppf "%s gate: ok@." id
  | errs -> List.iter (Format.fprintf ppf "%s gate: %s@." id) errs
