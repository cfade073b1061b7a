(* The experiment registry: every experiment declares itself here once
   — dispatch name, how to run it and how to gate its report — and
   clof_bench consumes the table instead of keeping its own id lists
   and per-experiment special cases. An entry's [run] returns a
   Report.t, the schema every archive shares; most simulated points in
   it come from the one sweep driver, Scripted.sweep. Rendering needs
   no entry: reports describe themselves (Report.pp). A lock that
   fails while any entry runs is reported in one place, [run]. *)

type entry = {
  id : string;
  doc : string;
  run : quick:bool -> Report.t;
  gate : Report.t -> string list;
}

let no_gate (_ : Report.t) = []

(* The paper's tables and figures and the lock panel come first, with
   no gate. Only the lock panel's, the scripted sweep's and fig3's quick
   archives are pinned by committed goldens (test/golden, diffed by
   `dune runtest`); for every other figure CI only checks that its
   quick archive is the same at -j 1 and -j 2. Then the CI experiments:
   - real: genuine measurements, but of wall clock; a shared CI
     runner's wall clock must never gate, so the samples are archived
     as a trajectory.
   - verify: the counters are deterministic for fixed budgets (`dune
     runtest` diffs the quick suite's against a golden); the verdicts
     are gated.
   - xval: native throughput is wall clock on whatever runner produced
     it; only the correlation floor is gated. *)
let all =
  List.map (fun (id, doc, run) -> { id; doc; run; gate = no_gate }) Figures.all
  @ List.map
      (fun (id, doc, run, gate) -> { id; doc; run; gate })
      [
        ( "real",
          "uncontended acquire+release ns/op and words/op on real atomics",
          Realbench.run,
          no_gate );
        ( "verify",
          "model-check the verification suite (DPOR, all memory modes)",
          Verifybench.run,
          Verifybench.gate );
        ( "xval",
          "sim-vs-native rank correlation on this host",
          Xval.run,
          Xval.gate );
        ( "faults",
          "fault-injection matrix with recovery classification",
          Faultbench.run,
          Faultbench.gate );
        ( "adapt",
          "contention-adaptive composition on the phase-shift workload",
          Adaptbench.run,
          Adaptbench.gate );
        ( "kv",
          "sharded KV service: open-loop sojourn tails under SLOs",
          Kvbench.run,
          Kvbench.gate );
      ]

let find id = List.find_opt (fun e -> e.id = id) all

let run e ~quick =
  match e.run ~quick with
  | r -> Ok r
  | exception Clof_workloads.Workload.Lock_failure msg ->
      Error (Printf.sprintf "%s: %s" e.id msg)

let pp_gate ppf id = function
  | [] -> Format.fprintf ppf "%s gate: ok@." id
  | errs -> List.iter (Format.fprintf ppf "%s gate: %s@." id) errs
