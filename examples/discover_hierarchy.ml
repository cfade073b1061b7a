(* The full CLoF workflow of Figure 5, end to end:
   1. discover the memory hierarchy with the ping-pong micro-benchmark,
   2. generate all compositions of the basic locks over it,
   3. run the scripted benchmark and report the HC-best / LC-best /
      worst locks under the two selection policies.

       dune exec examples/discover_hierarchy.exe *)

open Clof_topology
module Sel = Clof_core.Selection

let () =
  let platform = Platform.armv8 in
  Printf.printf "platform: %s\n%!" (Topology.name platform.Platform.topo);

  (* step 1: hierarchy discovery *)
  let heatmap =
    Clof_harness.Heatmap.measure ~stride:7 ~platform ()
  in
  List.iter
    (fun (prox, speedup) ->
      Printf.printf "  %-14s speedup %.2f\n"
        (Level.proximity_to_string prox)
        speedup)
    (Clof_harness.Heatmap.speedups heatmap);
  let hierarchy = Clof_harness.Heatmap.infer_hierarchy heatmap in
  Printf.printf "inferred hierarchy: %s\n%!"
    (Topology.hierarchy_to_string hierarchy);

  (* steps 2-3: generate 4^4 = 256 locks and benchmark them all *)
  let sweep =
    Clof_harness.Scripted.run ~platform
      ~depth:(List.length hierarchy)
      ~threadcounts:[ 1; 8; 32; 127 ] ()
  in
  Printf.printf "benchmarked %d generated locks\n"
    (List.length sweep.Clof_harness.Scripted.series);
  let show label s =
    let s = Clof_harness.Scripted.selection s in
    Printf.printf "  %-8s %-18s (HC score %.3f, LC score %.3f)\n" label
      s.Sel.lock
      (Sel.score Sel.High_contention s.Sel.points)
      (Sel.score Sel.Low_contention s.Sel.points)
  in
  show "HC-best" (Clof_harness.Scripted.hc_best sweep);
  show "LC-best" (Clof_harness.Scripted.lc_best sweep);
  show "worst" (Clof_harness.Scripted.worst sweep);
  show "hmcs" sweep.Clof_harness.Scripted.hmcs
