(* verify: the DPOR suite (Clof_verify.Scenarios.suite: base, abort,
   induction, adapt, exhibit and litmus entries under sc/tso/rlx),
   judged by run_suite, plus Differential programs generated from the
   seed as held-out inputs, each explored by DPOR and by the naive
   oracle. Fixed input, one domain; only the checker, Vmem and Vstate
   run — no engine, no real atomics.

   The whole suite explores for ~44 s on a 2-vCPU box, too long for
   one pass. A pass runs, each with its own budget, the 77 entries
   whose exploration is exhaustive within 20 000 executions (~4.7 s),
   so every execution count is that of a complete exploration and a
   DPOR reduction shows in it. *)

module Sc = Clof_verify.Scenarios
module C = Clof_verify.Checker
module D = Clof_verify.Differential

let diff_executions = 2000
let modes = Clof_verify.Vstate.[ Sc; Tso; Relaxed ]

(* The entries left out: three that need more than 20 000 executions
   to finish (122 076, 38 118 and 24 924; 22 s, 2.5 s and 1.6 s), and
   six that their own 20 000-execution budget cuts short (1.6-2.7 s
   each). *)
let too_long =
  [
    "peterson [tso]";
    "base/mcs 3T x2 [rlx]";
    "abort/mcs 3T x2 [rlx]";
    "abort/hmcst<2> 3T d0 [tso]";
    "abort/hmcst<2> 3T dinf [tso]";
    "abort/hmcst<2> 3T d0 [rlx]";
    "abort/hmcst<2> 3T dinf [rlx]";
    "abort-induction/clof<2> mcs 3T [tso]";
    "abort-induction/clof<2> mcs 3T [rlx]";
  ]

let violation_tag = function
  | None -> "none"
  | Some (v, _) -> (
      match v with
      | C.Property _ -> "property"
      | C.Deadlock _ -> "deadlock"
      | C.Runaway _ -> "runaway"
      | C.Crash _ -> "crash")

let setup ~seed ~quick () =
  let suite = Sc.suite ~quick () in
  let name e = e.Sc.e_named.Sc.sname in
  if not quick then
    List.iter
      (fun n ->
        if not (List.exists (fun e -> name e = n) suite) then
          failwith ("verify: no suite entry named " ^ n))
      too_long;
  let entries =
    List.filter
      (fun e ->
        (not (List.mem (name e) too_long))
        && ((not quick) || e.Sc.e_group = Sc.Litmus || e.Sc.e_group = Sc.Induction))
      suite
  in
  let per_mode = if quick then 4 else 16 in
  let programs =
    List.concat
      (List.mapi
         (fun mi mode ->
           List.init per_mode (fun i ->
               let pseed = (((seed * List.length modes) + mi) * per_mode) + i in
               let p = D.generate ~seed:pseed in
               ( Printf.sprintf "Differential.run [%s] %s" (Sc.mode_tag mode)
                   (D.to_string p),
                 mode,
                 p )))
         modes)
  in
  fun () ->
    let t = Meter.tally () in
    let b = Buffer.create (1 lsl 14) in
    let c0 = !Meter.ncalls in
    let outcomes =
      Sc.run_suite ~map:(Meter.calls (fun e -> e.Sc.e_named.Sc.sname)) entries
    in
    (* host time per entry; absent when the entries ran in parallel *)
    let entry_ns = Meter.calls_since c0 in
    let timed =
      if List.length entry_ns = List.length entries then
        List.map2 (fun e ns -> (e.Sc.e_group, ns)) entries entry_ns
      else []
    in
    let verdicts =
      List.combine
        (List.map (fun (label, _, _) -> label) programs)
        (Meter.calls
           (fun (label, _, _) -> label)
           (fun (_, mode, p) -> D.run ~executions:diff_executions ~mode p)
           programs)
    in
    Meter.span Meter.Check "check verify" (fun () ->
        let reports = List.map (fun o -> o.Sc.o_report) outcomes in
        List.iter
          (fun o ->
            let r = o.Sc.o_report in
            Meter.expect t o.Sc.o_ok (fun () ->
                Printf.sprintf "%s: unexpected verdict (%s)" r.C.name
                  (violation_tag r.C.violation));
            Buffer.add_string b
              (Printf.sprintf "%s %d %d %d %d %d %d %b %b %s\n" r.C.name
                 r.C.executions r.C.steps r.C.complete r.C.pruned
                 r.C.sleep_hits r.C.races r.C.truncated r.C.exhaustive
                 (violation_tag r.C.violation)))
          outcomes;
        let count f = List.length (List.filter f verdicts) in
        List.iter
          (fun (label, v) ->
            let tag =
              match v with
              | D.Agree -> "agree"
              | D.Skipped _ -> "skipped"
              | D.Disagree m -> "disagree " ^ m
            in
            Meter.expect t
              (match v with D.Disagree _ -> false | _ -> true)
              (fun () -> label ^ ": " ^ tag);
            Buffer.add_string b (Printf.sprintf "%s %s\n" label tag))
          verdicts;
        let total f = Meter.sum f reports in
        let execs = total (fun r -> r.C.executions) in
        let complete_frac = Meter.ratio (total (fun r -> r.C.complete)) execs in
        let truncated = List.length (List.filter (fun r -> r.C.truncated) reports) in
        let group_s g =
          Meter.seconds_of_ns
            (Meter.sum snd (List.filter (fun (g', _) -> g' = g) timed))
        in
        let groups = Sc.[ Base; Abort; Induction; Adapt; Exhibit; Litmus ] in
        Meter.finish t
          ~steps:(total (fun r -> r.C.steps))
          ~details:
            ([
               Meter.sim "verify.executions" "count" (float_of_int execs);
               Meter.sim "verify.steps" "count" (float_of_int (total (fun r -> r.C.steps)));
               Meter.sim "verify.complete_frac" "fraction" complete_frac;
               Meter.sim "verify.sleep_hits" "count" (float_of_int (total (fun r -> r.C.sleep_hits)));
               Meter.sim "verify.races" "count" (float_of_int (total (fun r -> r.C.races)));
               Meter.sim "verify.truncated" "count" (float_of_int truncated);
               Meter.sim "verify.diff_agree" "count"
                 (float_of_int (count (fun (_, v) -> v = D.Agree)));
               Meter.sim "verify.diff_skipped" "count"
                 (float_of_int (count (fun (_, v) -> match v with D.Skipped _ -> true | _ -> false)));
               Meter.host "verify.max_entry_s" "s"
                 (Meter.seconds_of_ns (List.fold_left (fun a (_, ns) -> max a ns) 0 timed));
             ]
            @ List.map
                (fun g ->
                  Meter.host (Printf.sprintf "verify.group.%s_s" (Sc.group_tag g)) "s" (group_s g))
                groups)
          b)
