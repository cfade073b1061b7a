module C = Clof_verify.Checker
module V = Clof_verify.Vmem
module S = Clof_verify.Scenarios
module Vstate = Clof_verify.Vstate

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let qcheck = QCheck_alcotest.to_alcotest

(* The registry's [tas] configuration, as a module the scenarios below
   call directly *)
module Tas =
  Clof_locks.Tas.Make
    (V)
    (struct
      let name = "tas"
      let test = false
      let max_delay = 1
    end)

let has_violation r = Option.is_some r.C.violation

let violation_kind r =
  match r.C.violation with
  | Some (C.Property _, _) -> "property"
  | Some (C.Deadlock _, _) -> "deadlock"
  | Some (C.Runaway _, _) -> "runaway"
  | Some (C.Crash _, _) -> "crash"
  | None -> "none"

(* A suite entry by name, with its suite bounds, explored under
   [strategy]. *)
let entry ?(strategy = C.Dpor) name =
  match List.find_opt (fun e -> e.S.e_named.S.sname = name) (S.suite ()) with
  | Some { S.e_named = n; _ } ->
      { n with S.config = { n.S.config with strategy } }
  | None -> Alcotest.failf "no suite entry %s" name

(* A counterexample byte for byte: the violation message and the
   first [lines] trace lines (all by default). Operation descriptions
   are assembled only when printed, so this guards the rendering, not
   only the verdict. *)
let check_counterexample ?lines name r (message, trace) =
  match r.C.violation with
  | None -> Alcotest.failf "%s: no violation" name
  | Some (v, got) ->
      let got =
        match lines with
        | None -> got
        | Some n -> List.filteri (fun i _ -> i < n) got
      in
      Alcotest.(check string) (name ^ ": message") message
        (C.violation_to_string v);
      Alcotest.(check (list string)) (name ^ ": trace") trace got

(* ---------- the checker finds seeded bugs ---------- *)

let test_finds_broken_lock () =
  (* a "lock" that never excludes anyone *)
  let scenario () =
    let data = V.make ~name:"data" 0 in
    List.init 2 (fun _ () ->
        C.cs_enter ();
        let v = V.load data in
        V.store data (v + 1);
        C.cs_exit ())
  in
  List.iter
    (fun strategy ->
      let r =
        C.check ~config:{ C.default with strategy } ~name:"no-lock"
          scenario
      in
      Alcotest.(check string)
        "mutex violated" "property" (violation_kind r))
    [ C.Naive; C.Dpor ]

let test_finds_deadlock () =
  (* classic ABBA with two TAS locks *)
  let scenario () =
    let a = Tas.create () and b = Tas.create () in
    let t first second () =
      Tas.acquire first ();
      Tas.acquire second ();
      Tas.release second ();
      Tas.release first ()
    in
    [ t a b; t b a ]
  in
  List.iter
    (fun strategy ->
      let r =
        C.check ~config:{ C.default with strategy } ~name:"abba"
          scenario
      in
      check_bool "found something" true (has_violation r);
      (* blocked cas loops show up as deadlock (all awaits disabled) or
         as runaway spinning, depending on the lock's wait primitive *)
      check_bool "deadlock or runaway" true
        (violation_kind r = "deadlock" || violation_kind r = "runaway");
      (* the head of the DPOR counterexample: a verb without an object
         ("pause") renders bare *)
      if strategy = C.Dpor then
        check_counterexample ~lines:8 "abba" r
          ( "deadlock: threads keep spinning but nothing is ever written — \
             a spinloop no schedule can release",
            [
              "t0: start";
              "t0: cas tas.flag";
              "t1: start";
              "t1: cas tas.flag";
              "t1: cas tas.flag";
              "t0: cas tas.flag";
              "t0: pause";
              "t0: cas tas.flag";
            ] ))
    [ C.Naive; C.Dpor ]

let test_finds_lost_wakeup () =
  (* waiting for a flag nobody sets *)
  let scenario () =
    let flag = V.make ~name:"flag" false in
    [ (fun () -> ignore (V.await flag (fun b -> b))) ]
  in
  let r = C.check ~name:"lost-wakeup" scenario in
  Alcotest.(check string) "deadlock" "deadlock" (violation_kind r);
  check_counterexample "lost-wakeup" r
    ("deadlock: t0 blocked at 'await flag'", [ "t0: start" ])

let test_finds_assertion () =
  let scenario () =
    [ (fun () -> raise (Vstate.Prop_violation "boom")) ]
  in
  let r = C.check ~name:"assert" scenario in
  Alcotest.(check string) "property" "property" (violation_kind r)

(* A holder that never releases: the blocked waiter must surface as a
   deadlock/runaway verdict under DPOR too (the abort-path deadlock
   shape: a grant that never arrives). *)
let test_dpor_finds_abandoned_holder () =
  let scenario () =
    let l = Tas.create () in
    [
      (fun () -> Tas.acquire l ());
      (fun () ->
        Tas.acquire l ();
        Tas.release l ());
    ]
  in
  List.iter
    (fun strategy ->
      let r =
        C.check
          ~config:{ C.default with strategy; max_steps = 200 }
          ~name:"abandoned" scenario
      in
      check_bool "found" true
        (violation_kind r = "deadlock" || violation_kind r = "runaway"))
    [ C.Naive; C.Dpor ]

(* ---------- store-buffer litmus (TSO vs SC) ---------- *)

let sb_litmus outcomes () =
  let x = V.make ~name:"x" 0 and y = V.make ~name:"y" 0 in
  let r0 = ref (-1) and r1 = ref (-1) in
  let done0 = ref false and done1 = ref false in
  let record () =
    if !done0 && !done1 then outcomes := (!r0, !r1) :: !outcomes
  in
  [
    (fun () ->
      V.store ~o:Clof_atomics.Memory_order.Release x 1;
      r0 := V.load y;
      done0 := true;
      record ());
    (fun () ->
      V.store ~o:Clof_atomics.Memory_order.Release y 1;
      r1 := V.load x;
      done1 := true;
      record ());
  ]

let test_sb_reachable_under_tso () =
  List.iter
    (fun strategy ->
      let outcomes = ref [] in
      let cfg =
        {
          C.default with
          mode = Vstate.Tso;
          strategy;
          delays = 4;
          max_executions = 5_000;
        }
      in
      let r = C.check ~config:cfg ~name:"sb-tso" (sb_litmus outcomes) in
      check_bool "no violation" false (has_violation r);
      check_bool "r0=r1=0 reachable under TSO" true
        (List.mem (0, 0) !outcomes))
    [ C.Naive; C.Dpor ]

let test_sb_unreachable_under_sc () =
  List.iter
    (fun strategy ->
      let outcomes = ref [] in
      let cfg =
        { C.default with strategy; preemptions = -1; max_executions = 50_000 }
      in
      let r = C.check ~config:cfg ~name:"sb-sc" (sb_litmus outcomes) in
      check_bool "exhausted" false r.C.truncated;
      check_bool "no violation" false (has_violation r);
      check_bool "r0=r1=0 NOT reachable under SC" false
        (List.mem (0, 0) !outcomes))
    [ C.Naive; C.Dpor ]

let mp_litmus outcomes () =
  (* message passing: under TSO (FIFO store buffers) the reader cannot
     see the flag without the data *)
  let data = V.make ~name:"data" 0 and flag = V.make ~name:"flag" 0 in
  [
    (fun () ->
      V.store ~o:Clof_atomics.Memory_order.Relaxed data 42;
      V.store ~o:Clof_atomics.Memory_order.Release flag 1);
    (fun () ->
      let f = V.load flag in
      let d = V.load data in
      outcomes := (f, d) :: !outcomes);
  ]

let test_mp_forbidden_under_tso () =
  List.iter
    (fun strategy ->
      let outcomes = ref [] in
      let cfg =
        {
          C.default with
          mode = Vstate.Tso;
          strategy;
          preemptions = -1;
          delays = -1;
          max_executions = 30_000;
        }
      in
      let r = C.check ~config:cfg ~name:"mp-tso" (mp_litmus outcomes) in
      check_bool "no violation" false (has_violation r);
      check_bool "saw the message" true (List.mem (1, 42) !outcomes);
      check_bool "flag never outruns data (FIFO buffers)" false
        (List.mem (1, 0) !outcomes))
    [ C.Naive; C.Dpor ]

(* The flush-lane regression: MP with a spinning reader under Relaxed.
   When every per-location flush of a thread shared one buffer-proc
   clock, a false happens-before ran from the data flush through the
   flag flush into the woken reader, so DPOR never scheduled the
   stale-read reversal — it reported a clean exhaustive exploration
   while the naive oracle found the weak outcome. Both strategies must
   find the violation, and in the same reachability verdict the litmus
   battery encodes. *)
let test_mp_await_flush_lanes () =
  List.iter
    (fun strategy ->
      let r = S.run (entry ~strategy "litmus/MP+await(rlx) [rlx]") in
      check_bool
        (Printf.sprintf "weak outcome found (%s)"
           (match strategy with C.Naive -> "naive" | C.Dpor -> "dpor"))
        true (has_violation r);
      (* the protected variant must stay clean and fully explored *)
      let r = S.run (entry ~strategy "litmus/MP+await(rel) [rlx]") in
      check_bool "release flag safe" false (has_violation r);
      check_bool "release flag exhaustive" true r.C.exhaustive)
    [ C.Naive; C.Dpor ]

(* ---------- differential: DPOR vs naive DFS ---------- *)

(* Random straight-line programs over a few shared refs
   ({!Clof_verify.Differential}). No cs_enter/cs_exit here: the monitor
   counter is deliberately invisible to dependence tracking (DESIGN.md),
   so naked monitor calls without a bracketing data race are exactly
   the shape DPOR is allowed to collapse. What must agree between the
   strategies is everything observable: the verdict and the set of
   reachable observation vectors.

   The tests run the documented fixed-seed battery — deterministic, so
   a failure prints its seed and program, and
   [dune exec test/test_verify.exe -- test differential] reruns just
   this group. The open-ended randomized
   hunt stays a local tool: set CLOF_DIFF_RANDOM=<count> to append
   qcheck sweeps with fresh seeds (these flake by design — any failure
   donates its seed to the fixed list). *)
module D = Clof_verify.Differential

let check_seed mode seed =
  match D.run_seed ~mode seed with
  | D.Agree -> ()
  | D.Skipped why ->
      (* fixed seeds are curated to fit the budget; a skip means the
         battery silently stopped testing this seed *)
      Alcotest.failf "seed %d [%s] skipped: %s" seed (S.mode_tag mode) why
  | D.Disagree why ->
      Alcotest.failf "seed %d [%s]: %s\n  prog: %s" seed (S.mode_tag mode)
        why
        (D.to_string (D.generate ~seed))

let test_differential_fixed mode () =
  List.iter (check_seed mode) (D.fixed_seeds mode)

(* The minimized witness of the backtrack-set completeness bug: the
   race reversal whose first step is a third thread's independent event
   (a source-set initial), lost by the proc(e_j)-only backtrack rule.
   Deterministic and permanent; see Differential.regression. *)
let test_differential_regression () =
  List.iter
    (fun mode ->
      match D.run ~mode D.regression with
      | D.Agree -> ()
      | D.Skipped why -> Alcotest.failf "regression skipped: %s" why
      | D.Disagree why ->
          Alcotest.failf "backtrack-set regression [%s]: %s"
            (S.mode_tag mode) why)
    [ Vstate.Sc; Vstate.Tso; Vstate.Relaxed ]

let random_differential_tests =
  match
    Option.bind (Sys.getenv_opt "CLOF_DIFF_RANDOM") int_of_string_opt
  with
  | None | Some 0 -> []
  | Some count ->
      let prog_arb =
        QCheck.make ~print:D.to_string
          QCheck.Gen.(int_bound max_int >>= fun s -> return (D.generate ~seed:s))
      in
      List.map
        (fun mode ->
          qcheck
            (QCheck.Test.make
               ~name:
                 (Printf.sprintf "dpor = naive on random programs (%s)"
                    (S.mode_tag mode))
               ~count prog_arb
               (fun prog ->
                 match D.run ~mode prog with
                 | D.Agree | D.Skipped _ -> true
                 | D.Disagree why -> QCheck.Test.fail_report why)))
        [ Vstate.Sc; Vstate.Tso; Vstate.Relaxed ]

(* ---------- paper scenarios ---------- *)

let test_base_steps_sc () =
  List.iter
    (fun lock ->
      match S.base_step ~threads:2 ~iters:2 lock with
      | None -> Alcotest.fail ("unknown lock " ^ lock)
      | Some s ->
          let r = S.run (S.in_mode s Vstate.Sc) in
          check_bool (lock ^ " sc clean") false (has_violation r))
    [ "tkt"; "mcs"; "clh"; "hem"; "tas"; "ttas"; "bo" ]

let test_base_steps_tso () =
  List.iter
    (fun lock ->
      match S.base_step ~threads:2 ~iters:1 lock with
      | None -> Alcotest.fail ("unknown lock " ^ lock)
      | Some s ->
          let r = S.run (S.in_mode s Vstate.Tso) in
          check_bool (lock ^ " tso clean") false (has_violation r))
    [ "tkt"; "mcs"; "clh"; "hem" ]

(* Abort safety (ISSUE): a waiter may time out between enqueue and
   handover; mutual exclusion must hold and no grant may be lost, under
   SC and under TSO store buffers. *)
let test_abort_steps () =
  List.iter
    (fun mode ->
      List.iter
        (fun lock ->
          match S.abort_step ~threads:2 ~iters:2 lock with
          | None -> Alcotest.fail ("unknown lock " ^ lock)
          | Some s ->
              let n = S.in_mode s mode in
              let r = S.run n in
              check_bool (n.S.sname ^ " clean") false (has_violation r))
        [ "mcs"; "clh"; "tkt" ])
    [ Vstate.Sc; Vstate.Tso ]

let test_abort_induction () =
  List.iter
    (fun mode ->
      let n = S.in_mode (S.abort_induction ~threads:2 ()) mode in
      let r = S.run n in
      check_bool (n.S.sname ^ " clean") false (has_violation r))
    [ Vstate.Sc; Vstate.Tso ]

let test_induction_step () =
  List.iter
    (fun tag ->
      let n = entry ("induction/clof<2> tkt 3T [" ^ tag ^ "]") in
      let r = S.run n in
      check_bool (n.S.sname ^ " clean") false (has_violation r);
      check_bool
        (Printf.sprintf "%s exhaustive (%d executions)" n.S.sname
           r.C.executions)
        true r.C.exhaustive)
    [ "sc"; "tso"; "rlx" ]

(* Acceptance (ISSUE 5): on the depth-2 induction step DPOR must agree
   with the oracle while exploring at least 5x fewer schedules, and the
   depth-3 step must complete non-truncated within the default
   budget. *)
let test_dpor_speedup_depth2 () =
  let run strategy = S.run (entry ~strategy "induction/clof<2> tkt 3T [sc]") in
  let rn = run C.Naive and rd = run C.Dpor in
  Alcotest.(check string)
    "same verdict" (violation_kind rn) (violation_kind rd);
  check_bool
    (Printf.sprintf "dpor >= 5x fewer executions (naive %d, dpor %d)"
       rn.C.executions rd.C.executions)
    true
    (rn.C.executions >= 5 * rd.C.executions)

let test_dpor_depth3_completes () =
  let r = S.run (entry "induction/clof<3> tkt 3T [sc]") in
  check_bool "clean" false (has_violation r);
  check_bool
    (Printf.sprintf "exhaustive (%d executions)" r.C.executions)
    true r.C.exhaustive

let test_peterson_exhibit () =
  let good = S.run (entry "peterson [tso]") in
  check_bool "fenced peterson survives TSO" false (has_violation good);
  let bad = S.run (entry "peterson-nofence [tso]") in
  Alcotest.(check string)
    "unfenced peterson broken under TSO" "property" (violation_kind bad);
  let sc = S.run (entry "peterson-nofence [sc]") in
  check_bool "unfenced peterson fine under SC" false (has_violation sc)

(* The exhibit must also fail under the oracle: if the two strategies
   ever disagree here, one of them is broken. *)
let test_peterson_exhibit_naive () =
  let bad = S.run (entry ~strategy:C.Naive "peterson-nofence [tso]") in
  Alcotest.(check string)
    "unfenced peterson broken under TSO (naive)" "property"
    (violation_kind bad)

let test_unknown_lock () =
  check_bool "unknown" true (S.base_step "bogus" = None)

let test_scaling_grows () =
  let results = S.scaling ~max_depth:2 () in
  check_int "two depths" 2 (List.length results);
  let execs d = (List.assoc d results).C.executions in
  check_bool "deeper explores more" true (execs 2 > execs 1);
  List.iter
    (fun (_, r) -> check_bool "clean" false (has_violation r))
    results

(* ---------- the suite ---------- *)

let test_suite_covers_registry () =
  let entries = S.suite () in
  let base_names =
    List.filter_map
      (fun e ->
        if e.S.e_group = S.Base then Some e.S.e_named.S.sname else None)
      entries
  in
  (* every registered lock appears under both SC and TSO *)
  List.iter
    (fun lock ->
      List.iter
        (fun tag ->
          let prefix = Printf.sprintf "base/%s " lock in
          let suffix = Printf.sprintf "[%s]" tag in
          let np = String.length prefix and ns = String.length suffix in
          check_bool
            (Printf.sprintf "%s under %s" lock tag)
            true
            (List.exists
               (fun n ->
                 String.length n >= np + ns
                 && String.sub n 0 np = prefix
                 && String.sub n (String.length n - ns) ns = suffix)
               base_names))
        [ "sc"; "tso" ])
    [ "tkt"; "mcs"; "clh"; "hem"; "tas"; "ttas"; "bo" ];
  (* quick drops the three depth-3 induction entries (one per mode)
     but nothing else *)
  check_int "quick suite is three entries shorter"
    (List.length entries - 3)
    (List.length (S.suite ~quick:true ()))

let test_run_suite_judges () =
  (* a tiny suite slice: one clean scenario, one exhibit *)
  let entries =
    List.filter
      (fun e ->
        e.S.e_named.S.sname = "peterson-nofence [tso]"
        || e.S.e_named.S.sname = "base/tkt 3T x2 [sc]")
      (S.suite ())
  in
  check_int "found both" 2 (List.length entries);
  let outcomes = S.run_suite entries in
  List.iter
    (fun o -> check_bool (o.S.o_entry.S.e_named.S.sname ^ " ok") true o.S.o_ok)
    outcomes

(* The suite as data, one line per entry: name, group, mode, bounds,
   strategy, execution and step budgets, expected verdict. The pinned
   listing covers the full and the quick suite, so a change to which
   entries run, in what order or under what budget fails here. *)
let listing entries =
  List.map
    (fun e ->
      let n = e.S.e_named in
      let c = n.S.config in
      Printf.sprintf "%s | %s | %s | p%d d%d | %s | x%d s%d | %b" n.S.sname
        (S.group_tag e.S.e_group)
        (S.mode_tag c.C.mode) c.C.preemptions c.C.delays
        (match c.C.strategy with C.Naive -> "naive" | C.Dpor -> "dpor")
        c.C.max_executions c.C.max_steps
        n.S.expect_violation)
    entries

(* Update only together with a deliberate change to the suite. *)
let pinned_listing =
  [
    "# full";
    "base/tkt 3T x2 [sc] | base | sc | p2 d2 | dpor | x20000 s5000 | false";
    "base/mcs 3T x2 [sc] | base | sc | p2 d2 | dpor | x20000 s5000 | false";
    "base/clh 3T x2 [sc] | base | sc | p2 d2 | dpor | x20000 s5000 | false";
    "base/hem 3T x2 [sc] | base | sc | p2 d2 | dpor | x20000 s1500 | false";
    "base/tas 3T x2 [sc] | base | sc | p2 d2 | dpor | x20000 s1500 | false";
    "base/ttas 3T x2 [sc] | base | sc | p2 d2 | dpor | x20000 s1500 | false";
    "base/bo 3T x2 [sc] | base | sc | p2 d2 | dpor | x20000 s1500 | false";
    "base/tkt 3T x2 [tso] | base | tso | p2 d2 | dpor | x20000 s5000 | false";
    "base/mcs 3T x2 [tso] | base | tso | p2 d2 | dpor | x50000 s5000 | false";
    "base/clh 3T x2 [tso] | base | tso | p2 d2 | dpor | x20000 s5000 | false";
    "base/hem 3T x2 [tso] | base | tso | p2 d2 | dpor | x20000 s1500 | false";
    "base/tas 3T x2 [tso] | base | tso | p2 d2 | dpor | x20000 s1500 | false";
    "base/ttas 3T x2 [tso] | base | tso | p2 d2 | dpor | x20000 s1500 | false";
    "base/bo 3T x2 [tso] | base | tso | p2 d2 | dpor | x20000 s1500 | false";
    "base/tkt 3T x2 [rlx] | base | rlx | p2 d2 | dpor | x20000 s5000 | false";
    "base/mcs 3T x2 [rlx] | base | rlx | p2 d2 | dpor | x50000 s5000 | false";
    "base/clh 3T x2 [rlx] | base | rlx | p2 d2 | dpor | x20000 s5000 | false";
    "base/hem 3T x2 [rlx] | base | rlx | p2 d2 | dpor | x20000 s1500 | false";
    "base/tas 3T x2 [rlx] | base | rlx | p2 d2 | dpor | x20000 s1500 | false";
    "base/ttas 3T x2 [rlx] | base | rlx | p2 d2 | dpor | x20000 s1500 | false";
    "base/bo 3T x2 [rlx] | base | rlx | p2 d2 | dpor | x20000 s1500 | false";
    "abort/mcs 3T x2 [sc] | abort | sc | p2 d2 | dpor | x20000 s5000 | false";
    "abort/clh 3T x2 [sc] | abort | sc | p2 d2 | dpor | x20000 s5000 | false";
    "abort/tkt 3T x2 [sc] | abort | sc | p2 d2 | dpor | x20000 s5000 | false";
    "abort/mcs 3T x2 [tso] | abort | tso | p2 d2 | dpor | x50000 s5000 | false";
    "abort/clh 3T x2 [tso] | abort | tso | p2 d2 | dpor | x20000 s5000 | false";
    "abort/tkt 3T x2 [tso] | abort | tso | p2 d2 | dpor | x20000 s5000 | false";
    "abort/mcs 3T x2 [rlx] | abort | rlx | p2 d2 | dpor | x50000 s5000 | false";
    "abort/clh 3T x2 [rlx] | abort | rlx | p2 d2 | dpor | x20000 s5000 | false";
    "abort/tkt 3T x2 [rlx] | abort | rlx | p2 d2 | dpor | x20000 s5000 | false";
    "abort/hmcst<2> 3T d0 [sc] | abort | sc | p2 d2 | dpor | x20000 s5000 | false";
    "abort/hmcst<2> 3T dinf [sc] | abort | sc | p2 d2 | dpor | x20000 s5000 | false";
    "abort/hmcst<2> 3T d0 [tso] | abort | tso | p2 d2 | dpor | x20000 s5000 | false";
    "abort/hmcst<2> 3T dinf [tso] | abort | tso | p2 d2 | dpor | x20000 s5000 | false";
    "abort/hmcst<2> 3T d0 [rlx] | abort | rlx | p2 d2 | dpor | x20000 s5000 | false";
    "abort/hmcst<2> 3T dinf [rlx] | abort | rlx | p2 d2 | dpor | x20000 s5000 | false";
    "induction/clof<2> tkt 3T [sc] | induction | sc | p2 d2 | dpor | x20000 s5000 | false";
    "induction/clof<2> tkt 3T [tso] | induction | tso | p2 d2 | dpor | x20000 s5000 | false";
    "induction/clof<2> tkt 3T [rlx] | induction | rlx | p2 d2 | dpor | x20000 s5000 | false";
    "induction/kv-stripes 2x tkt 3T [sc] | induction | sc | p2 d2 | dpor | x20000 s5000 | false";
    "induction/kv-stripes 2x tkt 3T [tso] | induction | tso | p2 d2 | dpor | x20000 s5000 | false";
    "induction/kv-stripes 2x tkt 3T [rlx] | induction | rlx | p2 d2 | dpor | x20000 s5000 | false";
    "induction/clof<3> tkt 3T [sc] | induction | sc | p2 d2 | dpor | x20000 s5000 | false";
    "induction/clof<3> tkt 3T [tso] | induction | tso | p2 d2 | dpor | x20000 s5000 | false";
    "induction/clof<3> tkt 3T [rlx] | induction | rlx | p2 d2 | dpor | x20000 s5000 | false";
    "abort-induction/clof<2> mcs 3T [sc] | induction | sc | p2 d2 | dpor | x20000 s5000 | false";
    "abort-induction/clof<2> mcs 3T [tso] | induction | tso | p2 d2 | dpor | x20000 s5000 | false";
    "abort-induction/clof<2> mcs 3T [rlx] | induction | rlx | p2 d2 | dpor | x20000 s5000 | false";
    "adapt/switch-load ad-tkt 3T [sc] | adapt | sc | p2 d2 | dpor | x20000 s5000 | false";
    "adapt/switch-parked ad-clof<2> 3T [sc] | adapt | sc | p2 d2 | dpor | x20000 s5000 | false";
    "adapt/switch-abort ad-clof<2> mcs 3T [sc] | adapt | sc | p2 d2 | dpor | x20000 s5000 | false";
    "adapt/switch-load ad-tkt 3T [tso] | adapt | tso | p2 d2 | dpor | x20000 s5000 | false";
    "adapt/switch-parked ad-clof<2> 3T [tso] | adapt | tso | p2 d2 | dpor | x20000 s5000 | false";
    "adapt/switch-abort ad-clof<2> mcs 3T [tso] | adapt | tso | p2 d2 | dpor | x20000 s5000 | false";
    "adapt/switch-load ad-tkt 3T [rlx] | adapt | rlx | p2 d2 | dpor | x20000 s5000 | false";
    "adapt/switch-parked ad-clof<2> 3T [rlx] | adapt | rlx | p2 d2 | dpor | x20000 s5000 | false";
    "adapt/switch-abort ad-clof<2> mcs 3T [rlx] | adapt | rlx | p2 d2 | dpor | x20000 s5000 | false";
    "peterson [sc] | exhibit | sc | p2 d2 | dpor | x100000 s5000 | false";
    "peterson [tso] | exhibit | tso | p2 d4 | dpor | x200000 s5000 | false";
    "peterson-nofence [sc] | exhibit | sc | p2 d2 | dpor | x100000 s5000 | false";
    "peterson-nofence [tso] | exhibit | tso | p2 d4 | dpor | x200000 s5000 | true";
    "peterson-nofence [rlx] | exhibit | rlx | p2 d4 | dpor | x200000 s5000 | true";
    "litmus/SB [sc] | litmus | sc | p-1 d-1 | dpor | x200000 s5000 | false";
    "litmus/MP(rlx) [sc] | litmus | sc | p-1 d-1 | dpor | x200000 s5000 | false";
    "litmus/MP(rel) [sc] | litmus | sc | p-1 d-1 | dpor | x200000 s5000 | false";
    "litmus/MP(fence) [sc] | litmus | sc | p-1 d-1 | dpor | x200000 s5000 | false";
    "litmus/MP+await(rlx) [sc] | litmus | sc | p-1 d-1 | dpor | x200000 s5000 | false";
    "litmus/MP+await(rel) [sc] | litmus | sc | p-1 d-1 | dpor | x200000 s5000 | false";
    "litmus/LB [sc] | litmus | sc | p-1 d-1 | dpor | x200000 s5000 | false";
    "litmus/CoRR [sc] | litmus | sc | p-1 d-1 | dpor | x200000 s5000 | false";
    "litmus/SB [tso] | litmus | tso | p-1 d-1 | dpor | x200000 s5000 | true";
    "litmus/MP(rlx) [tso] | litmus | tso | p-1 d-1 | dpor | x200000 s5000 | false";
    "litmus/MP(rel) [tso] | litmus | tso | p-1 d-1 | dpor | x200000 s5000 | false";
    "litmus/MP(fence) [tso] | litmus | tso | p-1 d-1 | dpor | x200000 s5000 | false";
    "litmus/MP+await(rlx) [tso] | litmus | tso | p-1 d-1 | dpor | x200000 s5000 | false";
    "litmus/MP+await(rel) [tso] | litmus | tso | p-1 d-1 | dpor | x200000 s5000 | false";
    "litmus/LB [tso] | litmus | tso | p-1 d-1 | dpor | x200000 s5000 | false";
    "litmus/CoRR [tso] | litmus | tso | p-1 d-1 | dpor | x200000 s5000 | false";
    "litmus/SB [rlx] | litmus | rlx | p-1 d-1 | dpor | x200000 s5000 | true";
    "litmus/MP(rlx) [rlx] | litmus | rlx | p-1 d-1 | dpor | x200000 s5000 | true";
    "litmus/MP(rel) [rlx] | litmus | rlx | p-1 d-1 | dpor | x200000 s5000 | false";
    "litmus/MP(fence) [rlx] | litmus | rlx | p-1 d-1 | dpor | x200000 s5000 | false";
    "litmus/MP+await(rlx) [rlx] | litmus | rlx | p-1 d-1 | dpor | x200000 s5000 | true";
    "litmus/MP+await(rel) [rlx] | litmus | rlx | p-1 d-1 | dpor | x200000 s5000 | false";
    "litmus/LB [rlx] | litmus | rlx | p-1 d-1 | dpor | x200000 s5000 | false";
    "litmus/CoRR [rlx] | litmus | rlx | p-1 d-1 | dpor | x200000 s5000 | false";
    "# quick";
    "base/tkt 3T x2 [sc] | base | sc | p2 d2 | dpor | x20000 s5000 | false";
    "base/mcs 3T x2 [sc] | base | sc | p2 d2 | dpor | x20000 s5000 | false";
    "base/clh 3T x2 [sc] | base | sc | p2 d2 | dpor | x20000 s5000 | false";
    "base/hem 3T x2 [sc] | base | sc | p2 d2 | dpor | x20000 s1500 | false";
    "base/tas 3T x2 [sc] | base | sc | p2 d2 | dpor | x20000 s1500 | false";
    "base/ttas 3T x2 [sc] | base | sc | p2 d2 | dpor | x20000 s1500 | false";
    "base/bo 3T x2 [sc] | base | sc | p2 d2 | dpor | x20000 s1500 | false";
    "base/tkt 3T x2 [tso] | base | tso | p2 d2 | dpor | x20000 s5000 | false";
    "base/mcs 3T x2 [tso] | base | tso | p2 d2 | dpor | x50000 s5000 | false";
    "base/clh 3T x2 [tso] | base | tso | p2 d2 | dpor | x20000 s5000 | false";
    "base/hem 3T x2 [tso] | base | tso | p2 d2 | dpor | x20000 s1500 | false";
    "base/tas 3T x2 [tso] | base | tso | p2 d2 | dpor | x20000 s1500 | false";
    "base/ttas 3T x2 [tso] | base | tso | p2 d2 | dpor | x20000 s1500 | false";
    "base/bo 3T x2 [tso] | base | tso | p2 d2 | dpor | x20000 s1500 | false";
    "base/tkt 3T x2 [rlx] | base | rlx | p2 d2 | dpor | x20000 s5000 | false";
    "base/mcs 3T x2 [rlx] | base | rlx | p2 d2 | dpor | x50000 s5000 | false";
    "base/clh 3T x2 [rlx] | base | rlx | p2 d2 | dpor | x20000 s5000 | false";
    "base/hem 3T x2 [rlx] | base | rlx | p2 d2 | dpor | x20000 s1500 | false";
    "base/tas 3T x2 [rlx] | base | rlx | p2 d2 | dpor | x20000 s1500 | false";
    "base/ttas 3T x2 [rlx] | base | rlx | p2 d2 | dpor | x20000 s1500 | false";
    "base/bo 3T x2 [rlx] | base | rlx | p2 d2 | dpor | x20000 s1500 | false";
    "abort/mcs 3T x2 [sc] | abort | sc | p2 d2 | dpor | x20000 s5000 | false";
    "abort/clh 3T x2 [sc] | abort | sc | p2 d2 | dpor | x20000 s5000 | false";
    "abort/tkt 3T x2 [sc] | abort | sc | p2 d2 | dpor | x20000 s5000 | false";
    "abort/mcs 3T x2 [tso] | abort | tso | p2 d2 | dpor | x50000 s5000 | false";
    "abort/clh 3T x2 [tso] | abort | tso | p2 d2 | dpor | x20000 s5000 | false";
    "abort/tkt 3T x2 [tso] | abort | tso | p2 d2 | dpor | x20000 s5000 | false";
    "abort/mcs 3T x2 [rlx] | abort | rlx | p2 d2 | dpor | x50000 s5000 | false";
    "abort/clh 3T x2 [rlx] | abort | rlx | p2 d2 | dpor | x20000 s5000 | false";
    "abort/tkt 3T x2 [rlx] | abort | rlx | p2 d2 | dpor | x20000 s5000 | false";
    "abort/hmcst<2> 3T d0 [sc] | abort | sc | p2 d2 | dpor | x20000 s5000 | false";
    "abort/hmcst<2> 3T dinf [sc] | abort | sc | p2 d2 | dpor | x20000 s5000 | false";
    "abort/hmcst<2> 3T d0 [tso] | abort | tso | p2 d2 | dpor | x20000 s5000 | false";
    "abort/hmcst<2> 3T dinf [tso] | abort | tso | p2 d2 | dpor | x20000 s5000 | false";
    "abort/hmcst<2> 3T d0 [rlx] | abort | rlx | p2 d2 | dpor | x20000 s5000 | false";
    "abort/hmcst<2> 3T dinf [rlx] | abort | rlx | p2 d2 | dpor | x20000 s5000 | false";
    "induction/clof<2> tkt 3T [sc] | induction | sc | p2 d2 | dpor | x20000 s5000 | false";
    "induction/clof<2> tkt 3T [tso] | induction | tso | p2 d2 | dpor | x20000 s5000 | false";
    "induction/clof<2> tkt 3T [rlx] | induction | rlx | p2 d2 | dpor | x20000 s5000 | false";
    "induction/kv-stripes 2x tkt 3T [sc] | induction | sc | p2 d2 | dpor | x20000 s5000 | false";
    "induction/kv-stripes 2x tkt 3T [tso] | induction | tso | p2 d2 | dpor | x20000 s5000 | false";
    "induction/kv-stripes 2x tkt 3T [rlx] | induction | rlx | p2 d2 | dpor | x20000 s5000 | false";
    "abort-induction/clof<2> mcs 3T [sc] | induction | sc | p2 d2 | dpor | x20000 s5000 | false";
    "abort-induction/clof<2> mcs 3T [tso] | induction | tso | p2 d2 | dpor | x20000 s5000 | false";
    "abort-induction/clof<2> mcs 3T [rlx] | induction | rlx | p2 d2 | dpor | x20000 s5000 | false";
    "adapt/switch-load ad-tkt 3T [sc] | adapt | sc | p2 d2 | dpor | x20000 s5000 | false";
    "adapt/switch-parked ad-clof<2> 3T [sc] | adapt | sc | p2 d2 | dpor | x20000 s5000 | false";
    "adapt/switch-abort ad-clof<2> mcs 3T [sc] | adapt | sc | p2 d2 | dpor | x20000 s5000 | false";
    "adapt/switch-load ad-tkt 3T [tso] | adapt | tso | p2 d2 | dpor | x20000 s5000 | false";
    "adapt/switch-parked ad-clof<2> 3T [tso] | adapt | tso | p2 d2 | dpor | x20000 s5000 | false";
    "adapt/switch-abort ad-clof<2> mcs 3T [tso] | adapt | tso | p2 d2 | dpor | x20000 s5000 | false";
    "adapt/switch-load ad-tkt 3T [rlx] | adapt | rlx | p2 d2 | dpor | x20000 s5000 | false";
    "adapt/switch-parked ad-clof<2> 3T [rlx] | adapt | rlx | p2 d2 | dpor | x20000 s5000 | false";
    "adapt/switch-abort ad-clof<2> mcs 3T [rlx] | adapt | rlx | p2 d2 | dpor | x20000 s5000 | false";
    "peterson [sc] | exhibit | sc | p2 d2 | dpor | x100000 s5000 | false";
    "peterson [tso] | exhibit | tso | p2 d4 | dpor | x200000 s5000 | false";
    "peterson-nofence [sc] | exhibit | sc | p2 d2 | dpor | x100000 s5000 | false";
    "peterson-nofence [tso] | exhibit | tso | p2 d4 | dpor | x200000 s5000 | true";
    "peterson-nofence [rlx] | exhibit | rlx | p2 d4 | dpor | x200000 s5000 | true";
    "litmus/SB [sc] | litmus | sc | p-1 d-1 | dpor | x200000 s5000 | false";
    "litmus/MP(rlx) [sc] | litmus | sc | p-1 d-1 | dpor | x200000 s5000 | false";
    "litmus/MP(rel) [sc] | litmus | sc | p-1 d-1 | dpor | x200000 s5000 | false";
    "litmus/MP(fence) [sc] | litmus | sc | p-1 d-1 | dpor | x200000 s5000 | false";
    "litmus/MP+await(rlx) [sc] | litmus | sc | p-1 d-1 | dpor | x200000 s5000 | false";
    "litmus/MP+await(rel) [sc] | litmus | sc | p-1 d-1 | dpor | x200000 s5000 | false";
    "litmus/LB [sc] | litmus | sc | p-1 d-1 | dpor | x200000 s5000 | false";
    "litmus/CoRR [sc] | litmus | sc | p-1 d-1 | dpor | x200000 s5000 | false";
    "litmus/SB [tso] | litmus | tso | p-1 d-1 | dpor | x200000 s5000 | true";
    "litmus/MP(rlx) [tso] | litmus | tso | p-1 d-1 | dpor | x200000 s5000 | false";
    "litmus/MP(rel) [tso] | litmus | tso | p-1 d-1 | dpor | x200000 s5000 | false";
    "litmus/MP(fence) [tso] | litmus | tso | p-1 d-1 | dpor | x200000 s5000 | false";
    "litmus/MP+await(rlx) [tso] | litmus | tso | p-1 d-1 | dpor | x200000 s5000 | false";
    "litmus/MP+await(rel) [tso] | litmus | tso | p-1 d-1 | dpor | x200000 s5000 | false";
    "litmus/LB [tso] | litmus | tso | p-1 d-1 | dpor | x200000 s5000 | false";
    "litmus/CoRR [tso] | litmus | tso | p-1 d-1 | dpor | x200000 s5000 | false";
    "litmus/SB [rlx] | litmus | rlx | p-1 d-1 | dpor | x200000 s5000 | true";
    "litmus/MP(rlx) [rlx] | litmus | rlx | p-1 d-1 | dpor | x200000 s5000 | true";
    "litmus/MP(rel) [rlx] | litmus | rlx | p-1 d-1 | dpor | x200000 s5000 | false";
    "litmus/MP(fence) [rlx] | litmus | rlx | p-1 d-1 | dpor | x200000 s5000 | false";
    "litmus/MP+await(rlx) [rlx] | litmus | rlx | p-1 d-1 | dpor | x200000 s5000 | true";
    "litmus/MP+await(rel) [rlx] | litmus | rlx | p-1 d-1 | dpor | x200000 s5000 | false";
    "litmus/LB [rlx] | litmus | rlx | p-1 d-1 | dpor | x200000 s5000 | false";
    "litmus/CoRR [rlx] | litmus | rlx | p-1 d-1 | dpor | x200000 s5000 | false";
  ]

let test_suite_listing () =
  Alcotest.(check (list string))
    "suite listing" pinned_listing
    (("# full" :: listing (S.suite ()))
    @ ("# quick" :: listing (S.suite ~quick:true ())))

(* The smaller variants the paper-scenario tests check carry the same
   per-lock budget as their suite rows: the spin-heavy step cap and the
   mcs weak-mode execution budget. *)
let test_variant_budgets () =
  let bounds n =
    let c = n.S.config in
    Printf.sprintf "%s | p%d d%d | x%d s%d" n.S.sname c.C.preemptions
      c.C.delays c.C.max_executions c.C.max_steps
  in
  let got =
    List.concat_map
      (fun mode ->
        let at s = bounds (S.in_mode s mode) in
        List.filter_map
          (fun l -> Option.map at (S.base_step ~threads:2 l))
          [ "tkt"; "mcs"; "clh"; "hem"; "tas"; "ttas"; "bo" ]
        @ List.filter_map
            (fun l -> Option.map at (S.abort_step ~threads:2 l))
            [ "mcs"; "clh"; "tkt" ]
        @ [ at (S.abort_induction ~threads:2 ()) ])
      [ Vstate.Sc; Vstate.Tso ]
  in
  Alcotest.(check (list string))
    "variant budgets"
    [
      "base/tkt 2T x2 [sc] | p2 d2 | x20000 s5000";
      "base/mcs 2T x2 [sc] | p2 d2 | x20000 s5000";
      "base/clh 2T x2 [sc] | p2 d2 | x20000 s5000";
      "base/hem 2T x2 [sc] | p2 d2 | x20000 s1500";
      "base/tas 2T x2 [sc] | p2 d2 | x20000 s1500";
      "base/ttas 2T x2 [sc] | p2 d2 | x20000 s1500";
      "base/bo 2T x2 [sc] | p2 d2 | x20000 s1500";
      "abort/mcs 2T x2 [sc] | p2 d2 | x20000 s5000";
      "abort/clh 2T x2 [sc] | p2 d2 | x20000 s5000";
      "abort/tkt 2T x2 [sc] | p2 d2 | x20000 s5000";
      "abort-induction/clof<2> mcs 2T [sc] | p2 d2 | x20000 s5000";
      "base/tkt 2T x2 [tso] | p2 d2 | x20000 s5000";
      "base/mcs 2T x2 [tso] | p2 d2 | x50000 s5000";
      "base/clh 2T x2 [tso] | p2 d2 | x20000 s5000";
      "base/hem 2T x2 [tso] | p2 d2 | x20000 s1500";
      "base/tas 2T x2 [tso] | p2 d2 | x20000 s1500";
      "base/ttas 2T x2 [tso] | p2 d2 | x20000 s1500";
      "base/bo 2T x2 [tso] | p2 d2 | x20000 s1500";
      "abort/mcs 2T x2 [tso] | p2 d2 | x50000 s5000";
      "abort/clh 2T x2 [tso] | p2 d2 | x20000 s5000";
      "abort/tkt 2T x2 [tso] | p2 d2 | x20000 s5000";
      "abort-induction/clof<2> mcs 2T [tso] | p2 d2 | x20000 s5000";
    ]
    got

(* ---------- config ---------- *)

let test_config_default () =
  let c = C.default in
  check_bool "mode" true (c.C.mode = Vstate.Sc);
  check_bool "strategy" true (c.C.strategy = C.Dpor);
  check_int "preemptions" 2 c.C.preemptions;
  check_int "delays" 2 c.C.delays;
  check_int "executions" 100_000 c.C.max_executions;
  check_int "steps" 5_000 c.C.max_steps

(* SC buffers no store, so no choice costs a delay and the delay bound
   is never read: any bound explores the same schedules. *)
let test_delays_unread_under_sc () =
  let counters (r : C.report) =
    ( (r.executions, r.steps, r.complete, r.pruned),
      (r.sleep_blocked, r.sleep_hits, r.races, r.violation) )
  in
  List.iter
    (fun name ->
      let n = entry name in
      let at delays =
        counters (S.run { n with S.config = { n.S.config with delays } })
      in
      let base = at 2 in
      List.iter
        (fun d ->
          check_bool (Printf.sprintf "%s d%d = d2" name d) true (at d = base))
        [ 0; -1 ])
    [ "litmus/SB [sc]"; "base/tkt 3T x2 [sc]" ]

(* ---------- checker internals ---------- *)

let test_report_counts () =
  let scenario () = [ (fun () -> V.store (V.make ~name:"x" 0) 1) ] in
  let r = C.check ~name:"tiny" scenario in
  check_int "one schedule for one thread" 1 r.C.executions;
  check_bool "steps counted" true (r.C.steps >= 1);
  check_bool "strategy recorded" true (r.C.strategy = C.Dpor);
  check_int "complete" 1 r.C.complete;
  check_int "no races for one thread" 0 r.C.races;
  check_bool "drained frontier is exhaustive" true r.C.exhaustive

(* A budget-truncated exploration proved nothing: it must say so
   (truncated) and must never claim completeness, under either
   strategy. *)
let test_truncation_never_exhaustive () =
  let scenario () =
    let x = V.make ~name:"x" 0 in
    List.init 3 (fun i () -> V.store x i)
  in
  List.iter
    (fun strategy ->
      let cfg =
        { C.default with strategy; preemptions = -1; max_executions = 2 }
      in
      let r = C.check ~config:cfg ~name:"tiny-budget" scenario in
      check_bool "truncated" true r.C.truncated;
      check_bool "truncated never exhaustive" false r.C.exhaustive;
      check_bool "complete bounded by executions" true
        (r.C.complete <= r.C.executions);
      (* same scenario, real budget: the flag is reachable *)
      let full =
        C.check
          ~config:{ C.default with strategy; preemptions = -1 }
          ~name:"tiny-full" scenario
      in
      check_bool "full exploration is exhaustive" true full.C.exhaustive;
      check_bool "not truncated" false full.C.truncated)
    [ C.Naive; C.Dpor ]

(* A cell made outside any run takes a negative object id; threads of
   the run then read it, write it (always the value it holds, so every
   execution starts from the same state) and buffer stores to it. *)
let external_cell () =
  let ext = V.make ~name:"ext" 0 in
  let scenario () =
    let x = V.make ~name:"x" 0 in
    [
      (fun () ->
        V.store ~o:Clof_atomics.Memory_order.Relaxed ext 0;
        ignore (V.load x);
        ignore (V.load ext));
      (fun () ->
        ignore (V.load ext);
        V.store x 1;
        ignore (V.load ext));
      (fun () ->
        ignore (V.fetch_add x 1);
        V.store ext 0);
    ]
  in
  ( "external cell [tso]",
    fun () -> C.check ~config:{ C.default with mode = Vstate.Tso } ~name:"external cell" scenario )

(* The weak-memory counterexamples, byte for byte: a TSO buffer flush,
   a relaxed per-location flush lane, and the await verb. *)
let test_pinned_litmus_traces () =
  List.iter
    (fun ((n : S.named), expected) ->
      check_counterexample n.S.sname (S.run n) expected)
    [
      ( entry "litmus/SB [tso]",
        ( "property: litmus: SB r0=0 r1=0",
          [
            "t0: start";
            "t0: store x";
            "t1: start";
            "t1: store y";
            "t0: load y";
            "t1: flush y";
            "t1: load x";
          ] ) );
      ( entry "litmus/MP(rlx) [rlx]",
        ( "property: litmus: MP flag seen but data stale",
          [
            "t0: start";
            "t0: store data";
            "t0: store flag";
            "t0: flush flag";
            "t1: start";
            "t1: load flag";
            "t1: load data";
          ] ) );
      ( entry "litmus/MP+await(rlx) [rlx]",
        ( "property: litmus: MP+await flag seen but data stale",
          [
            "t0: start";
            "t0: store data";
            "t0: store flag";
            "t0: flush flag";
            "t1: start";
            "t1: await flag";
            "t1: load data";
          ] ) );
    ]

(* Exact exploration counters. They are deterministic for fixed
   budgets, so any change to what the search explores — not only to its
   verdicts — fails here. *)
let test_pinned_counters () =
  let counters (e, s, c, p, sb, sl, ra) =
    Printf.sprintf
      "executions %d, steps %d, complete %d, pruned %d, sleep_blocked %d, \
       sleep_hits %d, races %d"
      e s c p sb sl ra
  in
  let named name = (name, fun () -> S.run (entry name)) in
  List.iter
    (fun ((name, run), expected) ->
      let r = run () in
      Alcotest.(check string)
        name (counters expected)
        (counters
           ( r.C.executions,
             r.C.steps,
             r.C.complete,
             r.C.pruned,
             r.C.sleep_blocked,
             r.C.sleep_hits,
             r.C.races )))
    [
      ( named "base/mcs 3T x2 [sc]",
        (144, 6877, 122, 22, 22, 95, 143) );
      ( named "induction/clof<2> tkt 3T [sc]",
        (73, 4512, 38, 35, 35, 147, 72) );
      ( named "induction/clof<3> tkt 3T [sc]",
        (116, 11410, 78, 38, 38, 208, 115) );
      (* a relaxed flush-lane shape *)
      ( named "litmus/MP+await(rlx) [rlx]",
        (3, 16, 1, 1, 1, 5, 2) );
      (* relaxed flush lanes first seen after a divergence *)
      ( named "base/clh 3T x2 [rlx]",
        (3771, 134630, 1196, 2575, 2575, 28205, 3770) );
      (* TSO insert queues, drained by committing steps *)
      ( named "abort/tkt 3T x2 [tso]",
        (772, 23765, 436, 336, 336, 1295, 771) );
      (external_cell (), (57, 569, 41, 16, 16, 104, 56));
      (* preemption-bounded, and the fairness pruner cuts its spin
         tails: those runs end with pending transitions that race
         against the final clocks *)
      ( named "peterson [sc]",
        (1037, 290317, 513, 524, 0, 22, 1036) );
      (* long spins on relaxed flush lanes: pause chains, and a
         violation that stops the search *)
      ( named "peterson-nofence [rlx]",
        (2902, 475515, 1852, 1049, 766, 2399, 2908) );
      (* TSO CAS spinning: many reads-since chains per location *)
      ( named "base/tas 3T x2 [tso]",
        (9733, 319580, 8285, 1448, 1448, 3438, 9732) );
      ( ( "Differential.regression [tso] naive",
          fun () -> fst (D.explore ~mode:Vstate.Tso C.Naive D.regression) ),
        (46200, 508200, 46200, 0, 0, 0, 0) );
    ]

(* Exploration does not depend on where a check runs: the suite on two
   domains reports every counter of the sequential run. *)
let test_executor_independent () =
  let names =
    [
      "base/mcs 3T x2 [sc]";
      "abort/tkt 3T x2 [tso]";
      "induction/clof<2> tkt 3T [rlx]";
      "induction/kv-stripes 2x tkt 3T [tso]";
      "litmus/MP+await(rel) [rlx]";
    ]
  in
  let entries =
    List.filter (fun e -> List.mem e.S.e_named.S.sname names) (S.suite ())
  in
  check_int "entries found" (List.length names) (List.length entries);
  let counters o =
    let r = o.S.o_report in
    Printf.sprintf "%s: %d %d %d %d %d %d %d %b %b %b" r.C.name
      r.C.executions r.C.steps r.C.complete r.C.pruned r.C.sleep_blocked
      r.C.sleep_hits r.C.races r.C.truncated r.C.exhaustive o.S.o_ok
  in
  let sequential = List.map counters (S.run_suite entries) in
  let module Exec = Clof_exec.Exec in
  let jobs = Exec.jobs () in
  Exec.set_jobs 2;
  let parallel =
    Fun.protect
      ~finally:(fun () -> Exec.set_jobs jobs)
      (fun () -> List.map counters (S.run_suite ~map:Exec.map entries))
  in
  Alcotest.(check (list string)) "same counters" sequential parallel

(* [seconds] is the check's own wall time: a second domain burning CPU
   meanwhile must not be charged to it, as process CPU time would be. *)
let test_seconds_is_wall_time () =
  let started = Atomic.make false and stop = Atomic.make false in
  let burner =
    Domain.spawn (fun () ->
        Atomic.set started true;
        while not (Atomic.get stop) do
          Domain.cpu_relax ()
        done)
  in
  while not (Atomic.get started) do
    Domain.cpu_relax ()
  done;
  let now = Clof_atomics.Real_mem.now in
  let t0 = now () in
  let r = S.run (entry "induction/clof<2> tkt 3T [tso]") in
  let wall = float_of_int (now () - t0) *. 1e-9 in
  Atomic.set stop true;
  Domain.join burner;
  check_bool
    (Printf.sprintf "seconds %.4f <= wall %.4f" r.C.seconds wall)
    true (r.C.seconds <= wall)

let test_runaway_detection () =
  let scenario () =
    let x = V.make ~name:"x" 0 in
    [
      (fun () ->
        (* unbounded polling loop that no schedule can satisfy *)
        let rec go () =
          if V.load x = 0 then begin
            V.pause ();
            go ()
          end
        in
        go ());
    ]
  in
  let cfg = { C.default with max_steps = 50 } in
  let r = C.check ~config:cfg ~name:"spin" scenario in
  check_bool "caught" true
    (violation_kind r = "runaway" || violation_kind r = "deadlock")

let () =
  Alcotest.run "verify"
    [
      ( "seeded-bugs",
        [
          Alcotest.test_case "broken lock" `Quick test_finds_broken_lock;
          Alcotest.test_case "ABBA deadlock" `Quick test_finds_deadlock;
          Alcotest.test_case "lost wakeup" `Quick test_finds_lost_wakeup;
          Alcotest.test_case "assertion" `Quick test_finds_assertion;
          Alcotest.test_case "abandoned holder" `Quick
            test_dpor_finds_abandoned_holder;
        ] );
      ( "litmus",
        [
          Alcotest.test_case "SB reachable under TSO" `Quick
            test_sb_reachable_under_tso;
          Alcotest.test_case "SB unreachable under SC" `Quick
            test_sb_unreachable_under_sc;
          Alcotest.test_case "MP forbidden under TSO" `Quick
            test_mp_forbidden_under_tso;
          Alcotest.test_case "MP+await flush lanes (relaxed)" `Quick
            test_mp_await_flush_lanes;
        ] );
      ( "differential",
        [
          Alcotest.test_case "backtrack-set regression (minimized)" `Quick
            test_differential_regression;
          Alcotest.test_case "fixed seeds (SC)" `Slow
            (test_differential_fixed Vstate.Sc);
          Alcotest.test_case "fixed seeds (TSO)" `Slow
            (test_differential_fixed Vstate.Tso);
          Alcotest.test_case "fixed seeds (relaxed)" `Slow
            (test_differential_fixed Vstate.Relaxed);
        ]
        @ random_differential_tests );
      ( "paper",
        [
          Alcotest.test_case "base steps (SC)" `Slow test_base_steps_sc;
          Alcotest.test_case "base steps (TSO)" `Slow test_base_steps_tso;
          Alcotest.test_case "induction step" `Slow test_induction_step;
          Alcotest.test_case "dpor 5x on depth 2" `Slow
            test_dpor_speedup_depth2;
          Alcotest.test_case "dpor completes depth 3" `Slow
            test_dpor_depth3_completes;
          Alcotest.test_case "abort steps" `Slow test_abort_steps;
          Alcotest.test_case "abort induction" `Slow test_abort_induction;
          Alcotest.test_case "peterson exhibit" `Quick
            test_peterson_exhibit;
          Alcotest.test_case "peterson exhibit (naive)" `Slow
            test_peterson_exhibit_naive;
          Alcotest.test_case "unknown lock" `Quick test_unknown_lock;
          Alcotest.test_case "scaling grows" `Slow test_scaling_grows;
        ] );
      ( "suite",
        [
          Alcotest.test_case "covers the registry" `Quick
            test_suite_covers_registry;
          Alcotest.test_case "judges outcomes" `Slow test_run_suite_judges;
          Alcotest.test_case "pinned listing" `Quick test_suite_listing;
          Alcotest.test_case "variant budgets" `Quick test_variant_budgets;
        ] );
      ( "config",
        [
          Alcotest.test_case "default" `Quick test_config_default;
          Alcotest.test_case "delays unread under sc" `Quick
            test_delays_unread_under_sc;
        ] );
      ( "internals",
        [
          Alcotest.test_case "report counts" `Quick test_report_counts;
          Alcotest.test_case "truncation never exhaustive" `Quick
            test_truncation_never_exhaustive;
          Alcotest.test_case "runaway detection" `Quick
            test_runaway_detection;
          Alcotest.test_case "pinned exploration counters" `Quick
            test_pinned_counters;
          Alcotest.test_case "pinned litmus counterexamples" `Quick
            test_pinned_litmus_traces;
          Alcotest.test_case "executor-independent counters" `Quick
            test_executor_independent;
          Alcotest.test_case "seconds is wall time" `Quick
            test_seconds_is_wall_time;
        ] );
    ]
