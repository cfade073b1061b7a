open Clof_topology
module M = Clof_sim.Sim_mem
module E = Clof_sim.Engine
module R = Clof_locks.Registry.Make (M)
module Lock_intf = Clof_locks.Lock_intf

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ---------- mutual exclusion and progress on the simulator ---------- *)

let exercise (type a) (packed : a Lock_intf.packed) ~nthreads ~iters =
  let (module B) = packed in
  let lock = B.create () in
  let counter = ref 0 in
  let overlaps = ref 0 in
  let in_cs = ref 0 in
  let body _cpu =
    let ctx = B.ctx_create lock in
    fun _tid ->
      for _ = 1 to iters do
        B.acquire lock ctx;
        incr in_cs;
        if !in_cs <> 1 then incr overlaps;
        E.work 20;
        counter := !counter + 1;
        decr in_cs;
        B.release lock ctx
      done
  in
  let p = Platform.tiny in
  let cpus = Topology.pick_cpus p.Platform.topo ~nthreads in
  let threads =
    Array.to_list (Array.map (fun cpu -> (cpu, body cpu)) cpus)
  in
  let o = E.run ~duration:max_int ~platform:p ~threads () in
  (!counter, !overlaps, o)

let all_locks () =
  R.all ~ctr:false @ [ R.hemlock ~ctr:true () ]

let test_mutex_all_locks () =
  List.iter
    (fun packed ->
      let name = Lock_intf.name packed in
      let count, overlaps, o = exercise packed ~nthreads:8 ~iters:200 in
      check_int (name ^ ": all increments") 1600 count;
      check_int (name ^ ": no overlap") 0 overlaps;
      check_bool (name ^ ": no hang") true (not o.E.hung))
    (all_locks ())

let test_single_thread_all_locks () =
  List.iter
    (fun packed ->
      let name = Lock_intf.name packed in
      let count, _, o = exercise packed ~nthreads:1 ~iters:50 in
      check_int (name ^ ": single thread") 50 count;
      check_bool (name ^ ": no hang") true (not o.E.hung))
    (all_locks ())

let test_full_machine () =
  List.iter
    (fun packed ->
      let name = Lock_intf.name packed in
      let count, overlaps, o = exercise packed ~nthreads:16 ~iters:50 in
      check_int (name ^ ": 16 threads") 800 count;
      check_int (name ^ ": no overlap") 0 overlaps;
      check_bool (name ^ ": no hang") true (not o.E.hung))
    [ R.ticket; R.mcs; R.clh; R.hemlock ~ctr:false () ]

(* ---------- registry metadata ---------- *)

let test_registry_names () =
  Alcotest.(check (list string))
    "basics"
    [ "tkt"; "mcs"; "clh"; "hem" ]
    (List.map Lock_intf.name (R.basics ~ctr:false));
  Alcotest.(check (option string))
    "find mcs" (Some "mcs")
    (Option.map Lock_intf.name (R.find ~ctr:false "mcs"));
  Alcotest.(check (option string)) "find nothing" None
    (Option.map Lock_intf.name (R.find ~ctr:false "nope"))

let test_fairness_flags () =
  List.iter
    (fun (name, expected) ->
      match R.find ~ctr:false name with
      | Some (module B) -> check_bool name expected B.fair
      | None -> Alcotest.fail ("missing " ^ name))
    [
      ("tkt", true);
      ("mcs", true);
      ("clh", true);
      ("hem", true);
      ("tas", false);
      ("ttas", false);
      ("bo", false);
    ]

(* Both CTR variants are named "hem"; a panel that shows them side by
   side renames one spec (fig3's "hem-ctr"). *)
let test_hemlock_labels () =
  List.iter
    (fun ctr ->
      Alcotest.(check string)
        (Printf.sprintf "ctr=%b" ctr)
        "hem"
        (Lock_intf.name (R.hemlock ~ctr ())))
    [ false; true ]

(* ---------- has_waiters ---------- *)

let test_has_waiters (type a) (packed : a Lock_intf.packed) =
  let (module B) = packed in
  match B.has_waiters with
  | None -> ()
  | Some hw ->
      let lock = B.create () in
      let saw_no_waiter = ref None and saw_waiter = ref None in
      let owner_ctx = B.ctx_create lock in
      let waiter_ctx = B.ctx_create lock in
      let release_now = M.make ~name:"go" false in
      let threads =
        [
          ( 0,
            fun _ ->
              B.acquire lock owner_ctx;
              saw_no_waiter := Some (hw lock owner_ctx);
              (* let the second thread enqueue, then look again *)
              ignore (M.await release_now (fun b -> b));
              E.work 1000;
              saw_waiter := Some (hw lock owner_ctx);
              B.release lock owner_ctx );
          ( 1,
            fun _ ->
              (* long delay so the owner's first check happens before we
                 enqueue, despite its cold-miss latencies *)
              E.work 5000;
              M.store release_now true;
              B.acquire lock waiter_ctx;
              B.release lock waiter_ctx );
        ]
      in
      let o = E.run ~duration:max_int ~platform:Platform.tiny ~threads () in
      check_bool (B.name ^ ": no hang") true (not o.E.hung);
      Alcotest.(check (option bool))
        (B.name ^ ": no waiter at first")
        (Some false) !saw_no_waiter;
      Alcotest.(check (option bool))
        (B.name ^ ": waiter detected")
        (Some true) !saw_waiter

let test_has_waiters_all () =
  List.iter test_has_waiters [ R.ticket; R.mcs; R.clh; R.hemlock ~ctr:false () ]

(* ---------- timed acquisition ---------- *)

let test_capabilities () =
  Alcotest.(check (list (pair string bool)))
    "capability table"
    [
      ("tkt", false);
      ("mcs", true);
      ("clh", true);
      ("hem", false);
      ("tas", false);
      ("ttas", false);
      ("bo", false);
    ]
    (List.map
       (fun (module B : Lock_intf.S with type anchor = M.anchor) ->
         (B.name, B.abortable))
       (R.all ~ctr:false))

let test_try_uncontended () =
  List.iter
    (fun packed ->
      let (module B : Lock_intf.S with type anchor = M.anchor) = packed in
      let lock = B.create () in
      let got = ref false in
      let o =
        E.run ~duration:max_int ~platform:Platform.tiny
          ~threads:
            [
              ( 0,
                fun _ ->
                  let ctx = B.ctx_create lock in
                  got :=
                    B.try_acquire lock ctx ~deadline:(E.now () + 100_000);
                  if !got then B.release lock ctx );
            ]
          ()
      in
      check_bool (B.name ^ ": no hang") true (not o.E.hung);
      check_bool (B.name ^ ": free lock granted") true !got)
    (all_locks ())

(* The core abandonment scenario: a waiter times out against a held
   lock, then immediately reuses the same context for a blocking
   acquisition — for MCS/CLH the abandoned node is still queued, so
   the holder's release must skip it and the fresh enqueue must chain
   behind it. *)
let test_try_timeout_then_reuse () =
  List.iter
    (fun packed ->
      let (module B : Lock_intf.S with type anchor = M.anchor) = packed in
      let lock = B.create () in
      let timed_out = ref None and reacquired = ref false in
      let gate = M.make ~name:"gate" false in
      let threads =
        [
          ( 0,
            fun _ ->
              let ctx = B.ctx_create lock in
              B.acquire lock ctx;
              M.store gate true;
              (* hold far past the waiter's deadline *)
              E.work 30_000;
              B.release lock ctx );
          ( 1,
            fun _ ->
              let ctx = B.ctx_create lock in
              ignore (M.await gate (fun b -> b));
              timed_out :=
                Some
                  (not
                     (B.try_acquire lock ctx
                        ~deadline:(E.now () + 5_000)));
              B.acquire lock ctx;
              reacquired := true;
              B.release lock ctx );
        ]
      in
      let o = E.run ~duration:max_int ~platform:Platform.tiny ~threads () in
      check_bool (B.name ^ ": no hang") true (not o.E.hung);
      Alcotest.(check (option bool))
        (B.name ^ ": waiter timed out")
        (Some true) !timed_out;
      check_bool
        (B.name ^ ": context reusable after abandon")
        true !reacquired)
    (all_locks ())

(* An abandoned waiter must not strand the waiters behind it: t1
   abandons mid-queue while t2 blocks behind it; t2 must still get the
   lock from t0's release. *)
let test_abandon_mid_queue () =
  List.iter
    (fun packed ->
      let (module B : Lock_intf.S with type anchor = M.anchor) = packed in
      let lock = B.create () in
      let got_lock = ref false and timed_out = ref None in
      let gate = M.make ~name:"gate" 0 in
      let threads =
        [
          ( 0,
            fun _ ->
              let ctx = B.ctx_create lock in
              B.acquire lock ctx;
              M.store gate 1;
              (* wait until both the doomed waiter and the blocking
                 waiter are queued (or polling) before holding on *)
              ignore (M.await gate (fun g -> g = 2));
              E.work 30_000;
              B.release lock ctx );
          ( 1,
            fun _ ->
              let ctx = B.ctx_create lock in
              ignore (M.await gate (fun g -> g >= 1));
              timed_out :=
                Some
                  (not
                     (B.try_acquire lock ctx
                        ~deadline:(E.now () + 5_000))) );
          ( 2,
            fun _ ->
              let ctx = B.ctx_create lock in
              ignore (M.await gate (fun g -> g >= 1));
              E.work 2_000;
              (* enqueue behind the doomed waiter *)
              M.store gate 2;
              B.acquire lock ctx;
              got_lock := true;
              B.release lock ctx );
        ]
      in
      let o = E.run ~duration:max_int ~platform:Platform.tiny ~threads () in
      check_bool (B.name ^ ": no hang") true (not o.E.hung);
      Alcotest.(check (option bool))
        (B.name ^ ": mid-queue waiter timed out")
        (Some true) !timed_out;
      check_bool (B.name ^ ": waiter behind abandoner served") true
        !got_lock)
    [ R.mcs; R.clh ]

(* Mutual exclusion holds when every acquisition is timed and retried.
   The deadline must sit well above the churn-inflated handover latency
   and retries must back off, or the MCS abandon path degenerates into a
   timeout storm (see the note in mcs.ml); the bounded duration turns
   any such regression into a failed count instead of a hung test. *)
let exercise_timed (type a) (packed : a Lock_intf.packed) ~nthreads ~iters =
  let (module B) = packed in
  let lock = B.create () in
  let counter = ref 0 in
  let overlaps = ref 0 in
  let in_cs = ref 0 in
  let body _cpu =
    let ctx = B.ctx_create lock in
    fun _tid ->
      for _ = 1 to iters do
        let rec go () =
          if B.try_acquire lock ctx ~deadline:(E.now () + 20_000) then begin
            incr in_cs;
            if !in_cs <> 1 then incr overlaps;
            E.work 20;
            counter := !counter + 1;
            decr in_cs;
            B.release lock ctx
          end
          else begin
            E.work 1_000;
            go ()
          end
        in
        go ()
      done
  in
  let p = Platform.tiny in
  let cpus = Topology.pick_cpus p.Platform.topo ~nthreads in
  let threads =
    Array.to_list (Array.map (fun cpu -> (cpu, body cpu)) cpus)
  in
  let o = E.run ~duration:4_000_000 ~platform:p ~threads () in
  (!counter, !overlaps, o)

let test_timed_mutex_all_locks () =
  List.iter
    (fun packed ->
      let name = Lock_intf.name packed in
      let count, overlaps, o = exercise_timed packed ~nthreads:8 ~iters:100 in
      check_int (name ^ ": all increments") 800 count;
      check_int (name ^ ": no overlap") 0 overlaps;
      check_bool (name ^ ": no hang") true (not o.E.hung))
    (all_locks ())

(* ---------- expired-deadline property (qcheck) ---------- *)

module RT = Clof_core.Runtime
module G = Clof_core.Generator.Make (M)
module Hmcs = Clof_baselines.Hmcs.Make (M)

(* Every Registry lock with a non-blocking timed path, flat and
   hierarchical: the basics, 2-level CLoF compositions, and HMCS-T at
   depths 2 and 3. (HMCS/CNA/ShflLock declare no abort capability and
   block; the fault harness's capability audit covers them.) *)
let expired_specs =
  lazy
    (let p = Platform.tiny in
     List.map RT.of_basic (all_locks ())
     @ List.filter_map
         (fun n ->
           Option.map
             (RT.of_clof ~hierarchy:(Platform.hier2 p))
             (G.of_name ~basics:(R.basics ~ctr:false) n))
         [ "tkt-mcs"; "mcs-clh"; "tkt-clh" ]
     @ [
         Hmcs.abortable_spec ~hierarchy:(Platform.hier2 p) ();
         Hmcs.abortable_spec ~hierarchy:(Platform.hier3 p) ();
       ])

(* The property behind the capability story: a [try_acquire] whose
   deadline has already expired, issued against a lock someone else
   holds, must (a) return false, (b) return promptly — never ride out
   the holder, (c) leave the victim's context reusable, and (d) leave
   the lock acquirable by a third thread. Randomizes the lock, the
   hold length, and the victim's CPU (same and remote cohorts). *)
let prop_expired_deadline =
  QCheck.Test.make
    ~name:"expired deadline: refused promptly, lock left serviceable"
    ~count:60
    QCheck.(
      triple (int_bound 1000) (int_range 10_000 40_000) (int_bound 2))
    (fun (pick, hold, vcpu) ->
      let specs = Lazy.force expired_specs in
      let spec = List.nth specs (pick mod List.length specs) in
      let p = Platform.tiny in
      let lock = spec.RT.instantiate p.Platform.topo in
      let victim_cpu = 1 + vcpu in
      let refused = ref false
      and held_throughout = ref false
      and prompt = ref false
      and ctx_reusable = ref false
      and third_served = ref false in
      let holding = ref false in
      let gate = M.make ~name:"gate" false in
      let holder _tid =
        let h = lock.RT.handle ~cpu:0 () in
        h.RT.acquire ();
        holding := true;
        M.store gate true;
        E.work hold;
        holding := false;
        h.RT.release ()
      in
      let victim _tid =
        let h = lock.RT.handle ~cpu:victim_cpu () in
        ignore (M.await gate (fun b -> b));
        let t0 = E.now () in
        let ok = h.RT.try_acquire ~deadline:t0 in
        refused := not ok;
        held_throughout := !holding;
        prompt := E.now () - t0 <= 5_000;
        h.RT.acquire ();
        ctx_reusable := true;
        h.RT.release ()
      in
      let third _tid =
        let h = lock.RT.handle ~cpu:4 () in
        ignore (M.await gate (fun b -> b));
        h.RT.acquire ();
        third_served := true;
        h.RT.release ()
      in
      let o =
        E.run ~duration:max_int ~platform:p
          ~threads:[ (0, holder); (victim_cpu, victim); (4, third) ]
          ()
      in
      (not o.E.hung) && !refused && !held_throughout && !prompt
      && !ctx_reusable && !third_served)

let qcheck = QCheck_alcotest.to_alcotest

(* ---------- peterson ---------- *)

let test_peterson_slots () =
  let module P =
    Clof_locks.Peterson.Make
      (M)
      (struct
        let fenced = true
      end)
  in
  let l = P.create () in
  let _ = P.ctx_create l in
  let _ = P.ctx_create l in
  Alcotest.check_raises "third context" Clof_locks.Peterson.Too_many_contexts
    (fun () -> ignore (P.ctx_create l))

let test_peterson_mutex_sim () =
  let module P =
    Clof_locks.Peterson.Make
      (M)
      (struct
        let fenced = true
      end)
  in
  let l = P.create () in
  let counter = ref 0 in
  let body ctx _tid =
    for _ = 1 to 100 do
      P.acquire l ctx;
      E.work 10;
      counter := !counter + 1;
      P.release l ctx
    done
  in
  let c0 = P.ctx_create l and c1 = P.ctx_create l in
  let o =
    E.run ~duration:max_int ~platform:Platform.tiny
      ~threads:[ (0, body c0); (4, body c1) ]
      ()
  in
  check_bool "no hang" true (not o.E.hung && not o.E.aborted);
  check_int "count" 200 !counter

(* ---------- real domains over Real_mem ---------- *)

module RR = Clof_locks.Registry.Make (Clof_atomics.Real_mem)

let stress_real (type a) (packed : a Lock_intf.packed) =
  let (module B) = packed in
  let lock = B.create () in
  let iters = 20_000 in
  let counter = ref 0 in
  let body () =
    let ctx = B.ctx_create lock in
    for _ = 1 to iters do
      B.acquire lock ctx;
      counter := !counter + 1;
      B.release lock ctx
    done
  in
  let d = Domain.spawn body in
  body ();
  Domain.join d;
  check_int (B.name ^ ": 2-domain stress") (2 * iters) !counter

let test_real_domains () =
  List.iter stress_real
    [ RR.ticket; RR.mcs; RR.clh; RR.hemlock ~ctr:false (); RR.tas; RR.ttas ]

let () =
  Alcotest.run "locks"
    [
      ( "simulated",
        [
          Alcotest.test_case "mutex, 8 threads" `Quick test_mutex_all_locks;
          Alcotest.test_case "single thread" `Quick
            test_single_thread_all_locks;
          Alcotest.test_case "full machine" `Quick test_full_machine;
        ] );
      ( "metadata",
        [
          Alcotest.test_case "registry names" `Quick test_registry_names;
          Alcotest.test_case "fairness flags" `Quick test_fairness_flags;
          Alcotest.test_case "hemlock labels" `Quick test_hemlock_labels;
        ] );
      ( "has_waiters",
        [ Alcotest.test_case "all locks" `Quick test_has_waiters_all ] );
      ( "timed",
        [
          Alcotest.test_case "capabilities" `Quick test_capabilities;
          Alcotest.test_case "uncontended try" `Quick test_try_uncontended;
          Alcotest.test_case "timeout then context reuse" `Quick
            test_try_timeout_then_reuse;
          Alcotest.test_case "abandon mid-queue" `Quick
            test_abandon_mid_queue;
          Alcotest.test_case "timed mutex, 8 threads" `Quick
            test_timed_mutex_all_locks;
          qcheck prop_expired_deadline;
        ] );
      ( "peterson",
        [
          Alcotest.test_case "slots" `Quick test_peterson_slots;
          Alcotest.test_case "mutex (sim)" `Quick test_peterson_mutex_sim;
        ] );
      ( "real-domains",
        [ Alcotest.test_case "2-domain stress" `Quick test_real_domains ] );
    ]
