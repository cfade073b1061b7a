(* Extending CLoF with a new basic lock (the paper's A3 story: add an
   architecture-tuned lock, re-verify, regenerate, re-select).

   The new lock is Anderson's array-based queue lock: fair, local
   spinning on a per-slot flag. We (1) implement it against the
   abstract MEMORY interface, (2) model-check it with the bounded
   checker, (3) add it to the basic-lock set and let the generator
   produce compositions using it.

       dune exec examples/custom_lock.exe *)

open Clof_topology

module Anderson (M : Clof_atomics.Memory_intf.S) :
  Clof_locks.Lock_intf.S with type anchor = M.anchor = struct
  let slots = 16 (* >= max threads per cohort in this example *)

  type t = { grants : bool M.aref array; next : int M.aref }
  type ctx = { mutable my_slot : int }
  type anchor = M.anchor

  let name = "and"
  let fair = true

  let create () =
    let next = M.make ~name:"and.next" 0 in
    {
      grants =
        Array.init slots (fun i ->
            M.make ~name:(Printf.sprintf "and.slot%d" i) (i = 0));
      next;
    }

  let anchor t = M.anchor t.next
  let ctx_create _t = { my_slot = 0 }

  let acquire t ctx =
    let ticket = M.fetch_add t.next 1 in
    let slot = ticket mod slots in
    ctx.my_slot <- slot;
    ignore (M.await t.grants.(slot) (fun g -> g))

  let release t ctx =
    let slot = ctx.my_slot in
    M.store ~o:Relaxed t.grants.(slot) false;
    M.store ~o:Release t.grants.((slot + 1) mod slots) true

  let abortable = false

  (* Taking a ticket commits to consuming its grant, so the timed path
     never queues: it polls for the state where the next ticket's slot
     is already granted and claims it with one CAS. *)
  let try_acquire t ctx ~deadline =
    let rec go () =
      let n = M.load ~o:Relaxed t.next in
      if
        M.load ~o:Acquire t.grants.(n mod slots)
        && M.cas t.next ~expected:n ~desired:(n + 1)
      then begin
        ctx.my_slot <- n mod slots;
        true
      end
      else if M.now () >= deadline then false
      else begin
        M.pause ();
        go ()
      end
    in
    go ()

  let has_waiters = None (* let CLoF add its waiter counter *)
end

(* step 1: verify the new lock before admitting it (Figure 5) *)
let verify () =
  let module A = Anderson (Clof_verify.Vmem) in
  let scenario () =
    let lock = A.create () in
    let data = Clof_verify.Vmem.make ~name:"data" 0 in
    List.init 3 (fun _ ->
        let ctx = A.ctx_create lock in
        fun () ->
          for _ = 1 to 2 do
            A.acquire lock ctx;
            Clof_verify.Checker.cs_enter ();
            let v = Clof_verify.Vmem.load data in
            Clof_verify.Vmem.store data (v + 1);
            Clof_verify.Checker.cs_exit ();
            A.release lock ctx
          done)
  in
  let report =
    Clof_verify.Checker.check
      ~config:{ Clof_verify.Checker.default with max_executions = 10_000 }
      ~name:"anderson 3T" scenario
  in
  Format.printf "%a@." Clof_verify.Checker.pp_report report;
  assert (report.Clof_verify.Checker.violation = None)

(* steps 2-3: regenerate compositions including the new lock *)
let () =
  verify ();
  let module M = Clof_sim.Sim_mem in
  let module R = Clof_locks.Registry.Make (M) in
  let module G = Clof_core.Generator.Make (M) in
  let basics : G.basic list =
    [ R.ticket; R.clh; (module Anderson (M)) ]
  in
  let generated = G.generate ~basics ~depth:3 in
  Printf.printf "generated %d compositions over {tkt, clh, and}\n"
    (List.length generated);
  (* benchmark the Anderson-leaf subset on the simulated x86 box *)
  let platform = Platform.x86 in
  List.iter
    (fun packed ->
      let (module L : Clof_core.Clof_intf.S) = packed in
      if String.length L.name >= 3 && String.sub L.name 0 3 = "and" then begin
        let spec =
          Clof_core.Runtime.of_clof
            ~hierarchy:(Platform.hier3 platform)
            packed
        in
        let r =
          Clof_workloads.Workload.run ~platform ~nthreads:48 ~spec
            Clof_workloads.Workload.leveldb
        in
        Printf.printf "  %-14s %6.3f ops/us at 48 threads\n" L.name
          r.Clof_workloads.Workload.throughput
      end)
    generated
