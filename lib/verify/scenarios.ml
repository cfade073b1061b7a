open Clof_topology
module RT = Clof_core.Runtime
module Adaptive = Clof_core.Adaptive

type named = {
  sname : string;
  config : Checker.config;
  expect_violation : bool;
  scenario : unit -> (unit -> unit) list;
}

let run n = Checker.check ~config:n.config ~name:n.sname n.scenario

module R = Clof_locks.Registry.Make (Vmem)
module G = Clof_core.Generator.Make (Vmem)

(* Dynamic monitor for the context invariant (Section 4.1.3): a context
   must never serve two concurrent acquire/release operations. *)
module Instrument (B : Clof_locks.Lock_intf.S) :
  Clof_locks.Lock_intf.S with type anchor = B.anchor = struct
  type t = B.t
  type ctx = { inner : B.ctx; mutable busy : bool }
  type anchor = B.anchor

  let name = B.name ^ "!"
  let fair = B.fair
  let create = B.create
  let anchor = B.anchor
  let ctx_create t = { inner = B.ctx_create t; busy = false }

  let guard c what f =
    if c.busy then
      raise
        (Vstate.Prop_violation
           ("context invariant: concurrent " ^ what ^ " on one context"));
    c.busy <- true;
    let r = f () in
    c.busy <- false;
    r

  let acquire t c = guard c "acquire" (fun () -> B.acquire t c.inner)
  let release t c = guard c "release" (fun () -> B.release t c.inner)

  let abortable = B.abortable

  let try_acquire t c ~deadline =
    guard c "try_acquire" (fun () -> B.try_acquire t c.inner ~deadline)

  let has_waiters =
    Option.map (fun f t c -> f t c.inner) B.has_waiters
end

(* Miniature machines, one cohort split per level. *)
let mini_topo depth =
  match depth with
  | 1 ->
      Topology.create ~name:"mini1" ~ncpus:3 ~core_of:Fun.id
        ~cache_of:Fun.id ~numa_of:Fun.id
        ~pkg_of:(fun _ -> 0)
  | 2 ->
      Topology.create ~name:"mini2" ~ncpus:4 ~core_of:Fun.id
        ~cache_of:Fun.id
        ~numa_of:(fun i -> i / 2)
        ~pkg_of:(fun i -> i / 2)
  | 3 ->
      Topology.create ~name:"mini3" ~ncpus:8 ~core_of:Fun.id
        ~cache_of:(fun i -> i / 2)
        ~numa_of:(fun i -> i / 4)
        ~pkg_of:(fun i -> i / 4)
  | d -> invalid_arg (Printf.sprintf "mini_topo: depth %d" d)

let mini_hierarchy = function
  | 1 -> [ Level.System ]
  | 2 -> [ Level.Numa_node; Level.System ]
  | 3 -> [ Level.Cache_group; Level.Numa_node; Level.System ]
  | d -> invalid_arg (Printf.sprintf "mini_hierarchy: depth %d" d)

(* Shared payload: an unprotected counter incremented with a plain
   relaxed (bufferable) store. The cs monitor catches a program-order
   overlap of two critical sections; the stale-read check catches the
   weak-memory breach the monitor cannot see — an unlock whose commit
   overtakes the still-buffered data store, so the next holder reads a
   stale value (a lost update with no overlap). [turns] is a plain
   meta-level counter of completed sections; under mutual exclusion the
   n-th section must read exactly n. This is the release obligation of
   every unlock path, and what the fence audit (EXPERIMENTS.md) flips. *)
let mk_payload () =
  let data = Vmem.make ~name:"data" 0 in
  let turns = ref 0 in
  fun () ->
    Checker.cs_enter ();
    let v = Vmem.load data in
    if v <> !turns then
      raise
        (Vstate.Prop_violation
           (Printf.sprintf "stale read in cs: data=%d after %d sections" v
              !turns));
    incr turns;
    Vmem.store ~o:Clof_atomics.Memory_order.Relaxed data (v + 1);
    Checker.cs_exit ()

let mode_tag = function
  | Vstate.Sc -> "sc"
  | Vstate.Tso -> "tso"
  | Vstate.Relaxed -> "rlx"

(* ------------------------------------------------------------------ *)
(* The driver                                                          *)
(* ------------------------------------------------------------------ *)

(* The lock under test as the thread roles see it: one Runtime handle
   per thread, and the policy switch of an adaptive lock. *)
type target = { handle : int -> RT.handle; force : Adaptive.mode -> unit }

let not_adaptive _ = invalid_arg "Scenarios: not an adaptive lock"

(* A composition gets the miniature machine of its [depth], built with
   the lock; a basic lock ignores the topology it is given. *)
let of_spec ?depth (spec : RT.spec) () =
  let topo =
    match depth with None -> Platform.tiny.topo | Some d -> mini_topo d
  in
  let l = spec.instantiate topo in
  { handle = (fun cpu -> l.handle ~cpu ()); force = not_adaptive }

let of_clof depth packed =
  of_spec ~depth (RT.of_clof ~h:2 ~hierarchy:(mini_hierarchy depth) packed)

module type ADAPTIVE = sig
  include Clof_core.Clof_intf.S

  val force : t -> Adaptive.mode -> unit
end

let of_adaptive depth (module A : ADAPTIVE) () =
  let t =
    A.create ~h:2 ~topo:(mini_topo depth) ~hierarchy:(mini_hierarchy depth) ()
  in
  let handle cpu =
    let ctx = A.ctx_create t ~cpu in
    {
      RT.acquire = (fun () -> A.acquire t ctx);
      release = (fun () -> A.release t ctx);
      try_acquire = (fun ~deadline -> A.try_acquire t ctx ~deadline);
    }
  in
  { handle; force = A.force t }

(* What one thread does with its handle. *)
type role =
  | Blocking of int  (* that many acquire / payload / release sections *)
  | Timed of int * int
      (* that many attempts with this deadline; the payload runs only
         when the attempt wins *)
  | Lap of bool
      (* one adaptive policy lap; with [true], a section inside each
         non-default mode *)

let blocking ~threads ~iters = List.init threads (fun _ -> Blocking iters)

(* One timed thread first, the rest blocking. *)
let one_timed ~threads ~iters deadline =
  Timed (iters, deadline) :: blocking ~threads:(threads - 1) ~iters

let switch_cycle (force : Adaptive.mode -> unit) section =
  (* one full policy lap: barge -> strict handover -> raised H -> barge,
     with a critical section inside each non-default mode *)
  force Adaptive.Fair;
  section ();
  force Adaptive.Keep_local_heavy;
  section ();
  force Adaptive.Fastpath_mostly

(* The one scenario driver. Creation order — the lock, then the
   payload, then one handle per thread in thread order — fixes the cell
   ids, and with them the exploration. *)
let drive make roles () =
  let lock = make () in
  let payload = mk_payload () in
  List.mapi
    (fun cpu role ->
      let h = lock.handle cpu in
      let owned () =
        payload ();
        h.RT.release ()
      in
      let section () =
        h.RT.acquire ();
        owned ()
      in
      match role with
      | Blocking n ->
          fun () ->
            for _ = 1 to n do
              section ()
            done
      | Timed (n, deadline) ->
          fun () ->
            for _ = 1 to n do
              if h.RT.try_acquire ~deadline then owned ()
            done
      | Lap sections ->
          fun () ->
            switch_cycle lock.force (if sections then section else ignore))
    roles

(* ------------------------------------------------------------------ *)
(* Scenarios                                                           *)
(* ------------------------------------------------------------------ *)

(* An entry's default bounds; [in_mode] sets the mode. *)
let std = { Checker.default with max_executions = 20_000 }

(* A checked program before its memory mode is chosen: the entry name
   less its " [mode]" tag, the modes under which the run must find a
   violation, and its exploration bounds per mode. *)
type scenario = {
  name : string;
  body : unit -> (unit -> unit) list;
  weak : Vstate.mode list;
  budget : Vstate.mode -> Checker.config;
}

let scenario ?(weak = []) ?(budget = fun _ -> std) name body =
  { name; body; weak; budget }

let in_mode s mode =
  {
    sname = Printf.sprintf "%s [%s]" s.name (mode_tag mode);
    config = { (s.budget mode) with mode };
    expect_violation = List.mem mode s.weak;
    scenario = s.body;
  }

(* The TAS family and Hemlock spin with pause loops instead of
   awaiting a ticket, so their schedule trees are dominated by
   spin-tails; a tighter per-thread step budget keeps each execution
   short without weakening what the checker proves about the
   interesting (lock-word) interleavings. *)
let spin_heavy _ = { std with max_steps = 1_500 }

(* The MCS queue link is a relaxed store (checker-proved removable
   release; see the fence audit in EXPERIMENTS.md), which buffers the
   link under the weak modes and roughly doubles the schedule tree.
   The downgrade proof needs those explorations to stay exhaustive, so
   the mcs steps get a larger execution budget (measured: base 39k,
   abort 25k under Relaxed). *)
let mcs_weak = function
  | Vstate.Sc -> std
  | Vstate.Tso | Vstate.Relaxed -> { std with max_executions = 50_000 }

let lock_budgets =
  [
    ("tas", spin_heavy);
    ("ttas", spin_heavy);
    ("bo", spin_heavy);
    ("hem", spin_heavy);
    ("mcs", mcs_weak);
  ]

(* Base step: the lock alone, every thread blocking. Abort safety: one
   thread acquires with a deadline while the others block. The checker
   resolves every timed wait nondeterministically (Vmem.await_until),
   so the interleavings explored include a timeout landing between
   enqueue and handover — the grant/abandon race. The cs monitor
   catches any mutual-exclusion breach on the abort path; the checker's
   deadlock detector catches a lost wakeup (a grant handed to a
   departed waiter and never recovered). *)
let basic ~timed group ?(threads = 3) ?(iters = 2) lock_name =
  R.find ~ctr:false lock_name
  |> Option.map (fun packed ->
         scenario
           ?budget:(List.assoc_opt lock_name lock_budgets)
           (Printf.sprintf "%s/%s %dT x%d" group lock_name threads iters)
           (drive
              (of_spec (RT.of_basic packed))
              (if timed then one_timed ~threads ~iters 0
               else blocking ~threads ~iters)))

let base_step = basic ~timed:false "base"
let abort_step = basic ~timed:true "abort"

(* The induction step composes abstract fair locks; the root lock is
   instrumented so any violation of the context invariant on the shared
   high-lock context is detected. *)
module Tkt = Clof_locks.Ticket.Make (Vmem)
module Tkt_monitored = Instrument (Tkt)
module Root = Clof_core.Compose.Base (Tkt_monitored)
module Clof2 = Clof_core.Compose.Compose (Vmem) (Tkt) (Root)
module Clof3 = Clof_core.Compose.Compose (Vmem) (Tkt) (Clof2)

let induction_step depth =
  let packed : Clof_core.Clof_intf.packed =
    if depth = 2 then (module Clof2) else (module Clof3)
  in
  scenario
    (Printf.sprintf "induction/clof<%d> tkt 3T" depth)
    (drive (of_clof depth packed) (blocking ~threads:3 ~iters:2))

(* The stripe-table pairing of the KV service (Kvservice): each
   request acquires exactly the stripe lock its key hashes to, and
   critical sections on *different* stripes may legally overlap — so
   the global cs monitor does not apply. Each stripe instead carries
   its own meta-level monitor (the checker preempts only at Vmem
   operations, so the plain flags flip atomically w.r.t. exploration):
   an in-section flag for per-stripe mutual exclusion plus the
   per-stripe stale-read check of mk_payload. Three threads hash
   their two requests onto the two stripes in rotated orders, so the
   explored schedules include cross-stripe overlap (which must pass)
   and same-stripe collisions (which must serialize). *)
let kv_stripes () =
  let nstripes = 2 in
  let spec = RT.of_clof ~h:2 ~hierarchy:(mini_hierarchy 1) (module Root) in
  scenario (Printf.sprintf "induction/kv-stripes %dx tkt 3T" nstripes)
  @@ fun () ->
  let topo = mini_topo 1 in
  let stripe = Array.init nstripes (fun _ -> spec.instantiate topo) in
  let data =
    Array.init nstripes (fun s -> Vmem.make ~name:(Printf.sprintf "data%d" s) 0)
  in
  let inside = Array.make nstripes false in
  let turns = Array.make nstripes 0 in
  let request (hs : RT.handle array) s =
    hs.(s).acquire ();
    if inside.(s) then
      raise
        (Vstate.Prop_violation
           (Printf.sprintf "stripe %d: overlapping critical sections" s));
    inside.(s) <- true;
    let v = Vmem.load data.(s) in
    if v <> turns.(s) then
      raise
        (Vstate.Prop_violation
           (Printf.sprintf "stripe %d: stale read in cs: data=%d after \
                            %d sections"
              s v turns.(s)));
    turns.(s) <- turns.(s) + 1;
    Vmem.store ~o:Clof_atomics.Memory_order.Relaxed data.(s) (v + 1);
    inside.(s) <- false;
    hs.(s).release ()
  in
  List.init 3 (fun i ->
      let hs = Array.init nstripes (fun s -> stripe.(s).handle ~cpu:i ()) in
      fun () ->
        request hs (i mod nstripes);
        request hs ((i + 1) mod nstripes))

(* Abort induction step: a 2-level composition of truly-abortable MCS
   locks, root instrumented, with a timed outer acquisition. Exercises
   Compose.try_acquire end to end — waiter-counter balance, the
   no-pass-flag-on-failure path, and the post-abort rescue — under the
   same context-invariant monitor as the blocking induction step. *)
module Mcs_v = Clof_locks.Mcs.Make (Vmem)
module Mcs_monitored = Instrument (Mcs_v)
module Abort_root = Clof_core.Compose.Base (Mcs_monitored)
module Abort_clof2 = Clof_core.Compose.Compose (Vmem) (Mcs_v) (Abort_root)

let abort_induction ?(threads = 3) () =
  scenario
    (Printf.sprintf "abort-induction/clof<2> mcs %dT" threads)
    (drive (of_clof 2 (module Abort_clof2)) (one_timed ~threads ~iters:2 0))

(* HMCS-T abort scenarios: the timed hierarchical lock under the model
   checker. Vmem resolves every timed wait nondeterministically, so
   both variants explore the grant/abandon CAS race at every tree
   level:
   - [~deadline:0] (already expired) drives the inherited-lock
     branches — a cohort pass or parent grant that lands after expiry
     must be relinquished (handed to a live successor or unwound with
     a full release), never kept and never stranded;
   - a generous deadline drives the climb paths, including a timeout
     at the inner (parent) level that must abandon that level alone
     while the already-owned level below is relinquished.
   The cs monitor catches any exclusion breach on these paths; the
   checker's deadlock detector catches a waiter stranded behind an
   abandoned node (a grant handed to a departed waiter and never
   recovered). *)
module Hmcs_v = Clof_baselines.Hmcs.Make (Vmem)

let hmcst_abort deadline =
  scenario
    (Printf.sprintf "abort/hmcst<2> 3T d%s"
       (if deadline = 0 then "0" else "inf"))
    (drive
       (of_spec ~depth:2
          (Hmcs_v.abortable_spec ~h:2 ~hierarchy:(mini_hierarchy 2) ()))
       (one_timed ~threads:3 ~iters:2 deadline))

(* Mode-switch safety for the adaptive aspect (Clof_core.Adaptive):
   one thread forces the controller through its three policies —
   fastpath-mostly, fair, keep_local-heavy — between its own critical
   sections while the others run acquire/release (or a timed
   acquisition) streams. A mode switch is two plain-field writes (the
   barging latch, the H budget), so the checker schedules each flip
   atomically at every position relative to the other threads'
   visible operations: mid-barge, while a waiter is parked on the slow
   queue, between a queued owner's slow-lock win and its word CAS,
   racing an abort's rescue path. The claim under check is that
   mutual exclusion and progress never depend on which latch value an
   acquire observed: the cs monitor catches a breach (two owners
   straddling a flip), the deadlock detector catches a stranded
   waiter (a flip orphaning someone parked on the word or the slow
   queue), and the instrumented root catches a context-invariant
   violation on the inherited high-lock context.
   - switch-load: the lap on a depth-1 lock, with sections of its own;
   - switch-parked: depth-2 inner lock: waiters park on the slow tree's
     low level while the flip lands; the switcher takes no lock of its
     own, so its whole mode lap interleaves freely with a parked
     waiter;
   - switch-abort: timed acquisition racing the flip: the abortable
     MCS composition underneath means the expired waiter runs the full
     abandonment + rescue protocol while the latch and H budget change
     under it. *)
module Adapt1 = Adaptive.Make (Vmem) (Root)
module Adapt2 = Adaptive.Make (Vmem) (Clof2)
module Adapt_abort = Adaptive.Make (Vmem) (Abort_clof2)

let adapt name depth lock roles =
  scenario ("adapt/" ^ name ^ " 3T") (drive (of_adaptive depth lock) roles)

let peterson_budget = function
  | Vstate.Sc -> { std with max_executions = 100_000 }
  | Vstate.Tso | Vstate.Relaxed ->
      (* store-buffering needs each thread to run a few ops past
         its own unflushed stores. Tight bounds (2 preemptions, 4
         delays) are enough for the flag stores of both threads to
         stay buffered across the other's read, and keep the tree
         small enough that the fenced variant exhausts and the
         unfenced violation surfaces within a few thousand
         schedules in both weak modes *)
      { std with delays = 4; max_executions = 200_000 }

let peterson fenced =
  let module P =
    Clof_locks.Peterson.Make
      (Vmem)
      (struct
        let fenced = fenced
      end)
  in
  let packed : R.packed = (module P) in
  scenario
    ~weak:(if fenced then [] else [ Vstate.Tso; Vstate.Relaxed ])
    ~budget:peterson_budget P.name
    (drive (of_spec (RT.of_basic packed)) (blocking ~threads:2 ~iters:2))

(* ------------------------------------------------------------------ *)
(* Litmus tests                                                        *)
(* ------------------------------------------------------------------ *)

(* The classic weak-memory litmus shapes, with the architectural
   verdict per mode encoded as [expect_violation]: the scenario raises
   a property violation exactly when the weak outcome is observed, so
   "violation found" means "outcome reachable". SB distinguishes SC
   from any buffered model; MP with a relaxed flag distinguishes TSO
   (store-store order kept) from Relaxed (reordered); MP with a release
   flag or a fence must be safe everywhere; CoRR (read coherence) must
   hold everywhere; LB is forbidden in all three modes because the
   model executes loads at their program point — it is stronger than
   real Armv8 there (see DESIGN.md). *)
let rlx_o = Clof_atomics.Memory_order.Relaxed
let rel_o = Clof_atomics.Memory_order.Release

(* tiny programs: unbounded exploration is cheap and makes the
   reachability verdict exact *)
let unbounded _ =
  { std with preemptions = -1; delays = -1; max_executions = 200_000 }

(* A two-thread shape: [setup] makes the cells and returns the weak
   outcome's description, its test (judged once both threads are done)
   and the two thread bodies. *)
let litmus ?weak name setup =
  scenario ?weak ~budget:unbounded ("litmus/" ^ name) @@ fun () ->
  let outcome, observed, t0, t1 = setup () in
  let ndone = ref 0 in
  let fin () =
    incr ndone;
    if !ndone = 2 && observed () then
      raise (Vstate.Prop_violation ("litmus: " ^ outcome))
  in
  [
    (fun () ->
      t0 ();
      fin ());
    (fun () ->
      t1 ();
      fin ());
  ]

let litmus_sb () =
  litmus ~weak:[ Vstate.Tso; Vstate.Relaxed ] "SB" @@ fun () ->
  let x = Vmem.make ~name:"x" 0 and y = Vmem.make ~name:"y" 0 in
  let r0 = ref (-1) and r1 = ref (-1) in
  ( "SB r0=0 r1=0",
    (fun () -> !r0 = 0 && !r1 = 0),
    (fun () ->
      Vmem.store ~o:rlx_o x 1;
      r0 := Vmem.load y),
    fun () ->
      Vmem.store ~o:rlx_o y 1;
      r1 := Vmem.load x )

(* Message passing: the writer publishes data, then the flag, plain
   ("rlx"), release-ordered ("rel") or after a full fence ("fence").
   Only the unprotected flag leaks, and only once store-store
   reordering exists (Relaxed). The [await] variant spins on the flag
   — the shape every queue-lock handover takes. Same architectural
   verdict, but the blocked reader means the weak outcome is only
   reachable through a flush-wakes-the-waiter schedule: exactly the
   shape that exposed the per-location flush-lane DPOR bug (a shared
   buffer-proc clock threaded a false happens-before from the data
   flush through the flag flush into the woken reader, so the
   stale-read reversal was never scheduled and DPOR missed a violation
   the naive oracle found). Gated per mode so that regression stays
   caught. *)
let litmus_mp ~await protect =
  let shape = if await then "MP+await" else "MP" in
  litmus
    ~weak:(if protect = `Rlx then [ Vstate.Relaxed ] else [])
    (Printf.sprintf "%s(%s)" shape
       (match protect with `Rlx -> "rlx" | `Rel -> "rel" | `Fence -> "fence"))
  @@ fun () ->
  let data = Vmem.make ~name:"data" 0 and flag = Vmem.make ~name:"flag" 0 in
  let seen = ref 0 and dval = ref (-1) in
  ( shape ^ " flag seen but data stale",
    (fun () -> !seen = 1 && !dval = 0),
    (fun () ->
      Vmem.store ~o:rlx_o data 1;
      match protect with
      | `Rlx -> Vmem.store ~o:rlx_o flag 1
      | `Rel -> Vmem.store ~o:rel_o flag 1
      | `Fence ->
          Vmem.fence ();
          Vmem.store ~o:rlx_o flag 1),
    fun () ->
      if await then begin
        ignore (Vmem.await flag (fun f -> f = 1));
        seen := 1
      end
      else seen := Vmem.load flag;
      dval := Vmem.load data )

(* loads take effect at their program point in every mode: the model
   never exhibits LB (stronger than real Armv8) *)
let litmus_lb () =
  litmus "LB" @@ fun () ->
  let x = Vmem.make ~name:"x" 0 and y = Vmem.make ~name:"y" 0 in
  let a = ref (-1) and b = ref (-1) in
  ( "LB a=1 b=1",
    (fun () -> !a = 1 && !b = 1),
    (fun () ->
      a := Vmem.load x;
      Vmem.store ~o:rlx_o y 1),
    fun () ->
      b := Vmem.load y;
      Vmem.store ~o:rlx_o x 1 )

(* per-location FIFO buffers preserve coherence in every mode *)
let litmus_corr () =
  litmus "CoRR" @@ fun () ->
  let x = Vmem.make ~name:"x" 0 in
  let a = ref (-1) and b = ref (-1) in
  ( "CoRR new-then-old",
    (fun () -> !a = 1 && !b = 0),
    (fun () -> Vmem.store ~o:rlx_o x 1),
    fun () ->
      a := Vmem.load x;
      b := Vmem.load x )

(* ------------------------------------------------------------------ *)
(* The suite                                                           *)
(* ------------------------------------------------------------------ *)

type group = Base | Abort | Induction | Adapt | Exhibit | Litmus

let group_tag = function
  | Base -> "base"
  | Abort -> "abort"
  | Induction -> "induction"
  | Adapt -> "adapt"
  | Exhibit -> "exhibit"
  | Litmus -> "litmus"

type entry = { e_named : named; e_group : group }

type outcome = {
  o_entry : entry;
  o_report : Checker.report;
  o_ok : bool;
}

let all_modes = [ Vstate.Sc; Vstate.Tso; Vstate.Relaxed ]

type row = { scenario : scenario; modes : Vstate.mode list }

let row ?(modes = all_modes) scenario = { scenario; modes }
let lock_rows step names =
  List.filter_map (fun l -> Option.map row (step l)) names

(* Every registered basic lock, by its own name — the suite tracks the
   registry instead of hand-listing locks. *)
let lock_names () =
  List.map Clof_locks.Lock_intf.name (R.all ~ctr:false)

(* The suite in order, as blocks of rows; each block is swept mode by
   mode (all of its rows under sc, then tso, then rlx). *)
let table ~quick =
  [
    (Base, lock_rows (fun l -> base_step l) (lock_names ()));
    (Abort, lock_rows (fun l -> abort_step l) [ "mcs"; "clh"; "tkt" ]);
    (Abort, [ row (hmcst_abort 0); row (hmcst_abort max_int) ]);
    (Induction, [ row (induction_step 2) ]);
    (Induction, [ row (kv_stripes ()) ]);
  ]
  @ (if quick then []
     else
       (* depth 3 completes exhaustively only under DPOR (SC 117,
          TSO 1284, Relaxed 433 executions); it is the tentpole
          acceptance scenario, so the full suite keeps it in every
          mode *)
       [ (Induction, [ row (induction_step 3) ]) ])
  @ [
      (Induction, [ row (abort_induction ()) ]);
      ( Adapt,
        [
          row
            (adapt "switch-load ad-tkt" 1 (module Adapt1)
               [ Lap true; Blocking 2; Blocking 2 ]);
          row
            (adapt "switch-parked ad-clof<2>" 2 (module Adapt2)
               [ Lap false; Blocking 2; Blocking 2 ]);
          row
            (adapt "switch-abort ad-clof<2> mcs" 2 (module Adapt_abort)
               [ Timed (2, 0); Lap false; Blocking 2 ]);
        ] );
      (Exhibit, [ row ~modes:[ Vstate.Sc; Vstate.Tso ] (peterson true) ]);
      (* fenced relaxed Peterson needs the full fence-drain subtree
         and blows the time budget; the nofence violation is the
         interesting relaxed verdict *)
      (Exhibit, [ row (peterson false) ]);
      ( Litmus,
        List.map row
          [
            litmus_sb ();
            litmus_mp ~await:false `Rlx;
            litmus_mp ~await:false `Rel;
            litmus_mp ~await:false `Fence;
            litmus_mp ~await:true `Rlx;
            litmus_mp ~await:true `Rel;
            litmus_lb ();
            litmus_corr ();
          ] );
    ]

let suite ?(quick = false) () =
  List.concat_map
    (fun (group, rows) ->
      List.concat_map
        (fun mode ->
          List.filter_map
            (fun r ->
              if List.mem mode r.modes then
                Some { e_group = group; e_named = in_mode r.scenario mode }
              else None)
            rows)
        all_modes)
    (table ~quick)

let run_entry e =
  let r = run e.e_named in
  let found = r.Checker.violation <> None in
  {
    o_entry = e;
    o_report = r;
    o_ok = found = e.e_named.expect_violation;
  }

let run_suite ?(map = List.map) entries = map run_entry entries

let scaling ?(max_depth = 3) ?(strategy = Checker.Dpor)
    ?(executions = 200_000) () =
  List.init max_depth (fun i ->
      let depth = i + 1 in
      let packed = G.build (List.init depth (fun _ -> R.ticket)) in
      ( depth,
        run
          {
            sname = Printf.sprintf "scaling/clof<%d> tkt 3T" depth;
            config =
              { Checker.default with strategy; max_executions = executions };
            expect_violation = false;
            scenario =
              drive (of_clof depth packed) (blocking ~threads:3 ~iters:1);
          } ))
