(* The adapt experiment: a phase-shift workload driving the adaptive
   composition (Clof_core.Adaptive) against the static choices it is
   supposed to subsume — bare CLoF, CLoF+fastpath, and fair H=1 — on
   the simulated x86 box.

   Three phases, low -> high -> low contention: a couple of threads
   with short think time (lock-latency-bound, where the TAS fast path
   wins by skipping the tree walk), then a saturated phase at high
   thread count (handover-bound, where barging and strict H=1 handover
   both lose to keep_local batching), then back. Each phase
   re-instantiates the lock, so the adaptive controller starts from
   its fastpath-mostly default and must re-converge within the phase —
   the per-phase switch counts below show when it moved.

   Report encoding (exp_id "adapt"): one series per lock, in name
   order, with one point per phase in order — threads = the phase's
   thread count (the two low phases share one),
   throughput/total_ops/sim_ns/jain/stats = that phase's measurements
   — and a "phases" meta key naming the phase order.
   One extra point-less series "controller" carries the adaptive
   lock's per-phase switch count and settled mode in its typed meta.
   The gate reads the per-phase point throughputs back from the
   report. *)

open Clof_topology
module M = Clof_sim.Sim_mem
module W = Clof_workloads.Workload
module RT = Clof_core.Runtime

(* The depth-4 CLH composition and its wrappers; Kvbench runs the same
   ones. *)
module Clh = Clof_locks.Clh.Make (M)
module Root = Clof_core.Compose.Base (Clh)
module C2 = Clof_core.Compose.Compose (M) (Clh) (Root)
module C3 = Clof_core.Compose.Compose (M) (Clh) (C2)
module C4 = Clof_core.Compose.Compose (M) (Clh) (C3)
module F = Clof_core.Fastpath.Make (M) (C4)
module A = Clof_core.Adaptive.Make (M) (C4)

type phase = { ph_name : string; ph_threads : int; ph_params : W.params }

let adaptive_name = "ad-clof<4>"

(* Low phases are lock-latency-bound: a single uncontended thread with
   a near-empty critical section and think time, so the depth-4 tree
   walk (and its release walk) dominates an op and the fast path's
   single CAS is the whole win. The high phase saturates the box so
   service is handover-bound and barging/H=1 handover both lose to
   keep_local batching. *)
let phases quick =
  let dur = if quick then 300_000 else 1_500_000 in
  let low =
    { W.duration = dur; cs_reads = 1; cs_writes = 1; cs_work = 20; noncs_work = 40 }
  in
  let high =
    { W.duration = dur; cs_reads = 2; cs_writes = 2; cs_work = 60; noncs_work = 400 }
  in
  [
    { ph_name = "low-1"; ph_threads = 1; ph_params = low };
    { ph_name = "high"; ph_threads = 48; ph_params = high };
    { ph_name = "low-2"; ph_threads = 1; ph_params = low };
  ]

let hierarchy p = Platform.hier4 p

(* With [last], the spec keeps a handle on the instantiated lock so
   each phase's switch count and final mode can be read back after the
   run; phases therefore execute sequentially, not through the
   executor. *)
let adaptive_spec ?(last = ref None) ~hierarchy () =
  RT.make ~adaptive:true ~set_sink:A.set_sink ~name:adaptive_name ~fair:false
    ~abortable:A.abortable
    ~ctx:(fun _ -> A.ctx_create)
    ~acquire:A.acquire ~release:A.release ~try_acquire:A.try_acquire
    (fun topo ->
      let t = A.create ~topo ~hierarchy () in
      A.arm ~epoch:32 t;
      last := Some t;
      t)

let exp_id = "adapt"

(* Series in name order. Each run returns its point and, for the
   adaptive lock, the controller readback for that phase. *)
let run ~quick =
  let p = Platform.x86 in
  let hierarchy = hierarchy p in
  let phases = phases quick in
  let packed : Clof_core.Clof_intf.packed = (module C4) in
  let fp_packed : Clof_core.Clof_intf.packed = (module F) in
  let last : A.t option ref = ref None in
  let measure spec ph =
    last := None;
    let r = W.run ~platform:p ~nthreads:ph.ph_threads ~spec ph.ph_params in
    ( Scripted.point_of_result (ph.ph_threads, r),
      match !last with
      | Some t ->
          [
            (ph.ph_name ^ ".switches", Report.I (A.switches t));
            ( ph.ph_name ^ ".mode",
              Report.S (Clof_core.Adaptive.mode_to_string (A.mode t)) );
          ]
      | None -> [] )
  in
  let runs =
    List.map
      (fun spec -> (spec.RT.s_name, List.map (measure spec) phases))
      [
        adaptive_spec ~last ~hierarchy ();
        RT.rename "clof<4>" (RT.of_clof ~hierarchy packed);
        RT.rename "fair-h1" (RT.of_clof ~h:1 ~hierarchy packed);
        RT.rename "fp-clof<4>" (RT.of_clof ~hierarchy fp_packed);
      ]
  in
  let phase_names =
    ( "phases",
      Report.S (String.concat "," (List.map (fun ph -> ph.ph_name) phases)) )
  in
  let series lock meta points = { Report.lock; meta = Some meta; points } in
  Report.single ~quick ~exp_id ~platform:"x86" ~workload:"phase-shift"
    (List.map
       (fun (lock, cells) -> series lock [ phase_names ] (List.map fst cells))
       runs
    @ [
        series "controller"
          (phase_names
          :: List.concat_map (fun (_, cells) -> List.concat_map snd cells) runs)
          [];
      ])

(* The acceptance criterion as a gate: the adaptive lock must be
   within [slack] of the best static composition in every phase, and
   every static composition must lose at least [loss] somewhere —
   otherwise either the controller failed to track the traffic or the
   phase workload stopped discriminating, and the archived numbers
   would be vacuous. A phase a series has no point for reads as zero
   throughput. *)
let slack = 0.10
let loss = 0.25

let gate r =
  let locks =
    List.filter
      (fun (s : Report.series) -> s.Report.lock <> "controller")
      (Report.all_series r)
  in
  let is_adaptive (s : Report.series) = s.Report.lock = adaptive_name in
  match List.partition is_adaptive locks with
  | [ adaptive ], statics ->
      let throughput (s : Report.series) i =
        match List.nth_opt s.Report.points i with
        | Some pt -> pt.Report.throughput
        | None -> 0.0
      in
      (* (index, name, best static throughput) per phase *)
      let phases =
        match Report.lookup adaptive "phases" with
        | Some (Report.S names) ->
            List.mapi
              (fun i ph ->
                ( i,
                  ph,
                  List.fold_left
                    (fun best s -> Float.max best (throughput s i))
                    0.0 statics ))
              (String.split_on_char ',' names)
        | _ -> []
      in
      List.filter_map
        (fun (i, ph, best) ->
          let a = throughput adaptive i in
          if a < (1.0 -. slack) *. best then
            Some
              (Printf.sprintf
                 "%s: adaptive %.3f ops/us not within %.0f%% of best static \
                  %.3f"
                 ph a (100.0 *. slack) best)
          else None)
        phases
      @ List.filter_map
          (fun (s : Report.series) ->
            if
              List.exists
                (fun (i, _, best) -> throughput s i <= (1.0 -. loss) *. best)
                phases
            then None
            else
              Some
                (Printf.sprintf
                   "%s: never loses >= %.0f%% to the best static in any \
                    phase — the phase workload stopped discriminating"
                   s.Report.lock (100.0 *. loss)))
          statics
  | _ -> [ Printf.sprintf "panel is missing %s" adaptive_name ]
