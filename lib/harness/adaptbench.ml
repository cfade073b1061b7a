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

   Report encoding (exp_id "adapt", excluded from bench_check's
   deterministic regression join like "xval"): one series per lock
   with one point per phase in order — threads = the phase's thread
   count, throughput/total_ops/sim_ns/jain/stats = that phase's
   measurements (the two low phases share a thread count, which is why
   this experiment cannot participate in the (lock, threads) join).
   One extra point-less series "controller" carries the adaptive
   lock's per-phase switch count and settled mode in its typed meta. *)

open Clof_topology
module M = Clof_sim.Sim_mem
module S = Clof_stats.Stats
module W = Clof_workloads.Workload
module RT = Clof_core.Runtime

module Clh = Clof_locks.Clh.Make (M)
module Root = Clof_core.Compose.Base (Clh)
module C2 = Clof_core.Compose.Compose (M) (Clh) (Root)
module C3 = Clof_core.Compose.Compose (M) (Clh) (C2)
module C4 = Clof_core.Compose.Compose (M) (Clh) (C3)
module F = Clof_core.Fastpath.Make (M) (C4)
module A = Clof_core.Adaptive.Make (M) (C4)

type phase = { ph_name : string; ph_threads : int; ph_params : W.params }

type cell = {
  c_lock : string;
  c_phase : string;
  c_threads : int;
  c_throughput : float;
  c_total_ops : int;
  c_sim_ns : int;
  c_jain : float;
  c_stats : S.recorder;
  c_switches : int;
  c_mode : string;
}

type t = { t_phases : phase list; t_cells : cell list }

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

(* The adaptive spec keeps a handle on the instantiated lock so each
   phase's switch count and final mode can be read back after the run;
   phases therefore execute sequentially, not through the executor. *)
let adaptive_spec ~hierarchy last =
  {
    RT.s_name = adaptive_name;
    instantiate =
      (fun topo ->
        let t = A.create ~topo ~hierarchy () in
        A.arm ~epoch:32 t;
        last := Some t;
        {
          RT.l_name = adaptive_name;
          l_fair = false;
          l_abortable = A.abortable;
          l_adaptive = true;
          handle =
            (fun ?stats ~cpu () ->
              let ctx = A.ctx_create t ~cpu in
              (match stats with
              | Some r -> A.set_sink ctx (S.Sink.of_recorder r)
              | None -> ());
              {
                RT.acquire = (fun () -> A.acquire t ctx);
                release = (fun () -> A.release t ctx);
                try_acquire = (fun ~deadline -> A.try_acquire t ctx ~deadline);
              });
        });
  }

let run ?(quick = false) () =
  let p = Platform.x86 in
  let hierarchy = hierarchy p in
  let packed : Clof_core.Clof_intf.packed = (module C4) in
  let fp_packed : Clof_core.Clof_intf.packed = (module F) in
  let last : A.t option ref = ref None in
  let specs =
    [
      RT.rename "clof<4>" (RT.of_clof ~hierarchy packed);
      RT.rename "fp-clof<4>" (RT.of_clof ~hierarchy fp_packed);
      RT.rename "fair-h1" (RT.of_clof ~h:1 ~hierarchy packed);
      adaptive_spec ~hierarchy last;
    ]
  in
  let cells =
    List.concat_map
      (fun ph ->
        List.map
          (fun spec ->
            last := None;
            let r =
              W.run ~platform:p ~nthreads:ph.ph_threads ~spec ph.ph_params
            in
            let switches, mode =
              match !last with
              | Some t -> (A.switches t, Clof_core.Adaptive.mode_to_string (A.mode t))
              | None -> (0, "-")
            in
            {
              c_lock = r.W.lock;
              c_phase = ph.ph_name;
              c_threads = ph.ph_threads;
              c_throughput = r.W.throughput;
              c_total_ops = r.W.total_ops;
              c_sim_ns = r.W.sim_ns;
              c_jain = Report.jain r.W.per_thread;
              c_stats = r.W.stats;
              c_switches = switches;
              c_mode = mode;
            })
          specs)
      (phases quick)
  in
  { t_phases = phases quick; t_cells = cells }

(* The acceptance criterion as a gate: the adaptive lock must be
   within [slack] of the best static composition in every phase, and
   every static composition must lose at least [loss] somewhere —
   otherwise either the controller failed to track the traffic or the
   phase workload stopped discriminating, and the archived numbers
   would be vacuous. *)
let gate ?(slack = 0.10) ?(loss = 0.25) t =
  let phase_cells ph =
    List.filter (fun c -> c.c_phase = ph.ph_name) t.t_cells
  in
  let best_static cells =
    List.fold_left
      (fun acc c ->
        if c.c_lock = adaptive_name then acc else Float.max acc c.c_throughput)
      0.0 cells
  in
  let errors = ref [] in
  let statics_losing = Hashtbl.create 4 in
  List.iter
    (fun ph ->
      let cells = phase_cells ph in
      let best = best_static cells in
      List.iter
        (fun c ->
          if c.c_lock = adaptive_name then begin
            if c.c_throughput < (1.0 -. slack) *. best then
              errors :=
                Printf.sprintf
                  "%s: adaptive %.3f ops/us not within %.0f%% of best \
                   static %.3f"
                  ph.ph_name c.c_throughput (100.0 *. slack) best
                :: !errors
          end
          else if c.c_throughput <= (1.0 -. loss) *. best then
            Hashtbl.replace statics_losing c.c_lock ())
        cells)
    t.t_phases;
  List.iter
    (fun c ->
      if
        c.c_lock <> adaptive_name
        && not (Hashtbl.mem statics_losing c.c_lock)
      then begin
        Hashtbl.replace statics_losing c.c_lock ();
        errors :=
          Printf.sprintf
            "%s: never loses >= %.0f%% to the best static in any phase — \
             the phase workload stopped discriminating"
            c.c_lock (100.0 *. loss)
          :: !errors
      end)
    t.t_cells;
  List.rev !errors

let exp_id = "adapt"

let to_report ?(quick = false) t =
  let locks =
    List.sort_uniq compare (List.map (fun c -> c.c_lock) t.t_cells)
  in
  let phase_names =
    String.concat "," (List.map (fun ph -> ph.ph_name) t.t_phases)
  in
  let series =
    List.map
      (fun lock ->
        {
          Report.lock;
          meta = Some [ ("phases", Report.S phase_names) ];
          points =
            List.filter_map
              (fun ph ->
                List.find_opt
                  (fun c -> c.c_lock = lock && c.c_phase = ph.ph_name)
                  t.t_cells
                |> Option.map (fun c ->
                       {
                         Report.threads = c.c_threads;
                         throughput = c.c_throughput;
                         total_ops = c.c_total_ops;
                         sim_ns = c.c_sim_ns;
                         jain = c.c_jain;
                         stats = c.c_stats;
                       }))
              t.t_phases;
        })
      locks
  in
  let controller =
    {
      Report.lock = "controller";
      meta =
        Some
          (("phases", Report.S phase_names)
          :: List.concat_map
               (fun ph ->
                 let c =
                   List.find
                     (fun c ->
                       c.c_lock = adaptive_name && c.c_phase = ph.ph_name)
                     t.t_cells
                 in
                 [
                   (ph.ph_name ^ ".switches", Report.I c.c_switches);
                   (ph.ph_name ^ ".mode", Report.S c.c_mode);
                 ])
               t.t_phases);
      points = [];
    }
  in
  {
    Report.version = Report.schema_version;
    quick;
    meta = None;
    experiments =
      [
        {
          Report.exp_id;
          platform = "x86";
          workload = "phase-shift";
          series = series @ [ controller ];
        };
      ];
  }
