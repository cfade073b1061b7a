(* The kv experiment: the sharded KV-service macro-workload
   (Clof_workloads.Kvservice) over the composition panel, judged on
   open-loop sojourn tails rather than closed-loop throughput.

   The panel pits the bare depth-4 CLH composition against its
   fastpath (barging TAS front door), the strict-fair single-level
   H=1 composition (one global FIFO queue), the adaptive controller,
   and the CNA/ShflLock baselines. The diurnal
   schedule is low -> peak -> low: the low phases are far below
   saturation, so every lock's p99 sojourn is service time plus an
   uncontended acquire — the declared SLO catches a composition whose
   uncontended path regressed. The peak phase is an MMPP whose bursts
   transiently oversubscribe the hot stripes: a barging fastpath keeps
   aggregate throughput up by letting arrivals cut the queue, and the
   cut-off waiters accumulate the burst in their sojourn — the p99.9
   divergence against strict fair handover is the experiment's point,
   and the gate pins both that divergence and the throughput parity
   that makes it interesting.

   Report encoding (exp_id "kv", excluded from bench_check's
   regression join because every phase shares the worker count): one
   series per lock, one point per phase in schedule order — threads =
   workers, throughput/total_ops = that phase's completion rate and
   count, sim_ns = the nominal phase span, jain = the run's per-worker
   completion fairness, and the point's stats histogram is the phase's
   *sojourn* recorder (enqueue -> completion), not lock-acquire
   latency. Each series' typed meta carries the readings the gate
   judges — per-phase p99/p99.9 sojourn, offered requests, whole-run
   service rate — and a point-less "slo" series carries the declared
   gate constants, so an archive shows both what was measured and
   what it was held to. The gate reads the report and nothing else. *)

open Clof_topology
module M = Clof_sim.Sim_mem
module S = Clof_stats.Stats
module KV = Clof_workloads.Kvservice
module RT = Clof_core.Runtime
module Cna = Clof_baselines.Cna.Make (M)
module Shfl = Clof_baselines.Shfllock.Make (M)
module Exec = Clof_exec.Exec

module Clh = Clof_locks.Clh.Make (M)
module Root = Clof_core.Compose.Base (Clh)
module C2 = Clof_core.Compose.Compose (M) (Clh) (Root)
module C3 = Clof_core.Compose.Compose (M) (Clh) (C2)
module C4 = Clof_core.Compose.Compose (M) (Clh) (C3)
module F = Clof_core.Fastpath.Make (M) (C4)
module A = Clof_core.Adaptive.Make (M) (C4)

let fair_name = "fair-h1"
let fastpath_name = "fp-clof<4>"
let adaptive_name = "ad-clof<4>"

(* ---------- declared gates ---------- *)

(* Low-phase p99 sojourn ceiling: an uncontended request is its
   critical section (2 us for a put) plus a depth-4 acquire/release
   walk, and an unlucky request queues behind a small collision burst
   (observed low-phase p99 runs 4-8 us across the panel); 25 us holds
   ~3x headroom over that while still catching a composition that
   starts queueing at 20% load (whose sojourns run to hundreds of
   us). *)
let low_p99_slo_ns = 25_000.0

(* Peak p99.9: fair handover must beat the barging fastpath by at
   least this fraction — the tail divergence the workload exists to
   surface. *)
let peak_tail_margin = 0.30

(* ... while whole-run service capacity stays comparable: barging
   buys its tail by throughput the fair lock gives up, and the
   comparison is only interesting while the gap is bounded. The bound
   is on the full-schedule completion rate (completions per drain
   time), not the per-phase rate — open-loop phase rates equal the
   arrival rate for every lock that keeps up. *)
let throughput_tolerance = 0.25

(* ---------- workload ---------- *)

let nworkers = 64

(* Service times are short (a KV get/put touching a cached value):
   handovers are then frequent enough during a burst that the locks'
   *ordering* policies separate. The MMPP's high state transiently
   oversubscribes the Zipf-hot stripes while the mean load stays well
   below every panel member's capacity — queues build in bursts and
   drain between them, so throughput equals the arrival rate for
   everyone and the tails isolate who waited how long. Within a busy
   period the global-FIFO fair lock spreads the waiting evenly; the
   depth-4 fastpath concentrates it in the waiters its keep-local
   batching and barging front door repeatedly bypass. *)
let params quick =
  let scale = if quick then 1 else 3 in
  let low_ns = 2_000_000 * scale and peak_ns = 15_000_000 * scale in
  {
    KV.stripes = 4;
    keys = 1024;
    zipf_s = 0.99;
    read_fraction = 0.9;
    read_ns = 1000;
    write_ns = 2000;
    phases =
      [
        {
          KV.ph_label = "low-1";
          ph_ns = low_ns;
          ph_process = KV.Poisson 0.004;
        };
        {
          KV.ph_label = "peak";
          ph_ns = peak_ns;
          ph_process =
            KV.Mmpp
              { rate_low = 0.009; rate_high = 0.036; dwell_ns = 100_000 };
        };
        {
          KV.ph_label = "low-2";
          ph_ns = low_ns;
          ph_process = KV.Poisson 0.004;
        };
      ];
    seed = 20_260_809;
  }

(* Each stripe instantiates its own adaptive controller (unlike
   adaptbench there is no single-lock readback — the per-stripe
   controllers converge independently on their stripe's traffic). *)
let adaptive_spec ~hierarchy =
  {
    RT.s_name = adaptive_name;
    instantiate =
      (fun topo ->
        let t = A.create ~topo ~hierarchy () in
        A.arm ~epoch:32 t;
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

let specs p =
  let hierarchy = Platform.hier4 p in
  let packed : Clof_core.Clof_intf.packed = (module C4) in
  let fp_packed : Clof_core.Clof_intf.packed = (module F) in
  [
    RT.rename "clof<4>" (RT.of_clof ~hierarchy packed);
    RT.rename fastpath_name (RT.of_clof ~hierarchy fp_packed);
    (* The fairness endpoint of the generator family is the
       single-level composition at H=1: one global CLH queue, every
       release hands to the global FIFO successor, no keep-local
       batching at any level. (Depth-4 at H=1 is *not* that endpoint:
       every handover there escalates through all four levels, and the
       tree-walk cost halves its capacity, drowning ordering effects
       in backlog.) *)
    RT.rename fair_name
      (RT.of_clof ~h:1 ~hierarchy:[ Level.System ]
         (module Root : Clof_core.Clof_intf.S));
    adaptive_spec ~hierarchy;
    Cna.spec ();
    Shfl.spec ();
  ]

(* ---------- the experiment ---------- *)

let exp_id = "kv"

(* Whole-run service rate: completions per us of the time it took to
   drain them — an overloaded lock pays for its backlog here. *)
let service_rate (r : KV.result) =
  if r.KV.r_sim_ns = 0 then 0.0
  else 1000.0 *. float_of_int r.KV.r_total /. float_of_int r.KV.r_sim_ns

let series_of (r : KV.result) =
  let phases = r.KV.r_phases in
  {
    Report.lock = r.KV.r_lock;
    meta =
      Some
        ([
           ( "phases",
             Report.S
               (String.concat ","
                  (List.map
                     (fun (ph : KV.phase_result) -> ph.KV.p_label)
                     phases)) );
           ("workers", Report.I r.KV.r_workers);
           ("stripes", Report.I r.KV.r_stripes);
           ("service_rate", Report.F (service_rate r));
           ( "offered",
             Report.I
               (List.fold_left
                  (fun a (ph : KV.phase_result) -> a + ph.KV.p_offered)
                  0 phases) );
         ]
        @ List.concat_map
            (fun (ph : KV.phase_result) ->
              List.filter_map
                (fun (tag, p) ->
                  Option.map
                    (fun v -> (ph.KV.p_label ^ "." ^ tag, Report.F v))
                    (S.percentile_interp ph.KV.p_sojourn p))
                [ ("p99", 99.0); ("p99.9", 99.9) ])
            phases);
    points =
      List.map
        (fun (ph : KV.phase_result) ->
          {
            Report.threads = r.KV.r_workers;
            throughput = ph.KV.p_throughput;
            total_ops = ph.KV.p_completed;
            sim_ns = ph.KV.p_ns;
            jain = Report.jain r.KV.r_per_worker;
            stats = ph.KV.p_sojourn;
          })
        phases;
  }

let slo =
  {
    Report.lock = "slo";
    meta =
      Some
        [
          ("low_p99_ns", Report.F low_p99_slo_ns);
          ("peak_tail_margin", Report.F peak_tail_margin);
          ("throughput_tolerance", Report.F throughput_tolerance);
        ];
    points = [];
  }

let run ?(quick = false) () =
  let p = Platform.x86 in
  let prm = params quick in
  let series =
    Exec.map
      (fun spec -> series_of (KV.run ~platform:p ~nworkers ~spec prm))
      (specs p)
  in
  Report.single ~quick ~exp_id ~platform:"x86" ~workload:"kv-zipf-openloop"
    (series @ [ slo ])

(* ---------- the gate ---------- *)

(* A reading the archive lacks (an empty sojourn recorder writes no
   percentile) is a violation of its own; the NaN it stands for then
   fails no comparison. *)
let gate r =
  let errors = ref [] in
  let err fmt = Printf.ksprintf (fun s -> errors := s :: !errors) fmt in
  let reading (s : Report.series) key =
    match Report.meta_float s key with
    | Some v -> v
    | None ->
        err "%s: no %s reading" s.Report.lock key;
        Float.nan
  in
  (* 1: nobody misses the low-load p99 SLO *)
  List.iter
    (fun (s : Report.series) ->
      let p99 = reading s "low-1.p99" in
      if p99 > low_p99_slo_ns then
        err "%s: low-1 p99 sojourn %.0f ns misses the %.0f ns SLO"
          s.Report.lock p99 low_p99_slo_ns)
    (List.filter
       (fun (s : Report.series) -> s.Report.lock <> slo.Report.lock)
       (Report.all_series r));
  (* 2 + 3: the fair-vs-barging tail divergence, at throughput parity *)
  (match
     (Report.find_series r fair_name, Report.find_series r fastpath_name)
   with
  | Some fair, Some fp ->
      let fair_tail = reading fair "peak.p99.9"
      and fp_tail = reading fp "peak.p99.9" in
      if fair_tail > (1.0 -. peak_tail_margin) *. fp_tail then
        err
          "peak p99.9: %s %.0f ns does not beat %s %.0f ns by the \
           declared %.0f%% margin"
          fair_name fair_tail fastpath_name fp_tail
          (100.0 *. peak_tail_margin);
      let fair_thr = reading fair "service_rate"
      and fp_thr = reading fp "service_rate" in
      let hi = Float.max fair_thr fp_thr in
      if
        hi > 0.0
        && Float.abs (fair_thr -. fp_thr) > throughput_tolerance *. hi
      then
        err
          "service rate: %s %.3f vs %s %.3f req/us outside the %.0f%% \
           tolerance — the tail comparison is throughput-confounded"
          fair_name fair_thr fastpath_name fp_thr
          (100.0 *. throughput_tolerance)
  | _ -> err "panel is missing %s or %s" fair_name fastpath_name);
  List.rev !errors
