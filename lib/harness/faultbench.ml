(* The faults experiment: run a lock panel under timed acquisition while
   injecting scheduler faults (stalls and crashes), classify every
   (lock x fault) cell, gate on the classification, and ship the matrix
   through the Report schema as BENCH_faults.json.

   Each lock becomes one series named "faults/<lock>" with no points:
   the matrix travels in the series' typed [meta] block (schema v2) —
   the lock's declared capabilities ("fair", "abort") and one string
   attribute per fault column holding the rendered cell,
   "class(timed-out attempts)" plus "+rN" for N watchdog reclaims and
   "!" when the engine reported the run hung.

   The gate is separate from the report: CI fails on [gate] violations
   (clof_bench faults), never on the statistics, which are trajectory
   data. *)

open Clof_topology
module M = Clof_sim.Sim_mem
module R = Clof_locks.Registry.Make (M)
module G = Clof_core.Generator.Make (M)
module Hmcs = Clof_baselines.Hmcs.Make (M)
module Hmcs_t = Clof_baselines.Hmcs_t.Make (M)
module W = Clof_workloads.Workload
module RT = Clof_core.Runtime

type fault_class = Recovered | Degraded | Wedged

let class_to_string = function
  | Recovered -> "recovered"
  | Degraded -> "degraded"
  | Wedged -> "wedged"

type fault_cell = {
  fc_fault : string;
  fc_class : fault_class;
  fc_timeouts : int;
  fc_recoveries : int;
  fc_hung : bool;
}

type fault_row = {
  fr_lock : string;
  fr_fair : bool;
  fr_abortable : bool;
  fr_cells : fault_cell list;
}

(* Lighter contention than the throughput benchmarks: the no-fault
   column must come out healthy for every lock, including the
   polling-emulated timed paths, so each attempt needs a clear shot at
   the lock well inside its deadline. *)
let params ~quick =
  {
    W.duration = (if quick then 250_000 else 600_000);
    cs_reads = 2;
    cs_writes = 2;
    cs_work = 80;
    noncs_work = 8_000;
  }

let deadline = 20_000
let nthreads = 8
let stall_ns = 50_000

(* Watchdog lease: must comfortably exceed the longest legitimate
   zero-progress window — the 50 us injected stall — plus a critical
   section, yet fire a few times within even the quick-mode duration.
   See {!Clof_workloads.Workload.run}. *)
let lease = 60_000

(* Fault points are op counts into the victim's deterministic schedule;
   by op 25-40 every thread is deep in lock traffic, so the stall or
   crash lands while queued, spinning, or holding — which one is fixed
   per (lock, fault) cell and reproducible. *)
let scenarios =
  let open Clof_sim.Engine in
  [
    ("none", []);
    ("stall-t3", [ Stall { tid = 3; at_op = 40; ns = stall_ns } ]);
    ("stall-t0", [ Stall { tid = 0; at_op = 25; ns = stall_ns } ]);
    ("crash-t3", [ Crash { tid = 3; at_op = 40 } ]);
    (* the watchdog's scenario: the victim deterministically dies
       *holding* the lock, not merely queued at it *)
    ("crash-hold-t3", [ Crash_in_cs { tid = 3; after_op = 40 } ]);
  ]

(* - wedged: the run hung or livelocked, or a surviving thread stopped
     completing operations long before the end (a dead lock the
     remaining threads merely time out against looks like this);
   - degraded: the system kept going but a thread crashed and nobody
     reclaimed what it held — its capacity (and possibly the lock) is
     permanently lost;
   - recovered: every surviving thread was still making progress at
     the end, and any crash was reclaimed by the watchdog — timed-out
     attempts during the fault window are the recovery mechanism, not
     a failure, and are reported alongside. *)
let classify (p : W.params) (r : W.result) =
  let margin = 3 * (deadline + p.W.noncs_work) in
  let stuck =
    let any = ref false in
    Array.iteri
      (fun tid last ->
        if
          (not (List.mem tid r.W.crashed))
          && last < r.W.sim_ns - margin
        then any := true)
      r.W.last_progress;
    !any
  in
  if r.W.hung || r.W.aborted || stuck then Wedged
  else if r.W.crashed <> [] && r.W.recoveries = 0 then Degraded
  else Recovered

(* The panel's (fair, abortable) capability flags come off the
   instantiated lock's own Runtime metadata, never a hand-maintained
   list: the gate below holds every lock to exactly what it declares,
   and the capability audit fails loudly when a declaration disagrees
   with the abandonment behaviour the matrix observed. *)
let panel p =
  let clof2 pks = RT.of_clof ~hierarchy:(Platform.hier2 p) (G.build pks) in
  List.map
    (fun spec ->
      let l = spec.RT.instantiate p.Platform.topo in
      (spec, l.RT.l_fair, l.RT.l_abortable))
    [
      RT.of_basic R.ticket;
      RT.of_basic R.mcs;
      RT.of_basic R.clh;
      RT.of_basic (R.hemlock ~ctr:false ());
      RT.of_basic R.tas;
      clof2 [ R.mcs; R.mcs ];
      clof2 [ R.clh; R.clh ];
      clof2 [ R.ticket; R.clh ];
      Hmcs.spec ~hierarchy:(Platform.hier2 p) ();
      Hmcs_t.spec ~hierarchy:(Platform.hier2 p) ();
    ]

let run ?(quick = false) () =
  let platform = Platform.x86 in
  let panel = panel platform in
  let params = params ~quick in
  let cells =
    Clof_exec.Exec.product_map
      (fun (spec, _, _) (fname, faults) ->
        let r =
          W.run ~check:false ~faults ~deadline ~watchdog:lease ~platform
            ~nthreads ~spec params
        in
        {
          fc_fault = fname;
          fc_class = classify params r;
          fc_timeouts = Clof_stats.Stats.timeouts r.W.stats;
          fc_recoveries = r.W.recoveries;
          fc_hung = r.W.hung;
        })
      panel scenarios
  in
  List.map2
    (fun (spec, fair, abortable) cells ->
      {
        fr_lock = spec.RT.s_name;
        fr_fair = fair;
        fr_abortable = abortable;
        fr_cells = cells;
      })
    panel cells

(* Three rules, each keyed off the lock's *declared* capability:
   - a fair lock must never wedge under a transient stall;
   - a true-abort lock must come out Recovered from a holder crash —
     the watchdog reclaims through the abortable path, so anything
     less means the abort contract failed under fire;
   - capability audit: a lock declaring [l_abortable] must actually
     have abandoned attempts somewhere in the fault columns. A
     declared-abortable lock that never times out against a 50 us
     stall on a 20 us deadline is lying about its capability (e.g. a
     blocking fallback behind a true-abort flag). *)
let gate rows =
  let violation row fault what =
    Printf.sprintf "%s [%s]: %s" row.fr_lock fault what
  in
  let cell_viols row =
    List.filter_map
      (fun c ->
        if
          row.fr_fair
          && String.starts_with ~prefix:"stall" c.fc_fault
          && c.fc_class = Wedged
        then
          Some
            (violation row c.fc_fault
               "fair lock wedged under a transient stall")
        else if
          row.fr_abortable
          && String.starts_with ~prefix:"crash-hold" c.fc_fault
          && c.fc_class <> Recovered
        then
          Some
            (violation row c.fc_fault
               (Printf.sprintf
                  "true-abort lock %s on a holder crash (watchdog could \
                   not reclaim)"
                  (class_to_string c.fc_class)))
        else None)
      row.fr_cells
  in
  let audit row =
    let observed =
      List.fold_left
        (fun acc c ->
          if c.fc_fault = "none" then acc else acc + c.fc_timeouts)
        0 row.fr_cells
    in
    if row.fr_abortable && observed = 0 then
      [
        violation row "capability"
          "declares l_abortable but no acquisition was ever abandoned \
           under faults — declared capability disagrees with observed \
           behaviour";
      ]
    else []
  in
  List.concat_map (fun row -> cell_viols row @ audit row) rows

(* ---------- report ---------- *)

let exp_id = "faults"

let cell_to_string c =
  Printf.sprintf "%s(%d)%s%s"
    (class_to_string c.fc_class)
    c.fc_timeouts
    (if c.fc_recoveries > 0 then Printf.sprintf "+r%d" c.fc_recoveries
     else "")
    (if c.fc_hung then "!" else "")

let to_report ?(quick = false) rows =
  let series =
    List.map
      (fun row ->
        {
          Report.lock = "faults/" ^ row.fr_lock;
          meta =
            Some
              ([
                 ("fair", Report.B row.fr_fair);
                 ("abort", Report.B row.fr_abortable);
               ]
              @ List.map
                  (fun c -> (c.fc_fault, Report.S (cell_to_string c)))
                  row.fr_cells);
          points = [];
        })
      rows
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
          workload =
            Printf.sprintf
              "%dT timed acquire, deadline %d ns, stall %d ns, lease %d ns"
              nthreads deadline stall_ns lease;
          series;
        };
      ];
  }
