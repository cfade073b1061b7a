(* The faults experiment: run a lock panel under timed acquisition while
   injecting scheduler faults (stalls and crashes), classify every
   (lock x fault) cell, ship the matrix through the Report schema as
   BENCH_faults.json, and gate on the classes the archive holds.

   Each lock becomes one series named "faults/<lock>" with no points:
   the matrix travels in the series' typed [meta] block (schema v2) —
   the lock's declared capabilities ("fair", "abort") and one string
   attribute per fault column holding the rendered cell,
   "class(timed-out attempts)" plus "+rN" for N watchdog reclaims and
   "!" when the engine reported the run hung.

   The gate scans each cell's class and timeout count back out of the
   string [run] wrote; `clof_bench faults` (run by `dune runtest`'s
   golden rule) fails on its violations,
   never on the other statistics, which are trajectory data. *)

open Clof_topology
module M = Clof_sim.Sim_mem
module R = Clof_locks.Registry.Make (M)
module G = Clof_core.Generator.Make (M)
module Hmcs = Clof_baselines.Hmcs.Make (M)
module W = Clof_workloads.Workload
module RT = Clof_core.Runtime

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
  if r.W.hung || r.W.aborted || stuck then "wedged"
  else if r.W.crashed <> [] && r.W.recoveries = 0 then "degraded"
  else "recovered"

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
      Hmcs.abortable_spec ~hierarchy:(Platform.hier2 p) ();
    ]

let exp_id = "faults"

let run ~quick =
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
        ( fname,
          Report.S
            (Printf.sprintf "%s(%d)%s%s"
               (classify params r)
               (Clof_stats.Stats.timeouts r.W.stats)
               (if r.W.recoveries > 0 then
                  Printf.sprintf "+r%d" r.W.recoveries
                else "")
               (if r.W.hung then "!" else "")) ))
      panel scenarios
  in
  Report.single ~quick ~exp_id ~platform:"x86"
    ~workload:
      (Printf.sprintf
         "%dT timed acquire, deadline %d ns, stall %d ns, lease %d ns"
         nthreads deadline stall_ns lease)
    (List.map2
       (fun (spec, fair, abortable) cells ->
         {
           Report.lock = "faults/" ^ spec.RT.s_name;
           meta =
             Some
               (("fair", Report.B fair) :: ("abort", Report.B abortable)
               :: cells);
           points = [];
         })
       panel cells)

(* Three rules, each keyed off the lock's *declared* capability:
   - a fair lock must never wedge under a transient stall;
   - a true-abort lock must come out recovered from a holder crash —
     the watchdog reclaims through the abortable path, so anything
     less means the abort contract failed under fire;
   - capability audit: a lock declaring [l_abortable] must actually
     have abandoned attempts somewhere in the fault columns. A
     declared-abortable lock that never times out against a 50 us
     stall on a 20 us deadline is lying about its capability (e.g. a
     blocking fallback behind a true-abort flag).
   [gate] reads each cell's "class(timeouts)" prefix back with one
   Scanf format; a cell that does not scan is a violation. *)
let gate r =
  List.concat_map
    (fun (s : Report.series) ->
      let flag key = Report.lookup s key = Some (Report.B true) in
      let fair = flag "fair" and abortable = flag "abort" in
      let violation fault what =
        Printf.sprintf "%s [%s]: %s" s.Report.lock fault what
      in
      let cells =
        List.filter_map
          (function
            | fault, Report.S c ->
                Some
                  (fault, Scanf.sscanf_opt c "%[a-z](%d)" (fun k n -> (k, n)))
            | _ -> None)
          (Option.value ~default:[] s.Report.meta)
      in
      let cell_viols =
        List.filter_map
          (fun (fault, cell) ->
            match cell with
            | None -> Some (violation fault "unreadable cell")
            | Some ("wedged", _)
              when fair && String.starts_with ~prefix:"stall" fault ->
                Some
                  (violation fault "fair lock wedged under a transient stall")
            | Some (cls, _)
              when abortable
                   && String.starts_with ~prefix:"crash-hold" fault
                   && cls <> "recovered" ->
                Some
                  (violation fault
                     (Printf.sprintf
                        "true-abort lock %s on a holder crash (watchdog \
                         could not reclaim)"
                        cls))
            | Some _ -> None)
          cells
      in
      let observed =
        List.fold_left
          (fun acc (fault, cell) ->
            match cell with
            | Some (_, n) when fault <> "none" -> acc + n
            | _ -> acc)
          0 cells
      in
      cell_viols
      @
      if abortable && observed = 0 then
        [
          violation "capability"
            "declares l_abortable but no acquisition was ever abandoned \
             under faults — declared capability disagrees with observed \
             behaviour";
        ]
      else [])
    (Report.all_series r)
