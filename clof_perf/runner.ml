(* One benchmark run: set the workload up several times, run one
   warm-up pass, then run identical measured passes until the time
   budget is spent; check every pass's outputs and that each pass
   reproduces the first pass's simulated outputs exactly.

   End-to-end metrics always come from untraced passes. A traced run
   alternates traced and untraced passes; its per-layer metrics come
   from the spans of the traced ones, and the gap between the two kinds
   is the tracing overhead. *)

(* Which untraced pass a workload's host numbers come from. Other work
   on a shared host only ever slows one domain, in bursts that can
   cover a whole pass, so the fastest pass is the least disturbed
   measure of single-domain code. Two domains handing a line back and
   forth also run faster or slower as the host places their two CPUs
   nearer or farther apart; there the fastest pass is an outlier, and
   the median pass is the measure. *)
type host_pass = Fastest | Median

type workload = {
  name : string;
  why : string;
  core : string;  (** what one core-layer step is *)
  host_pass : host_pass;
  setup : seed:int -> quick:bool -> unit -> unit -> Meter.pass;
      (** build the inputs, returning the pass that runs over them *)
}

let workloads =
  [
    {
      name = "sweep";
      why =
        "all 256 depth-4 compositions plus hmcs<4> on simulated x86 at 9 \
         thread counts: the engine's spin/wake path and Compose handover";
      core = "engine events";
      host_pass = Fastest;
      setup = Sweep.setup;
    };
    {
      name = "kv";
      why =
        "open-loop sharded KV service over the kv panel: sleepers, timers and \
         sojourn tails rather than throughput";
      core = "requests served";
      host_pass = Fastest;
      setup = Kv.setup;
    };
    {
      name = "verify";
      why =
        "DPOR suite under sc/tso/rlx plus seeded differential programs: only \
         the model checker runs";
      core = "checker steps";
      host_pass = Fastest;
      setup = Verify.setup;
    };
    {
      name = "native";
      why =
        "2-domain handover at maximum contention on real atomics: the lock \
         fast paths with no simulator";
      core = "lock operations";
      host_pass = Median;
      setup = Native.setup;
    };
  ]

let find name = List.find_opt (fun w -> w.name = name) workloads

(* The metrics BENCHMARK.json declares, in its order, with unit and
   direction; [selfcheck] verifies the two agree. *)
let end_to_end =
  [ ("setup_s", "s", "lower"); ("pass_s", "s", "lower"); ("heap_mb", "MB", "lower") ]

let per_layer =
  [
    ("self.setup_ms", "ms", "lower");
    ("self.bench_ms", "ms", "lower");
    ("self.call_ms", "ms", "lower");
    ("self.check_ms", "ms", "lower");
    ("call.count", "count", "lower");
    ("call.p50_ms", "ms", "lower");
    ("call.max_ms", "ms", "lower");
    ("trace.spans", "count", "lower");
    ("trace.overhead_pct", "%", "lower");
    ("exec.speedup_j2", "ratio", "higher");
    ("gc.minor_words", "count", "lower");
    ("gc.promoted_words", "count", "lower");
    ("gc.minor_collections", "count", "lower");
    ("gc.major_collections", "count", "lower");
    ("core.steps", "count", "lower");
    ("core.steps_per_us", "1/us", "higher");
    ("core.words_per_step", "words", "lower");
    ("lock.acquisitions", "count", "higher");
    ("lock.locality", "fraction", "higher");
    ("lock.keep_local_frac", "fraction", "higher");
    ("lock.h_exhausted", "count", "lower");
    ("lock.fastpath_frac", "fraction", "higher");
    ("kv.requests", "count", "higher");
    ("verify.executions", "count", "lower");
    ("verify.complete_frac", "fraction", "higher");
    ("verify.truncated", "count", "lower");
  ]

(* A reported number, [value], with the spread of the samples behind
   it. *)
type stat = { value : float; median : float; min : float; max : float; n : int }

let stat ~value = function
  | [] -> { value; median = nan; min = nan; max = nan; n = 0 }
  | l ->
      {
        value;
        median = Meter.median l;
        min = List.fold_left Float.min infinity l;
        max = List.fold_left Float.max neg_infinity l;
        n = List.length l;
      }

type result = {
  workload : string;
  seed : int;
  seconds : int;
  traced : bool;
  quick : bool;
  attempted : int;
  failed : int;
  failures : string list;
  digest : string;
  e2e : (string * string * stat) list;
  layer : Meter.detail list;  (** per-layer metrics, traced runs only *)
  details : (Meter.detail * stat) list;
}

let correct r = r.failed = 0 && r.attempted > 0

type measured = {
  m_ns : int;
  m_traced : bool;
  m_run : int;
  m_out : Meter.pass;
  m_gc : Gc.stat * Gc.stat;
  m_calls : int list;
}

let run (w : workload) ~seed ~seconds ~trace ~quick =
  Clof_exec.Exec.set_jobs 1;
  if trace then Meter.arm ();
  (* Set-up, repeated: each builds fresh inputs from the seed. Some
     set-ups take well under a millisecond, so they repeat until
     [setup_budget_ns] is spent. *)
  let min_setups = if quick then 2 else 7 in
  let setup_budget_ns = if quick then 0 else 200_000_000 in
  let rec setups i spent times =
    Meter.recording := trace;
    Meter.run_id := -(i + 1);
    let t0 = Meter.now () in
    let pass =
      Meter.span Meter.Setup ("setup " ^ w.name) (fun () -> w.setup ~seed ~quick ())
    in
    let dt = Meter.now () - t0 in
    if i + 1 >= min_setups && (spent + dt >= setup_budget_ns || i + 1 >= 1000) then
      (List.rev (dt :: times), pass)
    else setups (i + 1) (spent + dt) (dt :: times)
  in
  let setup_ns, pass = setups 0 0 [] in
  let nsetup = List.length setup_ns in
  (* every run starts its passes from the same compacted heap, however
     many set-ups it took to fill the set-up budget *)
  Gc.compact ();
  let one i ~traced =
    Meter.recording := traced;
    Meter.run_id := i;
    let c0 = !Meter.ncalls in
    let g0 = Gc.quick_stat () in
    let t0 = Meter.now () in
    let out = Meter.span Meter.Bench (Printf.sprintf "pass %d" i) pass in
    let m_ns = Meter.now () - t0 in
    let g1 = Gc.quick_stat () in
    Meter.recording := false;
    { m_ns; m_traced = traced; m_run = i; m_out = out; m_gc = (g0, g1); m_calls = Meter.calls_since c0 }
  in
  (* the warm-up pass fills caches and forces lazy set-up; its outputs
     are checked and become the reference every later pass must
     reproduce *)
  let reference = one 0 ~traced:trace in
  (* One more set-up after each measured pass, so that the fastest
     set-up is picked from moments spread over the whole run, not only
     from its first fraction of a second. Its inputs are dropped. *)
  let late_setup_ns = ref [] in
  let setup_again () =
    let t0 = Meter.now () in
    let (_ : unit -> Meter.pass) = Sys.opaque_identity (w.setup ~seed ~quick ()) in
    late_setup_ns := (Meter.now () - t0) :: !late_setup_ns
  in
  let deadline = Meter.now () + (seconds * 1_000_000_000) in
  let min_passes = if trace then 4 else if quick then 2 else 3 in
  let rec loop i acc =
    let typical = Meter.median (List.map (fun m -> float_of_int m.m_ns) acc) in
    let room = float_of_int (deadline - Meter.now ()) in
    if List.length acc >= min_passes && not (typical <= room) then List.rev acc
    else begin
      let m = one i ~traced:(trace && i mod 2 = 1) in
      setup_again ();
      loop (i + 1) (m :: acc)
    end
  in
  let passes = loop 1 [] in
  (* A traced run ends with one more pass at two jobs: the workloads'
     independent calls then run on two domains. It yields the harness's
     -j speedup and checks that results do not depend on scheduling. *)
  let parallel =
    if not trace then []
    else begin
      Clof_exec.Exec.set_jobs 2;
      let m = one (List.length passes + 1) ~traced:false in
      Clof_exec.Exec.set_jobs 1;
      [ m ]
    end
  in
  let all = reference :: passes @ parallel in
  (* determinism: every pass reproduces the reference's simulated outputs *)
  let sim_of (p : Meter.pass) =
    List.filter (fun (d : Meter.detail) -> d.Meter.kind = Meter.Sim) p.Meter.details
  in
  let drift =
    List.filter_map
      (fun m ->
        if m.m_out.Meter.digest <> reference.m_out.Meter.digest
           || compare (sim_of m.m_out) (sim_of reference.m_out) <> 0
        then Some (Printf.sprintf "pass %d: simulated outputs differ from the warm-up pass" m.m_run)
        else None)
      (passes @ parallel)
  in
  let attempted = Meter.sum (fun m -> m.m_out.Meter.attempted) all in
  let failed = Meter.sum (fun m -> m.m_out.Meter.failed) all + List.length drift in
  let failures =
    List.concat_map (fun m -> List.rev m.m_out.Meter.failures) all @ drift
  in
  let untraced = List.filter (fun m -> not m.m_traced) passes in
  let traced = List.filter (fun m -> m.m_traced) passes in
  let secs m = Meter.seconds_of_ns m.m_ns in
  (* Host numbers come from the fastest set-up (every set-up runs on
     one domain) and from the pass [w.host_pass] names; the median and
     the range are printed beside them. *)
  let fastest =
    List.fold_left (fun a m -> if m.m_ns < a.m_ns then m else a) (List.hd untraced) untraced
  in
  let fastest_of l = stat ~value:(List.fold_left Float.min infinity l) l in
  let of_passes l =
    match w.host_pass with
    | Fastest -> fastest_of l
    | Median -> stat ~value:(Meter.median l) l
  in
  let pass_s = of_passes (List.map secs untraced) in
  let heap_mb =
    float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
    /. 1048576.0
  in
  let e2e =
    [
      ( "setup_s",
        "s",
        fastest_of (List.map Meter.seconds_of_ns (setup_ns @ !late_setup_ns)) );
      ("pass_s", "s", pass_s);
      ("heap_mb", "MB", stat ~value:heap_mb [ heap_mb ]);
    ]
  in
  let value_in m name =
    List.find_map
      (fun (d : Meter.detail) -> if d.Meter.name = name then Some d.Meter.value else None)
      m.m_out.Meter.details
  in
  let details =
    List.map
      (fun (d : Meter.detail) ->
        let values = List.filter_map (fun m -> value_in m d.Meter.name) untraced in
        let value =
          match (d.Meter.kind, w.host_pass) with
          | Meter.Sim, _ -> d.Meter.value
          | Meter.Host, Fastest -> Option.value (value_in fastest d.Meter.name) ~default:nan
          | Meter.Host, Median -> Meter.median values
        in
        (d, stat ~value values))
      reference.m_out.Meter.details
  in
  let layer =
    if not trace then []
    else begin
      let ntr = float_of_int (max 1 (List.length traced)) in
      let in_traced r = List.exists (fun m -> m.m_run = r) traced in
      let self = Meter.self_ns ~keep:in_traced in
      let setup_self =
        List.assoc Meter.Setup (Meter.self_ns ~keep:(fun r -> r < 0))
      in
      let per_pass l = Meter.ms_of_ns (List.assoc l self) /. ntr in
      let calls =
        List.concat_map (fun m -> List.map float_of_int m.m_calls) traced
      in
      let gc f =
        Meter.median
          (List.map (fun m -> let g0, g1 = m.m_gc in f g1 -. f g0) untraced)
      in
      let steps = float_of_int reference.m_out.Meter.steps in
      let traced_s = Meter.median (List.map secs traced) in
      let values =
        [
          ("self.setup_ms", Meter.ms_of_ns setup_self /. float_of_int nsetup);
          ("self.bench_ms", per_pass Meter.Bench);
          ("self.call_ms", per_pass Meter.Call);
          ("self.check_ms", per_pass Meter.Check);
          ("call.count", float_of_int (List.length calls) /. ntr);
          ("call.p50_ms", Meter.median calls /. 1e6);
          ("call.max_ms", List.fold_left Float.max 0.0 calls /. 1e6);
          ("trace.spans", float_of_int (Meter.spans ~keep:in_traced) /. ntr);
          ("trace.overhead_pct", 100.0 *. ((traced_s /. pass_s.median) -. 1.0));
          ( "exec.speedup_j2",
            pass_s.median /. Meter.median (List.map secs parallel) );
          ("gc.minor_words", gc (fun g -> g.Gc.minor_words));
          ("gc.promoted_words", gc (fun g -> g.Gc.promoted_words));
          ("gc.minor_collections", gc (fun g -> float_of_int g.Gc.minor_collections));
          ("gc.major_collections", gc (fun g -> float_of_int g.Gc.major_collections));
          ("core.steps", steps);
          ("core.steps_per_us", steps /. (pass_s.value *. 1e6));
          ("core.words_per_step", gc (fun g -> g.Gc.minor_words) /. Float.max 1.0 steps);
        ]
      in
      List.map
        (fun (name, unit_, _) ->
          let value, kind =
            match List.assoc_opt name values with
            | Some v -> ((if Float.is_finite v then v else 0.0), Meter.Host)
            | None -> (
                match
                  List.find_opt
                    (fun (d : Meter.detail) -> d.Meter.name = name)
                    reference.m_out.Meter.details
                with
                | Some d -> (d.Meter.value, d.Meter.kind)
                (* a layer this workload does not exercise did no work *)
                | None -> (0.0, Meter.Sim))
          in
          { Meter.name; value; unit_; kind })
        per_layer
    end
  in
  {
    workload = w.name;
    seed;
    seconds;
    traced = trace;
    quick;
    attempted;
    failed;
    failures;
    digest = reference.m_out.Meter.digest;
    e2e;
    layer;
    details;
  }

(* ---------- output ---------- *)

module Json = Clof_stats.Json

let print_result ppf (w : workload) r =
  Format.fprintf ppf "# clof_perf %s seed=%d seconds=%d trace=%d%s: %s@." r.workload
    r.seed r.seconds (if r.traced then 1 else 0)
    (if r.quick then " quick" else "")
    w.why;
  Format.fprintf ppf
    "# host = wall clock or allocation of this process; sim = modelled \
     machine or checker, exact for a seed@.";
  let line name unit_ clock s =
    if s.n > 1 then
      Format.fprintf ppf "%s %.6g %s %s (of %d: median %.6g, min %.6g, max %.6g)@." name
        s.value unit_ clock s.n s.median s.min s.max
    else Format.fprintf ppf "%s %.6g %s %s@." name s.value unit_ clock
  in
  if not r.traced then List.iter (fun (name, unit_, s) -> line name unit_ "host" s) r.e2e;
  let in_layer name = List.exists (fun (d : Meter.detail) -> d.Meter.name = name) r.layer in
  List.iter
    (fun ((d : Meter.detail), s) ->
      if not (in_layer d.Meter.name) then
      match d.Meter.kind with
      | Meter.Sim -> line d.Meter.name d.Meter.unit_ "sim" { s with n = 1 }
      | Meter.Host -> line d.Meter.name d.Meter.unit_ "host" s)
    r.details;
  List.iter
    (fun (d : Meter.detail) ->
      Format.fprintf ppf "%s %.6g %s %s@." d.Meter.name d.Meter.value d.Meter.unit_
        (Meter.kind_name d.Meter.kind))
    r.layer;
  Format.fprintf ppf "sim_digest %s@." r.digest;
  Format.fprintf ppf "attempted %d failed %d (core step: %s)@." r.attempted r.failed
    w.core

let stat_json s =
  [
    ("value", Json.Float s.value);
    ("median", Json.Float s.median);
    ("min", Json.Float s.min);
    ("max", Json.Float s.max);
    ("n", Json.Int s.n);
  ]

(* The last line of a run: a one-line JSON summary with the end-to-end
   metrics, or the per-layer ones in a traced run. *)
let summary_json r =
  let metric value unit_ = Json.Obj [ ("value", Json.Float value); ("unit", Json.Str unit_) ] in
  Json.Obj
    [
      ("correct", Json.Bool (correct r));
      ("attempted", Json.Int r.attempted);
      ("failed", Json.Int r.failed);
      ( "metrics",
        Json.Obj
          (if r.traced then
             List.map (fun (d : Meter.detail) -> (d.Meter.name, metric d.Meter.value d.Meter.unit_)) r.layer
           else List.map (fun (name, unit_, s) -> (name, metric s.value unit_)) r.e2e) );
    ]

(* The full record, for [--out] and [compare]. *)
let result_json r =
  Json.Obj
    [
      ("tool", Json.Str "clof_perf");
      ("workload", Json.Str r.workload);
      ("seed", Json.Int r.seed);
      ("seconds", Json.Int r.seconds);
      ("trace", Json.Bool r.traced);
      ("quick", Json.Bool r.quick);
      ("correct", Json.Bool (correct r));
      ("attempted", Json.Int r.attempted);
      ("failed", Json.Int r.failed);
      ("sim_digest", Json.Str r.digest);
      ( "end_to_end",
        Json.Arr
          (List.map
             (fun (name, unit_, s) ->
               Json.Obj
                 ([ ("name", Json.Str name); ("unit", Json.Str unit_); ("clock", Json.Str "host") ]
                 @ stat_json s))
             (if r.traced then [] else r.e2e)) );
      ( "per_layer",
        Json.Arr
          (List.map
             (fun (d : Meter.detail) ->
               Json.Obj
                 [
                   ("name", Json.Str d.Meter.name);
                   ("unit", Json.Str d.Meter.unit_);
                   ("clock", Json.Str (Meter.kind_name d.Meter.kind));
                   ("value", Json.Float d.Meter.value);
                 ])
             r.layer) );
      ( "details",
        Json.Arr
          (List.map
             (fun ((d : Meter.detail), s) ->
               Json.Obj
                 ([
                    ("name", Json.Str d.Meter.name);
                    ("unit", Json.Str d.Meter.unit_);
                    ("clock", Json.Str (Meter.kind_name d.Meter.kind));
                  ]
                 @ stat_json s))
             r.details) );
    ]
