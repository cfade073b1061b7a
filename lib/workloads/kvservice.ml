(* Sharded KV-service macro-workload: the "millions of users" scenario
   the closed-loop microbenches cannot express.

   A lock table of [stripes] stripes, each guarded by its own instance
   of the composition under test (the per-node lock-array cohort
   shape), serves get/put requests against a Zipf-popular key space.
   Traffic is OPEN-LOOP: every worker owns a request inbox whose
   arrival times are drawn up front from a seeded deterministic PRNG —
   a Poisson process in the steady phases, a 2-state MMPP for bursty
   peak traffic, laid out on a diurnal low -> peak -> low schedule.
   Arrivals do not wait for the service: when a worker falls behind,
   requests queue in its inbox and their queueing delay is charged to
   the SOJOURN time (enqueue -> completion) of every request served
   late. That separation of queueing from service is what makes
   p99/p99.9 diverge between fair and barging compositions whose
   closed-loop throughput is indistinguishable.

   Everything random is derived from [params.seed] before the
   simulation starts, so runs are byte-reproducible and independent of
   executor parallelism, like every other simulator workload. *)

module M = Clof_sim.Sim_mem
module E = Clof_sim.Engine
module RT = Clof_core.Runtime
module St = Clof_stats.Stats
open Clof_topology

(* ---------- deterministic PRNG (splitmix64) ----------

   Not [Random.State]: the stdlib generator's stream is not documented
   as stable across OCaml releases, and the whole point of seeding the
   traffic is that BENCH_kv.json is byte-identical everywhere.
   Splitmix64 is 9 lines, passes BigCrush, and its stream is pinned by
   construction. *)
module Prng = struct
  (* The 64-bit state lives unboxed in an 8-byte buffer: a draw reads
     and writes it with [get/set_int64_ne], so it allocates no [Int64]
     box, which a [mutable int64] field would on every write. *)
  type t = Bytes.t

  let create seed =
    let t = Bytes.create 8 in
    Bytes.set_int64_ne t 0 (Int64.of_int seed);
    t

  let[@inline] next t =
    let z = Int64.add (Bytes.get_int64_ne t 0) 0x9E3779B97F4A7C15L in
    Bytes.set_int64_ne t 0 z;
    let z =
      Int64.mul
        (Int64.logxor z (Int64.shift_right_logical z 30))
        0xBF58476D1CE4E5B9L
    in
    let z =
      Int64.mul
        (Int64.logxor z (Int64.shift_right_logical z 27))
        0x94D049BB133111EBL
    in
    Int64.logxor z (Int64.shift_right_logical z 31)

  (* uniform in [0, 1), from the top 53 bits *)
  let float t =
    Int64.to_float (Int64.shift_right_logical (next t) 11)
    *. (1.0 /. 9007199254740992.0)

  (* uniform in [0, n); the modulo bias over 63 bits is far below
     anything a workload can observe *)
  let int t n =
    if n <= 0 then invalid_arg "Prng.int";
    Int64.to_int
      (Int64.rem (Int64.shift_right_logical (next t) 1) (Int64.of_int n))
end

(* ---------- Zipfian key popularity ----------

   P(rank k) proportional to 1/(k+1)^s, sampled by binary search over
   the precomputed CDF — O(log n) per draw, exact for any s. The CDF
   is never written after [create], so [schedule] shares one table
   per (s, keys) per domain (see [zipf_table]). *)
module Zipf = struct
  type t = { cdf : float array }

  let create ?(s = 0.99) n =
    if n <= 0 then invalid_arg "Zipf.create";
    let cdf = Array.make n 0.0 in
    let acc = ref 0.0 in
    for k = 0 to n - 1 do
      acc := !acc +. (1.0 /. (float_of_int (k + 1) ** s));
      cdf.(k) <- !acc
    done;
    let total = !acc in
    for k = 0 to n - 1 do
      cdf.(k) <- cdf.(k) /. total
    done;
    { cdf }

  let n t = Array.length t.cdf

  (* probability mass of rank [k] — monotone decreasing in [k] *)
  let pmf t k =
    if k < 0 || k >= n t then 0.0
    else if k = 0 then t.cdf.(0)
    else t.cdf.(k) -. t.cdf.(k - 1)

  let sample t g =
    let u = Prng.float g in
    (* smallest k with cdf.(k) > u *)
    let lo = ref 0 and hi = ref (n t - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if t.cdf.(mid) > u then hi := mid else lo := mid + 1
    done;
    !lo
end

(* ---------- open-loop arrival processes ---------- *)

type process =
  | Poisson of float
      (** memoryless arrivals at a mean rate of [r] requests per
          simulated microsecond, per worker *)
  | Mmpp of { rate_low : float; rate_high : float; dwell_ns : int }
      (** 2-state Markov-modulated Poisson process: bursty traffic
          that alternates between [rate_low] and [rate_high] (both
          req/us per worker), dwelling in each state for an
          exponentially distributed time with mean [dwell_ns] *)

type phase = { ph_label : string; ph_ns : int; ph_process : process }

(* exponential variate with mean [mean_ns]; 1.0 -. u is in (0, 1] so
   log never sees 0 *)
let exp_ns g ~mean_ns =
  let u = Prng.float g in
  -.mean_ns *. log (1.0 -. u)

(* ---------- requests and schedules ---------- *)

type request = {
  rq_at : int;  (** absolute arrival (enqueue) time, simulated ns *)
  rq_phase : int;  (** index into [params.phases] *)
  rq_key : int;  (** Zipf rank in [0, keys) *)
  rq_read : bool;
}

type params = {
  stripes : int;  (** lock-table stripes, each with its own lock *)
  keys : int;  (** key-space size *)
  zipf_s : float;  (** Zipf skew (s ~ 0.99 is the YCSB default) *)
  read_fraction : float;  (** fraction of requests that are gets *)
  read_ns : int;  (** critical-section occupancy of a get *)
  write_ns : int;  (** critical-section occupancy of a put *)
  phases : phase list;  (** the diurnal schedule, in order *)
  seed : int;
}

(* The Zipf table of the last key space a schedule used, per domain.
   A table is read-only after [Zipf.create], so every worker of every
   run over one [(zipf_s, keys)] shares it instead of paying, per
   worker, 1024 [**] calls and a 1025-word array allocated straight
   into the major heap (for 1024 keys). Domain-local, like
   [Engine.instance], so schedules built concurrently on separate
   domains never race on the slot. *)
let zipf_memo : (float * int * Zipf.t) option Domain.DLS.key =
  Domain.DLS.new_key (fun () -> None)

let zipf_table ~s keys =
  match Domain.DLS.get zipf_memo with
  | Some (s', keys', z) when Float.equal s s' && keys = keys' -> z
  | _ ->
      let z = Zipf.create ~s keys in
      Domain.DLS.set zipf_memo (Some (s, keys, z));
      z

(* One worker's full request schedule, derived deterministically from
   (seed, worker) in one pass. Arrival times come from the phase
   processes, absolute simulated ns in arrival order; the
   process restarts at each phase boundary (the diurnal schedule
   switches regimes, it does not splice them). Each arrival then draws
   its read/write mix and key from an independent per-worker stream,
   read draw first, so changing the arrival process does not reshuffle
   the key sequence. Keys are drawn from the domain's shared table for
   [(zipf_s, keys)]. *)
let schedule p ~worker =
  let g = Prng.create ((p.seed * 1_000_003) + (worker * 8191) + 1) in
  let gk = Prng.create ((p.seed * 2_000_029) + (worker * 4099) + 7) in
  let zipf = zipf_table ~s:p.zipf_s p.keys in
  let out = ref [] in
  let arrive t pi =
    let rq_read = Prng.float gk < p.read_fraction in
    let rq_key = Zipf.sample zipf gk in
    out := { rq_at = int_of_float t; rq_phase = pi; rq_key; rq_read } :: !out
  in
  let phase_start = ref 0 in
  List.iteri
    (fun pi ph ->
      let pend = !phase_start + ph.ph_ns in
      let mean_gap rate = 1000.0 /. rate (* req/us -> mean ns gap *) in
      (match ph.ph_process with
      | Poisson rate ->
          if rate > 0.0 then begin
            let t = ref (float_of_int !phase_start) in
            let fin = float_of_int pend in
            let gap = mean_gap rate in
            t := !t +. exp_ns g ~mean_ns:gap;
            while !t < fin do
              arrive !t pi;
              t := !t +. exp_ns g ~mean_ns:gap
            done
          end
      | Mmpp { rate_low; rate_high; dwell_ns } ->
          let t = ref (float_of_int !phase_start) in
          let fin = float_of_int pend in
          let high = ref false in
          let switch_at =
            ref (!t +. exp_ns g ~mean_ns:(float_of_int dwell_ns))
          in
          while !t < fin do
            let rate = if !high then rate_high else rate_low in
            let next =
              if rate > 0.0 then !t +. exp_ns g ~mean_ns:(mean_gap rate)
              else fin
            in
            if !switch_at < next then begin
              (* state flip before the next arrival: re-draw the gap
                 from the new rate (memorylessness makes the restart
                 exact) *)
              t := !switch_at;
              high := not !high;
              switch_at := !t +. exp_ns g ~mean_ns:(float_of_int dwell_ns)
            end
            else begin
              t := next;
              if !t < fin then arrive !t pi
            end
          done);
      phase_start := pend)
    p.phases;
  (* the list holds the requests last first: fill the array from its end *)
  match !out with
  | [] -> [||]
  | last :: _ as rqs ->
      let n = List.length rqs in
      let a = Array.make n last in
      List.iteri (fun i rq -> a.(n - 1 - i) <- rq) rqs;
      a

let total_ns p = List.fold_left (fun a ph -> a + ph.ph_ns) 0 p.phases

(* ---------- results ---------- *)

type phase_result = {
  p_label : string;
  p_ns : int;  (** nominal phase span *)
  p_offered : int;  (** arrivals attributed to the phase *)
  p_completed : int;
  p_throughput : float;  (** completions per us of phase span *)
  p_sojourn : St.recorder;
      (** sojourn (enqueue -> completion) latency histogram; the
          recorder's other counters are unused *)
}

type result = {
  r_lock : string;
  r_workers : int;
  r_stripes : int;
  r_total : int;
  r_sim_ns : int;  (** virtual time when the last request completed *)
  r_per_worker : int array;
  r_phases : phase_result list;
  r_lock_stats : St.recorder;
      (** merged per-stripe lock acquisition stats (latency = lock
          wait, not sojourn) *)
}

(* ---------- the service ---------- *)

let run ~platform ~nworkers ~spec p =
  if p.stripes <= 0 then invalid_arg "Kvservice.run: stripes";
  let cpus = Topology.pick_cpus platform.Platform.topo ~nthreads:nworkers in
  let nphases = List.length p.phases in
  let hot =
    Array.init p.stripes (fun i ->
        M.make ~name:(Printf.sprintf "kv.hot.%d" i) 0)
  in
  let schedules = Array.init nworkers (fun w -> schedule p ~worker:w) in
  let sojourn =
    Array.init nworkers (fun _ -> Array.init nphases (fun _ -> St.create ()))
  in
  let body (t : Workload.thread) =
    let sinks = Array.map St.Sink.of_recorder sojourn.(t.tid) in
    Array.iter
      (fun rq ->
        (* open-loop wait: a timer sleep, not compute — green threads
           sharing the CPU run at full speed during it, and a late
           worker (now > rq_at) starts serving immediately, which is
           exactly the inbox backlog *)
        let now = E.now () in
        if rq.rq_at > now then E.sleep (rq.rq_at - now);
        let s = rq.rq_key mod p.stripes in
        let h = t.handles.(s) in
        h.RT.acquire ();
        t.enter s;
        E.work (if rq.rq_read then p.read_ns else p.write_ns);
        if not rq.rq_read then M.store hot.(s) t.tid;
        t.exit s;
        h.RT.release ();
        St.Sink.acquired sinks.(rq.rq_phase) ~ns:(E.now () - rq.rq_at);
        t.counts.(t.tid) <- t.counts.(t.tid) + 1)
      schedules.(t.tid)
  in
  (* one lock instance per stripe — the per-node lock-array shape *)
  let r =
    Workload.simulate ~locks:p.stripes ~duration:(total_ns p) ~platform
      ~cpus ~spec body
  in
  let offered = Array.make nphases 0 in
  Array.iter
    (Array.iter (fun rq -> offered.(rq.rq_phase) <- offered.(rq.rq_phase) + 1))
    schedules;
  let phase_results =
    List.mapi
      (fun pi ph ->
        (* every completion recorded one sojourn sample *)
        let p_sojourn =
          St.merge_all
            (Array.to_list (Array.map (fun per -> per.(pi)) sojourn))
        in
        let done_ = St.acquisitions p_sojourn in
        {
          p_label = ph.ph_label;
          p_ns = ph.ph_ns;
          p_offered = offered.(pi);
          p_completed = done_;
          p_throughput =
            1000.0 *. float_of_int done_ /. float_of_int (max 1 ph.ph_ns);
          p_sojourn;
        })
      p.phases
  in
  {
    r_lock = spec.RT.s_name;
    r_workers = nworkers;
    r_stripes = p.stripes;
    r_total = r.Workload.total_ops;
    r_sim_ns = r.Workload.sim_ns;
    r_per_worker = r.Workload.per_thread;
    r_phases = phase_results;
    r_lock_stats = r.Workload.stats;
  }
