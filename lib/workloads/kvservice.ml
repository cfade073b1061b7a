(* Sharded KV-service macro-workload: the "millions of users" scenario
   the closed-loop microbenches cannot express.

   A lock table of [stripes] stripes, each guarded by its own instance
   of the composition under test (the per-node lock-array cohort
   shape), serves get/put requests against a Zipf-popular key space.
   Traffic is OPEN-LOOP: every worker owns a request stream whose
   arrival times come from a seeded deterministic PRNG — a Poisson
   process in the steady phases, a 2-state MMPP for bursty peak
   traffic, laid out on a diurnal low -> peak -> low schedule. A
   worker draws its requests as it serves them, but the draws are
   fixed by (seed, worker) alone and never read the simulation, so
   they are independent of scheduling. Arrivals do not wait for the
   service: when a worker falls behind, requests queue in its backlog
   and their queueing delay is charged to the SOJOURN time (enqueue ->
   completion) of every request served late. That separation of
   queueing from service is what makes p99/p99.9 diverge between fair
   and barging compositions whose closed-loop throughput is
   indistinguishable.

   Everything random is derived from [params.seed], so runs are
   byte-reproducible and independent of executor parallelism, like
   every other simulator workload. *)

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
  let[@inline] float t =
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

   P(rank k) proportional to 1/(k+1)^s, sampled by inverting the
   precomputed CDF through a guide table: [guide.(j)] is the smallest
   rank whose cdf exceeds j/n, so a draw [u] starts at
   [guide.(floor (u * n))] and walks to the smallest rank whose cdf
   exceeds [u] — one or two probes on average, and exactly the rank a
   binary search over the CDF returns, for every [u] and any s. The
   tables are never written after [create], so [schedule] and [run]
   share one per (s, keys) per domain (see [zipf_table]). *)
module Zipf = struct
  type t = { cdf : float array; guide : int array }

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
    (* cdf.(n-1) = total / total = 1.0 exceeds every j/n < 1 *)
    let guide = Array.make n 0 and k = ref 0 in
    for j = 0 to n - 1 do
      let x = float_of_int j /. float_of_int n in
      while cdf.(!k) <= x do
        incr k
      done;
      guide.(j) <- !k
    done;
    { cdf; guide }

  let n t = Array.length t.cdf

  (* probability mass of rank [k] — non-increasing in [k] *)
  let pmf t k =
    if k < 0 || k >= n t then 0.0
    else if k = 0 then t.cdf.(0)
    else t.cdf.(k) -. t.cdf.(k - 1)

  (* The smallest k with cdf.(k) > u: the guide's bucket for [u] is a
     start, the walk down then up makes it exact whichever side of the
     bucket's rounded bounds [u] falls. cdf.(n-1) = 1.0 > u ends the
     upward walk. *)
  let[@inline] sample t g =
    let u = Prng.float g in
    let n = Array.length t.cdf in
    let k = ref t.guide.(min (n - 1) (int_of_float (u *. float_of_int n))) in
    while !k > 0 && t.cdf.(!k - 1) > u do
      decr k
    done;
    while t.cdf.(!k) <= u do
      incr k
    done;
    !k
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
   log never sees 0. Inlined, so the variate stays an unboxed float. *)
let[@inline] exp_ns g ~mean_ns =
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

(* The Zipf table of the last key space a schedule or run used, per
   domain. A table is read-only after [Zipf.create], so every worker of
   every run over one [(zipf_s, keys)] shares it instead of paying, per
   worker, 1024 [**] calls and two 1025-word arrays allocated straight
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

(* One worker's request stream: [f at phase key read] for each of its
   requests, in arrival order, derived deterministically from
   (seed, worker). Arrival times come from the phase processes,
   absolute simulated ns; the process restarts at each phase boundary
   (the diurnal schedule switches regimes, it does not splice them).
   Each arrival then draws its read/write mix and key from an
   independent per-worker stream, read draw first, so changing the
   arrival process does not reshuffle the key sequence. The draws are
   inlined and the arrival time reaches [f] as an int, so a request
   allocates nothing here. *)
let requests p zipf ~worker f =
  let g = Prng.create ((p.seed * 1_000_003) + (worker * 8191) + 1) in
  let gk = Prng.create ((p.seed * 2_000_029) + (worker * 4099) + 7) in
  let arrive at pi =
    let read = Prng.float gk < p.read_fraction in
    f at pi (Zipf.sample zipf gk) read
  in
  let phase_start = ref 0 in
  List.iteri
    (fun pi ph ->
      let pend = !phase_start + ph.ph_ns in
      let fin = float_of_int pend in
      (* a rate in req/us is a mean gap of 1000 / rate ns *)
      (match ph.ph_process with
      | Poisson rate ->
          if rate > 0.0 then begin
            let gap = 1000.0 /. rate in
            let t = ref (float_of_int !phase_start +. exp_ns g ~mean_ns:gap) in
            while !t < fin do
              arrive (int_of_float !t) pi;
              t := !t +. exp_ns g ~mean_ns:gap
            done
          end
      | Mmpp { rate_low; rate_high; dwell_ns } ->
          let dwell = float_of_int dwell_ns in
          let t = ref (float_of_int !phase_start) in
          let high = ref false in
          let switch_at = ref (!t +. exp_ns g ~mean_ns:dwell) in
          while !t < fin do
            let rate = if !high then rate_high else rate_low in
            let next =
              if rate > 0.0 then !t +. exp_ns g ~mean_ns:(1000.0 /. rate)
              else fin
            in
            if !switch_at < next then begin
              (* state flip before the next arrival: re-draw the gap
                 from the new rate (memorylessness makes the restart
                 exact) *)
              t := !switch_at;
              high := not !high;
              switch_at := !t +. exp_ns g ~mean_ns:dwell
            end
            else begin
              t := next;
              if !t < fin then arrive (int_of_float !t) pi
            end
          done);
      phase_start := pend)
    p.phases

(* The stream collected into an array that doubles as it fills. Keys
   are drawn from the domain's shared table for [(zipf_s, keys)]. *)
let schedule p ~worker =
  let buf = ref [||] and n = ref 0 in
  requests p (zipf_table ~s:p.zipf_s p.keys) ~worker
    (fun rq_at rq_phase rq_key rq_read ->
      let rq = { rq_at; rq_phase; rq_key; rq_read } in
      if !n = Array.length !buf then begin
        let a = Array.make (max 16 (2 * !n)) rq in
        Array.blit !buf 0 a 0 !n;
        buf := a
      end;
      !buf.(!n) <- rq;
      incr n);
  if !n = Array.length !buf then !buf else Array.sub !buf 0 !n

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
  let zipf = zipf_table ~s:p.zipf_s p.keys in
  let offered = Array.make nphases 0 in
  let sojourn =
    Array.init nworkers (fun _ -> Array.init nphases (fun _ -> St.create ()))
  in
  let body (t : Workload.thread) =
    let sinks = Array.map St.Sink.of_recorder sojourn.(t.tid) in
    requests p zipf ~worker:t.tid (fun at pi key read ->
        offered.(pi) <- offered.(pi) + 1;
        (* open-loop wait: a timer sleep, not compute — green threads
           sharing the CPU run at full speed during it, and a late
           worker (now > at) starts serving immediately, which is
           exactly the open-loop backlog *)
        let now = E.now () in
        if at > now then E.sleep (at - now);
        let s = key mod p.stripes in
        let h = t.handles.(s) in
        h.RT.acquire ();
        t.enter s;
        E.work (if read then p.read_ns else p.write_ns);
        if not read then M.store hot.(s) t.tid;
        t.exit s;
        h.RT.release ();
        St.Sink.acquired sinks.(pi) ~ns:(E.now () - at);
        t.counts.(t.tid) <- t.counts.(t.tid) + 1)
  in
  (* one lock instance per stripe — the per-node lock-array shape *)
  let r =
    Workload.simulate ~locks:p.stripes ~duration:(total_ns p) ~platform
      ~cpus ~spec body
  in
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
