(* Per-thread lock-event counters. Plain mutable ints: a recorder is
   only ever written by the thread that owns it (the context invariant
   extends to the sink installed in a context), so recording is a field
   increment — no atomics, no allocation on the hot path. *)

let max_levels = 8
let nbuckets = 24

type recorder = {
  mutable acquisitions : int;
  mutable fastpath : int;
  mutable contended : int;
  mutable spins : int;
  mutable timeouts : int;       (* whole-lock try_acquire deadlines hit *)
  local_pass : int array;       (* per level, 0 = outermost/system *)
  remote_pass : int array;
  keep_local_kept : int array;
  h_exhausted : int array;
  aborts : int array;           (* per level: waits abandoned there *)
  latency : int array;          (* log2-bucketed acquire latency, ns *)
}

let create () =
  {
    acquisitions = 0;
    fastpath = 0;
    contended = 0;
    spins = 0;
    timeouts = 0;
    local_pass = Array.make max_levels 0;
    remote_pass = Array.make max_levels 0;
    keep_local_kept = Array.make max_levels 0;
    h_exhausted = Array.make max_levels 0;
    aborts = Array.make max_levels 0;
    latency = Array.make nbuckets 0;
  }

(* bucket [i] holds latencies in [2^i, 2^(i+1)) ns; 0 ns lands in
   bucket 0, values past the last boundary are clamped into the top
   bucket *)
let bucket_of_ns ns =
  if ns <= 1 then 0
  else begin
    let b = ref 0 and v = ref ns in
    while !v > 1 do
      incr b;
      v := !v lsr 1
    done;
    min !b (nbuckets - 1)
  end

let bucket_lo i = if i <= 0 then 0 else 1 lsl i

let merge a b =
  let arr2 f g = Array.init (Array.length f) (fun i -> f.(i) + g.(i)) in
  {
    acquisitions = a.acquisitions + b.acquisitions;
    fastpath = a.fastpath + b.fastpath;
    contended = a.contended + b.contended;
    spins = a.spins + b.spins;
    timeouts = a.timeouts + b.timeouts;
    local_pass = arr2 a.local_pass b.local_pass;
    remote_pass = arr2 a.remote_pass b.remote_pass;
    keep_local_kept = arr2 a.keep_local_kept b.keep_local_kept;
    h_exhausted = arr2 a.h_exhausted b.h_exhausted;
    aborts = arr2 a.aborts b.aborts;
    latency = arr2 a.latency b.latency;
  }

let merge_all = function
  | [] -> create ()
  | r :: rest -> List.fold_left merge r rest

let equal a b =
  a.acquisitions = b.acquisitions
  && a.fastpath = b.fastpath
  && a.contended = b.contended
  && a.spins = b.spins
  && a.timeouts = b.timeouts
  && a.local_pass = b.local_pass
  && a.remote_pass = b.remote_pass
  && a.keep_local_kept = b.keep_local_kept
  && a.h_exhausted = b.h_exhausted
  && a.aborts = b.aborts
  && a.latency = b.latency

(* ---------- accessors ---------- *)

let acquisitions r = r.acquisitions
let fastpath r = r.fastpath
let contended r = r.contended
let spins r = r.spins
let timeouts r = r.timeouts

let at arr level =
  if level < 0 || level >= max_levels then 0 else arr.(level)

let local_pass r ~level = at r.local_pass level
let remote_pass r ~level = at r.remote_pass level
let keep_local_kept r ~level = at r.keep_local_kept level
let h_exhausted r ~level = at r.h_exhausted level
let aborts r ~level = at r.aborts level
let handovers r ~level = at r.local_pass level + at r.remote_pass level

(* allocation-free int-array sum (no ref cell, no closure) for the
   whole-tree fractions and epoch deltas below *)
let sum_arr a =
  let rec go i acc = if i >= Array.length a then acc else go (i + 1) (acc + a.(i)) in
  go 0 0

let keep_local_fraction r =
  let kept = sum_arr r.keep_local_kept in
  let total = kept + sum_arr r.h_exhausted in
  if total = 0 then 0.0 else float_of_int kept /. float_of_int total

let locality r =
  let local = sum_arr r.local_pass in
  let total = local + sum_arr r.remote_pass in
  if total = 0 then 0.0 else float_of_int local /. float_of_int total

let levels_used r =
  let used = ref 0 in
  for i = 0 to max_levels - 1 do
    if
      r.local_pass.(i) <> 0
      || r.remote_pass.(i) <> 0
      || r.keep_local_kept.(i) <> 0
      || r.h_exhausted.(i) <> 0
      || r.aborts.(i) <> 0
    then used := i + 1
  done;
  !used

let latency_samples r = Array.fold_left ( + ) 0 r.latency

(* Interpolated percentile: find the bucket holding the p-quantile
   sample, then interpolate linearly across the bucket's width assuming
   samples are spread uniformly inside it.  The log2 buckets make the
   bucket's lower bound understate tail latency by up to 2x; the
   interpolated value is still only accurate
   to the bucket width (its error is < bucket_lo i, i.e. a factor of
   2 at worst, exact when the in-bucket distribution is uniform), but
   it is monotone in p and lands mid-bucket instead of pinning to the
   left edge.  The top bucket is open-ended; it is interpolated as if
   it had the same width as a closed bucket, [2^23, 2^24). *)
let percentile_interp r p =
  let total = latency_samples r in
  if total = 0 then None
  else begin
    let target =
      let t = int_of_float (Float.of_int total *. p /. 100.0) in
      min (max t 0) (total - 1)
    in
    let rec go i before =
      if i >= nbuckets then Some (float_of_int (bucket_lo (nbuckets - 1)))
      else begin
        let c = r.latency.(i) in
        if before + c > target then begin
          let lo = float_of_int (bucket_lo i) in
          let hi =
            if i >= nbuckets - 1 then 2.0 *. lo else float_of_int (bucket_lo (i + 1))
          in
          (* 0-based position of the target sample among the c samples
             in this bucket; the +0.5 places each sample at the centre
             of its 1/c slice of the bucket *)
          let pos = float_of_int (target - before) +. 0.5 in
          Some (lo +. ((hi -. lo) *. pos /. float_of_int c))
        end
        else go (i + 1) (before + c)
      end
    in
    go 0 0
  end

(* ---------- epoch snapshots ----------

   An adaptive controller samples a live recorder once per epoch. A
   snapshot is just a recorder used as a copy target: [capture] is a
   field-by-field blit (no allocation), and the [since_*] readers
   subtract the snapshot from the live recorder without materialising
   the delta. [delta] builds the difference as a fresh recorder for
   reporting and tests. *)

type snapshot = recorder

let snapshot = create

let capture s r =
  s.acquisitions <- r.acquisitions;
  s.fastpath <- r.fastpath;
  s.contended <- r.contended;
  s.spins <- r.spins;
  s.timeouts <- r.timeouts;
  Array.blit r.local_pass 0 s.local_pass 0 max_levels;
  Array.blit r.remote_pass 0 s.remote_pass 0 max_levels;
  Array.blit r.keep_local_kept 0 s.keep_local_kept 0 max_levels;
  Array.blit r.h_exhausted 0 s.h_exhausted 0 max_levels;
  Array.blit r.aborts 0 s.aborts 0 max_levels;
  Array.blit r.latency 0 s.latency 0 nbuckets

let delta ~prev ~cur =
  let arr2 f g = Array.init (Array.length f) (fun i -> f.(i) - g.(i)) in
  {
    acquisitions = cur.acquisitions - prev.acquisitions;
    fastpath = cur.fastpath - prev.fastpath;
    contended = cur.contended - prev.contended;
    spins = cur.spins - prev.spins;
    timeouts = cur.timeouts - prev.timeouts;
    local_pass = arr2 cur.local_pass prev.local_pass;
    remote_pass = arr2 cur.remote_pass prev.remote_pass;
    keep_local_kept = arr2 cur.keep_local_kept prev.keep_local_kept;
    h_exhausted = arr2 cur.h_exhausted prev.h_exhausted;
    aborts = arr2 cur.aborts prev.aborts;
    latency = arr2 cur.latency prev.latency;
  }

let since_fastpath r (s : snapshot) = r.fastpath - s.fastpath
let since_contended r (s : snapshot) = r.contended - s.contended

let since_handovers r (s : snapshot) =
  sum_arr r.local_pass + sum_arr r.remote_pass
  - sum_arr s.local_pass - sum_arr s.remote_pass

let since_local_pass r (s : snapshot) =
  sum_arr r.local_pass - sum_arr s.local_pass

let since_h_exhausted r (s : snapshot) =
  sum_arr r.h_exhausted - sum_arr s.h_exhausted

(* ---------- JSON ---------- *)

let to_json r =
  let levels =
    List.filteri
      (fun i _ ->
        r.local_pass.(i) <> 0
        || r.remote_pass.(i) <> 0
        || r.keep_local_kept.(i) <> 0
        || r.h_exhausted.(i) <> 0
        || r.aborts.(i) <> 0)
      (List.init max_levels Fun.id)
    |> List.map (fun i ->
           Json.Obj
             [
               ("level", Json.Int i);
               ("local_pass", Json.Int r.local_pass.(i));
               ("remote_pass", Json.Int r.remote_pass.(i));
               ("keep_local", Json.Int r.keep_local_kept.(i));
               ("h_exhausted", Json.Int r.h_exhausted.(i));
               ("aborts", Json.Int r.aborts.(i));
             ])
  in
  let latency =
    List.filteri
      (fun i _ -> r.latency.(i) <> 0)
      (List.init nbuckets Fun.id)
    |> List.map (fun i ->
           Json.Obj
             [
               ("bucket", Json.Int i);
               ("lo_ns", Json.Int (bucket_lo i));
               ("count", Json.Int r.latency.(i));
             ])
  in
  Json.Obj
    [
      ("acquisitions", Json.Int r.acquisitions);
      ("fastpath", Json.Int r.fastpath);
      ("contended", Json.Int r.contended);
      ("spins", Json.Int r.spins);
      ("timeouts", Json.Int r.timeouts);
      ("levels", Json.Arr levels);
      ("latency_ns", Json.Arr latency);
    ]

(* ---------- the recording interface ---------- *)

module Sink = struct
  (* [None] is the disabled sink: every operation is a single
     pattern-match returning unit, so instrumented code pays one branch
     and no simulated-memory traffic when observability is off. *)
  type t = recorder option

  let null : t = None
  let of_recorder r : t = Some r
  let recorder (t : t) = t

  let clamp level = if level >= max_levels then max_levels - 1 else level

  let acquired (t : t) ~ns =
    match t with
    | None -> ()
    | Some r ->
        r.acquisitions <- r.acquisitions + 1;
        let b = bucket_of_ns ns in
        r.latency.(b) <- r.latency.(b) + 1

  let fast_path (t : t) =
    match t with None -> () | Some r -> r.fastpath <- r.fastpath + 1

  let contended (t : t) =
    match t with None -> () | Some r -> r.contended <- r.contended + 1

  let spin (t : t) n =
    match t with None -> () | Some r -> r.spins <- r.spins + n

  let handover (t : t) ~level ~local =
    match t with
    | None -> ()
    | Some r ->
        let level = clamp level in
        if local then r.local_pass.(level) <- r.local_pass.(level) + 1
        else r.remote_pass.(level) <- r.remote_pass.(level) + 1

  let timeout (t : t) =
    match t with None -> () | Some r -> r.timeouts <- r.timeouts + 1

  let abort (t : t) ~level =
    match t with
    | None -> ()
    | Some r ->
        let level = clamp level in
        r.aborts.(level) <- r.aborts.(level) + 1

  let keep_local (t : t) ~level ~kept =
    match t with
    | None -> ()
    | Some r ->
        let level = clamp level in
        if kept then
          r.keep_local_kept.(level) <- r.keep_local_kept.(level) + 1
        else r.h_exhausted.(level) <- r.h_exhausted.(level) + 1
end
