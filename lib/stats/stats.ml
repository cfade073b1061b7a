(* Per-thread lock-event counters. Plain mutable ints: a recorder is
   only ever written by the thread that owns it (the context invariant
   extends to the sink installed in a context), so recording is an
   array increment — no atomics, no allocation on the hot path. *)

let max_levels = 8
let nbuckets = 24

(* A recorder is one int array; [Off] says where each counter lives:
   five whole-lock counters, five per-level blocks of [max_levels]
   (index 0 = outermost/system level), then [nbuckets] log2-bucketed
   acquire-latency counts. Every whole-recorder operation below is one
   array operation, so a new counter is one new offset here. *)
type recorder = int array

module Off = struct
  let acquisitions = 0
  let fastpath = 1
  let contended = 2
  let spins = 3
  let timeouts = 4 (* whole-lock try_acquire deadlines hit *)
  let block k = timeouts + 1 + (k * max_levels)
  let local_pass = block 0
  let remote_pass = block 1
  let keep_local_kept = block 2
  let h_exhausted = block 3
  let aborts = block 4 (* waits abandoned at that level *)
  let nblocks = 5
  let latency = block nblocks
  let size = latency + nbuckets
end

let create () = Array.make Off.size 0

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
let merge a b = Array.map2 ( + ) a b

(* one pass, summing into one fresh recorder: no intermediate sum per
   list element *)
let merge_all rs =
  let acc = create () in
  List.iter
    (fun r ->
      for i = 0 to Off.size - 1 do
        acc.(i) <- acc.(i) + r.(i)
      done)
    rs;
  acc

let equal (a : recorder) b = a = b

(* ---------- accessors ---------- *)

let acquisitions r = r.(Off.acquisitions)
let fastpath r = r.(Off.fastpath)
let contended r = r.(Off.contended)
let spins r = r.(Off.spins)
let timeouts r = r.(Off.timeouts)

let at r block level =
  if level < 0 || level >= max_levels then 0 else r.(block + level)

let local_pass r ~level = at r Off.local_pass level
let remote_pass r ~level = at r Off.remote_pass level
let keep_local_kept r ~level = at r Off.keep_local_kept level
let h_exhausted r ~level = at r Off.h_exhausted level
let aborts r ~level = at r Off.aborts level
let handovers r ~level = local_pass r ~level + remote_pass r ~level

(* allocation-free sum of the [n] counters from offset [off] (no ref
   cell, no closure) for the whole-tree fractions and epoch deltas
   below *)
let sum r off n =
  let rec go i acc = if i >= n then acc else go (i + 1) (acc + r.(off + i)) in
  go 0 0

let sum_levels r block = sum r block max_levels

let keep_local_fraction r =
  let kept = sum_levels r Off.keep_local_kept in
  let total = kept + sum_levels r Off.h_exhausted in
  if total = 0 then 0.0 else float_of_int kept /. float_of_int total

let locality r =
  let local = sum_levels r Off.local_pass in
  let total = local + sum_levels r Off.remote_pass in
  if total = 0 then 0.0 else float_of_int local /. float_of_int total

(* any per-level counter at [level] is nonzero *)
let level_used r level =
  let rec go k =
    k < Off.nblocks && (r.(Off.block k + level) <> 0 || go (k + 1))
  in
  go 0

let levels_used r =
  let used = ref 0 in
  for i = 0 to max_levels - 1 do
    if level_used r i then used := i + 1
  done;
  !used

let latency_samples r = sum r Off.latency nbuckets

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
        let c = r.(Off.latency + i) in
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

(* ---------- epoch sampling ----------

   An adaptive controller samples a live recorder once per epoch into a
   second recorder: [capture] is one blit (no allocation), and the
   [since_*] readers subtract the copy from the live recorder without
   materialising the delta. *)

let capture dst r = Array.blit r 0 dst 0 Off.size
let since_fastpath r prev = fastpath r - fastpath prev
let since_contended r prev = contended r - contended prev
let since_levels block r prev = sum_levels r block - sum_levels prev block

let since_handovers r prev =
  since_levels Off.local_pass r prev + since_levels Off.remote_pass r prev

let since_local_pass r prev = since_levels Off.local_pass r prev
let since_h_exhausted r prev = since_levels Off.h_exhausted r prev

(* ---------- JSON ---------- *)

let to_json r =
  let levels =
    List.filter (level_used r) (List.init max_levels Fun.id)
    |> List.map (fun i ->
           Json.Obj
             [
               ("level", Json.Int i);
               ("local_pass", Json.Int (local_pass r ~level:i));
               ("remote_pass", Json.Int (remote_pass r ~level:i));
               ("keep_local", Json.Int (keep_local_kept r ~level:i));
               ("h_exhausted", Json.Int (h_exhausted r ~level:i));
               ("aborts", Json.Int (aborts r ~level:i));
             ])
  in
  let latency =
    List.filter
      (fun i -> r.(Off.latency + i) <> 0)
      (List.init nbuckets Fun.id)
    |> List.map (fun i ->
           Json.Obj
             [
               ("bucket", Json.Int i);
               ("lo_ns", Json.Int (bucket_lo i));
               ("count", Json.Int r.(Off.latency + i));
             ])
  in
  Json.Obj
    [
      ("acquisitions", Json.Int (acquisitions r));
      ("fastpath", Json.Int (fastpath r));
      ("contended", Json.Int (contended r));
      ("spins", Json.Int (spins r));
      ("timeouts", Json.Int (timeouts r));
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

  (* [@inline] keeps each whole-lock event as small at its call site in
     the lock code as a record-field increment would be *)
  let[@inline] add (t : t) i n =
    match t with None -> () | Some r -> r.(i) <- r.(i) + n

  (* one event at [level] of the per-level [block] *)
  let add_level (t : t) block level =
    match t with
    | None -> ()
    | Some r ->
        let i = block + clamp level in
        r.(i) <- r.(i) + 1

  let acquired (t : t) ~ns =
    match t with
    | None -> ()
    | Some r ->
        r.(Off.acquisitions) <- r.(Off.acquisitions) + 1;
        let b = Off.latency + bucket_of_ns ns in
        r.(b) <- r.(b) + 1

  let[@inline] fast_path t = add t Off.fastpath 1
  let[@inline] contended t = add t Off.contended 1
  let[@inline] spin t n = add t Off.spins n
  let[@inline] timeout t = add t Off.timeouts 1

  let handover t ~level ~local =
    add_level t (if local then Off.local_pass else Off.remote_pass) level

  let abort t ~level = add_level t Off.aborts level

  let keep_local t ~level ~kept =
    add_level t (if kept then Off.keep_local_kept else Off.h_exhausted) level
end
