(* Measurement primitives shared by every workload: the host clock,
   summary statistics, the span recorder behind a traced run, and the
   record a workload hands back for each pass.

   Two clocks appear in the output and every number is labelled with
   one. [host] numbers are wall clock (CLOCK_MONOTONIC, through
   [Real_mem.now]) or allocation counts of this process; they vary run
   to run. [sim] numbers are outputs of the modelled machine or of the
   model checker; they are deterministic in the seed. *)

module Json = Clof_stats.Json
module S = Clof_stats.Stats

let now = Clof_atomics.Real_mem.now
let seconds_of_ns ns = float_of_int ns /. 1e9
let ms_of_ns ns = float_of_int ns /. 1e6

(* ---------- summary statistics ---------- *)

let median = function
  | [] -> nan
  | l ->
      let a = Array.of_list l in
      Array.sort compare a;
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let geomean = function
  | [] -> nan
  | l ->
      if List.exists (fun v -> v <= 0.0) l then 0.0
      else
        exp
          (List.fold_left (fun a v -> a +. log v) 0.0 l
          /. float_of_int (List.length l))

let sum f l = List.fold_left (fun a x -> a + f x) 0 l

(* Percentile of a latency recorder in microseconds. [offered] counts
   requests that should have been recorded: the ones that never
   completed sit at +infinity, so a percentile that reaches into them
   is infinite rather than silently computed over the survivors. *)
let pct_us ?offered r p =
  let completed = S.latency_samples r in
  let offered = Option.value offered ~default:completed in
  if offered = 0 then nan
  else
    let rank = p /. 100.0 *. float_of_int offered in
    if rank > float_of_int completed then infinity
    else
      let p' = 100.0 *. rank /. float_of_int completed in
      match S.percentile_interp r (Float.min 100.0 p') with
      | Some ns -> ns /. 1000.0
      | None -> nan

let h_exhausted r =
  let n = ref 0 in
  for level = 0 to S.max_levels - 1 do
    n := !n + S.h_exhausted r ~level
  done;
  !n

let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b

let digest_hex s = Digest.to_hex (Digest.string s)

(* ---------- what a pass returns ---------- *)

type kind = Host | Sim

let kind_name = function Host -> "host" | Sim -> "sim"

type detail = { name : string; value : float; unit_ : string; kind : kind }

let host name unit_ value = { name; value; unit_; kind = Host }
let sim name unit_ value = { name; value; unit_; kind = Sim }

(* The lock-layer counters every lock-running workload reports, named
   as in [Runner.per_layer]. [acquisitions] overrides the recorder's count
   for runners that do not record it (Kvservice counts requests
   instead). *)
let lock_counters ~kind ?acquisitions r =
  let acq = Option.value acquisitions ~default:(S.acquisitions r) in
  List.map
    (fun (name, unit_, value) -> { name; value; unit_; kind })
    [
      ("lock.acquisitions", "count", float_of_int acq);
      ("lock.locality", "fraction", S.locality r);
      ("lock.keep_local_frac", "fraction", S.keep_local_fraction r);
      ("lock.h_exhausted", "count", float_of_int (h_exhausted r));
      ("lock.fastpath_frac", "fraction", ratio (S.fastpath r) acq);
    ]

type pass = {
  attempted : int;  (** operations whose outputs were checked *)
  failed : int;  (** of which failed *)
  failures : string list;  (** what failed, one message per failure event *)
  steps : int;
      (** work units of the workload's core layer: engine events,
          checker steps or real lock operations *)
  details : detail list;
      (** workload-specific metrics; those named as in
          [Runner.per_layer] are also per-layer counters *)
  digest : string;  (** hash of every simulated output of the pass *)
}

(* Failure bookkeeping for one pass. *)
type tally = {
  mutable attempted : int;
  mutable failed : int;
  mutable failures : string list;
}

let tally () = { attempted = 0; failed = 0; failures = [] }

(* [n] operations attempted, [failed] of them failed. *)
let record t ~n ~failed msg =
  t.attempted <- t.attempted + n;
  if failed > 0 then begin
    t.failed <- t.failed + failed;
    t.failures <- msg () :: t.failures
  end

let expect t ok msg = record t ~n:1 ~failed:(if ok then 0 else 1) msg

let finish t ~steps ~details digest_input =
  {
    attempted = t.attempted;
    failed = t.failed;
    failures = t.failures;
    steps;
    details;
    digest = digest_hex (Buffer.contents digest_input);
  }

(* ---------- spans ----------

   A traced run records one span around each call into a library layer
   and around the benchmark's own phases. Spans go to preallocated
   arrays (allocated only when tracing is armed, so an untraced run's
   heap is unaffected) and are written out once, at exit, as Chrome
   trace-event JSON — the format Perfetto and chrome://tracing load. *)

type layer = Setup | Bench | Call | Check

let layers = [ Setup; Bench; Call; Check ]

let layer_name = function
  | Setup -> "setup"
  | Bench -> "bench"
  | Call -> "call"
  | Check -> "check"

type buf = {
  names : string array;
  layer : layer array;
  t0 : int array;
  t1 : int array;
  parent : int array;
  run : int array;
  mutable n : int;
  mutable dropped : int;
  stack : int array;
  mutable depth : int;
}

let capacity = 1 lsl 17
let buf = ref None
let recording = ref false
let run_id = ref 0

let arm () =
  buf :=
    Some
      {
        names = Array.make capacity "";
        layer = Array.make capacity Bench;
        t0 = Array.make capacity 0;
        t1 = Array.make capacity 0;
        parent = Array.make capacity (-1);
        run = Array.make capacity 0;
        n = 0;
        dropped = 0;
        stack = Array.make 16 (-1);
        depth = 0;
      }

let span layer name f =
  match !buf with
  | Some b when !recording ->
      if b.n >= capacity || b.depth >= Array.length b.stack then begin
        b.dropped <- b.dropped + 1;
        f ()
      end
      else begin
        let i = b.n in
        b.n <- i + 1;
        b.names.(i) <- name;
        b.layer.(i) <- layer;
        b.run.(i) <- !run_id;
        b.parent.(i) <- (if b.depth > 0 then b.stack.(b.depth - 1) else -1);
        b.stack.(b.depth) <- i;
        b.depth <- b.depth + 1;
        b.t0.(i) <- now ();
        Fun.protect
          ~finally:(fun () ->
            b.t1.(i) <- now ();
            b.depth <- b.depth - 1)
          f
      end
  | Some _ | None -> f ()

(* Host latency of every public call, traced or not. *)
let call_ns = ref (Array.make 4096 0)
let ncalls = ref 0

let call name f =
  let t0 = now () in
  let v = span Call name f in
  let dt = now () - t0 in
  if !ncalls = Array.length !call_ns then begin
    let a = Array.make (2 * !ncalls) 0 in
    Array.blit !call_ns 0 a 0 !ncalls;
    call_ns := a
  end;
  !call_ns.(!ncalls) <- dt;
  incr ncalls;
  v

let calls_since k = Array.to_list (Array.sub !call_ns k (!ncalls - k))

(* Map [f] over independent items, each timed as one public call. When
   the executor has more than one job (the traced run's -j 2 pass) the
   items run in parallel through Clof_exec.Exec instead, untimed: the
   span and latency buffers belong to the main domain. *)
let calls label f items =
  if Clof_exec.Exec.jobs () > 1 then Clof_exec.Exec.map f items
  else List.map (fun x -> call (label x) (fun () -> f x)) items

(* Self time per layer, summed over the spans whose run id satisfies
   [keep]: a span's duration minus the part its child spans cover. *)
let self_ns ~keep =
  match !buf with
  | None -> List.map (fun l -> (l, 0)) layers
  | Some b ->
      let self = Array.init b.n (fun i -> b.t1.(i) - b.t0.(i)) in
      for i = 0 to b.n - 1 do
        let p = b.parent.(i) in
        if p >= 0 then self.(p) <- self.(p) - (b.t1.(i) - b.t0.(i))
      done;
      List.map
        (fun l ->
          let s = ref 0 in
          for i = 0 to b.n - 1 do
            if b.layer.(i) = l && keep b.run.(i) then s := !s + self.(i)
          done;
          (l, !s))
        layers

let spans ~keep =
  match !buf with
  | None -> 0
  | Some b ->
      let c = ref 0 in
      for i = 0 to b.n - 1 do
        if keep b.run.(i) then incr c
      done;
      !c

let chrome_trace () =
  match !buf with
  | None -> Json.Obj [ ("traceEvents", Json.Arr []) ]
  | Some b ->
      let base = if b.n > 0 then b.t0.(0) else 0 in
      let us ns = float_of_int ns /. 1e3 in
      let event i =
        Json.Obj
          [
            ("name", Json.Str b.names.(i));
            ("cat", Json.Str (layer_name b.layer.(i)));
            ("ph", Json.Str "X");
            ("ts", Json.Float (us (b.t0.(i) - base)));
            ("dur", Json.Float (us (b.t1.(i) - b.t0.(i))));
            ("pid", Json.Int 1);
            ("tid", Json.Int 1);
            ( "args",
              Json.Obj
                [
                  ("id", Json.Int i);
                  ("parent", Json.Int b.parent.(i));
                  ("run", Json.Int b.run.(i));
                ] );
          ]
      in
      Json.Obj
        [
          ("traceEvents", Json.Arr (List.init b.n event));
          ("displayTimeUnit", Json.Str "ms");
          ("droppedSpans", Json.Int b.dropped);
        ]
