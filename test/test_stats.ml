open Clof_topology
module S = Clof_stats.Stats
module J = Clof_stats.Json
module M = Clof_sim.Sim_mem
module R = Clof_locks.Registry.Make (M)
module G = Clof_core.Generator.Make (M)
module W = Clof_workloads.Workload
module RT = Clof_core.Runtime

let qcheck = QCheck_alcotest.to_alcotest
let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

(* ---------- events, for building arbitrary recorders ---------- *)

type event =
  | Acquired of int
  | Fast
  | Contended
  | Spin of int
  | Handover of int * bool
  | Keep_local of int * bool
  | Timeout
  | Abort of int

let apply sink = function
  | Acquired ns -> S.Sink.acquired sink ~ns
  | Fast -> S.Sink.fast_path sink
  | Contended -> S.Sink.contended sink
  | Spin n -> S.Sink.spin sink n
  | Handover (level, local) -> S.Sink.handover sink ~level ~local
  | Keep_local (level, kept) -> S.Sink.keep_local sink ~level ~kept
  | Timeout -> S.Sink.timeout sink
  | Abort level -> S.Sink.abort sink ~level

let record events =
  let r = S.create () in
  let sink = S.Sink.of_recorder r in
  List.iter (apply sink) events;
  r

let event_gen =
  QCheck.Gen.(
    oneof
      [
        map (fun ns -> Acquired ns) (int_bound 100_000);
        return Fast;
        return Contended;
        map (fun n -> Spin n) (int_bound 50);
        map2
          (fun l b -> Handover (l, b))
          (int_bound (S.max_levels + 2))
          bool;
        map2
          (fun l b -> Keep_local (l, b))
          (int_bound (S.max_levels + 2))
          bool;
        return Timeout;
        map (fun l -> Abort l) (int_bound (S.max_levels + 2));
      ])

let events_arb = QCheck.make QCheck.Gen.(list_size (int_bound 60) event_gen)

(* ---------- merge ---------- *)

let test_merge_associative =
  QCheck.Test.make ~name:"merge is associative and commutative" ~count:200
    QCheck.(triple events_arb events_arb events_arb)
    (fun (ea, eb, ec) ->
      let a = record ea and b = record eb and c = record ec in
      S.equal (S.merge (S.merge a b) c) (S.merge a (S.merge b c))
      && S.equal (S.merge a b) (S.merge b a))

let test_merge_identity =
  QCheck.Test.make ~name:"empty recorder is the merge identity" ~count:100
    events_arb (fun es ->
      let r = record es in
      S.equal (S.merge r (S.create ())) r)

let test_merge_counts () =
  let a = record [ Acquired 5; Fast; Handover (1, true); Timeout ] in
  let b =
    record
      [ Acquired 7; Contended; Handover (1, false); Spin 3; Timeout;
        Abort 1; Abort 0 ]
  in
  let m = S.merge a b in
  check_int "acquisitions" 2 (S.acquisitions m);
  check_int "fastpath" 1 (S.fastpath m);
  check_int "contended" 1 (S.contended m);
  check_int "spins" 3 (S.spins m);
  check_int "local level 1" 1 (S.local_pass m ~level:1);
  check_int "remote level 1" 1 (S.remote_pass m ~level:1);
  check_int "handovers" 2 (S.handovers m ~level:1);
  check_int "timeouts" 2 (S.timeouts m);
  check_int "aborts level 0" 1 (S.aborts m ~level:0);
  check_int "aborts level 1" 1 (S.aborts m ~level:1);
  check_bool "merge left originals alone" true
    (S.acquisitions a = 1 && S.acquisitions b = 1)

(* ---------- counter layout ---------- *)

(* Every counter a recorder exposes, keyed by (name, level); the
   whole-lock ones have level -1, the per-level ones appear at every
   tracked level. *)
let counters r =
  let whole =
    [
      ("acquisitions", S.acquisitions); ("fastpath", S.fastpath);
      ("contended", S.contended); ("spins", S.spins);
      ("timeouts", S.timeouts);
    ]
  and per_level =
    [
      ("local_pass", S.local_pass); ("remote_pass", S.remote_pass);
      ("keep_local_kept", S.keep_local_kept);
      ("h_exhausted", S.h_exhausted); ("aborts", S.aborts);
    ]
  in
  List.map (fun (name, f) -> ((name, -1), f r)) whole
  @ List.concat_map
      (fun (name, f) ->
        List.init S.max_levels (fun level -> ((name, level), f r ~level)))
      per_level

(* One event into a fresh recorder moves exactly its own counter, at
   the clamped level, by the event's amount, and nothing else: no other
   counter, level or latency bucket. Catches overlapping offsets. *)
let test_event_isolation () =
  let clamp l = min l (S.max_levels - 1) in
  let whole =
    List.map
      (fun ns -> (Acquired ns, ("acquisitions", -1), 1))
      [ 0; 17; 1 lsl 40 ]
    @ [
        (Fast, ("fastpath", -1), 1);
        (Contended, ("contended", -1), 1);
        (Spin 3, ("spins", -1), 3);
        (Timeout, ("timeouts", -1), 1);
      ]
  and per_level l =
    [
      (Handover (l, true), ("local_pass", clamp l), 1);
      (Handover (l, false), ("remote_pass", clamp l), 1);
      (Keep_local (l, true), ("keep_local_kept", clamp l), 1);
      (Keep_local (l, false), ("h_exhausted", clamp l), 1);
      (Abort l, ("aborts", clamp l), 1);
    ]
  in
  List.iteri
    (fun i (ev, target, amount) ->
      let r = record [ ev ] in
      List.iter
        (fun ((name, level) as key, v) ->
          check_int
            (Printf.sprintf "event %d: %s level %d" i name level)
            (if key = target then amount else 0)
            v)
        (counters r);
      let buckets =
        match ev with
        | Acquired ns ->
            let b = S.bucket_of_ns ns in
            [
              J.Obj
                [
                  ("bucket", J.Int b); ("lo_ns", J.Int (S.bucket_lo b));
                  ("count", J.Int 1);
                ];
            ]
        | _ -> []
      in
      check_bool
        (Printf.sprintf "event %d: latency buckets" i)
        true
        (J.member "latency_ns" (S.to_json r) = Some (J.Arr buckets)))
    (whole @ List.concat_map per_level (List.init (S.max_levels + 2) Fun.id))

(* ---------- derived ratios ---------- *)

let test_ratio_bounds =
  QCheck.Test.make
    ~name:"keep_local_fraction and locality stay in [0, 1]" ~count:300
    events_arb
    (fun es ->
      let r = record es in
      let in_unit v = v >= 0.0 && v <= 1.0 in
      in_unit (S.keep_local_fraction r) && in_unit (S.locality r))

let test_ratio_empty () =
  let r = S.create () in
  check_bool "empty keep_local_fraction" true
    (S.keep_local_fraction r = 0.0);
  check_bool "empty locality" true (S.locality r = 0.0);
  let all_local = record [ Handover (1, true); Keep_local (1, true) ] in
  check_bool "all-local locality" true (S.locality all_local = 1.0);
  check_bool "all-kept fraction" true
    (S.keep_local_fraction all_local = 1.0)

(* ---------- epoch sampling ---------- *)

let test_capture () =
  let r =
    record [ Acquired 5; Fast; Handover (1, true); Keep_local (1, true) ]
  in
  (* [dst] differs from [r] in the first and the last counter of the
     layout (acquisitions, the top latency bucket), so a partial copy
     shows *)
  let dst =
    record
      [ Acquired 9; Acquired 1_000_000_000; Contended; Spin 2; Abort 3 ]
  in
  S.capture dst r;
  check_bool "capture overwrites with a copy" true (S.equal dst r);
  S.Sink.fast_path (S.Sink.of_recorder r);
  check_bool "the copy does not follow its source" false (S.equal dst r)

let test_since_readers () =
  let r = S.create () in
  let sink = S.Sink.of_recorder r in
  let snap = S.create () in
  List.iter (apply sink) [ Acquired 3; Fast ];
  S.capture snap r;
  List.iter (apply sink)
    [
      Acquired 7; Contended; Spin 5; Handover (0, false);
      Handover (1, true); Keep_local (2, false);
    ];
  check_int "since_fastpath" 0 (S.since_fastpath r snap);
  check_int "since_contended" 1 (S.since_contended r snap);
  check_int "since_handovers" 2 (S.since_handovers r snap);
  check_int "since_local_pass" 1 (S.since_local_pass r snap);
  check_int "since_h_exhausted" 1 (S.since_h_exhausted r snap);
  (* capturing again zeroes every delta *)
  S.capture snap r;
  check_int "recapture zeroes contended" 0 (S.since_contended r snap);
  check_int "recapture zeroes handovers" 0 (S.since_handovers r snap)

let test_since_qcheck =
  QCheck.Test.make ~name:"since_* readers count exactly the tail events"
    ~count:200
    QCheck.(pair events_arb events_arb)
    (fun (e1, e2) ->
      let r = record e1 in
      let prev = S.create () in
      S.capture prev r;
      List.iter (apply (S.Sink.of_recorder r)) e2;
      let tail = record e2 in
      let all_levels counter =
        List.fold_left
          (fun acc level -> acc + counter tail ~level)
          0
          (List.init S.max_levels Fun.id)
      in
      S.since_fastpath r prev = S.fastpath tail
      && S.since_contended r prev = S.contended tail
      && S.since_handovers r prev = all_levels S.handovers
      && S.since_local_pass r prev = all_levels S.local_pass
      && S.since_h_exhausted r prev = all_levels S.h_exhausted)

(* ---------- histogram buckets ---------- *)

let test_bucket_boundaries () =
  check_int "0 ns" 0 (S.bucket_of_ns 0);
  check_int "1 ns" 0 (S.bucket_of_ns 1);
  check_int "2 ns" 1 (S.bucket_of_ns 2);
  check_int "3 ns" 1 (S.bucket_of_ns 3);
  check_int "4 ns" 2 (S.bucket_of_ns 4);
  (* every power of two opens its own bucket; one below stays behind *)
  for i = 1 to S.nbuckets - 1 do
    check_int (Printf.sprintf "2^%d" i) i (S.bucket_of_ns (1 lsl i));
    check_int (Printf.sprintf "2^%d - 1" i) (i - 1)
      (S.bucket_of_ns ((1 lsl i) - 1))
  done;
  check_int "huge clamps to last" (S.nbuckets - 1)
    (S.bucket_of_ns max_int);
  check_int "bucket_lo inverts" 4096 (S.bucket_lo (S.bucket_of_ns 5000))

let test_bucket_lo_consistent =
  QCheck.Test.make ~name:"bucket_lo v <= v for in-range samples" ~count:500
    QCheck.(int_bound 1_000_000)
    (fun v ->
      let b = S.bucket_of_ns v in
      S.bucket_lo b <= max 1 v
      && (b = S.nbuckets - 1 || max 1 v < S.bucket_lo (b + 1)))

(* The lower-bound bucket readings, on the interpolated percentile:
   each reading lands inside the bucket that holds the p-quantile
   sample. *)
let test_percentile () =
  let r = record [ Acquired 1; Acquired 2; Acquired 1000 ] in
  check_int "samples" 3 (S.latency_samples r);
  let within p lo hi =
    match S.percentile_interp r p with
    | Some v -> lo <= v && v < hi
    | None -> false
  in
  check_bool "p01 in first bucket" true (within 1.0 0.0 2.0);
  check_bool "p99 in 512-bucket" true (within 99.0 512.0 1024.0);
  check_bool "no samples, no percentile" true
    (S.percentile_interp (S.create ()) 50.0 = None)

let test_percentile_interp () =
  check_bool "no samples" true
    (S.percentile_interp (S.create ()) 50.0 = None);
  (* single sample in [512, 1024): every p interpolates to the bucket
     midpoint — never the bucket's left edge *)
  let one = record [ Acquired 1000 ] in
  check_bool "single sample at midpoint" true
    (S.percentile_interp one 50.0 = Some 768.0
    && S.percentile_interp one 99.9 = Some 768.0);
  (* two samples in [2, 4): slices centred at 2.5 and 3.5 *)
  let two = record [ Acquired 2; Acquired 3 ] in
  check_bool "two-sample lower slice" true
    (S.percentile_interp two 0.0 = Some 2.5);
  check_bool "two-sample upper slice" true
    (S.percentile_interp two 99.0 = Some 3.5);
  (* bucket-boundary bound: the interpolated value stays inside the
     bucket of the p-quantile sample (nearest-rank over the sorted
     samples), for every p *)
  let samples = [ 1; 2; 1000; 70_000 ] in
  let r = record (List.map (fun ns -> Acquired ns) samples) in
  List.iter
    (fun p ->
      let n = List.length samples in
      let rank = min (n - 1) (int_of_float (float_of_int n *. p /. 100.0)) in
      let lo = S.bucket_lo (S.bucket_of_ns (List.nth samples rank)) in
      match S.percentile_interp r p with
      | Some v ->
          let hi = float_of_int (max 2 (2 * lo)) in
          check_bool (Printf.sprintf "p%.1f within its bucket" p) true
            (float_of_int lo <= v && v <= hi)
      | None -> Alcotest.fail "interp lost the samples")
    [ 0.0; 25.0; 50.0; 95.0; 99.0; 99.9; 100.0 ];
  (* monotone in p across bucket transitions *)
  let last = ref neg_infinity in
  List.iter
    (fun p ->
      match S.percentile_interp r p with
      | Some v ->
          check_bool (Printf.sprintf "monotone at p%.1f" p) true (v >= !last);
          last := v
      | None -> Alcotest.fail "expected samples")
    [ 0.0; 10.0; 50.0; 90.0; 99.0; 99.9 ];
  (* clamped samples interpolate inside the (open-ended) top bucket,
     treated as one bucket wide *)
  let top = record [ Acquired max_int ] in
  match S.percentile_interp top 50.0 with
  | Some v ->
      let lo = float_of_int (S.bucket_lo (S.nbuckets - 1)) in
      check_bool "top bucket bounded" true (v >= lo && v <= 2.0 *. lo)
  | None -> Alcotest.fail "expected top-bucket sample"

(* ---------- JSON ---------- *)

let test_stats_json_string_stable () =
  let r =
    record
      [
        Acquired 17; Fast; Contended; Spin 4;
        Handover (0, false); Handover (2, true); Keep_local (2, true);
      ]
  in
  let s1 = J.to_string (S.to_json r) in
  let via_parse =
    match J.of_string s1 with
    | Ok j -> J.to_string j
    | Error e -> "json parse error: " ^ e
  in
  check_str "print/parse/print is stable" s1 via_parse

let test_json_values () =
  let doc = {|{"a": [1, -2.5, "xé\n", true, null], "b": {}}|} in
  match J.of_string doc with
  | Error e -> Alcotest.fail e
  | Ok j ->
      check_bool "array" true
        (J.member "a" j |> Option.get |> J.to_list |> Option.get
        |> List.length = 5);
      check_bool "unicode escape" true
        (let l = J.member "a" j |> Option.get |> J.to_list |> Option.get in
         J.to_str (List.nth l 2) = Some "x\xc3\xa9\n");
      check_bool "reprint parses" true
        (match J.of_string (J.to_string j) with
        | Ok j' -> J.to_string j' = J.to_string j
        | Error _ -> false);
      check_bool "trailing garbage rejected" true
        (match J.of_string "{} x" with Error _ -> true | Ok _ -> false);
      check_bool "int survives float printer" true
        (J.to_string (J.Arr [ J.Int 42; J.Float 0.5 ]) = "[42,0.5]")

(* ---------- parser robustness on malformed input ---------- *)

(* Every outcome of [J.of_string] on arbitrary garbage must be a typed
   result: a parse never raises and never diverges. *)
let parses_totally s =
  match J.of_string s with
  | Ok _ -> true
  | Error _ -> true
  | exception _ -> false

let test_json_fuzz_garbage =
  QCheck.Test.make ~name:"of_string never raises on arbitrary bytes"
    ~count:1000
    QCheck.(string_gen_of_size Gen.(int_bound 80) Gen.char)
    parses_totally

(* Truncations of a valid document: every strict prefix must yield a
   typed error, never an exception. *)
let test_json_truncations () =
  let doc =
    J.to_string (S.to_json (record [ Acquired 3; Handover (1, true) ]))
  in
  for i = 0 to String.length doc - 1 do
    let prefix = String.sub doc 0 i in
    check_bool
      (Printf.sprintf "prefix of length %d is a typed error" i)
      true
      (match J.of_string prefix with
      | Error _ -> true
      | Ok _ -> false
      | exception _ -> false)
  done

let test_json_bad_escapes () =
  List.iter
    (fun doc ->
      check_bool ("rejects " ^ String.escaped doc) true
        (match J.of_string doc with
        | Error _ -> true
        | Ok _ -> false
        | exception _ -> false))
    [
      {|"\x41"|};
      {|"\u12"|};
      {|"\u12zw"|};
      {|"\|};
      {|"tab\qtab"|};
      {|{"a" 1}|};
      {|{1: 2}|};
      {|[1,]|};
      {|[1 2]|};
      {|01|};
      {|+1|};
      {|.5|};
      {|1e|};
      {|tru|};
      {|nul|};
      {|"unterminated|};
    ]

(* Deep nesting must fail with a typed error, not a stack overflow. *)
let test_json_deep_nesting () =
  let deep n = String.make n '[' ^ "1" ^ String.make n ']' in
  check_bool "modest nesting parses" true
    (match J.of_string (deep 50) with Ok _ -> true | Error _ -> false);
  List.iter
    (fun n ->
      check_bool
        (Printf.sprintf "depth %d is a typed error" n)
        true
        (match J.of_string (deep n) with
        | Error _ -> true
        | Ok _ -> false
        | exception _ -> false))
    [ 1_000; 100_000 ];
  (* unclosed deep nesting: the truncation and the depth guard may both
     apply; either way the outcome must be typed *)
  check_bool "unclosed deep array is typed" true
    (parses_totally (String.make 1_000_000 '['));
  check_bool "deep objects are guarded too" true
    (let b = Buffer.create 4096 in
     for _ = 1 to 1_000 do
       Buffer.add_string b {|{"a":|}
     done;
     Buffer.add_string b "1";
     for _ = 1 to 1_000 do
       Buffer.add_char b '}'
     done;
     match J.of_string (Buffer.contents b) with
     | Error _ -> true
     | Ok _ -> false
     | exception _ -> false)

(* Mutating one byte of a valid document never crashes the parser. *)
let test_json_fuzz_mutations =
  let base =
    J.to_string
      (S.to_json
         (record
            [ Acquired 17; Fast; Abort 1; Timeout; Keep_local (2, true) ]))
  in
  QCheck.Test.make ~name:"single-byte mutations parse totally" ~count:500
    QCheck.(
      pair
        (make Gen.(int_bound (String.length base - 1)))
        (make Gen.char))
    (fun (i, c) ->
      let b = Bytes.of_string base in
      Bytes.set b i c;
      parses_totally (Bytes.to_string b))

(* ---------- end-to-end: a 2-level compose run ---------- *)

let run_2level ?h nthreads =
  let p = Platform.x86 in
  let spec =
    RT.of_clof ?h
      ~hierarchy:(Platform.hierarchy_of_depth p 2)
      (G.build [ R.mcs; R.mcs ])
  in
  W.run ~platform:p ~nthreads ~spec
    { W.duration = 120_000; cs_reads = 2; cs_writes = 1; cs_work = 50;
      noncs_work = 400 }

let test_compose_levels () =
  let r = run_2level 16 in
  let s = r.W.stats in
  check_int "acquisitions = total ops" r.W.total_ops (S.acquisitions s);
  (* the compose level of a 2-level CLoF lock records exactly one
     handover (local or remote) per release *)
  check_int "leaf local+remote = acquisitions" (S.acquisitions s)
    (S.local_pass s ~level:1 + S.remote_pass s ~level:1);
  check_bool "contention keeps some passes local" true
    (S.local_pass s ~level:1 > 0);
  check_bool "some handovers leave the cohort" true
    (S.remote_pass s ~level:1 > 0);
  check_bool "latency histogram populated" true
    (S.latency_samples s = S.acquisitions s);
  check_int "level 0 untouched (root basic lock is uninstrumented)" 0
    (S.handovers s ~level:0)

let test_compose_h_exhaustion () =
  (* H=1: every second local pass trips the starvation threshold *)
  let r = run_2level ~h:1 16 in
  check_bool "tiny H fires the exhaustion counter" true
    (S.h_exhausted r.W.stats ~level:1 > 0);
  let r128 = run_2level 16 in
  check_bool "default H fires less often than H=1" true
    (S.h_exhausted r128.W.stats ~level:1
    < S.h_exhausted r.W.stats ~level:1)

(* ---------- rank correlation ---------- *)

module Rank = Clof_stats.Rank

let check_coef label expected = function
  | None -> Alcotest.fail (label ^ ": expected a coefficient, got None")
  | Some c ->
      check_bool
        (Printf.sprintf "%s: %.4f ~ %.4f" label c expected)
        true
        (Float.abs (c -. expected) < 1e-9)

let test_ranks () =
  check_bool "no ties" true
    (Rank.ranks [| 30.; 10.; 20. |] = [| 3.; 1.; 2. |]);
  check_bool "tie shares average rank" true
    (Rank.ranks [| 10.; 20.; 20. |] = [| 1.; 2.5; 2.5 |]);
  check_bool "all tied" true (Rank.ranks [| 5.; 5.; 5. |] = [| 2.; 2.; 2. |]);
  check_bool "empty" true (Rank.ranks [||] = [||])

let test_spearman () =
  (* rank correlation sees through any monotone transform *)
  let xs = [| 1.; 2.; 3.; 4.; 5. |] in
  let log_xs = Array.map log xs in
  check_coef "identity" 1.0 (Rank.spearman xs xs);
  check_coef "monotone transform" 1.0 (Rank.spearman xs log_xs);
  check_coef "inverted" (-1.0)
    (Rank.spearman xs [| 5.; 4.; 3.; 2.; 1. |]);
  check_bool "constant side undefined" true
    (Rank.spearman xs [| 7.; 7.; 7.; 7.; 7. |] = None);
  check_bool "length mismatch" true (Rank.spearman xs [| 1.; 2. |] = None);
  check_bool "too short" true (Rank.spearman [| 1. |] [| 1. |] = None)

let test_kendall () =
  let xs = [| 1.; 2.; 3.; 4. |] in
  check_coef "identity" 1.0 (Rank.kendall xs xs);
  check_coef "inverted" (-1.0) (Rank.kendall xs [| 4.; 3.; 2.; 1. |]);
  (* one swapped adjacent pair out of 6: (6-2*1)/6 *)
  check_coef "one inversion" (4.0 /. 6.0)
    (Rank.kendall xs [| 1.; 3.; 2.; 4. |]);
  check_bool "all tied undefined" true
    (Rank.kendall xs [| 2.; 2.; 2.; 2. |] = None);
  (* tau-b tie correction keeps partially tied data in [-1, 1] *)
  match Rank.kendall [| 1.; 1.; 2.; 3. |] [| 1.; 2.; 3.; 4. |] with
  | None -> Alcotest.fail "partial ties must stay defined"
  | Some tau -> check_bool "tau-b in range" true (tau > 0.0 && tau <= 1.0)

let test_rank_bounds =
  QCheck.Test.make ~name:"spearman and kendall stay in [-1, 1]" ~count:200
    QCheck.(
      pair
        (list_of_size Gen.(2 -- 12) (float_bound_exclusive 1000.0))
        (list_of_size Gen.(2 -- 12) (float_bound_exclusive 1000.0)))
    (fun (a, b) ->
      let n = min (List.length a) (List.length b) in
      let trim l = Array.of_list (List.filteri (fun i _ -> i < n) l) in
      let xs = trim a and ys = trim b in
      let in_range = function
        | None -> true
        | Some c -> c >= -1.0 -. 1e-9 && c <= 1.0 +. 1e-9
      in
      in_range (Rank.spearman xs ys) && in_range (Rank.kendall xs ys))

let () =
  Alcotest.run "stats"
    [
      ( "merge",
        [
          qcheck test_merge_associative;
          qcheck test_merge_identity;
          Alcotest.test_case "counts add up" `Quick test_merge_counts;
          Alcotest.test_case "each event moves only its own counter" `Quick
            test_event_isolation;
          qcheck test_ratio_bounds;
          Alcotest.test_case "ratio edge cases" `Quick test_ratio_empty;
        ] );
      ( "snapshot",
        [
          Alcotest.test_case "capture copies its source" `Quick test_capture;
          Alcotest.test_case "since_* readers" `Quick test_since_readers;
          qcheck test_since_qcheck;
        ] );
      ( "histogram",
        [
          Alcotest.test_case "bucket boundaries" `Quick
            test_bucket_boundaries;
          qcheck test_bucket_lo_consistent;
          Alcotest.test_case "percentile" `Quick test_percentile;
          Alcotest.test_case "percentile (interpolated)" `Quick
            test_percentile_interp;
        ] );
      ( "json",
        [
          Alcotest.test_case "canonical string stable" `Quick
            test_stats_json_string_stable;
          Alcotest.test_case "values and escapes" `Quick test_json_values;
        ] );
      ( "json-malformed",
        [
          qcheck test_json_fuzz_garbage;
          qcheck test_json_fuzz_mutations;
          Alcotest.test_case "truncations" `Quick test_json_truncations;
          Alcotest.test_case "bad escapes" `Quick test_json_bad_escapes;
          Alcotest.test_case "deep nesting" `Quick test_json_deep_nesting;
        ] );
      ( "compose",
        [
          Alcotest.test_case "per-level counts from a 2-level run" `Quick
            test_compose_levels;
          Alcotest.test_case "H threshold exhaustion" `Quick
            test_compose_h_exhaustion;
        ] );
      ( "rank",
        [
          Alcotest.test_case "fractional ranks" `Quick test_ranks;
          Alcotest.test_case "spearman" `Quick test_spearman;
          Alcotest.test_case "kendall tau-b" `Quick test_kendall;
          qcheck test_rank_bounds;
        ] );
    ]
