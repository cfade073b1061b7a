open Clof_topology
module E = Clof_sim.Engine
module M = Clof_sim.Sim_mem
module Pqueue = Clof_sim.Pqueue
module Cpuset = Clof_sim.Cpuset
module Arch = Clof_sim.Arch

let qcheck = QCheck_alcotest.to_alcotest
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ---------- pqueue ---------- *)

let test_pqueue_basic () =
  let q = Pqueue.create ~dummy:"" () in
  check_bool "empty" true (Pqueue.is_empty q);
  Pqueue.add q 3 "c";
  Pqueue.add q 1 "a";
  Pqueue.add q 2 "b";
  check_int "length" 3 (Pqueue.length q);
  Alcotest.(check string) "min" "a" (Pqueue.pop_exn q);
  Alcotest.(check string) "next" "b" (Pqueue.pop_exn q);
  Pqueue.add q 0 "z";
  Alcotest.(check string) "reinsert" "z" (Pqueue.pop_exn q)

let test_pqueue_fifo_ties () =
  let q = Pqueue.create ~dummy:"" () in
  List.iter (fun s -> Pqueue.add q 5 s) [ "first"; "second"; "third" ];
  Alcotest.(check string) "fifo" "first" (Pqueue.pop_exn q);
  Alcotest.(check string) "fifo2" "second" (Pqueue.pop_exn q)

(* Every payload left, in pop order. *)
let drain q =
  let rec go acc =
    if Pqueue.is_empty q then List.rev acc else go (Pqueue.pop_exn q :: acc)
  in
  go []

let prop_pqueue_sorts =
  QCheck.Test.make ~name:"pqueue drains in sorted order" ~count:200
    QCheck.(list small_int)
    (fun xs ->
      let q = Pqueue.create ~dummy:0 () in
      List.iter (fun x -> Pqueue.add q x x) xs;
      drain q = List.sort compare xs)

let prop_pqueue_fifo_model =
  (* tiny priority range forces many ties: the heap must still agree
     with a stable sort, i.e. equal priorities drain in insertion
     order (payload = priority and insertion index) *)
  QCheck.Test.make ~name:"pqueue matches a stable-sorted list model"
    ~count:500
    QCheck.(list (int_bound 7))
    (fun prios ->
      let q = Pqueue.create ~dummy:(-1, -1) () in
      List.iteri (fun i p -> Pqueue.add q p (p, i)) prios;
      let model =
        List.stable_sort
          (fun (p1, _) (p2, _) -> compare p1 p2)
          (List.mapi (fun i p -> (p, i)) prios)
      in
      drain q = model)

type pq_op = Add of int | Pop | Take of int list

(* The list model of the queue: (priority, payload) in pop order. An
   entry goes after every entry of equal priority (FIFO ties). *)
let rec model_insert ((p, _) as e) = function
  | ((p', _) as x) :: rest when p' <= p -> x :: model_insert e rest
  | l -> e :: l

let prop_pqueue_take_settle =
  (* the engine runs each event at the root: take it, add 0..3 entries
     (the first replaces the root), settle. Interleaved with plain
     add/pop, the drain must match the stable-sorted list model of
     pop-then-add; priorities 0..3 make ties common. Payloads are
     (priority, insertion index). *)
  let gen =
    QCheck.Gen.(
      list
        (frequency
           [
             (3, map (fun p -> Add p) (int_bound 3));
             (1, return Pop);
             ( 2,
               map (fun ps -> Take ps) (list_size (int_bound 3) (int_bound 3))
             );
           ]))
  in
  let print =
    QCheck.Print.list (function
      | Add p -> Printf.sprintf "add %d" p
      | Pop -> "pop"
      | Take ps -> "take+" ^ QCheck.Print.(list int) ps)
  in
  QCheck.Test.make ~name:"pqueue take/settle matches the list model"
    ~count:500 (QCheck.make ~print gen) (fun ops ->
      let q = Pqueue.create ~dummy:(-1, -1) () in
      let model = ref [] and next = ref 0 in
      let got = ref [] and want = ref [] in
      let add p =
        Pqueue.add q p (p, !next);
        model := model_insert (p, !next) !model;
        incr next
      in
      let model_pop () =
        match !model with
        | [] -> ()
        | e :: rest ->
            want := e :: !want;
            model := rest
      in
      let pop () =
        if not (Pqueue.is_empty q) then got := Pqueue.pop_exn q :: !got
      in
      List.iter
        (function
          | Add p -> add p
          | Pop ->
              pop ();
              model_pop ()
          | Take ps ->
              if not (Pqueue.is_empty q) then begin
                got := Pqueue.take q :: !got;
                model_pop ();
                List.iter add ps;
                Pqueue.settle q
              end)
        ops;
      while not (Pqueue.is_empty q) do
        pop ();
        model_pop ()
      done;
      !model = [] && !got = !want)

let prop_pqueue_takes_next =
  (* [takes_next q p] must say whether an entry added now with priority
     p is the next one out, per the add-then-pop list model; on random
     heaps (adds and pops, priorities 0..7 so ties are common), with the
     root taken or not. The real queue then confirms it: add the probe,
     settle a taken root, pop. *)
  let gen =
    QCheck.Gen.(
      triple
        (list_size (int_bound 40) (option (int_bound 7)))
        bool (int_bound 8))
  in
  let print (ops, taken, p) =
    Printf.sprintf "%s taken=%b probe=%d"
      (QCheck.Print.(list (option int)) ops)
      taken p
  in
  QCheck.Test.make ~name:"pqueue takes_next matches the add-then-pop model"
    ~count:1000 (QCheck.make ~print gen) (fun (ops, taken, p) ->
      let q = Pqueue.create ~dummy:(-1) () in
      let model = ref [] and next = ref 0 in
      List.iter
        (function
          | Some p ->
              Pqueue.add q p !next;
              model := model_insert (p, !next) !model;
              incr next
          | None -> (
              if not (Pqueue.is_empty q) then ignore (Pqueue.pop_exn q);
              match !model with [] -> () | _ :: rest -> model := rest))
        ops;
      let taken = taken && not (Pqueue.is_empty q) in
      if taken then begin
        ignore (Pqueue.take q);
        model := List.tl !model
      end;
      let predicted = Pqueue.takes_next q p in
      let probe = !next in
      let modelled =
        match model_insert (p, probe) !model with
        | (_, i) :: _ -> i = probe
        | [] -> false
      in
      Pqueue.add q p probe;
      if taken then Pqueue.settle q;
      let actual = Pqueue.pop_exn q = probe in
      predicted = modelled && predicted = actual)

let test_pqueue_zero_alloc () =
  let q = Pqueue.create ~dummy:0 () in
  (* grow the backing arrays to steady-state capacity outside the
     measured window, then assert the add/pop churn itself stays off
     the minor heap (a few words of slack for Gc.minor_words's boxed
     float results) *)
  for i = 0 to 1023 do
    Pqueue.add q i i
  done;
  while not (Pqueue.is_empty q) do
    ignore (Pqueue.pop_exn q)
  done;
  let w0 = Gc.minor_words () in
  for round = 0 to 99 do
    for i = 0 to 999 do
      Pqueue.add q (((i * 7919) + round) land 0xffff) i
    done;
    while not (Pqueue.is_empty q) do
      ignore (Pqueue.pop_exn q)
    done
  done;
  let words = Gc.minor_words () -. w0 in
  check_bool
    (Printf.sprintf "%.0f minor words for 100k events" words)
    true (words < 256.0);
  (* run-in-place churn: take the root, add 0, 1 or 3 entries, settle
     (the queue stays near 1000 entries, inside the grown capacity) *)
  for i = 0 to 999 do
    Pqueue.add q i i
  done;
  let adds = [| 0; 1; 3; 0 |] in
  let w0 = Gc.minor_words () in
  for i = 0 to 99_999 do
    ignore (Pqueue.take q);
    for _ = 1 to adds.(i land 3) do
      Pqueue.add q (((i * 7919) + 1000) land 0xffff) i
    done;
    Pqueue.settle q
  done;
  let words = Gc.minor_words () -. w0 in
  check_bool
    (Printf.sprintf "%.0f minor words for 100k take/settle" words)
    true (words < 256.0)

(* ---------- cpuset ---------- *)

let test_cpuset_basic () =
  let s = Cpuset.create 128 in
  check_int "empty" 0 (Cpuset.count s);
  Cpuset.add s 0;
  Cpuset.add s 127;
  Cpuset.add s 63;
  check_int "count" 3 (Cpuset.count s);
  check_bool "mem 127" true (Cpuset.mem s 127);
  check_bool "mem 5" false (Cpuset.mem s 5);
  Cpuset.remove s 127;
  check_bool "removed" false (Cpuset.mem s 127);
  check_int "count_except self" 1 (Cpuset.count_except s 0);
  Alcotest.(check (list int)) "to_list" [ 0; 63 ] (Cpuset.to_list s);
  Cpuset.clear s;
  check_int "cleared" 0 (Cpuset.count s)

let prop_cpuset_model =
  QCheck.Test.make ~name:"cpuset behaves like a set of ints" ~count:200
    QCheck.(list (pair bool (int_bound 255)))
    (fun ops ->
      let s = Cpuset.create 256 in
      let model = Hashtbl.create 16 in
      List.iter
        (fun (add, c) ->
          if add then begin
            Cpuset.add s c;
            Hashtbl.replace model c ()
          end
          else begin
            Cpuset.remove s c;
            Hashtbl.remove model c
          end)
        ops;
      Cpuset.count s = Hashtbl.length model
      && Hashtbl.fold (fun c () acc -> acc && Cpuset.mem s c) model true)

type cs_op = Cs_add of int | Cs_remove of int | Cs_clear

let prop_cpuset_counts_naive =
  (* the maintained cardinality against a bit-by-bit recount, after
     every step of a random add/remove/clear sequence (re-adds and
     removes of absent cpus included) *)
  let n = 200 in
  let gen =
    QCheck.Gen.(
      pair (int_bound (n - 1))
        (list_size (int_bound 100)
           (frequency
              [
                (6, map (fun c -> Cs_add c) (int_bound (n - 1)));
                (3, map (fun c -> Cs_remove c) (int_bound (n - 1)));
                (1, return Cs_clear);
              ])))
  in
  let print (me, ops) =
    Printf.sprintf "me=%d %s" me
      (QCheck.Print.list
         (function
           | Cs_add c -> Printf.sprintf "add %d" c
           | Cs_remove c -> Printf.sprintf "remove %d" c
           | Cs_clear -> "clear")
         ops)
  in
  QCheck.Test.make ~name:"cpuset count and count_except match a bit count"
    ~count:300 (QCheck.make ~print gen) (fun (me, ops) ->
      let s = Cpuset.create n in
      let naive_except cpu =
        let k = ref 0 in
        for c = 0 to n - 1 do
          if c <> cpu && Cpuset.mem s c then incr k
        done;
        !k
      in
      List.for_all
        (fun op ->
          (match op with
          | Cs_add c -> Cpuset.add s c
          | Cs_remove c -> Cpuset.remove s c
          | Cs_clear -> Cpuset.clear s);
          Cpuset.count s = naive_except (-1)
          && Cpuset.count_except s me = naive_except me)
        ops)

let test_cpuset_word_boundaries () =
  (* bits_per_word is 62: exercise sets whose size sits exactly on,
     just past, and twice past the word boundary *)
  List.iter
    (fun n ->
      let s = Cpuset.create n in
      for c = 0 to n - 1 do
        Cpuset.add s c
      done;
      check_int (Printf.sprintf "full count %d" n) n (Cpuset.count s);
      Alcotest.(check (list int))
        (Printf.sprintf "full iter %d" n)
        (List.init n Fun.id) (Cpuset.to_list s);
      Cpuset.clear s;
      let edges =
        List.filter (fun c -> c < n) [ 0; 60; 61; 62; 63; 122; 123; 124 ]
      in
      List.iter (Cpuset.add s) edges;
      Alcotest.(check (list int))
        (Printf.sprintf "boundary iter %d" n)
        edges (Cpuset.to_list s))
    [ 1; 62; 63; 124; 125; 256 (* Sim_mem's line width *) ]

let prop_cpuset_iter_matches_naive =
  QCheck.Test.make ~name:"word-level iter/count match a per-bit scan"
    ~count:300
    QCheck.(pair (int_range 1 200) (list (int_bound 255)))
    (fun (n, cs) ->
      let s = Cpuset.create n in
      List.iter (fun c -> Cpuset.add s (c mod n)) cs;
      let naive = ref [] in
      for c = n - 1 downto 0 do
        if Cpuset.mem s c then naive := c :: !naive
      done;
      Cpuset.to_list s = !naive && Cpuset.count s = List.length !naive)

(* ---------- proximity rings ---------- *)

(* The per-sharer scan [Rings.farthest] replaced, kept as the
   reference: the largest transfer cost from any sharer but [me]. *)
let scan_cost topo tcost sharers me =
  let worst = ref 0 in
  Cpuset.iter
    (fun cpu ->
      if cpu <> me then begin
        let t = tcost.(Topology.proximity_rank topo cpu me) in
        if t > !worst then worst := t
      end)
    sharers;
  !worst

let prop_rings_match_scan =
  let presets =
    [| ("x86", Platform.x86); ("armv8", Platform.armv8); ("tiny", Platform.tiny) |]
  in
  let gen =
    QCheck.Gen.(
      int_bound (Array.length presets - 1) >>= fun p ->
      let n = Topology.ncpus (snd presets.(p)).Platform.topo in
      (* the preset's own cost table, or any table: the early exit
         must not depend on costs growing with distance *)
      opt (array_repeat Level.nprox (int_bound 1000)) >>= fun costs ->
      int_bound (n - 1) >>= fun me ->
      bool >>= fun me_in ->
      frequency
        [ (3, list_size (int_bound 8) (int_bound (n - 1)));
          (1, list_size (int_bound n) (int_bound (n - 1))) ]
      >>= fun members -> return (p, costs, me, me_in, members))
  in
  let print (p, costs, me, me_in, members) =
    Printf.sprintf "%s costs=%s me=%d in=%b members=%s" (fst presets.(p))
      QCheck.Print.(option (array int) costs)
      me me_in
      QCheck.Print.(list int members)
  in
  QCheck.Test.make ~name:"ring cost matches the sharer scan" ~count:500
    (QCheck.make ~print gen) (fun (p, costs, me, me_in, members) ->
      let platform = snd presets.(p) in
      let topo = platform.Platform.topo in
      let tcost =
        match costs with
        | Some c -> c
        | None -> Arch.transfer_costs (Arch.of_arch platform.Platform.arch)
      in
      let s = Cpuset.create Clof_sim.Line.max_cpus in
      List.iter (Cpuset.add s) members;
      if me_in then Cpuset.add s me else Cpuset.remove s me;
      Clof_sim.Rings.farthest (Clof_sim.Rings.create topo ~tcost) s me
      = scan_cost topo tcost s me)

(* ---------- engine ---------- *)

let run_counting ?duration platform threads =
  E.run ?duration ~platform ~threads ()

let test_engine_work_accounting () =
  let p = Platform.tiny in
  let elapsed = ref 0 in
  let o =
    run_counting ~duration:max_int p
      [
        ( 0,
          fun _ ->
            E.work 1000;
            E.work 500;
            elapsed := E.now () );
      ]
  in
  check_int "work adds up" 1500 !elapsed;
  check_bool "not hung" true (not o.E.hung)

let test_engine_same_cpu_timeshare () =
  (* two threads on one cpu serialize and pay context switches *)
  let p = Platform.tiny in
  let t1 = ref 0 and t2 = ref 0 in
  let body r _ =
    E.work 100;
    r := E.now ()
  in
  let o =
    run_counting ~duration:max_int p [ (0, body t1); (0, body t2) ]
  in
  check_bool "second thread delayed past first" true (!t2 > !t1);
  check_bool "context switch charged" true
    (!t2 >= 200 + (Arch.of_arch Platform.X86).Arch.ctx_switch);
  check_bool "not hung" true (not o.E.hung)

let test_engine_deadlock_detection () =
  let p = Platform.tiny in
  let r = M.make ~name:"never" false in
  let o =
    run_counting ~duration:max_int p
      [ (0, fun _ -> ignore (M.await r (fun b -> b))) ]
  in
  check_bool "hung" true o.E.hung;
  Alcotest.(check (list (pair int string))) "blocked" [ (0, "never") ]
    o.E.blocked

let test_engine_wakeup () =
  let p = Platform.tiny in
  let r = M.make ~name:"flag" false in
  let woke = ref (-1) in
  let o =
    run_counting ~duration:max_int p
      [
        ( 0,
          fun _ ->
            ignore (M.await r (fun b -> b));
            woke := E.now () );
        ( 8,
          fun _ ->
            E.work 5000;
            M.store r true );
      ]
  in
  check_bool "not hung" true (not o.E.hung);
  check_bool "woken after the store" true (!woke > 5000)

let no_waiters l =
  match l.Clof_sim.Line.waiters with
  | Clof_sim.Line.No_waiters -> true
  | _ -> false

let test_watcher_state_cleared () =
  (* transient waiters leave no trace: after the run the line holds no
     watcher chain and is not enlisted, even across many runs reusing
     the same simulated line (the old hashtable kept an empty ref per
     watched line for the life of the run) *)
  let p = Platform.tiny in
  let r = M.make ~name:"flag" false in
  for _ = 1 to 5 do
    M.poke r false;
    let o =
      run_counting ~duration:max_int p
        [
          (0, fun _ -> ignore (M.await r (fun b -> b)));
          ( 8,
            fun _ ->
              E.work 2000;
              M.store r true );
        ]
    in
    check_bool "not hung" true (not o.E.hung);
    check_bool "events counted" true (o.E.events > 0);
    let l = M.line r in
    check_bool "no watcher chain after the run" true (no_waiters l);
    check_bool "not enlisted after the run" true
      (not l.Clof_sim.Line.enlisted)
  done

let test_watcher_state_cleared_on_deadlock () =
  (* even a hung run — watchers still queued when the engine gives up —
     must clear its watcher state so the line can be reused *)
  let p = Platform.tiny in
  let r = M.make ~name:"never" false in
  for _ = 1 to 3 do
    let o =
      run_counting ~duration:max_int p
        [ (0, fun _ -> ignore (M.await r (fun b -> b))) ]
    in
    check_bool "hung" true o.E.hung;
    Alcotest.(check (list (pair int string)))
      "blocked still reported" [ (0, "never") ] o.E.blocked;
    let l = M.line r in
    check_bool "chain cleared after hang" true (no_waiters l);
    check_bool "not enlisted after hang" true
      (not l.Clof_sim.Line.enlisted)
  done

let test_engine_watchdog () =
  (* a livelock: endless pause loop never checks running() *)
  let p = Platform.tiny in
  let o =
    E.run ~duration:1000 ~platform:p
      ~threads:
        [
          ( 0,
            fun _ ->
              let rec forever () =
                M.pause ();
                forever ()
              in
              forever () );
        ]
      ()
  in
  check_bool "aborted" true o.E.aborted;
  check_bool "abort is not a hang" true (not o.E.hung)

let test_engine_running_duration () =
  let p = Platform.tiny in
  let iters = ref 0 in
  ignore
    (E.run ~duration:10_000 ~platform:p
       ~threads:
         [
           ( 0,
             fun _ ->
               while E.running () do
                 E.work 1000;
                 incr iters
               done );
         ]
       ());
  check_int "10 works of 1000ns in 10us" 10 !iters

let test_engine_pinned_loop () =
  (* Exactness: the event count and end time pin the model (costs, wake
     order, (time, seq) pop order). Allocation per event is deterministic
     for a fixed compiler; 7.2 words leaves 60% headroom over the 4.5
     measured on OCaml 5.1, the margin every earlier bound had (19 over
     11.8 when each operation performed an effect, and the engine
     allocated ~37 before it ran events in place at all). *)
  let c = M.make ~name:"c" 0 in
  let body _ =
    while E.running () do
      E.work 10;
      ignore (M.load c);
      M.store c 1
    done
  in
  let w0 = Gc.minor_words () in
  let o =
    E.run ~platform:Platform.x86 ~threads:[ (0, body); (1, body); (2, body) ] ()
  in
  let per_event = (Gc.minor_words () -. w0) /. float_of_int o.E.events in
  check_int "events" 55857 o.E.events;
  check_int "end_time" 1000076 o.E.end_time;
  check_bool
    (Printf.sprintf "%.1f minor words per event" per_event)
    true (per_event <= 7.2)

let test_engine_in_place_resumes () =
  (* A lone thread is always the earliest, so every work item carries
     on in place without suspending. Two million of them must each
     still count as an event, after the spawn, and must not grow the
     stack: a 2 MB stack limit (the default is 1 GB) turns any frame
     kept per op, such as a handler resuming in place with a non-tail
     [continue], into [Stack_overflow]. *)
  let n = 2_000_000 in
  let body _ =
    for _ = 1 to n do
      E.work 1
    done
  in
  let gc = Gc.get () in
  let o =
    Fun.protect
      ~finally:(fun () -> Gc.set gc)
      (fun () ->
        Gc.set { gc with Gc.stack_limit = 256 * 1024 };
        E.run ~duration:n ~platform:Platform.tiny ~threads:[ (0, body) ] ())
  in
  check_bool "finished" true (not (o.E.hung || o.E.aborted));
  check_int "events" (n + 1) o.E.events;
  check_int "end_time" n o.E.end_time

let test_engine_pinned_pingpong () =
  (* two threads hand a line across sockets: every step is a wake *)
  let c = M.make ~name:"pingpong" 0 in
  let body parity _ =
    while E.running () do
      let v = M.await c (fun v -> v mod 2 = parity) in
      M.store c (v + 1)
    done
  in
  let o =
    E.run ~platform:Platform.x86 ~threads:[ (0, body 0); (24, body 1) ] ()
  in
  check_int "events" 3246 o.E.events;
  check_int "end_time" 1000774 o.E.end_time

(* Runs share one domain's proximity rings while the platform stays the
   same: a run of one empty thread then allocates no rings (x86's take
   about 1 300 words, part of them straight into the major heap), and a
   store storm across the machine after a platform switch ends exactly
   as on a fresh domain. *)
let test_engine_rings_reused () =
  let allocated () =
    let minor, promoted, major = Gc.counters () in
    minor +. major -. promoted
  in
  let empty () =
    ignore (E.run ~platform:Platform.x86 ~threads:[ (0, fun _ -> ()) ] ())
  in
  empty ();
  let a0 = allocated () in
  empty ();
  let words = allocated () -. a0 in
  check_bool
    (Printf.sprintf "empty x86 run: %.0f words < 300" words)
    true (words < 300.0);
  let storm platform =
    let c = M.make ~name:"storm" 0 in
    let body _ =
      while E.running () do
        ignore (M.load c);
        M.store c 1
      done
    in
    let last = Topology.ncpus platform.Platform.topo - 1 in
    let o =
      E.run ~duration:20_000 ~platform
        ~threads:[ (0, body); (last / 2, body); (last, body) ]
        ()
    in
    (o.E.events, o.E.end_time)
  in
  let fresh platform = Domain.join (Domain.spawn (fun () -> storm platform)) in
  List.iter
    (fun (name, platform) ->
      Alcotest.(check (pair int int)) name (fresh platform) (storm platform))
    Platform.
      [
        ("x86", x86);
        ("armv8", armv8);
        ("x86 again", x86);
        ("tiny", tiny);
        ("tiny_arm", tiny_arm);
        ("tiny again", tiny);
      ]

let test_engine_tid_cpu () =
  let p = Platform.tiny in
  let seen = ref [] in
  ignore
    (E.run ~duration:max_int ~platform:p
       ~threads:
         [
           (3, fun tid -> seen := (tid, E.tid (), E.cpu ()) :: !seen);
           (5, fun tid -> seen := (tid, E.tid (), E.cpu ()) :: !seen);
         ]
       ());
  let sorted = List.sort compare !seen in
  Alcotest.(check (list (triple int int int)))
    "ids" [ (0, 0, 3); (1, 1, 5) ] sorted

let test_engine_bad_cpu () =
  Alcotest.check_raises "cpu out of range"
    (Invalid_argument "Engine.run: cpu 99 out of range") (fun () ->
      ignore
        (E.run ~platform:Platform.tiny ~threads:[ (99, fun _ -> ()) ] ()))

let test_engine_too_wide () =
  (* every line's sharer set holds Line.max_cpus cpus: a wider platform
     is refused up front, not mid-run by the set's range check *)
  let wide n =
    {
      Platform.topo =
        Topology.create ~name:"wide" ~ncpus:n ~core_of:Fun.id
          ~cache_of:Fun.id ~numa_of:(fun _ -> 0) ~pkg_of:(fun _ -> 0);
      arch = Platform.X86;
    }
  in
  let max = Clof_sim.Line.max_cpus in
  Alcotest.check_raises "wider than a line"
    (Invalid_argument
       (Printf.sprintf
          "Engine.run: platform has %d cpus, a line's sharer set holds %d"
          (max + 1) max))
    (fun () ->
      ignore (E.run ~platform:(wide (max + 1)) ~threads:[ (0, ignore) ] ()));
  let r = M.make ~name:"x" 0 in
  let o =
    E.run ~duration:max_int ~platform:(wide max)
      ~threads:
        [
          (0, fun _ -> ignore (M.load r));
          (max - 1, fun _ -> M.store r 1);
        ]
      ()
  in
  check_bool "the widest platform runs" true (not (o.E.hung || o.E.aborted));
  check_int "store by the last cpu landed" 1 (M.peek r)

let test_engine_ops_outside_run () =
  (* outside a simulation every operation fails as performing an
     unhandled effect does *)
  let l = M.line (M.make ~name:"x" 0) in
  let unhandled name f =
    match f () with
    | exception Effect.Unhandled _ -> ()
    | () -> Alcotest.failf "%s returned outside Engine.run" name
  in
  unhandled "now" (fun () -> ignore (E.now ()));
  unhandled "running" (fun () -> ignore (E.running ()));
  unhandled "tid" (fun () -> ignore (E.tid ()));
  unhandled "cpu" (fun () -> ignore (E.cpu ()));
  unhandled "cs_mark" (fun () -> E.cs_mark true);
  unhandled "access" (fun () -> E.access l E.Load);
  unhandled "await_line_until" (fun () ->
      ignore (E.await_line_until l ~rmw:false ~deadline:0 (fun () -> true)));
  unhandled "fence" E.fence;
  unhandled "pause" E.pause;
  unhandled "work" (fun () -> E.work 1);
  unhandled "sleep" (fun () -> E.sleep 1);
  unhandled "Sim_mem.store" (fun () -> M.store (M.make 0) 1)

(* ---------- timed waits and fault injection ---------- *)

let test_await_until_timeout () =
  let p = Platform.tiny in
  let res = ref (Some false) and at = ref 0 in
  let r = M.make ~name:"never" false in
  let o =
    run_counting ~duration:max_int p
      [
        ( 0,
          fun _ ->
            res := M.await_until r ~deadline:5000 (fun b -> b);
            at := E.now () );
      ]
  in
  check_bool "not hung" true (not o.E.hung);
  check_bool "timed out" true (!res = None);
  check_bool "resumed at the deadline" true (!at >= 5000)

let test_await_until_wakeup () =
  let p = Platform.tiny in
  let res = ref None in
  let r = M.make ~name:"flag" false in
  let o =
    run_counting ~duration:max_int p
      [
        ( 0,
          fun _ -> res := M.await_until r ~deadline:1_000_000 (fun b -> b)
        );
        ( 8,
          fun _ ->
            E.work 5000;
            M.store r true );
      ]
  in
  check_bool "not hung" true (not o.E.hung);
  check_bool "woke with the value" true (!res = Some true)

let test_await_until_past_deadline () =
  (* a deadline already behind the clock degrades to a single check *)
  let p = Platform.tiny in
  let res = ref None in
  let r = M.make ~name:"set" true in
  let o =
    run_counting ~duration:max_int p
      [ (0, fun _ -> res := M.await_until r ~deadline:0 (fun b -> b)) ]
  in
  check_bool "not hung" true (not o.E.hung);
  check_bool "pred already true wins" true (!res = Some true)

let test_fault_stall () =
  let p = Platform.tiny in
  let r = M.make ~name:"x" 0 in
  let t_after = ref 0 in
  let o =
    E.run ~duration:max_int ~platform:p
      ~faults:[ E.Stall { tid = 0; at_op = 1; ns = 10_000 } ]
      ~threads:
        [
          ( 0,
            fun _ ->
              M.store r 1;
              t_after := E.now () );
        ]
      ()
  in
  check_bool "not hung" true (not o.E.hung);
  check_int "one injection" 1 (List.length o.E.injected);
  (match o.E.injected with
  | [ i ] ->
      check_int "victim tid" 0 i.E.i_tid;
      check_int "at op" 1 i.E.i_op;
      Alcotest.(check string) "kind" "stall" i.E.i_kind
  | _ -> ());
  Alcotest.(check (list int)) "nobody crashed" [] o.E.crashed;
  check_bool "stall delayed the victim" true (!t_after >= 10_000)

let test_fault_stall_wrong_thread () =
  (* a fault aimed at an op count the victim never reaches is inert *)
  let p = Platform.tiny in
  let r = M.make ~name:"x" 0 in
  let o =
    E.run ~duration:max_int ~platform:p
      ~faults:[ E.Stall { tid = 0; at_op = 99; ns = 10_000 } ]
      ~threads:[ (0, fun _ -> M.store r 1) ]
      ()
  in
  check_int "nothing injected" 0 (List.length o.E.injected)

let test_fault_crash () =
  let p = Platform.tiny in
  let r = M.make ~name:"x" 0 in
  let second = ref false in
  let o =
    E.run ~duration:max_int ~platform:p
      ~faults:[ E.Crash { tid = 0; at_op = 2 } ]
      ~threads:
        [
          ( 0,
            fun _ ->
              M.store r 1;
              M.store r 2;
              second := true );
          (8, fun _ -> ignore (M.await r (fun v -> v >= 1)));
        ]
      ()
  in
  check_bool "survivors not hung" true (not o.E.hung);
  Alcotest.(check (list int)) "crashed list" [ 0 ] o.E.crashed;
  check_bool "continuation dropped at the faulted op" true (not !second);
  (* the faulted op itself completes: a crash kills between atomic
     ops, it does not tear one *)
  check_int "faulted store still visible" 2 (M.peek r)

let test_fault_crash_while_waiting () =
  (* the victim dies queued on a line; the other thread's wakeup must
     not resurrect it, and the run must complete *)
  let p = Platform.tiny in
  let r = M.make ~name:"gate" false in
  let resurrected = ref false in
  let o =
    E.run ~duration:max_int ~platform:p
      ~faults:[ E.Crash { tid = 0; at_op = 1 } ]
      ~threads:
        [
          ( 0,
            fun _ ->
              ignore (M.await r (fun b -> b));
              resurrected := true );
          ( 8,
            fun _ ->
              E.work 2000;
              M.store r true );
        ]
      ()
  in
  check_bool "not hung" true (not o.E.hung);
  Alcotest.(check (list int)) "crashed list" [ 0 ] o.E.crashed;
  check_bool "victim stayed dead" true (not !resurrected)

type probe = {
  o : E.outcome;
  t1 : int; (* victim's clock after its first op *)
  t2 : int; (* victim's clock after its second op, or -1 *)
  seen : int; (* value the watcher woke to, or -1 *)
  woke : int; (* watcher's clock at wake-up, or -1 *)
  value : int; (* the line's final value *)
}

(* Thread 0 works, stores 1, then runs [second] as its op 2; thread 1,
   on the other package, watches the line for a 2 unless [watch] is
   false. Thread 0 stays the earliest thread throughout, so unfaulted,
   its ops carry on in place. *)
let probe ?(watch = true) faults second =
  let r = M.make ~name:"x" 0 in
  let t1 = ref (-1) and t2 = ref (-1) and seen = ref (-1) and woke = ref (-1) in
  let victim _ =
    E.work 1000;
    M.store r 1;
    t1 := E.now ();
    second r;
    t2 := E.now ()
  in
  let watcher _ =
    seen := M.await r (fun v -> v >= 2);
    woke := E.now ()
  in
  let o =
    E.run ~duration:max_int ~platform:Platform.tiny ~faults
      ~threads:((0, victim) :: (if watch then [ (8, watcher) ] else []))
      ()
  in
  { o; t1 = !t1; t2 = !t2; seen = !seen; woke = !woke; value = M.peek r }

(* [expected] lists (tid, op, time, kind) per injection *)
let check_injected msg expected p =
  let show (tid, op, time, kind) =
    Printf.sprintf "%s of tid %d at op %d, %d ns" kind tid op time
  in
  Alcotest.(check (list string))
    msg (List.map show expected)
    (List.map
       (fun i -> show (i.E.i_tid, i.E.i_op, i.E.i_time, i.E.i_kind))
       p.o.E.injected)

let test_fault_in_place_store () =
  let store2 r = M.store r 2 in
  let base = probe [] store2 in
  (* the watcher's wake-up is the only pending event, and the victim
     is still strictly earlier: op 2 carried on in place *)
  check_bool "unfaulted op 2 is in place" true (base.t2 < base.woke);
  check_int "watcher woke to the store" 2 base.seen;
  let crash = probe [ E.Crash { tid = 0; at_op = 2 } ] store2 in
  check_injected "crash injected at (tid, op, time)"
    [ (0, 2, base.t1, "crash") ] crash;
  Alcotest.(check (list int)) "crashed" [ 0 ] crash.o.E.crashed;
  check_int "died at the op boundary" (-1) crash.t2;
  check_int "faulted store visible" 2 crash.value;
  check_int "faulted store woke the watcher" 2 crash.seen;
  check_int "at the unfaulted time" base.woke crash.woke;
  check_bool "survivor not hung" true (not crash.o.E.hung);
  let stall = probe [ E.Stall { tid = 0; at_op = 2; ns = 10_000 } ] store2 in
  check_injected "stall injected at (tid, op, time)"
    [ (0, 2, base.t1 + 10_000, "stall") ] stall;
  Alcotest.(check (list int)) "nobody crashed" [] stall.o.E.crashed;
  check_bool "the op ran after the stall" true (stall.t2 > base.t1 + 10_000);
  check_int "stalled store woke the watcher" 2 stall.seen;
  check_bool "after the stalled store" true (stall.woke > stall.t2)

let test_fault_in_place_await () =
  (* op 2 is an await whose predicate already holds: it fetches the
     line and carries on without parking *)
  let await1 r = ignore (M.await r (fun v -> v = 1)) in
  (* alone, the victim is always the earliest: every op is in place *)
  let base = probe ~watch:false [] await1 in
  check_bool "unfaulted await fetched the line" true (base.t2 > base.t1);
  let crash = probe ~watch:false [ E.Crash { tid = 0; at_op = 2 } ] await1 in
  check_injected "crash injected at (tid, op, time)"
    [ (0, 2, base.t1, "crash") ] crash;
  Alcotest.(check (list int)) "crashed" [ 0 ] crash.o.E.crashed;
  check_int "died at the op boundary" (-1) crash.t2;
  check_bool "a dead thread is not hung" true (not crash.o.E.hung);
  let stall =
    probe ~watch:false [ E.Stall { tid = 0; at_op = 2; ns = 10_000 } ] await1
  in
  check_injected "stall injected at (tid, op, time)"
    [ (0, 2, base.t1 + 10_000, "stall") ] stall;
  check_bool "the await ran after the stall" true
    (stall.t2 > base.t1 + 10_000)

(* ---------- sim_mem semantics ---------- *)

let in_sim f =
  let result = ref None in
  ignore
    (E.run ~duration:max_int ~platform:Platform.tiny
       ~threads:[ (0, fun _ -> result := Some (f ())) ]
       ());
  Option.get !result

let test_mem_cas_results () =
  let a, b, ok1, ok2, final =
    in_sim (fun () ->
        let r = M.make ~name:"x" 10 in
        let a = M.fetch_add r 5 in
        let b = M.exchange r 100 in
        let ok1 = M.cas r ~expected:100 ~desired:7 in
        let ok2 = M.cas r ~expected:100 ~desired:8 in
        (a, b, ok1, ok2, M.load r))
  in
  check_int "faa returns old" 10 a;
  check_int "exchange returns old" 15 b;
  check_bool "cas success" true ok1;
  check_bool "cas failure" false ok2;
  check_int "final value" 7 final

let test_mem_colocation () =
  let a = M.make ~name:"a" 0 in
  let c = M.make_on (M.anchor a) ~name:"c" 0 in
  let d = M.make ~name:"d" 0 in
  check_bool "make_on shares the line" true (M.line a == M.line c);
  check_bool "fresh ref has its own line" true (M.line a != M.line d)

let test_mem_peek () =
  let r = M.make ~name:"p" 42 in
  check_int "peek outside sim" 42 (M.peek r)

(* A fresh line has no home: it starts in memory (no owner), so its
   first load costs the [Same_system] transfer from whichever CPU
   issues it. *)
let test_mem_cold_line () =
  List.iter
    (fun (name, platform) ->
      let first_load cpu =
        let r = M.make ~name:"cold" 0 in
        let cost = ref (-1) in
        ignore
          (E.run ~duration:max_int ~platform
             ~threads:
               [
                 ( cpu,
                   fun _ ->
                     let t0 = E.now () in
                     ignore (M.load r);
                     cost := E.now () - t0 );
               ]
             ());
        !cost
      in
      let same_system =
        (Arch.of_arch platform.Platform.arch).Arch.transfer Level.Same_system
      in
      let last = Topology.ncpus platform.Platform.topo - 1 in
      check_int (name ^ ": from cpu 0") same_system (first_load 0);
      check_int (name ^ ": from the last cpu") same_system (first_load last))
    Platform.[ ("x86", x86); ("armv8", armv8) ]

(* ---------- cost model ---------- *)

let pingpong p c1 c2 =
  Clof_workloads.Pingpong.throughput ~duration:150_000 ~platform:p c1 c2

let close_to name expected ratio tolerance =
  check_bool
    (Printf.sprintf "%s: %.2f vs %.2f" name ratio expected)
    true
    (Float.abs (ratio -. expected) /. expected < tolerance)

let test_table2_x86 () =
  let p = Platform.x86 in
  let sys = pingpong p 0 24 in
  close_to "core speedup" 12.18 (pingpong p 0 48 /. sys) 0.15;
  close_to "cache speedup" 9.07 (pingpong p 0 1 /. sys) 0.15;
  close_to "numa speedup" 1.54 (pingpong p 0 23 /. sys) 0.15

let test_table2_armv8 () =
  let p = Platform.armv8 in
  let sys = pingpong p 0 64 in
  close_to "cache speedup" 7.04 (pingpong p 0 1 /. sys) 0.15;
  close_to "numa speedup" 2.98 (pingpong p 0 31 /. sys) 0.15;
  close_to "package speedup" 1.76 (pingpong p 0 63 /. sys) 0.15

let test_diagonal_slowest () =
  let p = Platform.x86 in
  check_bool "same-cpu pair is slowest" true
    (pingpong p 0 0 < pingpong p 0 24)

let test_spinner_storm_serializes () =
  (* k threads spinning on one line refetch it one at a time after each
     write, so the real waiter's wake-up queues behind the decoys:
     global spinning slows the handover down with the spinner count *)
  let p = Platform.x86 in
  let wake_time ndecoys =
    let flag = M.make ~name:"flag" 0 in
    let woken_at = ref 0 in
    let winner =
      ( 1,
        fun _ ->
          ignore (M.await flag (fun v -> v = 1));
          woken_at := E.now () )
    in
    (* decoys wait for values that never come *)
    let decoys =
      List.init ndecoys (fun i ->
          (24 + i, fun _ -> ignore (M.await flag (fun v -> v >= 2))))
    in
    let writer =
      ( 0,
        fun _ ->
          E.work 2_000;
          M.store flag 1 )
    in
    ignore
      (E.run ~duration:max_int ~platform:p
         ~threads:((winner :: decoys) @ [ writer ])
         ());
    !woken_at
  in
  check_bool "wake queues behind decoy refetches" true
    (wake_time 7 > wake_time 0)

let test_line_writes_counted () =
  let r = M.make ~name:"w" 0 in
  ignore
    (E.run ~duration:max_int ~platform:Platform.tiny
       ~threads:
         [
           ( 0,
             fun _ ->
               M.store r 1;
               M.store r 2;
               ignore (M.fetch_add r 1) );
         ]
       ());
  check_int "three writes" 3 (M.line r).Clof_sim.Line.writes

let () =
  Alcotest.run "sim"
    [
      ( "pqueue",
        [
          Alcotest.test_case "basic" `Quick test_pqueue_basic;
          Alcotest.test_case "fifo ties" `Quick test_pqueue_fifo_ties;
          Alcotest.test_case "zero alloc" `Quick test_pqueue_zero_alloc;
          qcheck prop_pqueue_sorts;
          qcheck prop_pqueue_fifo_model;
          qcheck prop_pqueue_take_settle;
          qcheck prop_pqueue_takes_next;
        ] );
      ( "cpuset",
        [
          Alcotest.test_case "basic" `Quick test_cpuset_basic;
          Alcotest.test_case "word boundaries" `Quick
            test_cpuset_word_boundaries;
          qcheck prop_cpuset_model;
          qcheck prop_cpuset_iter_matches_naive;
          qcheck prop_cpuset_counts_naive;
        ] );
      ("rings", [ qcheck prop_rings_match_scan ]);
      ( "engine",
        [
          Alcotest.test_case "work accounting" `Quick
            test_engine_work_accounting;
          Alcotest.test_case "same-cpu timeshare" `Quick
            test_engine_same_cpu_timeshare;
          Alcotest.test_case "deadlock detection" `Quick
            test_engine_deadlock_detection;
          Alcotest.test_case "wakeup" `Quick test_engine_wakeup;
          Alcotest.test_case "watcher state cleared" `Quick
            test_watcher_state_cleared;
          Alcotest.test_case "watcher state cleared on deadlock" `Quick
            test_watcher_state_cleared_on_deadlock;
          Alcotest.test_case "watchdog" `Quick test_engine_watchdog;
          Alcotest.test_case "running duration" `Quick
            test_engine_running_duration;
          Alcotest.test_case "tid/cpu" `Quick test_engine_tid_cpu;
          Alcotest.test_case "rings reused per platform" `Quick
            test_engine_rings_reused;
          Alcotest.test_case "bad cpu" `Quick test_engine_bad_cpu;
          Alcotest.test_case "platform wider than a line" `Quick
            test_engine_too_wide;
          Alcotest.test_case "operations outside run" `Quick
            test_engine_ops_outside_run;
          Alcotest.test_case "pinned loop events and allocation" `Quick
            test_engine_pinned_loop;
          Alcotest.test_case "pinned ping-pong events" `Quick
            test_engine_pinned_pingpong;
          Alcotest.test_case "in-place resumes" `Quick
            test_engine_in_place_resumes;
        ] );
      ( "faults",
        [
          Alcotest.test_case "await_until timeout" `Quick
            test_await_until_timeout;
          Alcotest.test_case "await_until wakeup" `Quick
            test_await_until_wakeup;
          Alcotest.test_case "await_until past deadline" `Quick
            test_await_until_past_deadline;
          Alcotest.test_case "stall" `Quick test_fault_stall;
          Alcotest.test_case "inert fault" `Quick
            test_fault_stall_wrong_thread;
          Alcotest.test_case "crash" `Quick test_fault_crash;
          Alcotest.test_case "crash while waiting" `Quick
            test_fault_crash_while_waiting;
          Alcotest.test_case "crash and stall on an in-place store" `Quick
            test_fault_in_place_store;
          Alcotest.test_case "crash and stall on a satisfied await" `Quick
            test_fault_in_place_await;
        ] );
      ( "memory",
        [
          Alcotest.test_case "cas results" `Quick test_mem_cas_results;
          Alcotest.test_case "colocation" `Quick test_mem_colocation;
          Alcotest.test_case "peek" `Quick test_mem_peek;
          Alcotest.test_case "cold line" `Quick test_mem_cold_line;
          Alcotest.test_case "write counter" `Quick test_line_writes_counted;
          Alcotest.test_case "spinner storm serializes" `Quick
            test_spinner_storm_serializes;
        ] );
      ( "calibration",
        [
          Alcotest.test_case "table2 x86" `Quick test_table2_x86;
          Alcotest.test_case "table2 armv8" `Quick test_table2_armv8;
          Alcotest.test_case "diagonal slowest" `Quick test_diagonal_slowest;
        ] );
    ]
