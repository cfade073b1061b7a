(* native: the only workload on real atomics (Real_mem), exercising the
   lib/locks, lib/clof and lib/baselines fast paths with no simulator
   or checker.

   Handover at maximum contention on 2 pinned domains (this one and
   one spawned): each performs a fixed number of acquire/release pairs
   whose critical section is one store to a shared line, over tkt, mcs,
   mcs-mcs and hmcs<2>. Fixed work rather than Clof_native.Native.run's
   fixed duration, so that the time of a pass measures the locks. The
   seed permutes the panel order.

   Uncontended single-domain ns/op is not measured here: bench/main.ml
   measures it with Bechamel, and one measurement of it is enough. *)

open Clof_topology
module RM = Clof_atomics.Real_mem
module RR = Clof_locks.Registry.Make (RM)
module RG = Clof_core.Generator.Make (RM)
module Hmcs = Clof_baselines.Hmcs.Make (RM)
module RT = Clof_core.Runtime
module S = Clof_stats.Stats

(* The two CPUs of a 2-vCPU host as two cores of one cache group, built
   here rather than detected so the benchmark reads nothing outside its
   checkout. The 2-level locks split at the core level, so every
   handover between the two domains passes through the root. *)
let host =
  Topology.create ~name:"host-2cpu" ~ncpus:2 ~core_of:Fun.id
    ~cache_of:(fun _ -> 0) ~numa_of:(fun _ -> 0) ~pkg_of:(fun _ -> 0)

let host_hierarchy = [ Level.Core; Level.System ]

let all_mcs d = RG.build (List.init d (fun _ -> RR.mcs))

let handover_panel () =
  [
    RT.of_basic RR.ticket;
    RT.of_basic RR.mcs;
    RT.rename "mcs-mcs" (RT.of_clof ~hierarchy:host_hierarchy (all_mcs 2));
    RT.rename "hmcs<2>" (Hmcs.spec ~hierarchy:host_hierarchy ());
  ]

(* The permutation of rank [seed mod n!] in lexicographic order, so
   that seeds 0 .. n!-1 each give another panel order, and seed 0 the
   panel as listed. *)
let permute ~seed l =
  let rec fact n = if n <= 1 then 1 else n * fact (n - 1) in
  let rec go k = function
    | [] -> []
    | l ->
        let f = fact (List.length l - 1) in
        let i = k / f in
        List.nth l i :: go (k mod f) (List.filteri (fun j _ -> j <> i) l)
  in
  go (seed mod fact (List.length l)) l

type handover = {
  mops : float;
  acquire_p99_ns : float;
  jain : float;
  pinned : bool;
  stats : S.recorder;
}

(* Both domains run [ops] critical sections. The first to finish
   snapshots the other's progress: equal progress (Jain index 1) means
   the lock alternated fairly, 0.5 that one domain ran alone. *)
let handover (lock : RT.lock) ~ops =
  let hot = RM.make ~name:"hot" 0 in
  let in_cs = RM.make ~name:"probe.in_cs" 0 in
  let violated = Atomic.make false in
  (* progress counters a line apart, so they do not false-share *)
  let progress = Array.make (2 * RM.line_words) 0 in
  let first_done = Atomic.make (-1) in
  let other_at_first = Atomic.make 0 in
  let ready = Atomic.make 0 in
  let go = Atomic.make false in
  let pinned = Array.make 2 false in
  let recorders = Array.init 2 (fun _ -> S.create ()) in
  let prepare tid =
    pinned.(tid) <- Clof_native.Affinity.pin_current tid;
    let stats = recorders.(tid) in
    let sink = S.Sink.of_recorder stats in
    let h = lock.RT.handle ~stats ~cpu:tid () in
    fun () ->
    for i = 1 to ops do
      let t0 = RM.now () in
      h.RT.acquire ();
      S.Sink.acquired sink ~ns:(RM.now () - t0);
      if RM.fetch_add in_cs 1 <> 0 then Atomic.set violated true;
      RM.store hot tid;
      ignore (RM.fetch_add in_cs (-1));
      h.RT.release ();
      progress.(tid * RM.line_words) <- i
    done;
    if Atomic.compare_and_set first_done (-1) tid then
      Atomic.set other_at_first progress.((1 - tid) * RM.line_words)
  in
  let peer =
    Domain.spawn (fun () ->
        let run = prepare 1 in
        Atomic.incr ready;
        while not (Atomic.get go) do
          Domain.cpu_relax ()
        done;
        run ())
  in
  let run = prepare 0 in
  while Atomic.get ready < 1 do
    Domain.cpu_relax ()
  done;
  let t0 = RM.now () in
  Atomic.set go true;
  run ();
  Domain.join peer;
  let wall = RM.now () - t0 in
  if Atomic.get violated then
    failwith (lock.RT.l_name ^ ": mutual exclusion violated on 2 domains");
  let a = float_of_int ops and b = float_of_int (Atomic.get other_at_first) in
  let stats = S.merge recorders.(0) recorders.(1) in
  {
    mops = 2.0 *. a *. 1000.0 /. float_of_int wall;
    acquire_p99_ns = 1000.0 *. Meter.pct_us stats 99.0;
    jain = ((a +. b) ** 2.0) /. (2.0 *. ((a *. a) +. (b *. b)));
    pinned = Clof_native.Affinity.available && pinned.(0) && pinned.(1);
    stats;
  }

let setup ~seed ~quick () =
  let h_ops = if quick then 5_000 else 250_000 in
  let locks =
    List.map
      (fun spec -> (spec.RT.s_name, spec.RT.instantiate host))
      (permute ~seed (handover_panel ()))
  in
  fun () ->
    let t = Meter.tally () in
    let b = Buffer.create 1024 in
    let hand =
      List.filter_map
        (fun (name, lock) ->
          match
            Meter.call ("handover " ^ name) (fun () -> handover lock ~ops:h_ops)
          with
          | r ->
              Meter.expect t
                (S.acquisitions r.stats = 2 * h_ops)
                (fun () ->
                  Printf.sprintf "%s: %d acquisitions, expected %d" name
                    (S.acquisitions r.stats) (2 * h_ops));
              Buffer.add_string b
                (Printf.sprintf "handover %s %d\n" name (S.acquisitions r.stats));
              Some (name, r)
          | exception Failure m ->
              Meter.expect t false (fun () -> m);
              None)
        locks
    in
    Meter.span Meter.Check "check native" (fun () ->
        Meter.finish t
          ~steps:(List.length hand * 2 * h_ops)
          ~details:
            ([
               Meter.host "native_handover_mops" "Mops/s"
                 (Meter.geomean (List.map (fun (_, r) -> r.mops) hand));
               Meter.host "native.jain" "index"
                 (List.fold_left (fun a (_, r) -> Float.min a r.jain) 1.0 hand);
               Meter.host "native.pinned" "bool"
                 (if List.for_all (fun (_, r) -> r.pinned) hand then 1.0 else 0.0);
             ]
            @ List.concat_map
                (fun (name, r) ->
                  [
                    Meter.host ("native." ^ name ^ ".handover_mops") "Mops/s" r.mops;
                    Meter.host ("native." ^ name ^ ".acquire_p99_ns") "ns" r.acquire_p99_ns;
                  ])
                (List.sort (fun (a, _) (b, _) -> compare a b) hand)
            @ Meter.lock_counters ~kind:Meter.Host
                (S.merge_all (List.map (fun (_, r) -> r.stats) hand)))
          b)
