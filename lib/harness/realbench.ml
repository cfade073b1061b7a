(* real-uncontended: what one uncontended acquire+release costs on
   real atomics — the lock fast path the simulator cannot clock. Each
   row times a loop of pairs through one handle and reports wall-clock
   ns and minor words per pair. Results are wall-clock dependent, so
   BENCH_real.json is a trajectory and is never diffed or gated. *)

open Clof_topology
module RT = Clof_core.Runtime
module RM = Clof_atomics.Real_mem
module RR = Clof_locks.Registry.Make (RM)
module RG = Clof_core.Generator.Make (RM)

(* [n] uncontended acquire+release pairs through one handle of [spec]
   instantiated over real atomics. *)
let uncontended ~n spec =
  let lock = spec.RT.instantiate Platform.x86.Platform.topo in
  let h = lock.RT.handle ~cpu:0 () in
  fun () ->
    for _ = 1 to n do
      h.RT.acquire ();
      h.RT.release ()
    done

let time_loop ~runs ~n spec =
  let run1 = uncontended ~n spec in
  (* warm caches and code paths outside the measured window *)
  run1 ();
  Gc.minor ();
  let w0 = Gc.minor_words () in
  let t0 = RM.now () in
  for _ = 1 to runs do
    run1 ()
  done;
  let wall_ns = RM.now () - t0 in
  let words = Gc.minor_words () -. w0 in
  let ops = runs * n in
  {
    Report.lock = "real/" ^ spec.RT.s_name;
    meta =
      Some
        [
          ("ops", Report.I ops);
          ("ns_per_op", Report.F (float_of_int wall_ns /. float_of_int ops));
          ("words_per_op", Report.F (words /. float_of_int ops));
        ];
    points = [];
  }

let real_specs () =
  List.map RT.of_basic
    [ RR.ticket; RR.mcs; RR.clh; RR.hemlock ~ctr:false () ]
  @ [
      RT.rename "clof<4> tkt-tkt-mcs-mcs"
        (RT.of_clof
           ~hierarchy:(Platform.hier4 Platform.x86)
           (Option.get
              (RG.of_name ~basics:(RR.basics ~ctr:true) "tkt-tkt-mcs-mcs")));
    ]

let exp_id = "real-uncontended"

let run ~quick =
  let runs = if quick then 30 else 150 in
  Report.single ~quick ~exp_id
    ~platform:(Topology.name Platform.x86.Platform.topo)
    ~workload:"real-uncontended"
    (List.map (time_loop ~runs ~n:10_000) (real_specs ()))
