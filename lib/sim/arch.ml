open Clof_topology

type t = {
  l1 : int;
  transfer : Level.proximity -> int;
  store_upgrade : int;
  llsc_rmw_extra : int;
  llsc_cas_storm : int;
  sc_fence : int;
  pause : int;
  ctx_switch : int;
}

(* Transfer latencies are solved from Table 2 so that the alternating-
   increment cycle cost (two transfers plus the fixed per-increment
   overhead of one L1 refetch, one invalidation, the MESIF upgrade on
   x86 and the seq_cst surcharge) reproduces the paper's per-level
   speedups: speedup(level) = cycle(system) / cycle(level). *)

let x86_transfer = function
  | Level.Same_cpu -> 2 (* forwarding within one hardware thread *)
  | Level.Same_core -> 14 (* speedup 12.18; hyperthreads share L1 *)
  | Level.Same_cache -> 20 (* speedup 9.07 *)
  | Level.Same_numa -> 154 (* speedup 1.54 *)
  | Level.Same_package -> 154 (* one NUMA node per package on x86 *)
  | Level.Same_system -> 240

let armv8_transfer = function
  | Level.Same_cpu -> 2
  | Level.Same_core -> 32 (* no hyperthreading; unreachable for 2 cpus *)
  | Level.Same_cache -> 32 (* speedup 7.04 *)
  | Level.Same_numa -> 84 (* speedup 2.98 *)
  | Level.Same_package -> 145 (* speedup 1.76 *)
  | Level.Same_system -> 260

let of_arch = function
  | Platform.X86 ->
      {
        l1 = 2;
        transfer = x86_transfer;
        store_upgrade = 10;
        llsc_rmw_extra = 0;
        llsc_cas_storm = 0;
        sc_fence = 5;
        pause = 6;
        ctx_switch = 1200;
      }
  | Platform.Armv8 ->
      {
        l1 = 2;
        transfer = armv8_transfer;
        store_upgrade = 0;
        llsc_rmw_extra = 45;
        llsc_cas_storm = 2600;
        sc_fence = 12;
        pause = 6;
        ctx_switch = 1200;
      }

let transfer_costs t =
  let a = Array.make Level.nprox 0 in
  List.iter (fun p -> a.(Level.prox_rank p) <- t.transfer p) Level.all_prox;
  a
