(** Architecture cost model of the simulated machine.

    Latencies are nanoseconds of simulated time. Transfer latencies are
    calibrated so the two-thread counter ping-pong reproduces the
    paper's Table 2 speedup ratios (x86: 1.00/1.54/1.54/9.07/12.18;
    Armv8: 1.00/1.76/2.98/7.04); other knobs encode the architectural
    peculiarities of aspect A3 (x86 MESIF store upgrades, Armv8 LL/SC
    contention). *)

type t = {
  l1 : int;  (** hit on a line this CPU already owns or shares *)
  transfer : Clof_topology.Level.proximity -> int;
      (** latency to pull a line from its current owner *)
  store_upgrade : int;
      (** extra cost of a plain store to a line with other sharers
          (MESI(F) shared-to-modified upgrade); an RMW avoids it, which
          is Hemlock's CTR trick. Zero on Armv8. *)
  llsc_rmw_extra : int;
      (** per concurrent RMW-spinner extra cost of any RMW on the line:
          the LL/SC reservation is repeatedly stolen. Zero on x86. *)
  llsc_cas_storm : int;
      (** flat extra cost of an RMW-performed store when RMW spinners
          watch the line — the Armv8 CTR pathology of Section 3.2 where
          the releasing cmpxchg keeps failing. Zero on x86. *)
  sc_fence : int;  (** full barrier / seq_cst access surcharge *)
  pause : int;  (** cpu-relax hint *)
  ctx_switch : int;
      (** penalty when a CPU switches between green threads — models
          timesharing when two benchmark threads share a CPU *)
}

val of_arch : Clof_topology.Platform.arch -> t

val transfer_costs : t -> int array
(** Transfer latencies indexed by {!Clof_topology.Level.prox_rank} —
    the dense table the engine reads on every miss instead of calling
    the [transfer] closure. *)
