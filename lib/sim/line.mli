(** Cache-line coherence state tracked by the simulator.

    One atomic location = one line (no false sharing is modelled). The
    line records the CPU of the last writer ([owner]) and the CPUs
    holding shared copies; access costs derive from these plus the
    machine's {!Arch.t}. *)

type waiters = ..
(** Intrusive chain of threads spin-waiting on this line. The engine
    extends this with its watcher record (which carries the [next]
    link), so registering and waking watchers needs no per-line hash
    table and no list reallocation. *)

type waiters += No_waiters  (** the empty chain *)

type t = {
  id : int;
  name : string;
  home : int;  (** NUMA placement hint; [-1] = unspecified *)
  mutable owner : int;  (** CPU of last writer; [-1] = still in memory *)
  mutable sharers : Cpuset.t;
  mutable rmw_watchers : int;
      (** threads currently spinning on this line with RMW polls *)
  mutable writes : int;  (** write counter, for stats and tests *)
  mutable busy_until : int;
      (** coherence-service window: misses and invalidations on one line
          are serialized, which is what makes k threads spinning on one
          location collapse — each release triggers k refetches that
          queue behind each other *)
  mutable waiters : waiters;
      (** engine-owned watcher chain, most recently registered first;
          always reset to [No_waiters] by the end of a simulation *)
  mutable enlisted : bool;
      (** engine bookkeeping: the line is on the running simulation's
          watched-lines list; cleared with [waiters] at end of run *)
}

val max_cpus : int
(** Width of the sharer set of every line {!Sim_mem} allocates: the
    widest platform a simulation can run on ({!Engine.run} refuses a
    wider one). *)

val fresh : ?node:int -> name:string -> ncpus:int -> unit -> t

val reset_ids : unit -> unit
(** Restart the global id counter (test isolation). The counter is
    atomic — lines may be allocated from several domains when
    simulations run in parallel — but resetting it while other domains
    allocate is not meaningful. *)
