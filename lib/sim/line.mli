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
  name : string;
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

val fresh : name:string -> ncpus:int -> t
(** A cold line: no owner and no sharers, so its first access costs the
    [Same_system] transfer from any CPU. *)
