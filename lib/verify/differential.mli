(** Differential testing of the {!Checker} strategies: random
    straight-line programs over a few shared refs, explored exhaustively
    by both {!Checker.Dpor} and the {!Checker.Naive} oracle, comparing
    everything observable — the verdict, the exploration-size invariant
    (DPOR never explores more), and the set of reachable observation
    vectors (every value loaded plus the final committed memory at
    quiescence).

    The seed fully determines the program, so a failure is reproduced
    by its seed alone: the [differential] group of [test_verify] runs
    {!fixed_seeds} through {!run_seed} and prints a failing seed with
    its program ([dune exec test/test_verify.exe -- test
    differential]). The generator deliberately lives here, next to the
    checker, so the tests, the benchmark and any ad-hoc hunt share one
    seed->program mapping. *)

type op =
  | Load of int  (** observe ref r *)
  | Store of int * int  (** SC store (drains buffers) *)
  | RStore of int * int  (** relaxed store: buffered under TSO/Relaxed *)
  | Cas of int * int * int  (** [Cas (r, expected, desired)]; observes success *)
  | Faa of int  (** fetch-and-add 1; observes the fetched value *)

type program
(** A fixed number of refs (all initially 0) and one op list per
    thread. *)

val make : nrefs:int -> op list list -> program
val generate : seed:int -> program
(** Deterministic: the same seed always yields the same program
    (2-3 threads, 2-4 refs, 2-3 ops per thread). *)

val to_string : program -> string
(** ["2 refs; faa r1; store r0 1 || rstore r1 2"] — thread bodies
    separated by [||]. *)

type verdict =
  | Agree  (** both strategies proved the same thing *)
  | Skipped of string
      (** a strategy blew the execution budget: nothing comparable was
          proven either way *)
  | Disagree of string  (** the bug: what differed, with both sides *)

val explore :
  ?executions:int ->
  mode:Vstate.mode ->
  Checker.strategy ->
  program ->
  Checker.report * int list list
(** One strategy's side of {!run}: the report and the sorted set of
    reachable observation vectors. *)

val run : ?executions:int -> mode:Vstate.mode -> program -> verdict
(** Explore [program] under both strategies with unbounded preemption
    and delay budgets ([executions] caps each exploration, default
    400k). Threads quiesce (fence) before the final snapshot so the
    committed-state comparison only distinguishes schedules that differ
    on visible accesses — DPOR guarantees nothing about invisible
    reads. *)

val run_seed : ?executions:int -> mode:Vstate.mode -> int -> verdict
(** [run (generate ~seed)]. *)

val regression : program
(** The minimized witness of the backtrack-set completeness bug fixed
    in the source-set rework of {!Checker}: under SC the old analysis
    lost the final state [r0 = 2, r1 = 4] because the only reversal of
    the race on [r0] begins with a third thread's independent event —
    an {e initial} of the suffix that the proc(e_j)-only backtrack rule
    never scheduled, and whose sleep-blocked retry was silently
    dropped. Must stay [Agree] in every mode, forever. *)

val fixed_seeds : Vstate.mode -> int list
(** The deterministic test battery per mode. The SC list carries the
    seven seeds that exposed the completeness bug in the original
    randomized hunt (107, 632, 914, 984, 1022, 1294, 1410) plus a
    smoke prefix; TSO and Relaxed get the smoke prefix (their
    regressions reduce to the SC witness — the flush procs only add
    events to the same analysis). *)
