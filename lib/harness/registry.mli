(** First-class experiment registry.

    One {!entry} per experiment, the paper's figures and the lock panel
    ({!Figures.all}) first: the id under which [clof_bench] dispatches
    it, how to run it and how to gate its report. [clof_bench] builds
    its subcommands and its [list] output from {!all}, runs each entry
    through {!run}, archives the report as [BENCH_<id>.json] by default
    and renders it with {!Report.pp} — it matches experiment-id strings
    nowhere. *)

type entry = {
  id : string;  (** [clof_bench] subcommand name *)
  doc : string;  (** one-line description for [clof_bench list] *)
  run : quick:bool -> Report.t;
      (** The canonical CI invocation: run the experiment and return
          the report to archive. Call it through {!run}. *)
  gate : Report.t -> string list;
      (** The entry's gate violations (empty = passed), judged on the
          report {!entry.run} returned and read only from its series —
          so an archived verdict can be traced to the archived numbers
          alone. The caller writes the report before gating, so CI
          archives the failing evidence too. *)
}

val all : entry list
(** Registration order is display order. *)

val find : string -> entry option
(** Look up an entry by its {!entry.id}. *)

val run : entry -> quick:bool -> (Report.t, string) result
(** [run e ~quick] runs [e]'s experiment. [Error "<id>: <msg>"] means
    it could not run at all: a lock broke mutual exclusion or wedged
    ({!Clof_workloads.Workload.Lock_failure}). *)

val pp_gate : Format.formatter -> string -> string list -> unit
(** [pp_gate ppf id violations] prints ["<id> gate: ok"], or one
    ["<id> gate: <violation>"] line per violation. *)
