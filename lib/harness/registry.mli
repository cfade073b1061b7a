(** First-class experiment registry.

    One {!entry} per report-producing experiment: the id under which
    [clof_bench] dispatches it and under which its archive is
    recognised, whether its points enter [bench_check]'s cross-run
    regression join, and the canonical gate run. [clof_bench] builds its
    subcommands and its [list] output from {!all}; [bench_check] strips
    non-gated experiments with {!gated} and renders every archive with
    {!Report.pp} — neither matches experiment-id strings anywhere. *)

type entry = {
  id : string;
      (** [clof_bench] subcommand name; also the primary archived
          experiment id. *)
  doc : string;  (** one-line description for [clof_bench list] *)
  exp_ids : string list;
      (** every [Report.experiment] id this entry's archives use
          (usually [[id]]; the gated panel writes one per platform) *)
  gated : bool;
      (** the archived points are real (threads, throughput, jain)
          measurements that join the baseline-vs-current comparison;
          [false] for wall-clock trajectories and for experiments that
          reuse the schema for structure and gate themselves at run
          time *)
  default_out : string;  (** CI artifact name ([BENCH_*.json]) *)
  run : quick:bool -> (Report.t * string list, string) result;
      (** The canonical CI invocation: run the experiment and return
          the report to archive together with its gate violations
          (empty = gate passed). [Error] means the experiment could not
          run at all (e.g. a lock wedged); the caller still writes the
          report on a gate failure so CI archives the failing evidence.
          Subcommands with extra knobs ([verify --seed], [report] ids)
          layer them on top of the same module calls in
          [clof_bench]. *)
}

val all : entry list
(** Registration order is display order. *)

val find : string -> entry option
(** Look up an entry by its {!entry.id}. *)

val is_gated : string -> bool
(** Join policy for an archived experiment id. Unknown ids are gated:
    an experiment that forgets to register fails the cross-run join
    loudly instead of silently escaping it. *)

val gated : Report.t -> Report.t
(** Strip every experiment that is not {!is_gated} — what remains is
    exactly what [bench_check]'s regression join may compare across
    runs. *)

val pp_gate : Format.formatter -> string -> string list -> unit
(** [pp_gate ppf id violations] prints ["<id> gate: ok"], or one
    ["<id> gate: <violation>"] line per violation. *)
