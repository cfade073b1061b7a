(** First-class experiment registry.

    One {!entry} per report-producing experiment: the id under which
    [clof_bench] dispatches it and under which its archive is
    recognised, whether its points enter [bench_check]'s cross-run
    regression join, how to run it and how to gate its report.
    [clof_bench] builds its subcommands and its [list] output from
    {!all}; [bench_check] strips non-gated experiments with {!gated}
    and renders every archive with {!Report.pp} — neither matches
    experiment-id strings anywhere. *)

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
          reuse the schema for structure and carry their own
          {!entry.gate} *)
  default_out : string;  (** CI artifact name ([BENCH_*.json]) *)
  run : quick:bool -> (Report.t, string) result;
      (** The canonical CI invocation: run the experiment and return
          the report to archive. [Error] means the experiment could
          not run at all (e.g. a lock wedged). Subcommands with extra
          knobs ([verify --seed], [report] ids) call the experiment
          module themselves and judge the result with the same
          {!entry.gate}. *)
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
