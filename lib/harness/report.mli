(** The archive schema and its renderer. Every experiment returns a
    report: experiments of series of points, each point carrying
    throughput, fairness (Jain index) and the full per-level
    lock-observability counters of {!Clof_stats.Stats}, each series
    optional typed meta. Serialized to JSON (hand-rolled,
    {!Clof_stats.Json}) so CI can archive a report per commit; a
    deterministic archive is gated by diffing it against a committed
    golden capture. This module only describes, renders and serializes
    reports; it runs no experiment. *)

val schema_version : int
(** Current write version (2: adds the optional typed [meta] field on
    series). Bumped on any change to the JSON shape. *)

type point = {
  threads : int;
  throughput : float;  (** operations per simulated microsecond *)
  total_ops : int;
  sim_ns : int;
  jain : float;  (** Jain fairness index of per-thread op counts *)
  stats : Clof_stats.Stats.recorder;
      (** merged observability counters for the run *)
}

type attr = I of int | F of float | S of string | B of bool
(** A typed scalar in a series' metadata. The JSON mapping is direct
    (int/float/string/bool); an [F] always prints with a decimal
    point. *)

type series_meta = (string * attr) list
(** Experiment-defined key/value pairs describing a series as a whole
    — capability flags, phase labels, exploration counters, summary
    coefficients. Each experiment's [run] decides what goes here and
    its gate reads it back; {!pp} shows all of it. *)

type series = { lock : string; meta : series_meta option; points : point list }

type experiment = {
  exp_id : string;
  platform : string;
  workload : string;
  series : series list;
}

type t = { version : int; quick : bool; experiments : experiment list }

val attr_to_string : attr -> string
(** A meta value as {!pp} shows it: floats to four significant digits
    below 1000 and as whole numbers above. *)

val pp : Format.formatter -> t -> unit
(** Render every experiment generically: a section header ([exp_id],
    platform, workload) and one table row per series — the typed meta
    keys in first-seen order (["-"] where a series lacks one), then the
    point throughputs. The report is the whole input: [clof_bench]
    renders it from memory before it writes the archive. *)

val single :
  quick:bool ->
  exp_id:string ->
  platform:string ->
  workload:string ->
  series list ->
  t
(** A report of one experiment: what every registry experiment but the
    paper figures archives. *)

val all_series : t -> series list
(** Every series of every experiment, in order. *)

val find_series : t -> string -> series option
(** The first series named [lock]. *)

val lookup : series -> string -> attr option
(** A series' meta value; [None] when the series has no such key. *)

val meta_float : series -> string -> float option
(** A float ([F]) meta value; [None] when absent or of another type. *)

val jain : int array -> float
(** Jain fairness index: 1.0 = perfectly fair, 1/n = one thread owns
    everything; 1.0 on an all-zero array. *)

val to_string : t -> string
(** Pretty-printed (2-space indent) JSON document. *)
