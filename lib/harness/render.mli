(** Plain-text rendering of benchmark results: aligned series tables
    and ASCII heatmaps. *)

val table :
  header:string list -> rows:(string * float list) list -> string
(** First column = row label; numeric cells printed with 3 decimals. *)

val text_table :
  header:string list -> rows:(string * string list) list -> string
(** Like {!table} but with free-form string cells, right-aligned and
    sized to the widest entry per column (used by the fault-injection
    matrix, whose cells are classifications rather than numbers). *)

val heatmap : (int -> int -> float) -> n:int -> string
(** ASCII intensity map of an [n x n] matrix, darker character = higher
    value, sampled to at most 64 columns for readability. *)

val section : string -> string
(** Underlined section banner. *)
