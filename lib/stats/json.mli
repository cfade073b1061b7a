(** Minimal hand-rolled JSON: a value type, a printer, and a
    recursive-descent parser — just enough for the benchmark reports
    ({!Clof_harness.Report}) and their CI comparator, with no external
    dependency. Strings are UTF-8; [\uXXXX] escapes (including
    surrogate pairs) are decoded on parse, and control characters are
    escaped on print. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

val to_string : ?indent:int -> t -> string
(** Serialize. [indent = 0] (default) is compact one-line output;
    [indent > 0] pretty-prints with that many spaces per level and a
    trailing newline. Non-finite floats print as [null]. *)

val of_string : string -> (t, string) result
(** Parse a complete JSON document; trailing garbage is an error. *)

(** {2 Accessors} — all total, returning [None] on shape mismatch. *)

val member : string -> t -> t option
val to_int : t -> int option
(** Also accepts integral floats (JSON has one number type). *)

val to_float : t -> float option
val to_str : t -> string option
val to_list : t -> t list option
