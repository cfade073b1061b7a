(** Selection policies for the scripted benchmark (Section 4.3).

    Locks are ranked by a weighted average of their throughput across
    contention levels: weights biased toward many threads give the
    HC-best ("high contention") lock, weights biased toward few threads
    give the LC-best. *)

type series = {
  lock : string;  (** composition name *)
  points : (int * float) list;  (** (threads, throughput) ascending *)
}

type policy =
  | High_contention  (** weight = thread count *)
  | Low_contention   (** weight = 1 / thread count *)

val score : policy -> (int * float) list -> float
(** Weighted average throughput; 0 on the empty list. *)

val rank : policy -> series list -> series list
(** Best first. Ties break by name for determinism. *)

val best : policy -> series list -> series option
val worst : policy -> series list -> series option
