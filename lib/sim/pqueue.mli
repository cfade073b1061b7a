(** Minimal binary min-heap keyed by [int] priority, FIFO among equal
    priorities. Used as the simulator's event queue.

    The heap is a structure of arrays (int arrays for priority and
    insertion sequence, a plain array for payloads), so pushing and
    popping allocate nothing once the backing arrays have grown to the
    working-set size — the simulator schedules one event per atomic
    operation, and this keeps that path off the minor heap. *)

type 'a t

val create : dummy:'a -> unit -> 'a t
(** [create ~dummy ()] makes an empty queue. [dummy] fills empty
    payload slots (it is never returned) so popped payloads do not
    linger in the backing array. *)

val is_empty : 'a t -> bool
val length : 'a t -> int

val add : 'a t -> int -> 'a -> unit
(** [add q prio v] inserts [v] with priority [prio]. Allocation-free
    except when the backing arrays grow (amortized O(1), never shrinks). *)

val takes_next : 'a t -> int -> bool
(** [takes_next q prio] holds when an entry {!add}ed now with priority
    [prio] would be the next one taken: [prio] is strictly below every
    pending entry's priority (a taken root is not pending). The caller
    may then run that entry at once instead of adding it; the entries
    still in the queue leave it in the same order. Allocation-free. *)

val take : 'a t -> 'a
(** [take q] returns the root payload (what {!pop_exn} would return)
    without removing it, so the caller can run it in place. Until
    {!settle}, only {!add} may be called: the first [add] overwrites the
    taken root with one sift down, later ones insert as usual. Entries
    leave the queue in exactly the order of {!pop_exn} followed by the
    same [add]s. Allocation-free.
    @raise Invalid_argument when empty or already taken. *)

val settle : 'a t -> unit
(** Ends a {!take}: removes the taken root unless an {!add} replaced
    it. Allocation-free. *)

val pop_exn : 'a t -> 'a
(** Removes and returns the payload with the smallest priority; among
    equal priorities, the one inserted first. Allocation-free.
    @raise Invalid_argument when empty. *)
