(* Structure-of-arrays binary min-heap: priorities and FIFO sequence
   numbers live in unboxed int arrays, payloads in a plain array. The
   old representation ([{prio; seq; v} option array]) allocated one
   option box and one record per event; this one allocates only when
   the heap grows, so steady-state event scheduling is allocation-free.
   Sift helpers are written without refs or closures for the same
   reason, and move a hole instead of swapping: one write per array
   per level, so one [caml_modify] per level on the payload array. *)

type 'a t = {
  mutable prio : int array;
  mutable seq : int array;
  mutable v : 'a array;
  mutable n : int;
  mutable next_seq : int;
  mutable taken : bool; (* root handed out by [take], still in slot 0 *)
  dummy : 'a; (* fills vacated payload slots so they don't leak *)
}

let create ~dummy () =
  {
    prio = Array.make 64 0;
    seq = Array.make 64 0;
    v = Array.make 64 dummy;
    n = 0;
    next_seq = 0;
    taken = false;
    dummy;
  }

let is_empty q = q.n = 0
let length q = q.n

(* key (p, s) orders before entry j: smaller priority, insertion order
   breaking ties (exact FIFO among equal priorities) *)
let before p s q j =
  let pj = Array.unsafe_get q.prio j in
  p < pj || (p = pj && s < Array.unsafe_get q.seq j)

let less q i j =
  before (Array.unsafe_get q.prio i) (Array.unsafe_get q.seq i) q j

let set q i p s x =
  Array.unsafe_set q.prio i p;
  Array.unsafe_set q.seq i s;
  Array.unsafe_set q.v i x

let move q ~src ~dst =
  set q dst (Array.unsafe_get q.prio src) (Array.unsafe_get q.seq src)
    (Array.unsafe_get q.v src)

let grow q =
  let cap = 2 * Array.length q.prio in
  let prio = Array.make cap 0
  and seq = Array.make cap 0
  and v = Array.make cap q.dummy in
  Array.blit q.prio 0 prio 0 q.n;
  Array.blit q.seq 0 seq 0 q.n;
  Array.blit q.v 0 v 0 q.n;
  q.prio <- prio;
  q.seq <- seq;
  q.v <- v

(* Place entry (p, s, x) at the hole [i] or above it. *)
let rec sift_up q i p s x =
  let parent = (i - 1) / 2 in
  if i > 0 && before p s q parent then begin
    move q ~src:parent ~dst:i;
    sift_up q parent p s x
  end
  else set q i p s x

(* Place entry (p, s, x) at the hole [i] or below it. *)
let rec sift_down q i p s x =
  let l = (2 * i) + 1 in
  if l >= q.n then set q i p s x
  else
    let c = if l + 1 < q.n && less q (l + 1) l then l + 1 else l in
    if before p s q c then set q i p s x
    else begin
      move q ~src:c ~dst:i;
      sift_down q c p s x
    end

let add q prio x =
  let s = q.next_seq in
  q.next_seq <- s + 1;
  if q.taken then begin
    (* the taken root is done: the new entry takes its slot *)
    q.taken <- false;
    sift_down q 0 prio s x
  end
  else begin
    if q.n = Array.length q.prio then grow q;
    let i = q.n in
    q.n <- i + 1;
    sift_up q i prio s x
  end

let take q =
  if q.n = 0 || q.taken then invalid_arg "Pqueue.take";
  q.taken <- true;
  Array.unsafe_get q.v 0

let settle q =
  if q.taken then begin
    q.taken <- false;
    let n = q.n - 1 in
    q.n <- n;
    let p = q.prio.(n) and s = q.seq.(n) and x = q.v.(n) in
    q.v.(n) <- q.dummy;
    if n > 0 then sift_down q 0 p s x
  end

let pop_exn q =
  let x = take q in
  settle q;
  x

let pop_min q =
  if q.n = 0 then None
  else
    let prio = q.prio.(0) in
    Some (prio, pop_exn q)
