(* [card] is the number of members, kept up to date by [add], [remove]
   and [clear], so counting is a field read: the engine counts a line's
   sharers on every store. *)
type t = { words : int array; ncpus : int; mutable card : int }

let bits_per_word = 62 (* stay clear of the tag bit on 63-bit ints *)

let create ncpus =
  if ncpus <= 0 then invalid_arg "Cpuset.create";
  let nwords = ((ncpus - 1) / bits_per_word) + 1 in
  { words = Array.make nwords 0; ncpus; card = 0 }

let capacity t = t.ncpus

let check t cpu =
  if cpu < 0 || cpu >= t.ncpus then invalid_arg "Cpuset: cpu out of range"

let mem t cpu =
  check t cpu;
  t.words.(cpu / bits_per_word) land (1 lsl (cpu mod bits_per_word)) <> 0

let add t cpu =
  check t cpu;
  let w = cpu / bits_per_word in
  let old = t.words.(w) in
  let bit = 1 lsl (cpu mod bits_per_word) in
  if old land bit = 0 then begin
    t.words.(w) <- old lor bit;
    t.card <- t.card + 1
  end

let remove t cpu =
  check t cpu;
  let w = cpu / bits_per_word in
  let old = t.words.(w) in
  let bit = 1 lsl (cpu mod bits_per_word) in
  if old land bit <> 0 then begin
    t.words.(w) <- old land lnot bit;
    t.card <- t.card - 1
  end

(* A loop, not [Array.fill]: that is a C call, and the engine clears a
   line's sharers on every store. *)
let clear t =
  if t.card > 0 then begin
    for i = 0 to Array.length t.words - 1 do
      Array.unsafe_set t.words i 0
    done;
    t.card <- 0
  end

let count t = t.card
let count_except t cpu = t.card - if mem t cpu then 1 else 0

(* Index of the lowest set bit of a power of two, by binary search —
   six shift-and-test steps instead of a per-bit loop. *)
let ntz b =
  let n = ref 0 and b = ref b in
  if !b land 0xFFFFFFFF = 0 then begin
    n := !n + 32;
    b := !b lsr 32
  end;
  if !b land 0xFFFF = 0 then begin
    n := !n + 16;
    b := !b lsr 16
  end;
  if !b land 0xFF = 0 then begin
    n := !n + 8;
    b := !b lsr 8
  end;
  if !b land 0xF = 0 then begin
    n := !n + 4;
    b := !b lsr 4
  end;
  if !b land 0x3 = 0 then begin
    n := !n + 2;
    b := !b lsr 2
  end;
  if !b land 0x1 = 0 then incr n;
  !n

(* Scan set bits word by word: empty words cost one load, and each
   member costs an isolate-lowest-bit step — no per-cpu bounds check,
   divide or modulo as in the old [mem]-per-cpu loop. *)
let iter f t =
  let nwords = Array.length t.words in
  for i = 0 to nwords - 1 do
    let w = ref (Array.unsafe_get t.words i) in
    if !w <> 0 then begin
      let base = i * bits_per_word in
      while !w <> 0 do
        let b = !w land (- !w) in
        f (base + ntz b);
        w := !w land (!w - 1)
      done
    end
  done

let to_list t =
  let acc = ref [] in
  iter (fun cpu -> acc := cpu :: !acc) t;
  List.rev !acc
