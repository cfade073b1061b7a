type t = { words : int array; ncpus : int }

let bits_per_word = 62 (* stay clear of the tag bit on 63-bit ints *)

let create ncpus =
  if ncpus <= 0 then invalid_arg "Cpuset.create";
  let nwords = ((ncpus - 1) / bits_per_word) + 1 in
  { words = Array.make nwords 0; ncpus }

let capacity t = t.ncpus

let check t cpu =
  if cpu < 0 || cpu >= t.ncpus then invalid_arg "Cpuset: cpu out of range"

let mem t cpu =
  check t cpu;
  t.words.(cpu / bits_per_word) land (1 lsl (cpu mod bits_per_word)) <> 0

let add t cpu =
  check t cpu;
  let w = cpu / bits_per_word in
  t.words.(w) <- t.words.(w) lor (1 lsl (cpu mod bits_per_word))

let remove t cpu =
  check t cpu;
  let w = cpu / bits_per_word in
  t.words.(w) <- t.words.(w) land lnot (1 lsl (cpu mod bits_per_word))

let clear t = Array.fill t.words 0 (Array.length t.words) 0

(* Constant-time (SWAR) popcount of a word of at most 62 bits: bit
   pairs, then nibbles, then bytes; the multiply sums the bytes into
   bits 56..62, which hold at most 62. *)
let popcount w =
  let w = w - ((w lsr 1) land 0x1555_5555_5555_5555) in
  let m2 = 0x3333_3333_3333_3333 in
  let w = (w land m2) + ((w lsr 2) land m2) in
  let w = (w + (w lsr 4)) land 0x0f0f_0f0f_0f0f_0f0f in
  (w * 0x0101_0101_0101_0101) lsr 56

let count t = Array.fold_left (fun acc w -> acc + popcount w) 0 t.words
let count_except t cpu = count t - if mem t cpu then 1 else 0

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
