(** [MEMORY] over real OCaml multicore atomics — the native backend.

    Every operation is sequentially consistent ([Atomic] provides no
    weaker orders), so the memory-order annotations are documentation
    here. Used by the native runner ([Clof_native]), the real-domain
    stress tests and the uncontended ns/op rows of [clof_bench real].

    {2 Cache-line padding}

    Each location is allocated in its own heap block padded to
    {!line_words} words, so two locations never share a cache line and
    native numbers measure the lock algorithm rather than accidental
    false sharing between adjacent [Atomic.t] boxes (which the minor
    heap would otherwise allocate back to back). The padded block still
    carries the [Atomic.t] representation — one scannable field 0 that
    the [%atomic_*] primitives operate on — with the tail filled by
    immediates the GC ignores.

    {2 Placement hints that remain no-ops}

    OCaml gives no control over physical layout, so of the simulator's
    allocation hints only padding is honored natively:
    - [make_on] (same-line packing): two OCaml blocks cannot share a
      line; a location made on an anchor gets its own padded line
      instead. This is the conservative direction — the
      true-sharing {e benefit} of packed layouts is not reproduced,
      but no {e false} sharing is introduced either.
    - [name]: checker-trace labels, meaningless here.
    - [rmw] on stores/awaits: [Atomic.set]/[Atomic.get] already order
      like RMWs under OCaml's SC-for-atomics model; the CTR trick is
      an ISA-level distinction the runtime cannot express. *)

type 'a aref = 'a Atomic.t

(* 16 words = 128 bytes on 64-bit: one 64-byte line for the atomic plus
   its neighbour, defeating the adjacent-line prefetcher pairs that
   make 64-byte padding insufficient on recent x86. *)
let line_words = 16

(* Re-allocate [x]'s heap block at [line_words] words, preserving tag
   and fields. [Obj.new_block] initializes every field to [Val_unit],
   so the padding tail is immediates the GC skips; the atomic
   primitives only ever touch field 0. This is the standard padded-
   allocation trick (multicore-magic's [copy_as_padded], and what
   [Atomic.make_contended] does natively from OCaml 5.2 — which we
   cannot require while 5.1 is supported). *)
let pad : 'a. 'a Atomic.t -> 'a Atomic.t =
 fun x ->
  let src = Obj.repr x in
  let n = Obj.size src in
  if n >= line_words then x
  else begin
    let dst = Obj.new_block (Obj.tag src) line_words in
    for i = 0 to n - 1 do
      Obj.set_field dst i (Obj.field src i)
    done;
    Obj.obj dst
  end

let make ?name:_ v = pad (Atomic.make v)

type anchor = unit

let anchor _ = ()
let make_on () ?name:_ v = pad (Atomic.make v)
let load ?o:_ r = Atomic.get r
let store ?o:_ ?rmw:_ r v = Atomic.set r v
let cas r ~expected ~desired = Atomic.compare_and_set r expected desired
let exchange r v = Atomic.exchange r v
let fetch_add r n = Atomic.fetch_and_add r n
let pause () = Domain.cpu_relax ()

external sched_yield : unit -> unit = "clof_sched_yield" [@@noalloc]

let barrier = Atomic.make 0

let fence () = ignore (Atomic.fetch_and_add barrier 0)

external monotonic_ns : unit -> int = "clof_monotonic_ns" [@@noalloc]

(* Monotone wall-clock ns (CLOCK_MONOTONIC). Deadlines handed to
   [await_until] and [try_acquire] are absolute values of this clock,
   shared by all domains. *)
let now () = monotonic_ns ()

(* Spin [yield_every - 1] times with a relax hint, then yield the core
   once. On a machine with spare cores the yield is a rare no-op; when
   domains outnumber cores (CI runners, the test suite) it turns a
   burned timeslice into an immediate handover to the lock holder. *)
let yield_every = 0x1000

(* The one wait loop, top level so a call allocates nothing: spin until
   [pred] holds or the clock reaches [deadline], returning the last
   value read. [deadline = max_int] never times out and reads no clock. *)
let rec spin r ~deadline pred spins =
  let v = Atomic.get r in
  if pred v || (deadline < max_int && monotonic_ns () >= deadline) then v
  else begin
    if spins land (yield_every - 1) = yield_every - 1 then sched_yield ()
    else pause ();
    spin r ~deadline pred (spins + 1)
  end

let await ?rmw:_ r pred = spin r ~deadline:max_int pred 0

let await_until ?rmw:_ r ~deadline pred =
  let v = spin r ~deadline pred 0 in
  if pred v then Some v else None
