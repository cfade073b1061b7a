open Clof_topology

type t = {
  nw : int; (* words per ring *)
  rings : int array; (* ring (cpu, rank) starts at ((cpu * nprox) + rank) * nw *)
  tcost : int array;
  reach : int array; (* reach.(r) = largest tcost at ranks 0..r *)
}

let create topo ~tcost =
  let n = Topology.ncpus topo and nprox = Level.nprox in
  if Array.length tcost <> nprox then invalid_arg "Rings.create: tcost";
  let nw = Cpuset.nwords n in
  let rings = Array.make (n * nprox * nw) 0 in
  (* [inner] holds each CPU's cohort one level in, starting with the
     CPU alone: every ring excludes the CPU itself, so the [Same_cpu]
     ring stays empty *)
  let inner = Array.make (n * nw) 0 in
  for c = 0 to n - 1 do
    Cpuset.mask_add inner (c * nw) c
  done;
  List.iter
    (fun lvl ->
      let cohorts = Array.make (Topology.ncohorts topo lvl * nw) 0 in
      for c = 0 to n - 1 do
        Cpuset.mask_add cohorts (Topology.cohort_of topo lvl c * nw) c
      done;
      let r = Level.prox_rank (Level.proximity_of_level lvl) in
      for c = 0 to n - 1 do
        let k = Topology.cohort_of topo lvl c * nw
        and i = c * nw
        and o = ((c * nprox) + r) * nw in
        for w = 0 to nw - 1 do
          let m = cohorts.(k + w) in
          rings.(o + w) <- m land lnot inner.(i + w);
          inner.(i + w) <- m
        done
      done)
    Level.all;
  let reach = Array.copy tcost in
  for r = 1 to nprox - 1 do
    if reach.(r - 1) > reach.(r) then reach.(r) <- reach.(r - 1)
  done;
  { nw; rings; tcost; reach }

(* One loop over ranks and words, with no call per rank: this runs on
   every store that invalidates a sharer. Rank 0's ring is empty. *)
let farthest t s cpu =
  let nprox = Level.nprox and nw = t.nw in
  let words = Cpuset.words s in
  if Array.length words < nw then invalid_arg "Rings.farthest: set too narrow";
  if cpu < 0 || (cpu + 1) * nprox * nw > Array.length t.rings then
    invalid_arg "Rings.farthest: cpu out of range";
  let worst = ref 0 and r = ref (nprox - 1) in
  while !r > 0 && !worst < Array.unsafe_get t.reach !r do
    let c = Array.unsafe_get t.tcost !r in
    if c > !worst then begin
      let o = ((cpu * nprox) + !r) * nw and w = ref 0 in
      while
        !w < nw
        && Array.unsafe_get words !w land Array.unsafe_get t.rings (o + !w) = 0
      do
        incr w
      done;
      if !w < nw then worst := c
    end;
    decr r
  done;
  !worst
