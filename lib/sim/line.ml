type waiters = ..
type waiters += No_waiters

type t = {
  id : int;
  name : string;
  home : int;
  mutable owner : int;
  mutable sharers : Cpuset.t;
  mutable rmw_watchers : int;
  mutable writes : int;
  mutable busy_until : int;
  mutable waiters : waiters;
  mutable enlisted : bool;
}

let max_cpus = 256

(* Atomic: lines are allocated concurrently when simulations run on
   several domains. Ids only need to be unique (they identify lines in
   diagnostics); nothing observable depends on their values, so
   cross-domain interleaving does not affect results. *)
(* Atomic: lines may be allocated from several domains when
   simulations run in parallel. *)
let counter = Atomic.make 0

let fresh ?(node = -1) ~name ~ncpus () =
  let id = Atomic.fetch_and_add counter 1 in
  {
    id;
    name;
    home = node;
    owner = -1;
    sharers = Cpuset.create ncpus;
    rmw_watchers = 0;
    writes = 0;
    busy_until = 0;
    waiters = No_waiters;
    enlisted = false;
  }
