type waiters = ..
type waiters += No_waiters

type t = {
  name : string;
  mutable owner : int;
  mutable sharers : Cpuset.t;
  mutable rmw_watchers : int;
  mutable writes : int;
  mutable busy_until : int;
  mutable waiters : waiters;
  mutable enlisted : bool;
}

let max_cpus = 256

let fresh ~name ~ncpus =
  {
    name;
    owner = -1;
    sharers = Cpuset.create ncpus;
    rmw_watchers = 0;
    writes = 0;
    busy_until = 0;
    waiters = No_waiters;
    enlisted = false;
  }
