(** Cross-validation of the simulator against the native backend
    ([clof_bench xval]): run the scripted composition x threadcount
    sweep on both backends {e on this machine} — the simulator
    configured with the host's detected topology
    ({!Clof_native.Hosttopo.detect}), the native runner on real pinned
    domains — and report the rank correlation between the two
    throughput orderings. Absolute numbers live in different clocks
    (simulated ns vs wall ns) and are never compared; only the ordering
    of locks is, which is also all the paper's selection policy
    consumes. *)

val exp_id : string
(** ["xval"]. *)

val run :
  ?quick:bool ->
  ?duration_ms:int ->
  ?platform:Clof_topology.Platform.t ->
  unit ->
  Report.t
(** Run both legs and archive them as one ["xval"] experiment
    (written to [BENCH_native.json]): native series under the lock
    name ([sim_ns] = wall ns), simulated series under ["<lock>/sim"],
    pointless ["xval/spearman"] / ["xval/kendall"] series whose typed
    [meta] blocks carry ["nlocks"], ["threads"], ["overall"] (the
    coefficient on the HC selection scores, the ranking
    {!Clof_core.Selection} consumes) and one ["t<N>"] key per
    contention level (an undefined coefficient is an absent key), and
    a pointless ["xval/host"] series with the host's ["cpus"],
    ["arch"], ["hierarchy"], ["pinned"] (every native thread was
    pinned; unpinned numbers still rank but carry no topology meaning)
    and each backend's HC-best lock. [bench_check] excludes the whole
    experiment from the regression join.

    [quick] (default false) shrinks the panel to the seven flat locks
    + four fixed depth-2 compositions + HMCS, the thread grid to
    [{1, ncpus}] and the native window to 40 ms — the CI
    configuration; the full run uses all 16 depth-2 compositions,
    power-of-two thread counts and 250 ms windows. [duration_ms]
    overrides the native measurement window. [platform] overrides host
    detection (tests pass a small synthetic machine). The simulated leg
    fans out on {!Clof_exec.Exec}; the native leg always runs
    sequentially, each run owning the whole machine.

    @raise Clof_native.Native.Lock_failure on a native mutual-exclusion violation.
    @raise Clof_workloads.Workload.Lock_failure on a simulated hang. *)

val thread_grid : quick:bool -> int -> int list
(** Contention levels for a host of the given CPU count (exposed for
    tests): quick = the endpoints [{1, ncpus}]; full = powers of two
    plus the full machine. *)

val gate : Report.t -> string list
(** Violation messages for CI: one message when the ["overall"] key of
    ["xval/spearman"] is absent (undefined rho) or negative (the two
    backends anti-correlate). Per-thread coefficients and absolute
    throughputs never gate. *)

