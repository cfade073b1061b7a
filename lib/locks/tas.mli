(** Test-and-set lock family: unfair spinlocks on one flag word, the
    simplest correct locks. Kept as baselines and as the unfair locks of
    the fairness counter-example (Section 4.2.3: composing an unfair
    lock loses CLoF fairness). [Cfg] picks the variant:

    - [test]: await the flag free before each CAS
      (test-and-test-and-set, Section 4.2.1's example of an unfair
      lock);
    - [max_delay]: a lost CAS pauses [d] times, [d] starting at
      [min 1 max_delay] and doubling up to [max_delay] (exponential
      backoff, Agarwal & Cherian; the BO of lock cohorting's
      C-BO-MCS).

    The registry's [tas] is [test = false, max_delay = 1], [ttas] is
    [test = true, max_delay = 0] and [bo] is [test = true,
    max_delay = 64]. The flag cell is named [<name>.flag]. *)

module Make
    (M : Clof_atomics.Memory_intf.S)
    (Cfg : sig
       val name : string
       val test : bool
       val max_delay : int
     end) : Lock_intf.S with type ctx = unit and type anchor = M.anchor
