(** Deadline-sliced retry with exponential backoff.

    Addresses the MCS/CLH timeout-storm caveat (see {!Mcs}): when every
    timed waiter's deadline sits below the churn-inflated handover
    latency and failed waiters re-enqueue immediately, the abandon rate
    and the append rate can balance into a livelock where almost no
    acquisition succeeds. [retry_until] turns that into bounded
    retries: the total budget is split into exponentially growing
    per-attempt slices, and failed attempts are spaced by
    {!Backoff}-style exponential [pause] runs so re-arms do not feed
    the storm. The fault watchdog uses it to confirm a reclaimed lock
    is serviceable again. *)
module Make (M : Clof_atomics.Memory_intf.S) : sig
  val retry_until : deadline:int -> (deadline:int -> bool) -> bool
  (** [retry_until ~deadline attempt] calls [attempt ~deadline:sub]
      with growing sub-deadlines, the first an eighth of the remaining
      budget, until one returns [true] or the total [deadline] (backend
      ns) passes; returns the last attempt's verdict. [attempt] must
      own nothing when it returns [false]. *)
end
