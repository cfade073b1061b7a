module Make (M : Clof_atomics.Memory_intf.S) = struct
  let max_delay = 64

  let retry_until ~deadline attempt =
    let remaining now = deadline - now in
    let rec go slice delay =
      let now = M.now () in
      if now >= deadline then false
      else
        (* each attempt gets a bounded sub-deadline, so an abandoned
           wait re-arms instead of camping in the queue until the full
           deadline; slices grow so late attempts outlast the
           churn-inflated handover latency that starves short ones *)
        let sub =
          if slice >= remaining now then deadline else now + slice
        in
        if attempt ~deadline:sub then true
        else begin
          for _ = 1 to delay do
            M.pause ()
          done;
          let slice' = if slice > max_int / 4 then slice else 2 * slice in
          go slice' (min (2 * delay) max_delay)
        end
    in
    go (max 1 (remaining (M.now ()) / 8)) 1
end
