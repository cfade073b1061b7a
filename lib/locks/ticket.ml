module Make (M : Clof_atomics.Memory_intf.S) = struct
  type t = { next : int M.aref; grant : int M.aref }
  type ctx = unit

  let name = "tkt"
  let fair = true

  (* Both fields live on one cache line, as in a real 64-bit ticket
     lock: every arriving fetch_add invalidates the spinners' copies,
     which is exactly why the lock degrades under contention. *)
  let create () =
    let next = M.make ~name:"tkt.next" 0 in
    { next; grant = M.make_on (M.anchor next) ~name:"tkt.grant" 0 }

  type anchor = M.anchor

  let anchor t = M.anchor t.next
  let ctx_create _t = ()

  let acquire t () =
    let my = M.fetch_add t.next 1 in
    ignore (M.await t.grant (fun g -> g = my))

  let release t () =
    (* only the owner writes [grant], so the read needs no order *)
    let g = M.load ~o:Relaxed t.grant in
    M.store ~o:Release t.grant (g + 1)

  let abortable = false

  (* Polling timeout: never join the queue while the lock is busy.
     Take a ticket only when [next = grant] (lock free) and do it with
     a CAS rather than fetch_add, so a loser retries instead of holding
     a ticket it would have to wait out. When the CAS succeeds our
     ticket g satisfies grant = g: tickets 0..g-1 were all released
     (we read grant = g) and no new holder can advance grant before
     ticket g is issued — so the CAS wins the lock outright. *)
  let try_acquire t () ~deadline =
    let rec go () =
      let g = M.load t.grant in
      let n = M.load ~o:Relaxed t.next in
      if n = g && M.cas t.next ~expected:g ~desired:(g + 1) then true
      else if M.now () >= deadline then false
      else begin
        M.pause ();
        go ()
      end
    in
    go ()

  let has_waiters =
    Some
      (fun t () ->
        M.load ~o:Relaxed t.next - M.load ~o:Relaxed t.grant > 1)
end
