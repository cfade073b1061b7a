module Make (M : Clof_atomics.Memory_intf.S) = struct
  type t = { flag : bool M.aref }
  type ctx = unit

  let name = "tas"
  let fair = false

  let create ?node () = { flag = M.make ?node ~name:"tas.flag" false }
  type anchor = M.anchor

  let anchor t = M.anchor t.flag
  let ctx_create ?node:_ _t = ()

  let acquire t () =
    let rec go () =
      if not (M.cas t.flag ~expected:false ~desired:true) then begin
        M.pause ();
        go ()
      end
    in
    go ()

  let release t () = M.store ~o:Release t.flag false
  let abortable = false

  let try_acquire t () ~deadline =
    let rec go () =
      if M.cas t.flag ~expected:false ~desired:true then true
      else if M.now () >= deadline then false
      else begin
        M.pause ();
        go ()
      end
    in
    go ()

  let has_waiters = None
end
