module Make (M : Clof_atomics.Memory_intf.S) = struct
  type t = { flag : bool M.aref }
  type ctx = unit

  let name = "ttas"
  let fair = false

  let create ?node () = { flag = M.make ?node ~name:"ttas.flag" false }
  type anchor = M.anchor

  let anchor t = M.anchor t.flag
  let ctx_create ?node:_ _t = ()

  let acquire t () =
    let rec go () =
      ignore (M.await t.flag (fun f -> not f));
      if not (M.cas t.flag ~expected:false ~desired:true) then go ()
    in
    go ()

  let release t () = M.store ~o:Release t.flag false
  let abortable = false

  let try_acquire t () ~deadline =
    let rec go () =
      match M.await_until t.flag ~deadline (fun f -> not f) with
      | None -> false
      | Some _ ->
          if M.cas t.flag ~expected:false ~desired:true then true
          else if M.now () >= deadline then false
          else go ()
    in
    go ()

  let has_waiters = None
end
