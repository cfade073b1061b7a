module Make (M : Clof_atomics.Memory_intf.S) = struct
  type t = { flag : bool M.aref }
  type ctx = unit

  let name = "bo"
  let fair = false
  let max_delay = 64

  let create ?node () = { flag = M.make ?node ~name:"bo.flag" false }
  type anchor = M.anchor

  let anchor t = M.anchor t.flag
  let ctx_create ?node:_ _t = ()

  let acquire t () =
    let rec go delay =
      ignore (M.await t.flag (fun f -> not f));
      if not (M.cas t.flag ~expected:false ~desired:true) then begin
        for _ = 1 to delay do
          M.pause ()
        done;
        go (min (2 * delay) max_delay)
      end
    in
    go 1

  let release t () = M.store ~o:Release t.flag false
  let abortable = false

  let try_acquire t () ~deadline =
    let rec go delay =
      match M.await_until t.flag ~deadline (fun f -> not f) with
      | None -> false
      | Some _ ->
          if M.cas t.flag ~expected:false ~desired:true then true
          else if M.now () >= deadline then false
          else begin
            for _ = 1 to delay do
              M.pause ()
            done;
            go (min (2 * delay) max_delay)
          end
    in
    go 1

  let has_waiters = None
end
