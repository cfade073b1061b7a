module Make
    (M : Clof_atomics.Memory_intf.S)
    (Cfg : sig
       val name : string
       val test : bool
       val max_delay : int
     end) =
struct
  type t = { flag : bool M.aref }
  type ctx = unit

  let name = Cfg.name
  let fair = false

  let flag_name = name ^ ".flag"
  let create () = { flag = M.make ~name:flag_name false }
  type anchor = M.anchor

  let anchor t = M.anchor t.flag
  let ctx_create _t = ()
  let first_delay = min 1 Cfg.max_delay

  (* a lost CAS retreats [d] pauses, [d] doubling up to [max_delay] *)
  let backoff d =
    for _ = 1 to d do
      M.pause ()
    done;
    min (2 * d) Cfg.max_delay

  let acquire t () =
    let rec go d =
      if Cfg.test then ignore (M.await t.flag (fun f -> not f));
      if not (M.cas t.flag ~expected:false ~desired:true) then go (backoff d)
    in
    go first_delay

  let release t () = M.store ~o:Release t.flag false
  let abortable = false

  let try_acquire t () ~deadline =
    let rec go d =
      if
        Cfg.test
        && Option.is_none (M.await_until t.flag ~deadline (fun f -> not f))
      then false
      else if M.cas t.flag ~expected:false ~desired:true then true
      else if M.now () >= deadline then false
      else go (backoff d)
    in
    go first_delay

  let has_waiters = None
end
