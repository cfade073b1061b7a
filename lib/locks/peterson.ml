exception Too_many_contexts

module Make
    (M : Clof_atomics.Memory_intf.S)
    (Cfg : sig
       val fenced : bool
     end) =
struct
  type t = {
    flag : bool M.aref array;
    turn : int M.aref;
    mutable next_slot : int;
  }

  type ctx = int

  let name = if Cfg.fenced then "peterson" else "peterson-nofence"
  let fair = false

  let create () =
    {
      flag =
        [|
          M.make ~name:"pet.flag0" false;
          M.make ~name:"pet.flag1" false;
        |];
      turn = M.make ~name:"pet.turn" 0;
      next_slot = 0;
    }

  type anchor = M.anchor

  let anchor t = M.anchor t.turn

  let ctx_create t =
    if t.next_slot > 1 then raise Too_many_contexts;
    let slot = t.next_slot in
    t.next_slot <- slot + 1;
    slot

  let acquire t me =
    let other = 1 - me in
    M.store ~o:Relaxed t.flag.(me) true;
    M.store ~o:Relaxed t.turn other;
    if Cfg.fenced then M.fence ();
    let rec wait () =
      if M.load ~o:Acquire t.flag.(other) && M.load ~o:Acquire t.turn = other
      then begin
        M.pause ();
        wait ()
      end
    in
    wait ()

  let release t me = M.store ~o:Release t.flag.(me) false
  let abortable = false

  (* Timeout retracts our intent flag, so the peer's wait loop is
     released — a timed-out Peterson contender leaves no trace. *)
  let try_acquire t me ~deadline =
    let other = 1 - me in
    M.store ~o:Relaxed t.flag.(me) true;
    M.store ~o:Relaxed t.turn other;
    if Cfg.fenced then M.fence ();
    let rec wait () =
      if
        M.load ~o:Acquire t.flag.(other)
        && M.load ~o:Acquire t.turn = other
      then
        if M.now () >= deadline then begin
          M.store ~o:Release t.flag.(me) false;
          false
        end
        else begin
          M.pause ();
          wait ()
        end
      else true
    in
    wait ()

  let has_waiters = None
end
