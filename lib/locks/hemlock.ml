module Make
    (M : Clof_atomics.Memory_intf.S)
    (Cfg : sig
       val ctr : bool
     end) =
struct
  (* The context is a single grant word: 0 = empty, otherwise the id of
     the lock being handed over through it. *)
  type ctx = { grant : int M.aref }
  type t = { tail : ctx M.aref; nil : ctx; id : int }

  let name = "hem"
  let fair = true
  (* Atomic: [create] runs concurrently when the harness instantiates
     locks for parallel simulations; ids must stay unique or two locks
     in one composition could alias their grant handshakes. *)
  let next_id = Atomic.make 1

  let mk_ctx ?node () = { grant = M.make ?node ~name:"hem.grant" 0 }

  let create ?node () =
    let id = Atomic.fetch_and_add next_id 1 in
    let nil = mk_ctx ?node () in
    { tail = M.make ?node ~name:"hem.tail" nil; nil; id }

  type anchor = M.anchor

  let anchor t = M.anchor t.tail
  let ctx_create ?node _t = mk_ctx ?node ()

  let acquire t c =
    let prev = M.exchange t.tail c in
    if prev != t.nil then begin
      ignore (M.await ~rmw:Cfg.ctr prev.grant (fun g -> g = t.id));
      (* acknowledge so the releaser may reuse its grant word *)
      M.store ~o:Release ~rmw:Cfg.ctr prev.grant 0
    end

  let release t c =
    if M.cas t.tail ~expected:c ~desired:t.nil then ()
    else begin
      M.store ~o:Release ~rmw:Cfg.ctr c.grant t.id;
      ignore (M.await c.grant (fun g -> g = 0))
    end

  let abortable = false

  (* Hemlock cannot support MCS-TP-style queue abandonment: the queue
     is implicit (no successor pointers), so a releaser that published
     its grant word has no way to find the next live waiter if its
     direct successor departs — the grant/ack handshake deadlocks.
     Timeout therefore never joins the queue at all: it polls the tail
     for emptiness (trylock style) until the deadline, which is always
     safe and leaves nothing behind, at the cost of never waiting in
     line. *)
  let try_acquire t c ~deadline =
    let rec go () =
      if
        M.load ~o:Relaxed t.tail == t.nil
        && M.cas t.tail ~expected:t.nil ~desired:c
      then true
      else if M.now () >= deadline then false
      else begin
        M.pause ();
        go ()
      end
    in
    go ()

  let has_waiters = Some (fun t c -> not (M.load ~o:Relaxed t.tail == c))
end
