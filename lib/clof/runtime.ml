type handle = {
  acquire : unit -> unit;
  release : unit -> unit;
  try_acquire : deadline:int -> bool;
}

type lock = {
  l_name : string;
  l_fair : bool;
  l_abortable : bool;
  l_adaptive : bool;
  handle : ?stats:Clof_stats.Stats.recorder -> cpu:int -> unit -> handle;
}

type spec = {
  s_name : string;
  instantiate : Clof_topology.Topology.t -> lock;
}

let make ?(adaptive = false) ?set_sink ~name ~fair ~abortable ~ctx ~acquire
    ~release ~try_acquire create =
  {
    s_name = name;
    instantiate =
      (fun topo ->
        let t = create topo in
        {
          l_name = name;
          l_fair = fair;
          l_abortable = abortable;
          l_adaptive = adaptive;
          handle =
            (fun ?stats ~cpu () ->
              let c = ctx topo t ~cpu in
              (match (stats, set_sink) with
              | Some r, Some set -> set c (Clof_stats.Stats.Sink.of_recorder r)
              | _ -> ());
              {
                acquire = (fun () -> acquire t c);
                release = (fun () -> release t c);
                try_acquire = (fun ~deadline -> try_acquire t c ~deadline);
              });
        });
  }

let blocking acquire t c ~deadline:_ =
  acquire t c;
  true

let of_clof ?h ~hierarchy (packed : Clof_intf.packed) =
  let (module L) = packed in
  make ~set_sink:L.set_sink ~name:L.name ~fair:L.fair ~abortable:L.abortable
    ~ctx:(fun _ -> L.ctx_create)
    ~acquire:L.acquire ~release:L.release ~try_acquire:L.try_acquire
    (fun topo -> L.create ?h ~topo ~hierarchy ())

(* basic locks have no internal instrumentation points; the harness
   still records acquisitions and latency *)
let of_basic (type a) (packed : a Clof_locks.Lock_intf.packed) =
  let (module B) = packed in
  make ~name:B.name ~fair:B.fair ~abortable:B.abortable
    ~ctx:(fun _ t ~cpu:_ -> B.ctx_create t)
    ~acquire:B.acquire ~release:B.release ~try_acquire:B.try_acquire
    (fun _ -> B.create ~node:0 ())

let rename name spec =
  {
    s_name = name;
    instantiate =
      (fun topo -> { (spec.instantiate topo) with l_name = name });
  }
