module Make (M : Clof_atomics.Memory_intf.S) = struct
  type packed = M.anchor Lock_intf.packed

  let ticket : packed = (module Ticket.Make (M))
  let mcs : packed = (module Mcs.Make (M))
  let clh : packed = (module Clh.Make (M))

  let hemlock ?(label = "hem") ~ctr () : packed =
    (module Hemlock.Make
              (M)
              (struct
                let ctr = ctr
                let label = label
              end))

  let tas : packed = (module Tas.Make (M))
  let ttas : packed = (module Ttas.Make (M))
  let backoff : packed = (module Backoff.Make (M))

  let basics ~ctr = [ ticket; mcs; clh; hemlock ~ctr () ]
  let all ~ctr = basics ~ctr @ [ tas; ttas; backoff ]

  let find ~ctr name =
    List.find_opt (fun p -> Lock_intf.name p = name) (all ~ctr)
end
