module Make (M : Clof_atomics.Memory_intf.S) = struct
  type packed = M.anchor Lock_intf.packed

  let ticket : packed = (module Ticket.Make (M))
  let mcs : packed = (module Mcs.Make (M))
  let clh : packed = (module Clh.Make (M))

  let hemlock ~ctr () : packed =
    (module Hemlock.Make
              (M)
              (struct
                let ctr = ctr
              end))

  let tas_family name ~test ~max_delay : packed =
    (module Tas.Make
              (M)
              (struct
                let name = name
                let test = test
                let max_delay = max_delay
              end))

  let tas = tas_family "tas" ~test:false ~max_delay:1
  let ttas = tas_family "ttas" ~test:true ~max_delay:0
  let backoff = tas_family "bo" ~test:true ~max_delay:64

  let basics ~ctr = [ ticket; mcs; clh; hemlock ~ctr () ]
  let all ~ctr = basics ~ctr @ [ tas; ttas; backoff ]

  let find ~ctr name =
    List.find_opt (fun p -> Lock_intf.name p = name) (all ~ctr)
end
