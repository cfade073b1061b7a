module Make (M : Clof_atomics.Memory_intf.S) = struct
  type basic = M.anchor Clof_locks.Lock_intf.packed

  let base (b : basic) : Clof_intf.packed =
    let (module B) = b in
    (module Compose.Base (B))

  let compose (low : basic) (high : Clof_intf.packed) : Clof_intf.packed =
    let (module L) = low in
    let (module H) = high in
    (module Compose.Compose (M) (L) (H))

  let rec build = function
    | [] -> invalid_arg "Generator.build: no levels"
    | [ b ] -> base b
    | b :: rest -> compose b (build rest)

  let rec choices ~basics ~depth =
    if depth <= 0 then [ [] ]
    else
      let rest = choices ~basics ~depth:(depth - 1) in
      List.concat_map (fun b -> List.map (fun r -> b :: r) rest) basics

  let generate ~basics ~depth =
    List.map build (choices ~basics ~depth)

  let of_name ~basics name =
    let parts = String.split_on_char '-' name in
    let resolve p =
      List.find_opt
        (fun b -> Clof_locks.Lock_intf.name b = p)
        basics
    in
    let resolved = List.map resolve parts in
    if List.for_all Option.is_some resolved && resolved <> [] then
      Some (build (List.filter_map Fun.id resolved))
    else None
end
