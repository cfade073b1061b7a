type series = { lock : string; points : (int * float) list }
type policy = High_contention | Low_contention

let weight policy threads =
  match policy with
  | High_contention -> float_of_int threads
  | Low_contention -> 1.0 /. float_of_int threads

let score policy points =
  let wsum, xsum =
    List.fold_left
      (fun (wsum, xsum) (threads, x) ->
        let w = weight policy threads in
        (wsum +. w, xsum +. (w *. x)))
      (0.0, 0.0) points
  in
  if wsum = 0.0 then 0.0 else xsum /. wsum

let rank policy series =
  let keyed = List.map (fun s -> (score policy s.points, s)) series in
  let cmp (sa, a) (sb, b) =
    match Float.compare sb sa with
    | 0 -> String.compare a.lock b.lock
    | c -> c
  in
  List.map snd (List.sort cmp keyed)

let best policy series =
  match rank policy series with [] -> None | s :: _ -> Some s

let worst policy series =
  match List.rev (rank policy series) with [] -> None | s :: _ -> Some s
