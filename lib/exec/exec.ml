let now_s () = Unix.gettimeofday ()

(* The default pool is created on first use and resized by [set_jobs];
   both happen on the orchestrating domain, the mutex only guards
   against surprises (e.g. tests driving the harness from a domain). *)
let m = Mutex.create ()
let requested = ref None
let current : Pool.t option ref = ref None

let jobs () =
  Mutex.lock m;
  let n =
    match !requested with
    | Some n -> n
    | None -> max 1 (Domain.recommended_domain_count ())
  in
  Mutex.unlock m;
  n

let set_jobs n =
  let n = max 1 n in
  Mutex.lock m;
  requested := Some n;
  (match !current with
  | Some p when Pool.size p <> n ->
      Pool.shutdown p;
      current := None
  | Some _ | None -> ());
  Mutex.unlock m

let pool () =
  let n = jobs () in
  Mutex.lock m;
  let p =
    match !current with
    | Some p -> p
    | None ->
        let p = Pool.create ~domains:n in
        current := Some p;
        p
  in
  Mutex.unlock m;
  p

let map f items = Pool.map_ordered (pool ()) f items

let rec chunk k = function
  | [] -> []
  | l ->
      let rec take i acc = function
        | rest when i = 0 -> (List.rev acc, rest)
        | [] -> (List.rev acc, [])
        | x :: tl -> take (i - 1) (x :: acc) tl
      in
      let row, rest = take k [] l in
      row :: chunk k rest

let product_map f rows cols =
  match cols with
  | [] -> List.map (fun _ -> []) rows
  | cols ->
      let pairs =
        List.concat_map (fun r -> List.map (fun c -> (r, c)) cols) rows
      in
      chunk (List.length cols) (map (fun (r, c) -> f r c) pairs)
