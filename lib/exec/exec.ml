let requested = Atomic.make None

let jobs () =
  match Atomic.get requested with
  | Some n -> n
  | None -> max 1 (Domain.recommended_domain_count ())

let set_jobs n = Atomic.set requested (Some (max 1 n))

(* Set while a domain runs jobs: a nested [map] from inside a job runs
   inline instead of spawning helpers of its own. *)
let in_job = Domain.DLS.new_key (fun () -> false)

let map f items =
  let helpers = min (jobs () - 1) (List.length items - 1) in
  if helpers <= 0 || Domain.DLS.get in_job then List.map f items
  else begin
    let arr = Array.of_list items in
    let n = Array.length arr in
    (* Each slot is written once, by the domain that ran its item; the
       joins below publish every slot to the caller. *)
    let results = Array.make n None in
    let next = Atomic.make 0 in
    let rec work () =
      let i = Atomic.fetch_and_add next 1 in
      if i < n then begin
        results.(i) <-
          Some
            (match f arr.(i) with
            | v -> Ok v
            | exception e -> Error (e, Printexc.get_raw_backtrace ()));
        work ()
      end
    in
    let run () =
      Domain.DLS.set in_job true;
      work ()
    in
    let ds = List.init helpers (fun _ -> Domain.spawn run) in
    (* The caller takes items too; no job can raise out of [work]. *)
    run ();
    Domain.DLS.set in_job false;
    List.iter Domain.join ds;
    (* Deterministic error propagation: the lowest-index failure is the
       one sequential execution would have raised first. *)
    Array.to_list
      (Array.map
         (function
           | Some (Ok v) -> v
           | Some (Error (e, bt)) -> Printexc.raise_with_backtrace e bt
           | None -> assert false)
         results)
  end

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
