module Exec = Clof_exec.Exec

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* Run [f] at [j] jobs, restoring the sequential default afterwards. *)
let with_jobs j f =
  Exec.set_jobs j;
  Fun.protect ~finally:(fun () -> Exec.set_jobs 1) f

let test_map_matches_list_map () =
  (* skewed work: late items finish first under parallelism, so order
     preservation is actually exercised *)
  let items = List.init 64 (fun i -> 64 - i) in
  let f n =
    let acc = ref 0 in
    for i = 1 to n * 1000 do
      acc := !acc + i
    done;
    (n, !acc)
  in
  let expected = List.map f items in
  List.iter
    (fun j ->
      with_jobs j (fun () ->
          check_bool
            (Printf.sprintf "ordered results, %d jobs" j)
            true
            (Exec.map f items = expected)))
    [ 1; 2; 4 ]

let test_map_empty_and_singleton () =
  with_jobs 4 (fun () ->
      check_bool "empty" true (Exec.map succ [] = []);
      check_bool "singleton" true (Exec.map succ [ 41 ] = [ 42 ]))

exception Boom of int

let test_lowest_index_error () =
  (* two failures; the one a sequential List.map would hit first must
     win, no matter which job finishes first. The next map at the same
     job count must still be right: no helper outlived the failed one. *)
  List.iter
    (fun j ->
      with_jobs j (fun () ->
          check_bool
            (Printf.sprintf "lowest index wins, %d jobs" j)
            true
            (try
               ignore
                 (Exec.map
                    (fun i -> if i = 2 || i = 5 then raise (Boom i) else i)
                    [ 0; 1; 2; 3; 4; 5; 6 ]);
               false
             with Boom 2 -> true);
          check_bool
            (Printf.sprintf "next map after a failure, %d jobs" j)
            true
            (Exec.map succ [ 0; 1; 2; 3; 4; 5; 6 ] = [ 1; 2; 3; 4; 5; 6; 7 ])))
    [ 1; 2; 4 ]

let test_nested_map_inline () =
  (* a job that itself maps runs that map inline *)
  with_jobs 2 (fun () ->
      let r =
        Exec.map
          (fun i -> List.fold_left ( + ) 0 (Exec.map succ [ i; i ]))
          [ 1; 2; 3 ]
      in
      check_bool "nested" true (r = [ 4; 6; 8 ]))

(* ---------- Exec (process-wide default) ---------- *)

let test_set_jobs () =
  Exec.set_jobs 3;
  check_int "resized" 3 (Exec.jobs ());
  Exec.set_jobs 0;
  check_int "clamped to 1" 1 (Exec.jobs ())

let test_exec_map_deterministic () =
  let items = List.init 40 (fun i -> i) in
  let f i = (i * 7919) mod 104729 in
  let runs =
    List.map
      (fun j ->
        Exec.set_jobs j;
        Exec.map f items)
      [ 1; 4; 2 ]
  in
  Exec.set_jobs 1;
  match runs with
  | [ a; b; c ] ->
      check_bool "j1 = j4" true (a = b);
      check_bool "j1 = j2" true (a = c);
      check_bool "matches List.map" true (a = List.map f items)
  | _ -> assert false

let test_product_map_shape () =
  Exec.set_jobs 4;
  let rows = [ 10; 20; 30 ] and cols = [ 1; 2; 3; 4 ] in
  let r = Exec.product_map (fun a b -> a + b) rows cols in
  Exec.set_jobs 1;
  check_int "one list per row" (List.length rows) (List.length r);
  List.iter2
    (fun row cells ->
      check_bool
        (Printf.sprintf "row %d" row)
        true
        (cells = List.map (fun c -> row + c) cols))
    rows r

let test_product_map_empty_cols () =
  let r = Exec.product_map (fun _ _ -> assert false) [ 1; 2 ] [] in
  check_bool "empty rows kept" true (r = [ []; [] ])

let () =
  Alcotest.run "exec"
    [
      (* the helper domains [Exec.map] forks and joins for one batch *)
      ( "pool",
        [
          Alcotest.test_case "ordered map" `Quick test_map_matches_list_map;
          Alcotest.test_case "empty/singleton" `Quick
            test_map_empty_and_singleton;
          Alcotest.test_case "lowest-index error" `Quick
            test_lowest_index_error;
          Alcotest.test_case "nested map inline" `Quick
            test_nested_map_inline;
        ] );
      ( "exec",
        [
          Alcotest.test_case "set_jobs" `Quick test_set_jobs;
          Alcotest.test_case "deterministic across jobs" `Quick
            test_exec_map_deterministic;
          Alcotest.test_case "product_map shape" `Quick
            test_product_map_shape;
          Alcotest.test_case "product_map empty cols" `Quick
            test_product_map_empty_cols;
        ] );
    ]
