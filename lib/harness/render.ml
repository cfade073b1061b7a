let table ~header ~rows =
  let buf = Buffer.create 1024 in
  let label_width =
    List.fold_left
      (fun w (l, _) -> max w (String.length l))
      (match header with h :: _ -> String.length h | [] -> 0)
      rows
    + 2
  in
  (match header with
  | [] -> ()
  | h :: cols ->
      Buffer.add_string buf (Printf.sprintf "%-*s" label_width h);
      List.iter (fun c -> Buffer.add_string buf (Printf.sprintf "%9s" c)) cols;
      Buffer.add_char buf '\n');
  List.iter
    (fun (label, cells) ->
      Buffer.add_string buf (Printf.sprintf "%-*s" label_width label);
      List.iter
        (fun v -> Buffer.add_string buf (Printf.sprintf "%9.3f" v))
        cells;
      Buffer.add_char buf '\n')
    rows;
  Buffer.contents buf

let text_table ~header ~rows =
  let ncols = List.length header in
  let width i =
    let of_row cells =
      match List.nth_opt cells i with
      | Some c -> String.length c
      | None -> 0
    in
    List.fold_left
      (fun w (label, cells) ->
        max w (of_row (label :: cells)))
      (match List.nth_opt header i with
      | Some h -> String.length h
      | None -> 0)
      rows
  in
  let widths = List.init ncols width in
  let buf = Buffer.create 1024 in
  let line cells =
    List.iteri
      (fun i c ->
        let w = List.nth widths i in
        if i = 0 then Buffer.add_string buf (Printf.sprintf "%-*s" (w + 2) c)
        else Buffer.add_string buf (Printf.sprintf "  %*s" w c))
      cells;
    Buffer.add_char buf '\n'
  in
  line header;
  List.iter (fun (label, cells) -> line (label :: cells)) rows;
  Buffer.contents buf

let shades = " .:-=+*#%@"

let heatmap f ~n =
  let stride = max 1 ((n + 63) / 64) in
  let cells = (n + stride - 1) / stride in
  let value i j =
    (* average the block so sampling does not miss thin diagonals *)
    let acc = ref 0.0 and cnt = ref 0 in
    for a = i * stride to min (n - 1) (((i + 1) * stride) - 1) do
      for b = j * stride to min (n - 1) (((j + 1) * stride) - 1) do
        acc := !acc +. f a b;
        incr cnt
      done
    done;
    if !cnt = 0 then 0.0 else !acc /. float_of_int !cnt
  in
  let m = Array.init cells (fun i -> Array.init cells (fun j -> value i j)) in
  let vmax =
    Array.fold_left
      (fun acc row -> Array.fold_left max acc row)
      epsilon_float m
  in
  let buf = Buffer.create (cells * (cells + 1)) in
  for j = cells - 1 downto 0 do
    for i = 0 to cells - 1 do
      let x = m.(i).(j) /. vmax in
      let idx =
        min
          (String.length shades - 1)
          (int_of_float (x *. float_of_int (String.length shades - 1)))
      in
      Buffer.add_char buf shades.[idx]
    done;
    Buffer.add_char buf '\n'
  done;
  Buffer.contents buf

let section title =
  Printf.sprintf "\n%s\n%s\n" title (String.make (String.length title) '=')
