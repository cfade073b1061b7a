type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

(* ---------- printing ---------- *)

let escape_into buf s =
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\b' -> Buffer.add_string buf "\\b"
      | '\012' -> Buffer.add_string buf "\\f"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s

let float_repr f =
  if Float.is_nan f || f = infinity || f = neg_infinity then "null"
  else if Float.is_integer f && Float.abs f < 1e15 then
    Printf.sprintf "%.1f" f
  else
    (* shortest representation that round-trips *)
    let shorter = Printf.sprintf "%.12g" f in
    if float_of_string shorter = f then shorter
    else Printf.sprintf "%.17g" f

let rec print_into buf ~indent ~level v =
  let pad n =
    if indent > 0 then begin
      Buffer.add_char buf '\n';
      Buffer.add_string buf (String.make (indent * n) ' ')
    end
  in
  match v with
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float f -> Buffer.add_string buf (float_repr f)
  | Str s ->
      Buffer.add_char buf '"';
      escape_into buf s;
      Buffer.add_char buf '"'
  | Arr [] -> Buffer.add_string buf "[]"
  | Arr items ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i item ->
          if i > 0 then Buffer.add_char buf ',';
          pad (level + 1);
          print_into buf ~indent ~level:(level + 1) item)
        items;
      pad level;
      Buffer.add_char buf ']'
  | Obj [] -> Buffer.add_string buf "{}"
  | Obj fields ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, item) ->
          if i > 0 then Buffer.add_char buf ',';
          pad (level + 1);
          Buffer.add_char buf '"';
          escape_into buf k;
          Buffer.add_string buf (if indent > 0 then "\": " else "\":");
          print_into buf ~indent ~level:(level + 1) item)
        fields;
      pad level;
      Buffer.add_char buf '}'

let to_string ?(indent = 0) v =
  let buf = Buffer.create 1024 in
  print_into buf ~indent ~level:0 v;
  if indent > 0 then Buffer.add_char buf '\n';
  Buffer.contents buf

(* ---------- parsing ---------- *)

exception Parse_error of string

type cursor = { src : string; mutable pos : int }

let fail c msg =
  raise (Parse_error (Printf.sprintf "%s at offset %d" msg c.pos))

let peek c = if c.pos < String.length c.src then Some c.src.[c.pos] else None

let advance c = c.pos <- c.pos + 1

let rec skip_ws c =
  match peek c with
  | Some (' ' | '\t' | '\n' | '\r') ->
      advance c;
      skip_ws c
  | _ -> ()

let expect c ch =
  match peek c with
  | Some x when x = ch -> advance c
  | _ -> fail c (Printf.sprintf "expected '%c'" ch)

let literal c word v =
  let n = String.length word in
  if
    c.pos + n <= String.length c.src
    && String.sub c.src c.pos n = word
  then begin
    c.pos <- c.pos + n;
    v
  end
  else fail c ("expected " ^ word)

let hex_digit c ch =
  match ch with
  | '0' .. '9' -> Char.code ch - Char.code '0'
  | 'a' .. 'f' -> Char.code ch - Char.code 'a' + 10
  | 'A' .. 'F' -> Char.code ch - Char.code 'A' + 10
  | _ -> fail c "bad hex digit in \\u escape"

let parse_u16 c =
  let d _ =
    match peek c with
    | Some ch ->
        advance c;
        hex_digit c ch
    | None -> fail c "truncated \\u escape"
  in
  let a = d () in
  let b = d () in
  let e = d () in
  let f = d () in
  (a lsl 12) lor (b lsl 8) lor (e lsl 4) lor f

(* encode a Unicode code point as UTF-8 *)
let add_utf8 buf cp =
  if cp < 0x80 then Buffer.add_char buf (Char.chr cp)
  else if cp < 0x800 then begin
    Buffer.add_char buf (Char.chr (0xC0 lor (cp lsr 6)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
  end
  else if cp < 0x10000 then begin
    Buffer.add_char buf (Char.chr (0xE0 lor (cp lsr 12)));
    Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
  end
  else begin
    Buffer.add_char buf (Char.chr (0xF0 lor (cp lsr 18)));
    Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 12) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
  end

let parse_string c =
  expect c '"';
  let buf = Buffer.create 16 in
  let rec go () =
    match peek c with
    | None -> fail c "unterminated string"
    | Some '"' -> advance c
    | Some '\\' ->
        advance c;
        (match peek c with
        | Some '"' -> advance c; Buffer.add_char buf '"'; go () |> ignore
        | Some '\\' -> advance c; Buffer.add_char buf '\\'; go () |> ignore
        | Some '/' -> advance c; Buffer.add_char buf '/'; go () |> ignore
        | Some 'n' -> advance c; Buffer.add_char buf '\n'; go () |> ignore
        | Some 't' -> advance c; Buffer.add_char buf '\t'; go () |> ignore
        | Some 'r' -> advance c; Buffer.add_char buf '\r'; go () |> ignore
        | Some 'b' -> advance c; Buffer.add_char buf '\b'; go () |> ignore
        | Some 'f' -> advance c; Buffer.add_char buf '\012'; go () |> ignore
        | Some 'u' ->
            advance c;
            let cp = parse_u16 c in
            let cp =
              (* surrogate pair *)
              if cp >= 0xD800 && cp <= 0xDBFF then begin
                expect c '\\';
                expect c 'u';
                let lo = parse_u16 c in
                if lo < 0xDC00 || lo > 0xDFFF then
                  fail c "invalid low surrogate";
                0x10000 + ((cp - 0xD800) lsl 10) + (lo - 0xDC00)
              end
              else cp
            in
            add_utf8 buf cp;
            go () |> ignore
        | _ -> fail c "bad escape")
    | Some ch ->
        advance c;
        Buffer.add_char buf ch;
        go ()
  in
  go ();
  Buffer.contents buf

let parse_number c =
  let start = c.pos in
  let is_num_char = function
    | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
    | _ -> false
  in
  while (match peek c with Some ch -> is_num_char ch | None -> false) do
    advance c
  done;
  let s = String.sub c.src start (c.pos - start) in
  if s = "" then fail c "expected number";
  (* enforce the JSON number grammar before handing the token to the
     (far more permissive) OCaml converters: no leading '+', no leading
     zeros, no bare '.5' or '1.', exponent with at least one digit *)
  let n = String.length s in
  let digits i =
    let j = ref i in
    while !j < n && s.[!j] >= '0' && s.[!j] <= '9' do
      incr j
    done;
    !j
  in
  let i = if s.[0] = '-' then 1 else 0 in
  let i =
    if i < n && s.[i] = '0' then i + 1
    else
      let j = digits i in
      if j = i then -1 else j
  in
  let i =
    if i < 0 then i
    else if i < n && s.[i] = '.' then
      let j = digits (i + 1) in
      if j = i + 1 then -1 else j
    else i
  in
  let i =
    if i < 0 then i
    else if i < n && (s.[i] = 'e' || s.[i] = 'E') then begin
      let i = i + 1 in
      let i = if i < n && (s.[i] = '+' || s.[i] = '-') then i + 1 else i in
      let j = digits i in
      if j = i then -1 else j
    end
    else i
  in
  if i <> n then fail c "malformed number";
  if String.exists (fun ch -> ch = '.' || ch = 'e' || ch = 'E') s then
    match float_of_string_opt s with
    | Some f -> Float f
    | None -> fail c "malformed number"
  else
    match int_of_string_opt s with
    | Some i -> Int i
    | None -> (
        (* out-of-range integer literal: fall back to float *)
        match float_of_string_opt s with
        | Some f -> Float f
        | None -> fail c "malformed number")

(* Containers deeper than this are rejected rather than recursed into:
   the parser is recursive, and adversarial input like ["[[[[..."] must
   produce a typed parse error, not a stack overflow. Real reports are
   ~6 levels deep. *)
let max_depth = 512

let rec parse_value ~depth c =
  if depth > max_depth then fail c "nesting too deep";
  skip_ws c;
  match peek c with
  | None -> fail c "unexpected end of input"
  | Some 'n' -> literal c "null" Null
  | Some 't' -> literal c "true" (Bool true)
  | Some 'f' -> literal c "false" (Bool false)
  | Some '"' -> Str (parse_string c)
  | Some '[' ->
      advance c;
      skip_ws c;
      if peek c = Some ']' then begin
        advance c;
        Arr []
      end
      else begin
        let rec items acc =
          let v = parse_value ~depth:(depth + 1) c in
          skip_ws c;
          match peek c with
          | Some ',' ->
              advance c;
              items (v :: acc)
          | Some ']' ->
              advance c;
              List.rev (v :: acc)
          | _ -> fail c "expected ',' or ']'"
        in
        Arr (items [])
      end
  | Some '{' ->
      advance c;
      skip_ws c;
      if peek c = Some '}' then begin
        advance c;
        Obj []
      end
      else begin
        let field () =
          skip_ws c;
          let k = parse_string c in
          skip_ws c;
          expect c ':';
          let v = parse_value ~depth:(depth + 1) c in
          (k, v)
        in
        let rec fields acc =
          let kv = field () in
          skip_ws c;
          match peek c with
          | Some ',' ->
              advance c;
              fields (kv :: acc)
          | Some '}' ->
              advance c;
              List.rev (kv :: acc)
          | _ -> fail c "expected ',' or '}'"
        in
        Obj (fields [])
      end
  | Some _ -> parse_number c

let of_string s =
  let c = { src = s; pos = 0 } in
  match parse_value ~depth:0 c with
  | v ->
      skip_ws c;
      if c.pos <> String.length s then
        Error (Printf.sprintf "trailing garbage at offset %d" c.pos)
      else Ok v
  | exception Parse_error msg -> Error msg

(* ---------- accessors ---------- *)

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

let to_int = function
  | Int i -> Some i
  | Float f when Float.is_integer f -> Some (int_of_float f)
  | _ -> None

let to_float = function
  | Float f -> Some f
  | Int i -> Some (float_of_int i)
  | _ -> None

let to_str = function Str s -> Some s | _ -> None
let to_list = function Arr l -> Some l | _ -> None
