type t =
  | Null
  | Bool of bool
  | Int of int
  | Raw of string
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Malformed of string

let max_depth = 32

let member key = function Obj kvs -> List.assoc_opt key kvs | _ -> None

(* ---- reading ----------------------------------------------------------- *)

let malformed msg pos =
  raise (Malformed (Printf.sprintf "%s at offset %d" msg pos))

let hex_digit = function
  | '0' .. '9' as c -> Char.code c - Char.code '0'
  | 'a' .. 'f' as c -> Char.code c - Char.code 'a' + 10
  | 'A' .. 'F' as c -> Char.code c - Char.code 'A' + 10
  | _ -> -1

let read_string s i =
  let n = String.length s in
  let buf = Buffer.create 16 in
  (* The code unit of the \u escape whose hex digits start at [j]. *)
  let unit_at j =
    if j + 4 > n then malformed "truncated \\u escape" j;
    let code = ref 0 in
    for k = j to j + 3 do
      let d = hex_digit s.[k] in
      if d < 0 then malformed "bad \\u escape" j;
      code := (!code lsl 4) lor d
    done;
    !code
  in
  let rec decode j =
    if j >= n then malformed "unterminated string" n;
    match s.[j] with
    | '"' -> j + 1
    | '\\' when j + 1 < n -> (
      let simple c =
        Buffer.add_char buf c;
        decode (j + 2)
      in
      match s.[j + 1] with
      | ('"' | '\\' | '/') as c -> simple c
      | 'n' -> simple '\n'
      | 't' -> simple '\t'
      | 'r' -> simple '\r'
      | 'b' -> simple '\b'
      | 'f' -> simple '\012'
      | 'u' ->
        let hi = unit_at (j + 2) in
        let unpaired () = malformed "unpaired surrogate \\u escape" (j + 2) in
        if hi land 0xfc00 = 0xdc00 then unpaired ();
        if hi land 0xfc00 = 0xd800 then begin
          (* a high surrogate only counts with its low half right after *)
          if not (j + 7 < n && s.[j + 6] = '\\' && s.[j + 7] = 'u') then
            unpaired ();
          let lo = unit_at (j + 8) in
          if lo land 0xfc00 <> 0xdc00 then unpaired ();
          Buffer.add_utf_8_uchar buf
            (Uchar.of_int (0x10000 + ((hi - 0xd800) lsl 10) + (lo - 0xdc00)));
          decode (j + 12)
        end
        else begin
          Buffer.add_utf_8_uchar buf (Uchar.of_int hi);
          decode (j + 6)
        end
      | _ -> malformed "bad escape" (j + 1))
    | '\\' -> malformed "bad escape" (j + 1)
    | c ->
      Buffer.add_char buf c;
      decode (j + 1)
  in
  let after = decode (i + 1) in
  (Buffer.contents buf, after)

let parse s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = malformed msg !pos in
  let next_is c = !pos < n && s.[!pos] = c in
  let rec skip_ws () =
    if !pos < n then
      match s.[!pos] with
      | ' ' | '\t' | '\n' | '\r' ->
        incr pos;
        skip_ws ()
      | _ -> ()
  in
  let expect c =
    if next_is c then incr pos else fail (Printf.sprintf "expected %C" c)
  in
  let literal word value =
    let l = String.length word in
    if !pos + l <= n && String.sub s !pos l = word then (
      pos := !pos + l;
      value)
    else fail (Printf.sprintf "expected %s" word)
  in
  let string_token () =
    if not (next_is '"') then fail (Printf.sprintf "expected %C" '"');
    let v, after = read_string s !pos in
    pos := after;
    v
  in
  let number () =
    let start = !pos in
    let is_num_char = function
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while !pos < n && is_num_char s.[!pos] do
      incr pos
    done;
    let text = String.sub s start (!pos - start) in
    match int_of_string_opt text with
    | Some i -> Int i
    | None ->
      if Option.is_some (float_of_string_opt text) then Raw text
      else fail "malformed number"
  in
  (* [depth] counts the arrays and objects around the value. *)
  let rec value depth =
    skip_ws ();
    if !pos >= n then fail "unexpected end of input";
    match s.[!pos] with
    | ('{' | '[') when depth >= max_depth ->
      fail (Printf.sprintf "nesting deeper than %d" max_depth)
    | '{' ->
      incr pos;
      skip_ws ();
      if next_is '}' then (
        incr pos;
        Obj [])
      else
        let rec members acc =
          skip_ws ();
          let key = string_token () in
          skip_ws ();
          expect ':';
          let v = value (depth + 1) in
          skip_ws ();
          if next_is ',' then (
            incr pos;
            members ((key, v) :: acc))
          else if next_is '}' then (
            incr pos;
            Obj (List.rev ((key, v) :: acc)))
          else fail "expected , or }"
        in
        members []
    | '[' ->
      incr pos;
      skip_ws ();
      if next_is ']' then (
        incr pos;
        Arr [])
      else
        let rec elements acc =
          let v = value (depth + 1) in
          skip_ws ();
          if next_is ',' then (
            incr pos;
            elements (v :: acc))
          else if next_is ']' then (
            incr pos;
            Arr (List.rev (v :: acc)))
          else fail "expected , or ]"
        in
        elements []
    | '"' -> Str (string_token ())
    | 't' -> literal "true" (Bool true)
    | 'f' -> literal "false" (Bool false)
    | 'n' -> literal "null" Null
    | _ -> number ()
  in
  let v = value 0 in
  skip_ws ();
  if !pos <> n then fail "trailing garbage";
  v

(* ---- writing ----------------------------------------------------------- *)

let fixed digits f = Raw (Printf.sprintf "%.*f" digits f)

let add_escaped buf s =
  Buffer.add_char buf '"';
  String.iter
    (function
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 -> Printf.bprintf buf "\\u%04x" (Char.code c)
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

let rec to_buffer buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Raw text -> Buffer.add_string buf text
  | Str s -> add_escaped buf s
  | Arr vs ->
    Buffer.add_char buf '[';
    List.iteri
      (fun i v ->
        if i > 0 then Buffer.add_string buf ", ";
        to_buffer buf v)
      vs;
    Buffer.add_char buf ']'
  | Obj kvs ->
    Buffer.add_char buf '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_string buf ", ";
        add_key buf k;
        to_buffer buf v)
      kvs;
    Buffer.add_char buf '}'

and add_key buf k =
  add_escaped buf k;
  Buffer.add_string buf ": "

let to_string v =
  let buf = Buffer.create 256 in
  to_buffer buf v;
  Buffer.contents buf

let to_lines v =
  let buf = Buffer.create 1024 in
  (* [items] one per line, [indent] spaces in, closed at [indent - 2]. *)
  let lines ~indent opening closing add items =
    Buffer.add_char buf opening;
    List.iteri
      (fun i item ->
        Buffer.add_string buf (if i > 0 then ",\n" else "\n");
        Buffer.add_string buf (String.make indent ' ');
        add item)
      items;
    Buffer.add_char buf '\n';
    Buffer.add_string buf (String.make (indent - 2) ' ');
    Buffer.add_char buf closing
  in
  (match v with
  | Obj (_ :: _ as kvs) ->
    lines ~indent:2 '{' '}'
      (fun (k, v) ->
        add_key buf k;
        match v with
        | Arr (_ :: _ as vs) -> lines ~indent:4 '[' ']' (to_buffer buf) vs
        | v -> to_buffer buf v)
      kvs
  | Arr (_ :: _ as vs) -> lines ~indent:2 '[' ']' (to_buffer buf) vs
  | v -> to_buffer buf v);
  Buffer.contents buf
