type token =
  | Ident of string
  | Int of int
  | Kw_kernel
  | Kw_input
  | Kw_output
  | Kw_local
  | Kw_int of int
  | Kw_for
  | Lparen | Rparen
  | Lbrace | Rbrace
  | Lbracket | Rbracket
  | Semicolon | Comma
  | Assign
  | Plus | Minus | Star | Slash
  | Amp | Pipe | Caret
  | Eq
  | Lt
  | Plus_plus
  | Plus_assign
  | Eof

type located = { token : token; line : int; col : int }

module Diag = Srfa_util.Diag

let fail ~code line col fmt =
  Format.kasprintf
    (fun msg ->
      raise (Diag.Failed (Diag.make ~code ~span:{ Diag.line; col } msg)))
    fmt

let is_digit c = c >= '0' && c <= '9'
let is_alpha c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'
let is_word c = is_alpha c || is_digit c

let keyword line col = function
  | "kernel" -> Kw_kernel
  | "input" -> Kw_input
  | "output" -> Kw_output
  | "local" -> Kw_local
  | "int" -> Kw_int 16
  | "for" -> Kw_for
  | word ->
    if String.length word > 3 && String.sub word 0 3 = "int" then begin
      let suffix = String.sub word 3 (String.length word - 3) in
      match int_of_string_opt suffix with
      | Some w when w > 0 && w <= 64 -> Kw_int w
      | Some w ->
        fail ~code:"E-LEX-004" line col "unsupported integer width %d" w
      | None -> Ident word
    end
    else Ident word

let tokenize src =
  let n = String.length src in
  let tokens = ref [] in
  let line = ref 1 and col = ref 1 in
  let i = ref 0 in
  let peek k = if !i + k < n then Some src.[!i + k] else None in
  let advance () =
    (if src.[!i] = '\n' then begin
       incr line;
       col := 1
     end
     else incr col);
    incr i
  in
  let emit token l c = tokens := { token; line = l; col = c } :: !tokens in
  while !i < n do
    let c = src.[!i] in
    let l0 = !line and c0 = !col in
    if c = ' ' || c = '\t' || c = '\r' || c = '\n' then advance ()
    else if c = '/' && peek 1 = Some '/' then
      while !i < n && src.[!i] <> '\n' do
        advance ()
      done
    else if c = '/' && peek 1 = Some '*' then begin
      advance ();
      advance ();
      let closed = ref false in
      while (not !closed) && !i < n do
        if src.[!i] = '*' && peek 1 = Some '/' then begin
          advance ();
          advance ();
          closed := true
        end
        else advance ()
      done;
      if not !closed then fail ~code:"E-LEX-003" l0 c0 "unterminated comment"
    end
    else if is_digit c then begin
      let start = !i in
      while !i < n && is_digit src.[!i] do
        advance ()
      done;
      let text = String.sub src start (!i - start) in
      if !i < n && is_alpha src.[!i] then
        fail ~code:"E-LEX-002" l0 c0 "malformed number %S" text;
      match int_of_string_opt text with
      | Some v -> emit (Int v) l0 c0
      | None ->
        fail ~code:"E-LEX-002" l0 c0 "integer literal %s is out of range" text
    end
    else if is_alpha c then begin
      let start = !i in
      while !i < n && is_word src.[!i] do
        advance ()
      done;
      emit (keyword l0 c0 (String.sub src start (!i - start))) l0 c0
    end
    else begin
      let two tok = advance (); advance (); emit tok l0 c0 in
      let one tok = advance (); emit tok l0 c0 in
      match (c, peek 1) with
      | '+', Some '+' -> two Plus_plus
      | '+', Some '=' -> two Plus_assign
      | '=', Some '=' -> two Eq
      | '(', _ -> one Lparen
      | ')', _ -> one Rparen
      | '{', _ -> one Lbrace
      | '}', _ -> one Rbrace
      | '[', _ -> one Lbracket
      | ']', _ -> one Rbracket
      | ';', _ -> one Semicolon
      | ',', _ -> one Comma
      | '=', _ -> one Assign
      | '+', _ -> one Plus
      | '-', _ -> one Minus
      | '*', _ -> one Star
      | '/', _ -> one Slash
      | '&', _ -> one Amp
      | '|', _ -> one Pipe
      | '^', _ -> one Caret
      | '<', _ -> one Lt
      | _ -> fail ~code:"E-LEX-001" l0 c0 "unexpected character %C" c
    end
  done;
  emit Eof !line !col;
  List.rev !tokens

let describe = function
  | Ident s -> Printf.sprintf "identifier %S" s
  | Int v -> Printf.sprintf "integer %d" v
  | Kw_kernel -> "'kernel'"
  | Kw_input -> "'input'"
  | Kw_output -> "'output'"
  | Kw_local -> "'local'"
  | Kw_int w -> Printf.sprintf "'int%d'" w
  | Kw_for -> "'for'"
  | Lparen -> "'('"
  | Rparen -> "')'"
  | Lbrace -> "'{'"
  | Rbrace -> "'}'"
  | Lbracket -> "'['"
  | Rbracket -> "']'"
  | Semicolon -> "';'"
  | Comma -> "','"
  | Assign -> "'='"
  | Plus -> "'+'"
  | Minus -> "'-'"
  | Star -> "'*'"
  | Slash -> "'/'"
  | Amp -> "'&'"
  | Pipe -> "'|'"
  | Caret -> "'^'"
  | Eq -> "'=='"
  | Lt -> "'<'"
  | Plus_plus -> "'++'"
  | Plus_assign -> "'+='"
  | Eof -> "end of input"
