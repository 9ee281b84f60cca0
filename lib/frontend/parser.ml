open Srfa_ir
module Diag = Srfa_util.Diag

type state = {
  tokens : Lexer.located array;
  mutable pos : int;
  mutable decls : (string * Decl.t) list;
  mutable loop_vars : string list; (* outermost first *)
}

(* Every failure is raised at a token, the current one unless [at] names
   an earlier one, with the code its site names. *)
let fail ?at (st : state) ~code fmt =
  let { Lexer.line; col; _ } =
    st.tokens.(Option.value at ~default:st.pos)
  in
  Format.kasprintf
    (fun msg ->
      raise (Diag.Failed (Diag.make ~code ~span:{ Diag.line; col } msg)))
    fmt

let current st = st.tokens.(st.pos).Lexer.token
let advance st = st.pos <- st.pos + 1

(* The syntax error: the current token is not what the rule needs. *)
let expected st what =
  fail st ~code:"E-PARSE-001" "expected %s, found %s" what
    (Lexer.describe (current st))

(* [expected] where the rule needs the keyword or operator [word]. A
   source whose last token spells a proper prefix of [word] ([kerne],
   [in], [+] for [++]) was cut inside it, and is reported at the end of
   input. *)
let expected_word st word what =
  let text =
    match current st with Lexer.Ident s -> s | Lexer.Plus -> "+" | _ -> ""
  in
  if
    text <> ""
    && String.length text < String.length word
    && String.starts_with ~prefix:text word
    && st.tokens.(st.pos + 1).Lexer.token = Lexer.Eof
  then advance st;
  expected st what

let expect st token =
  if current st = token then advance st
  else
    let what = Lexer.describe token in
    match token with
    | Lexer.Kw_kernel -> expected_word st "kernel" what
    | Lexer.Plus_plus -> expected_word st "++" what
    | _ -> expected st what

let ident st =
  match current st with
  | Lexer.Ident name ->
    advance st;
    name
  | _ -> expected st "an identifier"

let integer st =
  match current st with
  | Lexer.Int v ->
    advance st;
    v
  | Lexer.Minus -> (
    advance st;
    match current st with
    | Lexer.Int v ->
      advance st;
      -v
    | _ -> expected st "an integer after '-'")
  | _ -> expected st "an integer"

(* [ident] and [integer], also returning the index of the token they
   consumed, for a check that raises at that token afterwards. *)
let ident_at st =
  let at = st.pos in
  (ident st, at)

let integer_at st =
  let at = st.pos in
  (integer st, at)

let find_decl st name = List.assoc_opt name st.decls
let is_loop_var st name = List.mem name st.loop_vars

(* --- index expressions: affine over loop variables ---------------------- *)

(* term := INT | INT '*' IDENT | IDENT | IDENT '*' INT *)
let affine_term st =
  match current st with
  | Lexer.Int coeff -> (
    advance st;
    match current st with
    | Lexer.Star ->
      advance st;
      let v, at = ident_at st in
      if not (is_loop_var st v) then
        fail ~at st ~code:"E-PARSE-002" "%s is not an enclosing loop variable"
          v;
      Affine.var ~coeff v
    | _ -> Affine.const coeff)
  | Lexer.Ident v -> (
    if not (is_loop_var st v) then
      fail st ~code:"E-PARSE-002"
        "%s is not an enclosing loop variable (array references cannot \
         appear inside indices)"
        v;
    advance st;
    match current st with
    | Lexer.Star -> (
      advance st;
      match current st with
      | Lexer.Int coeff ->
        advance st;
        Affine.var ~coeff v
      | _ -> expected st "a constant coefficient")
    | _ -> Affine.var v)
  | _ -> expected st "an index term"

let affine_expr st =
  let acc = ref (affine_term st) in
  let continue = ref true in
  while !continue do
    match current st with
    | Lexer.Plus ->
      advance st;
      acc := Affine.add !acc (affine_term st)
    | Lexer.Minus ->
      advance st;
      acc := Affine.sub !acc (affine_term st)
    | _ -> continue := false
  done;
  !acc

(* A reference, from its array's name on; its checks raise at the
   name. A source that ends where the reference could go on (after an
   unknown name, which may be cut short, or where another index could
   follow) is reported as cut short. *)
let reference st =
  let name, at = ident_at st in
  match find_decl st name with
  | None ->
    if current st = Lexer.Eof then expected st "'['";
    fail ~at st ~code:"E-PARSE-002" "undeclared array %s" name
  | Some decl ->
    let rec indices acc =
      match current st with
      | Lexer.Lbracket ->
        advance st;
        let ix = affine_expr st in
        expect st Lexer.Rbracket;
        indices (ix :: acc)
      | _ -> List.rev acc
    in
    let index = indices [] in
    if List.length index < Decl.rank decl && current st = Lexer.Eof then
      expected st "'['";
    if List.length index <> Decl.rank decl then
      fail ~at st ~code:"E-PARSE-003"
        "%s has rank %d but %d indices were given" name (Decl.rank decl)
        (List.length index);
    Expr.ref_ decl index

(* --- value expressions --------------------------------------------------- *)

(* precedence (loosest to tightest): | , ^ , & , == , < , + - , * / , primary *)
let rec expr st = bitor st

and bitor st =
  let left = bitxor st in
  match current st with
  | Lexer.Pipe ->
    advance st;
    Expr.Binary (Op.Bor, left, bitor st)
  | _ -> left

and bitxor st =
  let left = bitand st in
  match current st with
  | Lexer.Caret ->
    advance st;
    Expr.Binary (Op.Bxor, left, bitxor st)
  | _ -> left

and bitand st =
  let left = equality st in
  match current st with
  | Lexer.Amp ->
    advance st;
    Expr.Binary (Op.Band, left, bitand st)
  | _ -> left

and equality st =
  let left = comparison st in
  match current st with
  | Lexer.Eq ->
    advance st;
    Expr.Binary (Op.Eq, left, comparison st)
  | _ -> left

and comparison st =
  let left = additive st in
  match current st with
  | Lexer.Lt ->
    advance st;
    Expr.Binary (Op.Lt, left, additive st)
  | _ -> left

and additive st =
  let acc = ref (multiplicative st) in
  let continue = ref true in
  while !continue do
    match current st with
    | Lexer.Plus ->
      advance st;
      acc := Expr.Binary (Op.Add, !acc, multiplicative st)
    | Lexer.Minus ->
      advance st;
      acc := Expr.Binary (Op.Sub, !acc, multiplicative st)
    | _ -> continue := false
  done;
  !acc

and multiplicative st =
  let acc = ref (primary st) in
  let continue = ref true in
  while !continue do
    match current st with
    | Lexer.Star ->
      advance st;
      acc := Expr.Binary (Op.Mul, !acc, primary st)
    | Lexer.Slash ->
      advance st;
      acc := Expr.Binary (Op.Div, !acc, primary st)
    | _ -> continue := false
  done;
  !acc

and primary st =
  match current st with
  | Lexer.Int v ->
    advance st;
    Expr.Const v
  | Lexer.Minus ->
    advance st;
    Expr.Unary (Op.Neg, primary st)
  | Lexer.Lparen ->
    advance st;
    let e = expr st in
    expect st Lexer.Rparen;
    e
  | Lexer.Ident "abs" -> unary_call st Op.Abs
  | Lexer.Ident "min" -> binary_call st Op.Min
  | Lexer.Ident "max" -> binary_call st Op.Max
  | Lexer.Ident name ->
    if is_loop_var st name then
      fail st ~code:"E-PARSE-001"
        "loop variable %s cannot be used as a value (store the values it \
         would contribute in an input array)"
        name;
    Expr.Load (reference st)
  | _ -> expected st "an expression"

(* A call's name, already matched by [primary], its '(' and its first
   argument. *)
and first_argument st =
  advance st;
  expect st Lexer.Lparen;
  expr st

and unary_call st op =
  let a = first_argument st in
  expect st Lexer.Rparen;
  Expr.Unary (op, a)

and binary_call st op =
  let a = first_argument st in
  expect st Lexer.Comma;
  let b = expr st in
  expect st Lexer.Rparen;
  Expr.Binary (op, a, b)

(* --- declarations, loops, statements ------------------------------------ *)

(* One declaration, from the storage keyword [decls] matched. *)
let declaration st storage =
  advance st;
  let bits =
    match current st with
    | Lexer.Kw_int w ->
      advance st;
      w
    | _ -> expected_word st "int" "a type"
  in
  let name, at = ident_at st in
  if find_decl st name <> None then
    fail ~at st ~code:"E-PARSE-005" "array %s declared twice" name;
  let rec dims acc =
    match current st with
    | Lexer.Lbracket ->
      advance st;
      let d, at = integer_at st in
      if d <= 0 then
        fail ~at st ~code:"E-PARSE-004" "array extent must be positive, got %d"
          d;
      expect st Lexer.Rbracket;
      dims (d :: acc)
    | _ -> List.rev acc
  in
  let dims = dims [] in
  expect st Lexer.Semicolon;
  st.decls <- (name, Decl.make ~bits ~storage name dims) :: st.decls

let statement st =
  let target = reference st in
  match current st with
  | Lexer.Assign ->
    advance st;
    let e = expr st in
    expect st Lexer.Semicolon;
    Expr.Assign (target, e)
  | Lexer.Plus_assign ->
    advance st;
    let e = expr st in
    expect st Lexer.Semicolon;
    Expr.Assign (target, Expr.Binary (Op.Add, Expr.Load target, e))
  | _ -> expected st "'=' or '+='"

let rec loops st acc_loops =
  match current st with
  | Lexer.Kw_for ->
    advance st;
    expect st Lexer.Lparen;
    let v, at = ident_at st in
    if is_loop_var st v then
      fail ~at st ~code:"E-PARSE-005" "loop variable %s reused" v;
    if find_decl st v <> None then
      fail ~at st ~code:"E-PARSE-005" "loop variable %s collides with an array"
        v;
    expect st Lexer.Assign;
    let lo, at = integer_at st in
    if lo <> 0 then
      fail ~at st ~code:"E-PARSE-004" "loops must start at 0 (got %d)" lo;
    expect st Lexer.Semicolon;
    let v2, at = ident_at st in
    if v2 <> v then
      fail ~at st ~code:"E-PARSE-001" "loop condition must test %s, found %s"
        v v2;
    expect st Lexer.Lt;
    let count, at = integer_at st in
    if count <= 0 then
      fail ~at st ~code:"E-PARSE-004" "trip count must be positive, got %d"
        count;
    expect st Lexer.Semicolon;
    let v3, at = ident_at st in
    if v3 <> v then
      fail ~at st ~code:"E-PARSE-001" "loop increment must bump %s, found %s"
        v v3;
    expect st Lexer.Plus_plus;
    expect st Lexer.Rparen;
    st.loop_vars <- st.loop_vars @ [ v ];
    loops st (acc_loops @ [ Nest.loop v count ])
  | Lexer.Lbrace ->
    advance st;
    if current st = Lexer.Rbrace then
      fail st ~code:"E-PARSE-006" "empty loop body";
    let rec stmts acc =
      match current st with
      | Lexer.Rbrace ->
        advance st;
        List.rev acc
      | _ -> stmts (statement st :: acc)
    in
    (acc_loops, stmts [])
  | Lexer.Ident _ when st.tokens.(st.pos + 1).Lexer.token = Lexer.Lparen ->
    (* No statement opens with a name and '(': a misspelt loop header. *)
    expected st "'for'"
  | Lexer.Ident _ ->
    (* single unbraced statement *)
    (acc_loops, [ statement st ])
  | _ -> expected st "'for', '{' or a statement"

let parse src =
  let st =
    {
      tokens = Array.of_list (Lexer.tokenize src);
      pos = 0;
      decls = [];
      loop_vars = [];
    }
  in
  expect st Lexer.Kw_kernel;
  let name = ident st in
  expect st Lexer.Lbrace;
  let rec decls () =
    let declare storage =
      declaration st storage;
      decls ()
    in
    match current st with
    | Lexer.Kw_input -> declare Decl.Input
    | Lexer.Kw_output -> declare Decl.Output
    | Lexer.Kw_local -> declare Decl.Local
    | _ -> ()
  in
  decls ();
  if current st = Lexer.Rbrace then
    fail st ~code:"E-PARSE-006" "kernel %s has no loop nest" name;
  (* A body that does not open with a [for] (a statement, a brace, a
     misspelt or truncated keyword) is reported where the [for] belongs;
     a source that ends there is reported by [loops] as cut short. *)
  (match current st with
  | Lexer.Kw_for | Lexer.Eof -> ()
  | _ -> fail st ~code:"E-PARSE-006" "kernel %s has no loops" name);
  let loops, body = loops st [] in
  expect st Lexer.Rbrace;
  expect st Lexer.Eof;
  let arrays = List.rev_map snd st.decls in
  (* Only keep arrays that are actually referenced; Nest.make rejects
     unreferenced duplicates anyway, but unreferenced declarations are
     user noise we accept silently. *)
  Nest.make ~name ~arrays ~loops ~body

let parse_file path =
  let ic = open_in path in
  let n = in_channel_length ic in
  let src = really_input_string ic n in
  close_in ic;
  parse src

(* --- checked entry points ------------------------------------------------ *)

let parse_result src =
  match parse src with
  | nest -> Ok nest
  | exception exn -> Result.Error [ Diag.of_exn exn ]

let parse_file_result path =
  match parse_file path with
  | nest -> Ok nest
  | exception exn -> Result.Error [ Diag.of_exn exn ]

(* --- printing ------------------------------------------------------------ *)

let print nest =
  let buf = Buffer.create 1024 in
  let out fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  out "kernel %s {\n"
    (String.map (function ' ' | '-' -> '_' | c -> c) nest.Nest.name);
  let emit_decl (d : Decl.t) =
    let storage =
      match d.Decl.storage with
      | Decl.Input -> "input"
      | Decl.Output -> "output"
      | Decl.Local -> "local"
    in
    let dims =
      String.concat "" (List.map (Printf.sprintf "[%d]") d.Decl.dims)
    in
    out "  %-6s int%d %s%s;\n" storage d.Decl.bits d.Decl.name dims
  in
  List.iter emit_decl nest.Nest.arrays;
  out "\n";
  let depth = Nest.depth nest in
  List.iteri
    (fun level (l : Nest.loop) ->
      out "%sfor (%s = 0; %s < %d; %s++)\n"
        (String.make (2 * (level + 1)) ' ')
        l.Nest.var l.Nest.var l.Nest.count l.Nest.var)
    nest.Nest.loops;
  out "%s{\n" (String.make (2 * (depth + 1)) ' ');
  let rec expr_text (e : Expr.t) =
    match e with
    | Expr.Const v -> if v < 0 then Printf.sprintf "(0 - %d)" (-v) else string_of_int v
    | Expr.Load r -> Expr.ref_to_string r
    | Expr.Unary (Op.Neg, a) -> Printf.sprintf "(0 - %s)" (expr_text a)
    | Expr.Unary (Op.Abs, a) -> Printf.sprintf "abs(%s)" (expr_text a)
    | Expr.Unary (Op.Bnot, a) -> Printf.sprintf "(1 - %s)" (expr_text a)
    | Expr.Binary (op, a, b) ->
      let sa = expr_text a and sb = expr_text b in
      let infix sym = Printf.sprintf "(%s %s %s)" sa sym sb in
      (match op with
      | Op.Add -> infix "+"
      | Op.Sub -> infix "-"
      | Op.Mul -> infix "*"
      | Op.Div -> infix "/"
      | Op.Band -> infix "&"
      | Op.Bor -> infix "|"
      | Op.Bxor -> infix "^"
      | Op.Eq -> infix "=="
      | Op.Lt -> infix "<"
      | Op.Min -> Printf.sprintf "min(%s, %s)" sa sb
      | Op.Max -> Printf.sprintf "max(%s, %s)" sa sb)
  in
  List.iter
    (fun (Expr.Assign (target, e)) ->
      out "%s%s = %s;\n"
        (String.make (2 * (depth + 2)) ' ')
        (Expr.ref_to_string target) (expr_text e))
    nest.Nest.body;
  out "%s}\n}\n" (String.make (2 * (depth + 1)) ' ');
  Buffer.contents buf

(* The canonical hashable form: [print] is deterministic in the nest
   value alone (fixed layout, lowered sugar, normalised names), so a
   parsed kernel and its builder-made twin hash identically. Kept as its
   own name so the serving layer's cache keys are tied to an explicit
   contract rather than to whatever [print] happens to emit. *)
let canonical_source = print
