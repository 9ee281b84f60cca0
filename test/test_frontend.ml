open Srfa_ir
open Srfa_reuse
open Srfa_test_helpers
module Lexer = Srfa_frontend.Lexer
module Parser = Srfa_frontend.Parser
module Diag = Srfa_util.Diag

(* --- lexer ---------------------------------------------------------------- *)

let tokens src =
  List.map (fun (t : Lexer.located) -> t.Lexer.token) (Lexer.tokenize src)

let test_lexer_basics () =
  Alcotest.(check bool) "keywords and punctuation" true
    (tokens "kernel k { input int a[4]; }"
    = [
        Lexer.Kw_kernel; Lexer.Ident "k"; Lexer.Lbrace; Lexer.Kw_input;
        Lexer.Kw_int 16; Lexer.Ident "a"; Lexer.Lbracket; Lexer.Int 4;
        Lexer.Rbracket; Lexer.Semicolon; Lexer.Rbrace; Lexer.Eof;
      ])

let test_lexer_widths () =
  Alcotest.(check bool) "int8" true (tokens "int8" = [ Lexer.Kw_int 8; Lexer.Eof ]);
  Alcotest.(check bool) "int1" true (tokens "int1" = [ Lexer.Kw_int 1; Lexer.Eof ]);
  Alcotest.(check bool) "int32" true (tokens "int32" = [ Lexer.Kw_int 32; Lexer.Eof ]);
  Alcotest.(check bool) "intx is an identifier" true
    (tokens "intx" = [ Lexer.Ident "intx"; Lexer.Eof ])

let test_lexer_operators () =
  Alcotest.(check bool) "compound tokens" true
    (tokens "++ += == < = + - * / & | ^"
    = [
        Lexer.Plus_plus; Lexer.Plus_assign; Lexer.Eq; Lexer.Lt; Lexer.Assign;
        Lexer.Plus; Lexer.Minus; Lexer.Star; Lexer.Slash; Lexer.Amp;
        Lexer.Pipe; Lexer.Caret; Lexer.Eof;
      ])

let test_lexer_comments () =
  Alcotest.(check bool) "comments skipped" true
    (tokens "for // trailing\n /* block\n comment */ 42"
    = [ Lexer.Kw_for; Lexer.Int 42; Lexer.Eof ])

let test_lexer_errors () =
  List.iter
    (fun src ->
      Alcotest.(check bool) (src ^ " rejected") true
        (try
           ignore (Lexer.tokenize src);
           false
         with Diag.Failed d -> String.starts_with ~prefix:"E-LEX-" d.Diag.code))
    [ "@"; "12ab"; "/* unterminated" ]

let test_lexer_positions () =
  match Lexer.tokenize "for\n  x" with
  | [ f; x; _eof ] ->
    Alcotest.(check (pair int int)) "for at 1:1" (1, 1) (f.Lexer.line, f.Lexer.col);
    Alcotest.(check (pair int int)) "x at 2:3" (2, 3) (x.Lexer.line, x.Lexer.col)
  | _ -> Alcotest.fail "unexpected token count"

(* --- parser --------------------------------------------------------------- *)

let fir_src =
  {|kernel fir {
      input  int x[12];
      input  int c[4];
      output int y[9];
      for (i = 0; i < 9; i++)
        for (j = 0; j < 4; j++)
          y[i] += c[j] * x[i + j];
    }|}

let test_parse_fir () =
  let nest = Parser.parse fir_src in
  Alcotest.(check string) "name" "fir" nest.Nest.name;
  Alcotest.(check int) "iterations" 36 (Nest.iterations nest);
  let an = Helpers.analyze nest in
  Alcotest.(check int) "x window" 4 (Helpers.info_named an "x[i+j]").Analysis.nu;
  Alcotest.(check int) "accumulator" 1 (Helpers.info_named an "y[i]").Analysis.nu

let test_parse_matches_builder () =
  (* The shipped source files must agree with the built-in constructors on
     every analysis quantity. *)
  let pairs =
    [
      ("kernels_src/example.k", Srfa_kernels.Kernels.example ());
      ("kernels_src/fir.k", Srfa_kernels.Kernels.fir ());
      ("kernels_src/dec_fir.k", Srfa_kernels.Kernels.dec_fir ());
      ("kernels_src/mat.k", Srfa_kernels.Kernels.mat ());
      ("kernels_src/imi.k", Srfa_kernels.Kernels.imi ());
      ("kernels_src/pat.k", Srfa_kernels.Kernels.pat ());
      ("kernels_src/bic.k", Srfa_kernels.Kernels.bic ());
    ]
  in
  List.iter
    (fun (path, built) ->
      let parsed = Parser.parse_file (Helpers.find_repo_file path) in
      let a1 = Helpers.analyze parsed and a2 = Helpers.analyze built in
      Alcotest.(check int) (path ^ ": groups") (Analysis.num_groups a2)
        (Analysis.num_groups a1);
      Alcotest.(check int)
        (path ^ ": iterations")
        (Nest.iterations built) (Nest.iterations parsed);
      Array.iteri
        (fun gid (i2 : Analysis.info) ->
          let i1 = Analysis.info a1 gid in
          Alcotest.(check string) (path ^ ": group name")
            (Group.name i2.Analysis.group)
            (Group.name i1.Analysis.group);
          Alcotest.(check int) (path ^ ": nu") i2.Analysis.nu i1.Analysis.nu;
          Alcotest.(check int) (path ^ ": saved") i2.Analysis.saved_full
            i1.Analysis.saved_full)
        a2.Analysis.infos)
    pairs

let test_parse_matches_builder_semantics () =
  (* Same values computed, via the interpreter, on a small source. *)
  let src =
    {|kernel mini {
        input  int a[6][6];
        input  int b[6][6];
        output int c[6][6];
        for (i = 0; i < 6; i++)
          for (j = 0; j < 6; j++)
            for (k = 0; k < 6; k++)
              c[i][j] += a[i][k] * b[k][j];
      }|}
  in
  let parsed = Parser.parse src in
  let built = Srfa_kernels.Kernels.mat ~size:6 () in
  let s1 = Interp.run_fresh parsed ~init:Helpers.init in
  let s2 = Interp.run_fresh built ~init:Helpers.init in
  Alcotest.(check bool) "same outputs" true (Interp.equal_array s1 s2 "c")

let test_parse_expressions () =
  let src =
    {|kernel ops {
        input int a[4];
        input int b[4];
        output int o[4];
        for (i = 0; i < 4; i++)
          o[i] = min(a[i], b[i]) + max(a[i], b[i]) - abs(a[i] - b[i])
                 + (a[i] & b[i]) + (a[i] | b[i]) + (a[i] ^ b[i])
                 + (a[i] == b[i]) + (a[i] < b[i]) + a[i] / 2;
      }|}
  in
  let nest = Parser.parse src in
  let store = Interp.run_fresh nest ~init:(fun name c ->
      match name with "a" -> c.(0) + 1 | _ -> 3)
  in
  (* i = 2: a = 3, b = 3: min+max = 6, abs = 0, &=3, |=3, ^=0, ==1, <0, /1 *)
  Alcotest.(check int) "combined ops" 14 (Interp.read store "o" [| 2 |])

let test_parse_reduction_sugar () =
  let plain =
    Parser.parse
      {|kernel k { input int a[4]; output int s[1];
         for (i = 0; i < 4; i++) s[0] = s[0] + a[i]; }|}
  in
  let sugar =
    Parser.parse
      {|kernel k { input int a[4]; output int s[1];
         for (i = 0; i < 4; i++) s[0] += a[i]; }|}
  in
  let r1 = Interp.run_fresh plain ~init:Helpers.init in
  let r2 = Interp.run_fresh sugar ~init:Helpers.init in
  Alcotest.(check bool) "+= is sugar for accumulate" true
    (Interp.equal_array r1 r2 "s")

let rejects ?(exn = `Parser) name src =
  Alcotest.test_case name `Quick (fun () ->
      Alcotest.(check bool) "rejected" true
        (try
           ignore (Parser.parse src);
           false
         with
        | Diag.Failed d when exn = `Parser ->
          String.starts_with ~prefix:"E-PARSE-" d.Diag.code
        | Diag.Failed d when exn = `Lexer ->
          String.starts_with ~prefix:"E-LEX-" d.Diag.code
        | Invalid_argument _ when exn = `Semantic -> true))

let error_message_mentions src fragment =
  try
    ignore (Parser.parse src);
    false
  with Diag.Failed d when String.starts_with ~prefix:"E-PARSE-" d.Diag.code ->
    Helpers.contains_substring d.Diag.message fragment

let test_error_messages () =
  Alcotest.(check bool) "undeclared array named" true
    (error_message_mentions
       {|kernel k { output int y[4]; for (i = 0; i < 4; i++) y[i] = zz[i]; }|}
       "undeclared array zz");
  Alcotest.(check bool) "loop variable as value" true
    (error_message_mentions
       {|kernel k { output int y[4]; for (i = 0; i < 4; i++) y[i] = i; }|}
       "loop variable i");
  Alcotest.(check bool) "rank mismatch" true
    (error_message_mentions
       {|kernel k { input int a[4][4]; output int y[4];
          for (i = 0; i < 4; i++) y[i] = a[i]; }|}
       "rank 2");
  (* A keyword or operator the input ends inside reads as cut short; the
     same spelling before more input is a wrong token. *)
  List.iter
    (fun (src, fragment) ->
      Alcotest.(check bool) src true (error_message_mentions src fragment))
    [
      ({|kerne|}, "expected 'kernel', found end of input");
      ({|kernel k { input in|}, "expected a type, found end of input");
      ({|kernel k { input i|}, "expected a type, found end of input");
      ( {|kernel k { input int a[4]; output int y[4]; for (i = 0; i < 4; i+|},
        "expected '++', found end of input" );
      ({|kerne k {|}, "expected 'kernel', found identifier");
      ({|kernel k { input in a[4];|}, "expected a type, found identifier");
      ({|kernel k { input inx|}, "expected a type, found identifier");
    ];
  Alcotest.(check (option (pair int int))) "position in the span"
    (Some (1, 28))
    (match Parser.parse {|kernel k { input int a[4]; }|} with
    | _ -> None
    | exception Diag.Failed { Diag.span; _ } ->
      Option.map (fun { Diag.line; col } -> (line, col)) span)

(* --- round trip ----------------------------------------------------------- *)

let test_print_roundtrip () =
  List.iter
    (fun (name, nest) ->
      let reparsed = Parser.parse (Parser.print nest) in
      let a1 = Helpers.analyze nest and a2 = Helpers.analyze reparsed in
      Alcotest.(check int) (name ^ ": groups") (Analysis.num_groups a1)
        (Analysis.num_groups a2);
      Array.iteri
        (fun gid (i1 : Analysis.info) ->
          let i2 = Analysis.info a2 gid in
          Alcotest.(check int) (name ^ ": nu") i1.Analysis.nu i2.Analysis.nu)
        a1.Analysis.infos;
      (* and identical semantics *)
      let s1 = Interp.run_fresh nest ~init:Helpers.init in
      let s2 = Interp.run_fresh reparsed ~init:Helpers.init in
      List.iter
        (fun (d : Decl.t) ->
          if d.Decl.storage = Decl.Output then
            Alcotest.(check bool)
              (name ^ ": " ^ d.Decl.name)
              true
              (Interp.equal_array s1 s2 d.Decl.name))
        nest.Nest.arrays)
    (Helpers.small_kernels ())

(* --- renderer parity ------------------------------------------------------ *)

(* The Format renderers the Buffer-based ones replaced, kept as the
   reference: reference names, group names and the canonical source
   (the serving cache's key) must stay byte-identical to them. *)
let format_affine ppf a =
  let pp_term first (v, c) =
    if c >= 0 && not first then Format.fprintf ppf "+";
    if c = 1 then Format.fprintf ppf "%s" v
    else if c = -1 then Format.fprintf ppf "-%s" v
    else Format.fprintf ppf "%d*%s" c v;
    false
  in
  match Affine.coeffs a with
  | [] -> Format.fprintf ppf "%d" (Affine.constant a)
  | terms ->
    ignore (List.fold_left pp_term true terms);
    let c = Affine.constant a in
    if c > 0 then Format.fprintf ppf "+%d" c
    else if c < 0 then Format.fprintf ppf "%d" c

let format_ref ppf (r : Expr.ref_) =
  Format.fprintf ppf "%s" r.Expr.decl.Decl.name;
  List.iter (fun ix -> Format.fprintf ppf "[%a]" format_affine ix) r.Expr.index

(* [Parser.print] with its references rendered through [format_ref]. *)
let format_print nest =
  let buf = Buffer.create 1024 in
  let out fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  out "kernel %s {\n"
    (String.map (function ' ' | '-' -> '_' | c -> c) nest.Nest.name);
  List.iter
    (fun (d : Decl.t) ->
      let storage =
        match d.Decl.storage with
        | Decl.Input -> "input"
        | Decl.Output -> "output"
        | Decl.Local -> "local"
      in
      out "  %-6s int%d %s%s;\n" storage d.Decl.bits d.Decl.name
        (String.concat "" (List.map (Printf.sprintf "[%d]") d.Decl.dims)))
    nest.Nest.arrays;
  out "\n";
  let depth = Nest.depth nest in
  List.iteri
    (fun level (l : Nest.loop) ->
      out "%sfor (%s = 0; %s < %d; %s++)\n"
        (String.make (2 * (level + 1)) ' ')
        l.Nest.var l.Nest.var l.Nest.count l.Nest.var)
    nest.Nest.loops;
  out "%s{\n" (String.make (2 * (depth + 1)) ' ');
  let ref_text r = Format.asprintf "%a" format_ref r in
  let rec expr_text (e : Expr.t) =
    match e with
    | Expr.Const v ->
      if v < 0 then Printf.sprintf "(0 - %d)" (-v) else string_of_int v
    | Expr.Load r -> ref_text r
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
        (ref_text target) (expr_text e))
    nest.Nest.body;
  out "%s}\n}\n" (String.make (2 * (depth + 1)) ' ');
  Buffer.contents buf

let check_ref_parity label (r : Expr.ref_) =
  let expected = Format.asprintf "%a" format_ref r in
  Alcotest.(check string) (label ^ ": ref_to_string") expected
    (Expr.ref_to_string r);
  Alcotest.(check string) (label ^ ": pp_ref") expected
    (Format.asprintf "%a" Expr.pp_ref r);
  List.iter
    (fun ix ->
      Alcotest.(check string) (label ^ ": Affine.to_string")
        (Format.asprintf "%a" format_affine ix)
        (Affine.to_string ix))
    r.Expr.index

(* Every library, Extra and example kernel, their explore variants, and
   the valid fuzz kernels among case ids 0-999 of campaign 42; then
   hand-made indices covering unit and larger coefficients of both
   signs, positive, zero and negative constants, constant-only indices
   and multi-term ordering. *)
let test_renderer_parity () =
  let kernels =
    Srfa_kernels.Kernels.all ()
    @ [ ("example", Helpers.example ()) ]
    @ Srfa_kernels.Extra.all ()
  in
  let nests =
    List.concat_map (fun k -> k :: Helpers.variants k) kernels
    @ List.map
        (fun (id, nest) -> (Printf.sprintf "gen %d" id, nest))
        (Helpers.gen_valid ~seed:42 ~cases:1000)
  in
  List.iter
    (fun (name, nest) ->
      List.iter (check_ref_parity name) (Nest.refs nest);
      Array.iter
        (fun (g : Group.t) ->
          Alcotest.(check string) (name ^ ": group name")
            (Format.asprintf "%a" format_ref g.Group.ref_)
            (Group.name g))
        (Group.collect nest);
      Alcotest.(check string) (name ^ ": printed source") (format_print nest)
        (Parser.print nest))
    nests;
  let v ?coeff x = Affine.var ?coeff x and c = Affine.const in
  let sum = List.fold_left Affine.add (c 0) in
  let indices =
    [
      (c 0, "0");
      (c 7, "7");
      (c (-4), "-4");
      (v "i", "i");
      (v ~coeff:(-1) "i", "-i");
      (v ~coeff:3 "i", "3*i");
      (v ~coeff:(-3) "i", "-3*i");
      (sum [ v "i"; c 2 ], "i+2");
      (sum [ v "i"; c (-2) ], "i-2");
      (sum [ v "k"; v ~coeff:(-2) "i"; v "j" ], "-2*i+j+k");
      (sum [ v ~coeff:(-1) "j"; v ~coeff:(-1) "i"; c (-1) ], "-i-j-1");
      (sum [ c 5; v ~coeff:(-3) "j"; v ~coeff:2 "i" ], "2*i-3*j+5");
      (sum [ v ~coeff:1 "b"; v ~coeff:(-1) "a"; c 1 ], "-a+b+1");
    ]
  in
  List.iter
    (fun (ix, text) ->
      Alcotest.(check string) ("pinned " ^ text) text (Affine.to_string ix);
      check_ref_parity text
        (Expr.ref_ (Decl.make "a" [ 4; 4 ]) [ ix; Affine.sub (c 1) ix ]))
    indices

let () =
  Alcotest.run "frontend"
    [
      ( "lexer",
        [
          Alcotest.test_case "basics" `Quick test_lexer_basics;
          Alcotest.test_case "widths" `Quick test_lexer_widths;
          Alcotest.test_case "operators" `Quick test_lexer_operators;
          Alcotest.test_case "comments" `Quick test_lexer_comments;
          Alcotest.test_case "errors" `Quick test_lexer_errors;
          Alcotest.test_case "positions" `Quick test_lexer_positions;
        ] );
      ( "parser",
        [
          Alcotest.test_case "fir" `Quick test_parse_fir;
          Alcotest.test_case "sources match builders" `Quick
            test_parse_matches_builder;
          Alcotest.test_case "semantics match builders" `Quick
            test_parse_matches_builder_semantics;
          Alcotest.test_case "expression forms" `Quick test_parse_expressions;
          Alcotest.test_case "reduction sugar" `Quick
            test_parse_reduction_sugar;
          Alcotest.test_case "error messages" `Quick test_error_messages;
        ] );
      ( "rejections",
        [
          rejects "missing kernel keyword" "for (i = 0; i < 4; i++) x = 1;";
          rejects "duplicate array"
            {|kernel k { input int a[4]; input int a[4];
               for (i = 0; i < 4; i++) a[i] = 1; }|};
          rejects "duplicate loop variable"
            {|kernel k { output int y[4][4];
               for (i = 0; i < 4; i++) for (i = 0; i < 4; i++) y[i][i] = 1; }|};
          rejects "non-zero lower bound"
            {|kernel k { output int y[4]; for (i = 1; i < 4; i++) y[i] = 1; }|};
          rejects "array in index"
            {|kernel k { input int a[4]; output int y[4];
               for (i = 0; i < 4; i++) y[a[i]] = 1; }|};
          rejects "empty body"
            {|kernel k { output int y[4]; for (i = 0; i < 4; i++) { } }|};
          rejects ~exn:`Semantic "out of bounds"
            {|kernel k { input int a[4]; output int y[4];
               for (i = 0; i < 4; i++) y[i] = a[i + 1]; }|};
          rejects "missing semicolon"
            {|kernel k { output int y[4]; for (i = 0; i < 4; i++) y[i] = 1 }|};
          rejects "trailing garbage"
            {|kernel k { output int y[4]; for (i = 0; i < 4; i++) y[i] = 1; } zz|};
        ] );
      ( "round trip",
        [
          Alcotest.test_case "print/parse" `Quick test_print_roundtrip;
          Alcotest.test_case "renderers match the Format reference" `Quick
            test_renderer_parity;
        ] );
    ]
