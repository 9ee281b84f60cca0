(* Golden diagnostics for the malformed kernels under bad_kernels/: each
   file pins its stable code, its exact source position, and a message
   fragment, so a frontend change that drifts a line/column count or
   reclassifies an error fails here first. *)

module Parser = Srfa_frontend.Parser
module Diag = Srfa_util.Diag
module Helpers = Srfa_test_helpers.Helpers

let path file = Filename.concat "bad_kernels" file

let first_error file =
  match Parser.parse_file_result (path file) with
  | Ok _ -> Alcotest.failf "%s unexpectedly parsed" file
  | Error [] -> Alcotest.failf "%s rejected without diagnostics" file
  | Error (d :: _) -> d

let check_case (file, code, span, fragment) () =
  let d = first_error file in
  Alcotest.(check string) "code" code d.Diag.code;
  (match span with
  | Some (line, col) -> (
    match d.Diag.span with
    | Some s ->
      Alcotest.(check int) "line" line s.Diag.line;
      Alcotest.(check int) "column" col s.Diag.col
    | None -> Alcotest.failf "%s diagnostic lost its span" file)
  | None ->
    Alcotest.(check bool) "spanless (semantic phase)" true (d.Diag.span = None));
  Alcotest.(check bool)
    (Printf.sprintf "message mentions %S" fragment)
    true
    (Helpers.contains_substring d.Diag.message fragment);
  Alcotest.(check int) "error severity exits 2" 2 (Diag.exit_code [ d ])

let cases =
  [
    ("zero_trip.k", "E-PARSE-004", Some (5, 19), "must be positive");
    ("undeclared_array.k", "E-PARSE-002", Some (6, 12), "undeclared array b");
    ("rank_mismatch.k", "E-PARSE-003", Some (6, 12), "has rank 1");
    ("garbage_char.k", "E-LEX-001", Some (4, 1), "unexpected character");
    ("unterminated_comment.k", "E-LEX-003", Some (8, 1), "unterminated comment");
    ("duplicate_decl.k", "E-PARSE-005", Some (3, 14), "declared twice");
    ("truncated.k", "E-PARSE-001", Some (7, 1), "end of input");
    ("oob_index.k", "E-SEM-001", None, "extent 4");
    ("overflow_literal.k", "E-LEX-002", Some (2, 16), "out of range");
    ("malformed_number.k", "E-LEX-002", Some (6, 19), "malformed number");
    ("int_width.k", "E-LEX-004", Some (2, 10), "integer width 99");
    ("empty_body.k", "E-PARSE-006", Some (6, 3), "empty loop body");
    ("no_loops.k", "E-PARSE-006", Some (5, 3), "kernel nl has no loops");
    ("misspelt_for.k", "E-PARSE-006", Some (4, 3), "kernel mf has no loops");
    (* "reused" is a user's name in these two; it does not pick the code. *)
    ( "stray_identifier.k", "E-PARSE-001", Some (6, 17),
      "identifier \"reused\"" );
    ("no_loop_nest.k", "E-PARSE-006", Some (3, 1), "reused has no loop nest");
    (* A name and '(' where a nested loop belongs is a misspelt header. *)
    ( "nested_misspelt_for.k", "E-PARSE-001", Some (5, 5),
      "expected 'for', found identifier \"fo\"" );
    (* Cut after the first index of a rank-2 reference: the input ends
       before the rank can be checked. *)
    ("truncated_reference.k", "E-PARSE-001", Some (7, 1), "end of input");
    (* Cut inside the loop's '++': the '+' left over is the cut token,
       not a wrong one. *)
    ("truncated_keyword.k", "E-PARSE-001", Some (6, 1),
     "expected '++', found end of input");
  ]

let test_missing_file () =
  match Parser.parse_file_result (path "no_such_kernel.k") with
  | Ok _ -> Alcotest.fail "missing file parsed"
  | Error (d :: _) ->
    Alcotest.(check string) "code" "E-IO-001" d.Diag.code;
    Alcotest.(check int) "exit code" 2 (Diag.exit_code [ d ])
  | Error [] -> Alcotest.fail "missing file rejected without diagnostics"

let () =
  Alcotest.run "bad_kernels"
    [
      ( "goldens",
        List.map
          (fun ((file, code, _, _) as case) ->
            Alcotest.test_case
              (Printf.sprintf "%s -> %s" file code)
              `Quick (check_case case))
          cases );
      ("io", [ Alcotest.test_case "missing file -> E-IO-001" `Quick test_missing_file ]);
    ]
