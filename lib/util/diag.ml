type severity = Warning | Error | Fatal

type span = { line : int; col : int }

type t = {
  code : string;
  severity : severity;
  message : string;
  span : span option;
  context : (string * string) list;
}

let make ?(severity = Error) ?span ?(context = []) ~code message =
  { code; severity; message; span; context }

let warning ?span ?context ~code message =
  make ~severity:Warning ?span ?context ~code message

let severity_name = function
  | Warning -> "warning"
  | Error -> "error"
  | Fatal -> "fatal"

(* The frontend prefixes positions as "line %d, column %d: ..." (see
   Lexer.fail and Parser.fail). [split_span] peels that prefix off so the
   span lives in the record and the message stays position-free. *)
let split_span msg =
  let scan () =
    Scanf.sscanf msg "line %d, column %d: %n" (fun line col ofs ->
        (Some { line; col }, String.sub msg ofs (String.length msg - ofs)))
  in
  match scan () with
  | result -> result
  | exception (Scanf.Scan_failure _ | Failure _ | End_of_file) -> (None, msg)

let span_of_message msg = fst (split_span msg)

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec at i = i + n <= m && (String.sub s i n = sub || at (i + 1)) in
  n = 0 || at 0

let has_prefix ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

let of_lexer_error msg =
  let span, body = split_span msg in
  let code =
    if contains ~sub:"unexpected character" body then "E-LEX-001"
    else if contains ~sub:"malformed number" body then "E-LEX-002"
    else if contains ~sub:"unterminated comment" body then "E-LEX-003"
    else if contains ~sub:"unsupported integer width" body then "E-LEX-004"
    else "E-LEX-001"
  in
  make ?span ~code body

let of_parser_error msg =
  let span, body = split_span msg in
  let code =
    if
      contains ~sub:"undeclared array" body
      || contains ~sub:"unknown function" body
      || contains ~sub:"not an enclosing loop variable" body
    then "E-PARSE-002"
    else if contains ~sub:"has rank" body then "E-PARSE-003"
    else if
      contains ~sub:"must be positive" body
      || contains ~sub:"loops must start at 0" body
    then "E-PARSE-004"
    else if
      contains ~sub:"declared twice" body
      || contains ~sub:"reused" body
      || contains ~sub:"collides" body
    then "E-PARSE-005"
    else if
      contains ~sub:"has no loop" body || contains ~sub:"empty loop body" body
    then "E-PARSE-006"
    else "E-PARSE-001"
  in
  make ?span ~code body

let of_invalid_arg msg =
  if has_prefix ~prefix:"nest " msg || has_prefix ~prefix:"Nest." msg then
    make ~code:"E-SEM-001" msg
  else if has_prefix ~prefix:"Interp." msg then make ~code:"E-SEM-002" msg
  else if
    has_prefix ~prefix:"Analysis" msg
    || has_prefix ~prefix:"Group" msg
    || has_prefix ~prefix:"Iterspace" msg
    || has_prefix ~prefix:"Allocation" msg
  then make ~code:"E-SEM-003" msg
  else if has_prefix ~prefix:"allocator: budget" msg then
    make ~code:"E-BUDGET-001" msg
  else if has_prefix ~prefix:"Event_model" msg then
    make ~code:"E-SCHED-DIVERGE" msg
  else if has_prefix ~prefix:"Simulator" msg then make ~code:"E-SIM-001" msg
  else if contains ~sub:"dependency cycle" msg then make ~code:"E-DFG-001" msg
  else if has_prefix ~prefix:"Flownet" msg || has_prefix ~prefix:"Cut" msg then
    make ~code:"E-CUT-001" msg
  else make ~severity:Fatal ~code:"E-INTERNAL-001" msg

let of_exn = function
  | Invalid_argument msg -> of_invalid_arg msg
  | Failure msg -> make ~severity:Fatal ~code:"E-INTERNAL-003" msg
  | Sys_error msg -> make ~code:"E-IO-001" msg
  | Not_found ->
    make ~severity:Fatal ~code:"E-INTERNAL-002"
      "lookup failed without naming the missing key (bare Not_found)"
  | Stack_overflow ->
    make ~severity:Fatal ~code:"E-RESOURCE-001" "stack overflow"
  | Out_of_memory ->
    make ~severity:Fatal ~code:"E-RESOURCE-001" "out of memory"
  | exn -> make ~severity:Fatal ~code:"E-INTERNAL-002" (Printexc.to_string exn)

let exit_code diags =
  let worst rank d =
    max rank (match d.severity with Warning -> 0 | Error -> 2 | Fatal -> 3)
  in
  List.fold_left worst 0 diags

let pp ppf d =
  Format.fprintf ppf "%s[%s]" (severity_name d.severity) d.code;
  (match d.span with
  | Some { line; col } -> Format.fprintf ppf " line %d, column %d:" line col
  | None -> ());
  Format.fprintf ppf " %s" d.message;
  match d.context with
  | [] -> ()
  | kvs ->
    let item ppf (k, v) = Format.fprintf ppf "%s=%s" k v in
    Format.fprintf ppf " (%a)"
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
         item)
      kvs

let to_string d = Format.asprintf "%a" pp d

let json d =
  let span =
    match d.span with
    | Some { line; col } -> [ ("line", Json.Int line); ("column", Json.Int col) ]
    | None -> []
  in
  let context =
    match d.context with
    | [] -> []
    | kvs ->
      [ ("context", Json.Obj (List.map (fun (k, v) -> (k, Json.Str v)) kvs)) ]
  in
  Json.Obj
    ([
       ("code", Json.Str d.code);
       ("severity", Json.Str (severity_name d.severity));
       ("message", Json.Str d.message);
     ]
    @ span @ context)

let to_json d = Json.to_string (json d)
