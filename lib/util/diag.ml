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

exception Failed of t

let severity_name = function
  | Warning -> "warning"
  | Error -> "error"
  | Fatal -> "fatal"

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec at i = i + n <= m && (String.sub s i n = sub || at (i + 1)) in
  n = 0 || at 0

let has_prefix ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

(* An [Invalid_argument] message, coded by the module prefix the layers
   below the frontend write. *)
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
  | Failed d -> d
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
