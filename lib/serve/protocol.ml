module Diag = Srfa_util.Diag
module Json = Srfa_util.Json

(* ---- JSON: re-exports of the one reader ---------------------------- *)

type json = Json.t =
  | Null
  | Bool of bool
  | Int of int
  | Raw of string
  | Str of string
  | Arr of json list
  | Obj of (string * json) list

exception Malformed = Json.Malformed

let parse_json = Json.parse

let member = Json.member

(* ---- requests ---------------------------------------------------------- *)

type op = Allocate | Rebudget | Explore | Stats | Shutdown

type kernel_spec = Named of string | Source of string

type request = {
  id : string option;
  op : op;
  kernel : kernel_spec option;
  device : string option;
  algorithm : string option;
  budget : int option;
  cut_work_limit : int option;
  deadline_ms : int option;
  stream : string option;
  orders : string option;
  tiles : string option;
  budgets : string option;
  algorithms : string option;
  certify : bool;
}

let proto_error msg = Diag.make ~code:"E-PROTO-001" msg

let field_error msg = Diag.make ~code:"E-PROTO-002" msg

let abuse_error msg = Diag.make ~code:"E-PROTO-003" msg

let deadline_error ~deadline_ms ~elapsed_ms =
  Diag.make ~code:"E-DEADLINE"
    (Printf.sprintf "request exceeded its %d ms deadline (%d ms elapsed)"
       deadline_ms elapsed_ms)
    ~context:
      [
        ("deadline_ms", string_of_int deadline_ms);
        ("elapsed_ms", string_of_int elapsed_ms);
      ]

let overload_error ~retry_after_ms =
  Diag.make ~code:"E-OVERLOAD"
    (Printf.sprintf "server at capacity; retry in %d ms" retry_after_ms)
    ~context:[ ("retry_after_ms", string_of_int retry_after_ms) ]

(* Best-effort id recovery from a line that failed to decode, so
   pipelining clients can still correlate the error response. The scan
   is string-aware: it walks the line reading complete JSON string
   tokens (with [Json.read_string], the reader's own decoder) and accepts
   the first "id" token that is actually a key — followed by ':' and a
   string value. A string value that merely contains or equals "id" is
   stepped over as one token, so its characters can neither shadow the
   real key nor end the scan; a token that does not decode (truncated,
   bad escape) ends the scan, since nothing past it is trustworthy. A
   wrong [None] only costs the client its correlation. *)
let recover_id line =
  let n = String.length line in
  let is_ws = function ' ' | '\t' | '\n' | '\r' -> true | _ -> false in
  let rec skip_ws i = if i < n && is_ws line.[i] then skip_ws (i + 1) else i in
  let read_string i =
    match Json.read_string line i with
    | token -> Some token
    | exception Json.Malformed _ -> None
  in
  let rec scan i =
    if i >= n then None
    else if line.[i] <> '"' then scan (i + 1)
    else
      match read_string i with
      | None -> None
      | Some (tok, after) ->
        if tok <> "id" then scan after
        else
          let j = skip_ws after in
          if j >= n || line.[j] <> ':' then
            (* a string value spelling "id", not the key — keep looking *)
            scan after
          else
            let j = skip_ws (j + 1) in
            if j < n && line.[j] = '"' then Option.map fst (read_string j)
            else None (* the id is not a string; correlation is impossible *)
  in
  scan 0

let parse_request line =
  match parse_json line with
  | exception Malformed msg ->
    Error (proto_error (Printf.sprintf "malformed request JSON: %s" msg))
  | Obj _ as json -> (
    let str key =
      match member key json with
      | None -> Ok None
      | Some (Str s) -> Ok (Some s)
      | Some _ -> Error (Printf.sprintf "field %S must be a string" key)
    in
    let int key =
      match member key json with
      | None -> Ok None
      | Some (Int i) -> Ok (Some i)
      | Some _ -> Error (Printf.sprintf "field %S must be an integer" key)
    in
    (* A negative guard or deadline is refused where the line is read. *)
    let non_negative key =
      match int key with
      | Ok (Some n) when n < 0 ->
        Error (Printf.sprintf "field %S must be a non-negative integer" key)
      | r -> r
    in
    let bool_field key =
      match member key json with
      | None -> Ok false
      | Some (Bool b) -> Ok b
      | Some _ -> Error (Printf.sprintf "field %S must be a boolean" key)
    in
    let ( let* ) r f =
      match r with Ok v -> f v | Error msg -> Error (field_error msg)
    in
    let* id = str "id" in
    let* opname = str "op" in
    let* kernel = str "kernel" in
    let* source = str "source" in
    let* device = str "device" in
    let* algorithm = str "algorithm" in
    let* budget = int "budget" in
    let* cut_work_limit = non_negative "cut_work_limit" in
    let* deadline_ms = non_negative "deadline_ms" in
    let* stream = str "stream" in
    let* orders = str "orders" in
    let* tiles = str "tiles" in
    let* budgets = str "budgets" in
    let* algorithms = str "algorithms" in
    let* certify = bool_field "certify" in
    let* op =
      match opname with
      | None | Some "allocate" -> Ok Allocate
      | Some "rebudget" -> Ok Rebudget
      | Some "explore" -> Ok Explore
      | Some "stats" -> Ok Stats
      | Some "shutdown" -> Ok Shutdown
      | Some other ->
        Error
          (Printf.sprintf
             "unknown op %S (allocate, rebudget, explore, stats, shutdown)"
             other)
    in
    let* kernel =
      match (kernel, source) with
      | Some _, Some _ -> Error "give either \"kernel\" or \"source\", not both"
      | Some name, None -> Ok (Some (Named name))
      | None, Some text -> Ok (Some (Source text))
      | None, None ->
        if op = Allocate then
          Error
            "an allocate request needs a \"kernel\" name or a \"source\" text"
        else if op = Rebudget then
          Error
            "a rebudget request needs a \"kernel\" name or a \"source\" text"
        else if op = Explore then
          Error
            "an explore request needs a \"kernel\" name or a \"source\" text"
        else Ok None
    in
    let* () =
      if op = Rebudget && budget = None then
        Error "a rebudget request needs a \"budget\" event target"
      else Ok ()
    in
    Ok
      {
        id; op; kernel; device; algorithm; budget; cut_work_limit;
        deadline_ms; stream; orders; tiles; budgets; algorithms; certify;
      })
  | _ -> Error (proto_error "request must be a JSON object")

(* ---- responses --------------------------------------------------------
   Every response is one [Json.t] tree written into one buffer. *)

let cache_status = function
  | `Hit -> Str "hit"
  | `Analysis -> Str "analysis"
  | `Miss -> Str "miss"

let ints kvs = Obj (List.map (fun (k, v) -> (k, Int v)) kvs)

let report_json (r : Srfa_estimate.Report.t) =
  Obj
    ([
       ("kernel", Str r.kernel);
       ("version", Str r.version);
       ("algorithm", Str r.algorithm);
       ("registers", Int r.total_registers);
       ("cycles", Int r.cycles);
       ("memory_cycles", Int r.memory_cycles);
       ("ram_accesses", Int r.ram_accesses);
       ("clock_ns", Json.fixed 1 r.clock_ns);
       ("exec_time_us", Json.fixed 3 r.exec_time_us);
       ("slices", Int r.slices);
       ("slice_utilization", Json.fixed 4 r.slice_utilization);
       ("rams", Int r.rams);
       ("required", ints r.required);
       ("allocated", ints r.allocated);
     ]
    @ match r.trace_summary with Some s -> [ ("trace", Str s) ] | None -> [])

let json_of_report r = Json.to_string (report_json r)

type rebudget_info = {
  rb_requested : int;
  rb_effective : int;
  rb_clamped : bool;
  rb_freed : int;
  rb_respent : int;
  rb_memoized : bool;
}

let rebudget_json rb =
  Obj
    [
      ("requested", Int rb.rb_requested);
      ("effective", Int rb.rb_effective);
      ("clamped", Bool rb.rb_clamped);
      ("freed", Int rb.rb_freed);
      ("respent", Int rb.rb_respent);
      ("memoized", Bool rb.rb_memoized);
    ]

(* [{"id": ..., "status": ..., members...}], the id only when known. *)
let response ?id status members =
  let members = ("status", Str status) :: members in
  Json.to_string
    (Obj (match id with Some id -> ("id", Str id) :: members | None -> members))

(* The warnings array is omitted when empty. *)
let warnings_member = function
  | [] -> []
  | ws -> [ ("warnings", Arr (List.map Diag.json ws)) ]

(* An ok allocate or rebudget response is an envelope (id, status, cache)
   around a body (report, rebudget, warnings). The body is rendered into
   [Raw] members once, so tier 2 can store it and a hit only splices it
   into a fresh envelope. *)
type body = (string * json) list

let ok_body ?rebudget ~warnings report =
  let rebudget =
    match rebudget with Some rb -> [ ("rebudget", rebudget_json rb) ] | None -> []
  in
  List.map
    (fun (k, v) -> (k, Raw (Json.to_string v)))
    ((("report", report_json report) :: rebudget) @ warnings_member warnings)

let ok_envelope ?id ~cache body =
  response ?id "ok" (("cache", cache_status cache) :: body)

let response_ok ?id ?rebudget ~cache ~warnings report =
  ok_envelope ?id ~cache (ok_body ?rebudget ~warnings report)

(* An explore response embeds the frontier exactly as
   [Flow.Core.frontier_json ~compact:true] rendered it — the same bytes
   the CLI's --json mode pretty-prints — plus the (schedule-dependent,
   never byte-compared) explore counters as a sub-object. *)
let response_explore ?id ~cache ~warnings ~stats frontier =
  response ?id "ok"
    (("cache", cache_status cache) :: ("frontier", Raw frontier)
     :: ("explore", ints stats) :: warnings_member warnings)

let response_error ?id diags =
  response ?id "error" [ ("diagnostics", Arr (List.map Diag.json diags)) ]

let response_stats ?id kvs = response ?id "ok" [ ("stats", ints kvs) ]

let response_bye ?id () = response ?id "ok" [ ("bye", Bool true) ]
