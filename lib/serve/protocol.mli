(** The serve daemon's wire protocol: JSON lines over a Unix-domain
    socket, one request object in, one response object out, in order.

    Request fields (flat object; unknown fields are ignored):
    - ["op"]: ["allocate"] (default), ["rebudget"], ["explore"],
      ["stats"] or ["shutdown"];
    - ["id"]: optional string, echoed verbatim in the response;
    - ["kernel"]: a built-in kernel name, {e or} ["source"]: kernel DSL
      text (exactly one for an allocate or rebudget request);
    - ["device"]: ["xcv1000"] (default) or ["xc2v6000"];
    - ["algorithm"]: an {!Srfa_core.Allocator.of_name} string
      (default ["cpa-ra"]; rebudget always answers with the certified
      portfolio);
    - ["budget"]: register budget (default 64; for a rebudget request
      it is the mandatory event target);
    - ["cut_work_limit"]: optional override of the CPA cut-work guard,
      a non-negative integer;
    - ["deadline_ms"]: optional per-request wall-clock deadline, a
      non-negative integer (overrides the server default; tripping it is
      [E-DEADLINE]);
    - ["stream"]: optional rebudget session name (default
      ["default"]) — requests naming the same kernel, device and stream
      mutate the same live allocation (DESIGN.md §16);
    - explore only (DESIGN.md §17): ["orders"] (["all"], ["identity"]
      or explicit [";"]-separated permutations like ["0,2,1;2,0,1"]),
      ["tiles"] / ["budgets"] / ["algorithms"] (comma-separated lists)
      and ["certify"] (boolean) — together the design-space spec the
      frontier tier is keyed on.

    Responses: [{"status": "ok", "cache": "hit"|"analysis"|"miss",
    "report": {...}, "warnings": [...]}] for served allocations (the
    warnings array carries [W-GUARD-*] diagnostics and is omitted when
    empty), [{"status": "error", "diagnostics": [...]}] with
    {!Srfa_util.Diag.to_json} objects otherwise — kernel parse errors
    arrive inline with their [E-LEX-*]/[E-PARSE-*] codes, protocol
    errors as [E-PROTO-001] (malformed JSON) / [E-PROTO-002] (bad or
    missing field) / [E-PROTO-003] (abusive connection: oversized
    request line or read timeout), resource errors as [E-DEADLINE]
    (deadline tripped; never cached) and [E-OVERLOAD] (shed under load;
    carries a [retry_after_ms] context hint). The full scheme is
    documented in DESIGN.md §14–§15. *)

(** {2 JSON}

    Re-exports of {!Srfa_util.Json}, which owns the reader, the writer
    and the escaping rule of every response below. *)

type json = Srfa_util.Json.t =
  | Null
  | Bool of bool
  | Int of int
  | Raw of string
  | Str of string
  | Arr of json list
  | Obj of (string * json) list

exception Malformed of string
(** {!Srfa_util.Json.Malformed}. *)

val parse_json : string -> json
(** {!Srfa_util.Json.parse}. *)

val member : string -> json -> json option
(** {!Srfa_util.Json.member}. *)

(** {2 Requests} *)

type op = Allocate | Rebudget | Explore | Stats | Shutdown

type kernel_spec = Named of string | Source of string

type request = {
  id : string option;
  op : op;
  kernel : kernel_spec option;
      (** [Some] for every allocate/rebudget request *)
  device : string option;
  algorithm : string option;
  budget : int option;  (** [Some] for every rebudget request *)
  cut_work_limit : int option;
  deadline_ms : int option;
  stream : string option;  (** rebudget session name *)
  orders : string option;  (** explore: loop-order axis spec *)
  tiles : string option;  (** explore: strip-mine factor ladder *)
  budgets : string option;  (** explore: budget ladder *)
  algorithms : string option;  (** explore: algorithm list *)
  certify : bool;  (** explore: certified-portfolio points *)
}

val proto_error : string -> Srfa_util.Diag.t
(** An [E-PROTO-001] diagnostic (malformed request JSON). *)

val field_error : string -> Srfa_util.Diag.t
(** An [E-PROTO-002] diagnostic (bad or missing request field). *)

val abuse_error : string -> Srfa_util.Diag.t
(** An [E-PROTO-003] diagnostic (oversized request line, read timeout —
    the connection is dropped after this response). *)

val deadline_error : deadline_ms:int -> elapsed_ms:int -> Srfa_util.Diag.t
(** An [E-DEADLINE] diagnostic with both figures in the context. *)

val overload_error : retry_after_ms:int -> Srfa_util.Diag.t
(** An [E-OVERLOAD] diagnostic carrying the [retry_after_ms] hint. *)

val recover_id : string -> string option
(** Best-effort extraction of the ["id"] field from a request line that
    failed to decode, so error responses can still echo it and
    pipelining clients can correlate failures. The scan reads complete
    JSON string tokens with {!Srfa_util.Json.read_string}, so ids
    containing escaped quotes decode correctly and a string {e value}
    spelling or containing ["id"] cannot shadow the real key. [None]
    when no plausible id is found — correlation is lost, nothing
    else. *)

val parse_request : string -> (request, Srfa_util.Diag.t) result
(** Decode one request line. Malformed JSON is [E-PROTO-001]; a
    well-formed object with bad field types, an unknown op, or neither /
    both of [kernel] and [source] is [E-PROTO-002]. *)

(** {2 Responses} *)

val json_of_report : Srfa_estimate.Report.t -> string
(** One report as a single-line JSON object (per-group register maps
    included). *)

type rebudget_info = {
  rb_requested : int;
  rb_effective : int;  (** after the feasibility-minimum clamp *)
  rb_clamped : bool;
  rb_freed : int;
  rb_respent : int;
  rb_memoized : bool;  (** served from the session's per-budget memo *)
}
(** The incremental bookkeeping a rebudget response carries alongside
    the report, as a ["rebudget"] sub-object. *)

type body
(** The members of an ok allocate or rebudget response that follow its
    envelope — ["report"], ["rebudget"] (rebudget responses only) and
    ["warnings"] (omitted when empty) — each already rendered to JSON
    text. Tier 2 stores one per report, so a hit renders nothing but
    its envelope. *)

val ok_body :
  ?rebudget:rebudget_info -> warnings:Srfa_util.Diag.t list ->
  Srfa_estimate.Report.t -> body

val ok_envelope :
  ?id:string -> cache:[ `Hit | `Analysis | `Miss ] -> body -> string
(** The response line: ["id"] (when given), ["status"], ["cache"], then
    the body's members verbatim. *)

val response_ok :
  ?id:string -> ?rebudget:rebudget_info ->
  cache:[ `Hit | `Analysis | `Miss ] ->
  warnings:Srfa_util.Diag.t list -> Srfa_estimate.Report.t -> string
(** [ok_envelope ?id ~cache (ok_body ?rebudget ~warnings report)].
    [cache] says what the request cost: [`Hit] = served from the report
    tier (for rebudget: the session existed), [`Analysis] = analysis
    reused, allocation recomputed, [`Miss] = fully cold. [rebudget]
    adds the incremental bookkeeping sub-object (rebudget responses
    only). *)

val response_explore :
  ?id:string -> cache:[ `Hit | `Analysis | `Miss ] ->
  warnings:Srfa_util.Diag.t list -> stats:(string * int) list ->
  string -> string
(** An explore response: the pre-rendered compact frontier JSON
    ({!Srfa_core.Flow.Core.frontier_json}) embedded verbatim as the
    ["frontier"] member, plus the explore counters (variants, cuts,
    memo hits — schedule-dependent, never byte-compared) as the
    ["explore"] sub-object. *)

val response_error : ?id:string -> Srfa_util.Diag.t list -> string

val response_stats : ?id:string -> (string * int) list -> string

val response_bye : ?id:string -> unit -> string
