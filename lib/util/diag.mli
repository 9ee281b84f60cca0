(** Typed diagnostics.

    Every failure the pipeline can surface — a lexer error, an infeasible
    budget, a tripped resource guard — is reported as one {!t}: a stable
    error code (the contract scripts and tests match on), a severity, a
    human message, the source span when one is known, and a flat context
    payload. The full code registry and the severity-to-exit-code mapping
    are documented in DESIGN.md §10.

    The module also owns the exception boundary: {!of_exn} classifies the
    exceptions the library layers raise ([Invalid_argument], [Failure],
    [Not_found], [Sys_error], [Stack_overflow], ...) into coded
    diagnostics, so [Flow.checked] and the CLI never re-implement the
    mapping. *)

type severity =
  | Warning  (** degraded but answered, e.g. a guard fallback *)
  | Error    (** the input is at fault; no report *)
  | Fatal    (** the library is at fault (internal invariant, resources) *)

type span = { line : int; col : int }

type t = {
  code : string;  (** stable, e.g. ["E-PARSE-001"], ["W-GUARD-CUT"] *)
  severity : severity;
  message : string;
  span : span option;
  context : (string * string) list;  (** payload, e.g. [("kernel", "fir")] *)
}

val make :
  ?severity:severity -> ?span:span -> ?context:(string * string) list ->
  code:string -> string -> t
(** [make ~code msg] builds a diagnostic; severity defaults to [Error]. *)

val warning :
  ?span:span -> ?context:(string * string) list -> code:string -> string -> t

val severity_name : severity -> string
(** ["warning"], ["error"], ["fatal"]. *)

val span_of_message : string -> span option
(** Recover a {!span} from the frontend's ["line %d, column %d: ..."]
    message prefix (the lexer and parser both use it); [None] when the
    message carries no position. *)

val of_lexer_error : string -> t
(** Classify a {!Srfa_frontend.Lexer.Error} message into an [E-LEX-*]
    code, extracting the span. *)

val of_parser_error : string -> t
(** Classify a {!Srfa_frontend.Parser.Error} message into an [E-PARSE-*]
    code, extracting the span. *)

val of_invalid_arg : string -> t
(** Classify an [Invalid_argument] message by its module prefix
    (["nest ..."] is semantic validation, ["allocator: budget ..."] is
    [E-BUDGET-001], and so on; see DESIGN.md §10 for the table). *)

val of_exn : exn -> t
(** The generic exception boundary. Knows [Invalid_argument], [Failure],
    [Not_found], [Sys_error], [Stack_overflow] and [Out_of_memory];
    anything else becomes a [Fatal] [E-INTERNAL-002] carrying
    [Printexc.to_string]. Never raises. *)

val exit_code : t list -> int
(** Process exit code for a diagnostic set: [0] when nothing is worse than
    a warning, [2] for errors, [3] for fatals. *)

val pp : Format.formatter -> t -> unit
(** [error[E-PARSE-001] line 3, column 9: message (key=value, ...)]. *)

val to_string : t -> string

val json : t -> Json.t
(** One diagnostic as a JSON object: code, severity and message, then
    ["line"]/["column"] when the span is known and a ["context"] object
    when the payload is non-empty. *)

val to_json : t -> string
(** {!json} on a single line. *)
