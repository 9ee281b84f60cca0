(** JSON values: the one reader and the one writer behind every JSON
    surface — serve requests and responses, coded diagnostics, trace
    events, explore frontiers, sweep and rebudget output, the CLI's
    events file and the bench artifacts. No installed JSON library is
    assumed.

    Escaping rule (the only one in the tree): a double quote or a
    backslash gets a backslash, newline and tab are written [\n] and
    [\t], every other byte below 0x20 is [\u00XX], and all other bytes
    — UTF-8 sequences included — pass through unchanged. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Raw of string
      (** JSON text written verbatim: a preformatted number (see
          {!fixed}) or a value rendered earlier. {!parse} returns a
          number that is not an OCaml [int] this way, as its literal. *)
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Malformed of string
(** A reader error; the message ends with the byte offset. *)

val max_depth : int
(** {!parse} rejects arrays and objects nested deeper than this (32):
    requests are flat and the CLI events file nests three deep, so the
    bound only stops inputs built to exhaust the reader. *)

val parse : string -> t
(** Recursive-descent reader for one JSON value (surrounding whitespace
    allowed). Accepts numbers leniently ([int_of_string] /
    [float_of_string] over [0-9+-.eE]) and raw control bytes inside
    strings.
    @raise Malformed on invalid input, trailing garbage or nesting
    deeper than {!max_depth}. *)

val read_string : string -> int -> string * int
(** [read_string s i] decodes the string token whose opening quote is
    [s.[i]]: its contents and the index one past its closing quote.
    Every JSON escape decodes; [\u] escapes become UTF-8, a surrogate
    pair becoming one four-byte sequence.
    @raise Malformed on a truncated token, a bad escape or an unpaired
    surrogate. *)

val member : string -> t -> t option
(** [member key (Obj ...)] — [None] for absent keys and non-objects. *)

val fixed : int -> float -> t
(** [fixed digits f] is [f] printed with [digits] decimals (["%.*f"]),
    as {!Raw}. *)

val to_string : t -> string
(** The compact writer, rendering the whole value into one buffer: one
    line, [", "] between items, [": "] after keys —
    [{"k": [1, 2], "s": "x"}]. *)

val to_lines : t -> string
(** The line-per-member layout of pretty frontier JSON, [sweep --json]
    and the bench artifacts: the members (or elements) of the top-level
    value go one per line, indented two spaces; a member whose value is
    a non-empty array also lists its elements one per line, four spaces
    in; everything deeper is compact. No trailing newline. *)
