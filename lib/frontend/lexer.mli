(** Tokenizer for the kernel source language (a small C-like DSL; see
    {!Parser} for the grammar). Tracks line/column for every token and
    error, and skips [//] line comments and [/* ... */] block comments. *)

type token =
  | Ident of string
  | Int of int
  | Kw_kernel
  | Kw_input
  | Kw_output
  | Kw_local
  | Kw_int of int   (** element type with width: [int] = 16, [int8] = 8 ... *)
  | Kw_for
  | Lparen | Rparen
  | Lbrace | Rbrace
  | Lbracket | Rbracket
  | Semicolon | Comma
  | Assign          (** [=] *)
  | Plus | Minus | Star | Slash
  | Amp | Pipe | Caret
  | Eq              (** [==] *)
  | Lt              (** [<] *)
  | Plus_plus       (** [++] *)
  | Plus_assign     (** [+=] *)
  | Eof

type located = { token : token; line : int; col : int }

val tokenize : string -> located list
(** The whole input as tokens, ending with [Eof].
    @raise Srfa_util.Diag.Failed with an [E-LEX-...] code and the span of
    the offending character, number, width or comment. *)

val describe : token -> string
(** Human-readable token name for error messages. *)
