(** Parser for the kernel source language.

    The grammar (a C-like DSL matching how the paper presents kernels):

    {v
kernel fir {
  input  int x[1024];
  input  int c[32];
  output int y[993];

  for (i = 0; i < 993; i++)
    for (j = 0; j < 32; j++)
      y[i] += c[j] * x[i + j];
}
    v}

    - declarations: [input|output|local intN name\[d\]...;] ([int] = 16 bits);
    - loops: [for (v = 0; v < N; v++)], perfectly nested, one innermost body;
    - statements: [ref = expr;] or the reduction sugar [ref += expr;];
    - expressions: [+ - * / & | ^ == <], calls [min(a,b)], [max(a,b)],
      [abs(a)], integer literals, references;
    - indices: affine combinations of enclosing loop variables and
      constants ([x\[4*i + j - 1\]]).

    Loop variables are not values; scalars are zero-dimensional arrays. *)

val parse : string -> Srfa_ir.Nest.t
(** @raise Srfa_util.Diag.Failed on malformed input, with the
    [E-LEX-...] or [E-PARSE-...] code its raise site names and the span
    of the token it is about: the token it stopped at, or the name or
    number a failed check had already read;
    @raise Invalid_argument when the nest fails {!Srfa_ir.Nest.make}'s
    semantic checks (e.g. out-of-bounds indices). *)

val parse_file : string -> Srfa_ir.Nest.t
(** Reads the file, then {!parse}.
    @raise Sys_error when the file cannot be read. *)

val parse_result :
  string -> (Srfa_ir.Nest.t, Srfa_util.Diag.t list) result
(** Never-raising {!parse}: lexer, parser and semantic-validation failures
    come back as coded diagnostics ([E-LEX-...] and [E-PARSE-...] with
    their span, [E-SEM-...] without one). *)

val parse_file_result :
  string -> (Srfa_ir.Nest.t, Srfa_util.Diag.t list) result
(** Never-raising {!parse_file}; an unreadable file is an [E-IO-001]. *)

val print : Srfa_ir.Nest.t -> string
(** Renders a nest back into parseable source. Round trips preserve the
    analysis (groups, windows, semantics); unary operators are lowered to
    their binary encodings. *)

val canonical_source : Srfa_ir.Nest.t -> string
(** The stable, hashable rendering of a nest: {!print}, under a contract
    name. Two nests with equal canonical source are the same kernel for
    caching purposes (same groups, analysis and reports); any change to
    this rendering is a cache-key-scheme change and must update the
    serve key goldens (test_serve). The serving layer hashes this —
    never the user's raw request text, so formatting and comments never
    fragment the cache. *)
