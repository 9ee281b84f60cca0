(** Expressions, array references and statements of the loop body.

    References carry the declared array and one affine index expression per
    dimension. Two references with the same array and the same index
    functions denote the same {e reference group} — the unit the paper
    allocates registers to (e.g. the write and the read of [d\[i\]\[k\]] in
    Fig. 1 form a single group). *)

type ref_ = { decl : Decl.t; index : Affine.t list }

type t =
  | Load of ref_
  | Const of int
  | Unary of Op.unary * t
  | Binary of Op.binary * t * t

type stmt = Assign of ref_ * t
(** [Assign (r, e)]: one store of [e] into [r] per loop-body iteration. *)

val ref_ : Decl.t -> Affine.t list -> ref_
(** @raise Invalid_argument if the index count differs from the rank. *)

val ref_equal : ref_ -> ref_ -> bool
(** Same array and same index functions (reference-group identity). *)

val loads : t -> ref_ list
(** All [Load] references of an expression, left-to-right, duplicates kept. *)

val stmt_refs : stmt -> ref_ list
(** Loads of the right-hand side followed by the store target. *)

val ref_vars : ref_ -> string list
(** Loop variables the index functions depend on, sorted, without dups. *)

val eval :
  t -> env:(string -> int) -> load:(ref_ -> int array -> int) -> int
(** Reference interpreter: [env] resolves loop variables, [load] fetches the
    value of a reference at evaluated index coordinates. *)

val eval_index : ref_ -> env:(string -> int) -> int array
(** The concrete element coordinates of [ref_] under [env]. *)

val ref_to_string : ref_ -> string
(** The one reference renderer, e.g. ["b[i+j][j]"]: the array name, then
    each index as {!Affine.to_string} in brackets. {!pp_ref}, reference
    group names and the frontend's printed source all use it. *)

val pp_ref : Format.formatter -> ref_ -> unit
val pp : Format.formatter -> t -> unit
val pp_stmt : Format.formatter -> stmt -> unit
