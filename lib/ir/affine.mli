(** Affine functions of loop index variables.

    An affine expression is [c0 + c1*v1 + ... + cn*vn] where the [vi] are
    loop variable names. These are the only index expressions the reuse
    analysis understands, exactly as in the paper (affine references in
    perfectly nested loops). *)

type t

val const : int -> t

val var : ?coeff:int -> string -> t
(** [var ~coeff v] is [coeff * v]; [coeff] defaults to [1]. *)

val add : t -> t -> t
val sub : t -> t -> t
val scale : int -> t -> t

val constant : t -> int
(** The constant term. *)

val coeff : t -> string -> int
(** [coeff t v] is the coefficient of variable [v] ([0] if absent). *)

val coeffs : t -> (string * int) list
(** Non-zero coefficients, sorted by variable name. *)

val vars : t -> string list
(** Variables with non-zero coefficient, sorted. *)

val is_const : t -> bool

val eval : t -> lookup:(string -> int) -> int
(** Evaluate under an environment. @raise Not_found via [lookup]. *)

val subst : t -> string -> t -> t
(** [subst t v r] replaces variable [v] by the affine expression [r]
    (used by loop transformations such as strip-mining). *)

val equal : t -> t -> bool
val compare : t -> t -> int
val add_to_buffer : Buffer.t -> t -> unit
(** Appends the rendering, e.g. ["i+2*j-1"]: terms in variable order,
    unit coefficients bare, then the constant when non-zero; a
    constant-only expression renders as its value. *)

val to_string : t -> string
val pp : Format.formatter -> t -> unit
(** Prints {!to_string}'s bytes. *)
