(** Ergonomic construction of kernels.

    Typical use:
    {[
      let open Srfa_ir.Builder in
      let a = input "a" [ 30 ] and d = output "d" [ 1; 30 ] in
      let i = idx "i" and k = idx "k" in
      nest "example" ~loops:[ ("i", 1); ("k", 30) ]
        [ d.%[ [ i; k ] ] <-- (a.%[ [ k ] ] * const 7) ]
    ]} *)

type rexpr = Expr.t

val input : ?bits:int -> string -> int list -> Decl.t
val output : ?bits:int -> string -> int list -> Decl.t
val local : ?bits:int -> string -> int list -> Decl.t
val scalar : ?bits:int -> string -> Decl.t
(** A local 0-dimensional variable (accumulators). *)

val idx : string -> Affine.t
(** A loop variable as an index expression. *)

val cidx : int -> Affine.t
(** A constant index. *)

val ( +: ) : Affine.t -> Affine.t -> Affine.t
val ( -: ) : Affine.t -> Affine.t -> Affine.t
val ( *: ) : int -> Affine.t -> Affine.t

val ( .%[] ) : Decl.t -> Affine.t list -> rexpr
(** Array load. *)

val at : Decl.t -> Affine.t list -> Expr.ref_
(** A reference, for use as a store target. *)

val const : int -> rexpr
val ( + ) : rexpr -> rexpr -> rexpr
val ( - ) : rexpr -> rexpr -> rexpr
val ( * ) : rexpr -> rexpr -> rexpr
val ( / ) : rexpr -> rexpr -> rexpr
val eq : rexpr -> rexpr -> rexpr
val lt : rexpr -> rexpr -> rexpr
val neg : rexpr -> rexpr

val ( <-- ) : Expr.ref_ -> rexpr -> Expr.stmt

val nest :
  string -> loops:(string * int) list -> Expr.stmt list -> Nest.t
(** Builds a validated nest; array declarations are collected from the body
    automatically. @raise Invalid_argument as {!Nest.make} does. *)
