(** Reference groups.

    The paper allocates registers to {e array references}; references with
    the same array and the same affine index functions are one object (the
    write and the read of [d\[i\]\[k\]] in Fig. 1 share registers and share a
    node in the data-flow graph). This module collects the groups of a nest
    in program order. *)

open Srfa_ir

type t = private {
  id : int;            (** position in program order, starting at 0 *)
  ref_ : Expr.ref_;    (** representative reference *)
  name : string;       (** [ref_] rendered once (see {!name}) *)
  reads : int;         (** number of read occurrences in the body *)
  writes : int;        (** number of write occurrences in the body *)
}

val collect : Nest.t -> t array
(** Groups of a nest, in order of first occurrence. *)

val is_read : t -> bool
val is_write : t -> bool

val name : t -> string
(** Rendered reference, e.g. ["d[i][k]"], by
    {!Srfa_ir.Expr.ref_to_string}. {!collect} renders it once, so
    reports and trace events that name groups do not render again. *)

val decl : t -> Decl.t

val find : t array -> Expr.ref_ -> t
(** @raise Invalid_argument (naming the reference) if it belongs to no
    group (foreign nest). *)

val pp : Format.formatter -> t -> unit
