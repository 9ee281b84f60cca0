(** Walking the iteration space of a nest.

    Iteration points are visited in the sequential execution order of the
    nest (outer loop slowest). Points are exposed both as environments for
    {!Expr.eval} and as flat linear indices for table-driven analyses. *)

val iter : Nest.t -> (int array -> unit) -> unit
(** [iter nest f] calls [f point] for each iteration point, in order. The
    array is reused between calls; copy it if you keep it. *)

val iter_from : Nest.t -> level:int -> (int array -> unit) -> unit
(** [iter_from nest ~level f] calls [f] on the points whose coordinates
    above the 0-based [level] are all 0, in execution order: the first
    [product of the trip counts from level on] points of {!iter}. [level]
    = depth visits the single all-zero point. *)

val env_of_point : Nest.t -> int array -> string -> int
(** [env_of_point nest point] is a lookup function for loop variables.
    @raise Invalid_argument (naming the variable and the nest) on a name
    that is not a loop variable. *)

val linear : Nest.t -> int array -> int
(** Rank of an iteration point in execution order, in [0, iterations). *)

val point_of_linear : Nest.t -> int -> int array
(** Inverse of {!linear}. *)

val element_linear : Decl.t -> int array -> int
(** Row-major linear index of an element coordinate vector (0 for scalars). *)
