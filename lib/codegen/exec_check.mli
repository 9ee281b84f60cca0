(** Executable semantics of the scalar-replaced program.

    Runs the plan the way the generated code would — window registers,
    peeled prologue loads at window entries, rank-steered accesses in the
    steady state, writebacks at window exits — against a concrete store.
    This is the transform's correctness oracle: for every allocation the
    result must equal the untransformed {!Srfa_ir.Interp} run. *)

val ram_iterations : Plan.t -> int array
(** Per group id, the iterations of the steady-state body in which the
    transformed program reads or writes the group in RAM, each iteration
    counted once however many of its accesses go there; the peeled
    prologue loads and writeback epilogues are not counted. This is how
    the simulator charges [group_ram_accesses], so the two agree on every
    group the plan does not mark [Window_opaque]. The inputs read as 0:
    which accesses go to RAM does not depend on the data. *)

val equivalent : Plan.t -> init:(string -> int array -> int) -> bool
(** Whether the transformed program, run on a fresh store whose [Input]
    arrays [init] fills, leaves every [Output] array equal to the
    reference interpreter's result. *)
