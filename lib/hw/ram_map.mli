(** Mapping of program arrays onto storage banks.

    The paper's concurrency argument rests on distinct arrays living in
    distinct RAM blocks so their accesses overlap. The mapper gives each
    RAM-resident array a private bank of as many embedded blocks as its
    data needs (largest arrays placed first). Arrays that do not fit in the
    remaining on-chip blocks spill to a single shared external memory, as
    they would on the paper's board: external accesses all contend for one
    bus. *)

open Srfa_ir

type location =
  | Internal of { bank : int; blocks : int }
  | External

type t

val build : Device.t -> Decl.t list -> t
(** [build device arrays] maps the given arrays (those that need RAM
    backing). Never fails: data that does not fit on chip goes external. *)

val build_single_bank : Device.t -> Decl.t list -> t
(** Ablation mapping: every array shares one bank, so no two memory
    accesses ever overlap. Quantifies how much of the allocators' gain
    comes from the paper's distinct-RAM concurrency assumption. *)

val blocks_used : t -> int
(** Embedded blocks consumed (never exceeds the device's count). *)

val location : t -> string -> location
(** @raise Not_found for arrays not mapped. *)

val bank_of : t -> string -> int
(** Bank identifier for scheduling: internal banks are [>= 0]; every
    external array shares bank [-1]. @raise Not_found as {!location}. *)

val ports_of_bank : t -> int -> int
(** Simultaneous accesses a bank supports per cycle: the device's port
    count for internal banks, 1 for the external bus. *)

val is_mapped : t -> string -> bool
val external_arrays : t -> string list
val conflict : t -> string -> string -> bool
(** Whether two arrays share a bank (their accesses serialise on ports). *)

val pp : Format.formatter -> t -> unit
