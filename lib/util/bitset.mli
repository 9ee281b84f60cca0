(** Dense bitsets over a fixed integer range.

    One machine word stores [Sys.int_size] members, so membership tests,
    insertions and removals are single word operations. The graph layers use
    these for O(1) "seen"/"forbidden"/"is a sink" tests in DFS loops that
    previously scanned lists. *)

type t

val create : int -> t
(** [create capacity] is the empty set over [\[0, capacity)].
    @raise Invalid_argument when [capacity < 0]. *)

val add : t -> int -> unit
val remove : t -> int -> unit

val mem : t -> int -> bool
(** Membership in one AND and one shift.
    @raise Invalid_argument outside [\[0, capacity)] (as do {!add} and
    {!remove}). *)

val clear : t -> unit
(** Remove every member (no allocation). *)

val is_empty : t -> bool

val cardinal : t -> int
(** Population count, one word at a time. *)

val to_list : t -> int list
(** Members in ascending order. *)
