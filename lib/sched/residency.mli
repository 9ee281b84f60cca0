(** Register-file management policies.

    The paper pins each register to a compile-time reuse-window slot
    (policy {!Pinned}, the default everywhere). This module adds two
    dynamically managed alternatives so the benches can quantify why the
    static discipline is the right one for FPGA register files:

    - {!Lru}: the group's [beta] registers cache the most recently touched
      distinct elements (an oracle-free dynamic manager). Cyclic reuse
      windows larger than [beta] thrash it to zero hits — the classic
      LRU pathology the pinned discipline avoids.
    - {!Direct_mapped}: element [e] may only live in slot [e mod beta];
      conflicting elements evict each other.

    Dynamic policies ignore [pinned] flags: any allocated register can
    hold data (there is no compile-time steering to be faithful to). *)

open Srfa_reuse

type policy = Pinned | Lru | Direct_mapped

val policy_name : policy -> string
val policy_of_name : string -> policy option

type t

val create : policy -> Allocation.t -> t
(** Fresh residency state for one walk of the allocation's nest. Only a
    {!Pinned} state builds (and {!step} advances) a
    {!Srfa_reuse.Analysis.Tracker}, since only the pinned discipline
    reads slot ranks; {!Lru} and {!Direct_mapped} key their state on
    element indices. *)

val step : t -> int array -> unit
(** Advance to an iteration point (execution order). *)

val resident : t -> int -> bool
(** Whether group [gid]'s access at the current point is served by a
    register. For dynamic policies this also updates the replacement
    state, so call it exactly once per group per step. *)
