(** Whole-nest data-reuse analysis.

    For every reference group this module computes the quantities the
    paper's allocators consume:

    - whether the group has (symbolic) temporal reuse, and the carrying
      loop level;
    - [nu], the number of registers for {e full} scalar replacement: the
      number of distinct elements the group touches during one iteration of
      the carrying loop's body (the {e reuse window}) — So & Hall's register
      requirement;
    - total accesses (iterations that touch the group) and distinct
      elements over the whole nest;
    - [saved_full], the memory accesses eliminated by full replacement
      (accesses minus the unavoidable cold loads / final writebacks);
    - benefit/cost = saved accesses per required register.

    [distinct] and [nu] are exact without visiting the iteration points.
    The linearised element index is [const + sum_l c_l * p_l] over a box
    — the nest, or the window: outer levels at 0, the carrying level over
    [\[0, delta)], inner levels over their full ranges — so each is the
    size of a sumset, kept as sorted runs of consecutive sums and grown
    one level at a time, in ascending [|c_l|] order (the sumset does not
    depend on the order). While the sums are one run at least [|c_l|]
    long, the level's [n_l] shifted copies overlap or touch, so the run
    widens by [(n_l - 1) * |c_l|] in one step; otherwise the level is
    added by doubling the run list. Time and memory are bounded by the
    number of distinct sums — never more than the box's points or the
    reference's index range — so a large declared array read over a
    small nest costs what the nest costs, and a dense reference such as
    BIC's [im\[r+u\]\[c+v\]] stays one run throughout.

    {b Residency semantics} (calibrated against the Fig. 2 worked example,
    see DESIGN.md §4): with [beta] registers {e pinned} to reuse-window
    slots, the accesses whose element has first-touch rank [< beta] within
    the current window are served by registers; every other access goes to
    RAM. Groups without reuse always go to RAM (their single register is
    the output flip-flop, not a cache). *)

open Srfa_ir

type info = private {
  group : Group.t;
  reuse : Kernelspace.t;
  has_reuse : bool;
  window_level : int;   (** carrying loop level, 1-based; [depth+1] if none *)
  nu : int;             (** registers for full scalar replacement *)
  accesses : int;       (** iterations touching the group *)
  distinct : int;       (** distinct elements over the whole nest *)
  saved_full : int;     (** accesses eliminated by full replacement *)
  benefit_cost : float; (** [saved_full / nu] *)
  lin_coeffs : int array; (** per-level coefficients of the linearised
                              element index *)
  lin_const : int;
}

type t = private {
  nest : Nest.t;
  groups : Group.t array;
  infos : info array;    (** indexed by group id *)
}

val analyze : Nest.t -> t

val info : t -> int -> info
(** By group id. @raise Invalid_argument when out of range. *)

val element_index : info -> int array -> int
(** Linearised element index touched at an iteration point. *)

val num_groups : t -> int

val rank_affine : t -> info -> int array option
(** Per-level coefficients [r] such that the group's slot rank at every
    iteration point equals [sum_l r.(l) * point.(l)]. The candidate is a
    mixed-radix index over the in-window loop levels the reference reads
    (nonzero coefficient). Inside a window those levels are visited in
    lexicographic order, and each tuple of their coordinates is first
    visited in that order too, so the candidate is the first-touch rank
    of the tuple. It is the rank of the element exactly when the index
    is injective on those levels: when the sumset of their coefficients
    over their trip counts (counted as for [nu], without visiting a
    point) has one sum per tuple. If two tuples share an element, the
    window touches fewer elements than the candidate's largest value, so
    no affine rank exists. The criterion holds for every window alike:
    inside a window the element index is a per-window constant plus the
    same affine function of the in-window coordinates. [None] for groups
    without reuse and for coupled indices such as BIC's image reference,
    in which case code generation falls back to RAM for the partial
    range. *)

val total_registers_full : t -> int
(** Sum of [nu] over all groups: the register demand of aggressive full
    scalar replacement. *)

(** Sequential residency tracker. Walk the iteration space in execution
    order and ask, per group, whether the current access is served by a
    pinned register. *)
module Tracker : sig
  type tracker

  val create : t -> tracker

  val reset : tracker -> unit
  (** Return the tracker to its initial state (as if freshly created) so
      one tracker can be reused across walks of the same nest — the
      simulator scratch does this per evaluation. O(groups); does not
      shrink the rank tables, preserving their warmed-up capacity. *)

  val step : tracker -> int array -> unit
  (** Advance to the given iteration point (must follow execution order;
      windows reset as outer coordinates change). *)

  val analysis : tracker -> t
  (** The analysis the tracker was created from. *)

  val slot_rank : tracker -> int -> int
  (** [slot_rank tr gid] is the first-touch rank of the element the group
      touches at the current point, within the current reuse window. Groups
      without reuse report [max_int]. *)

  val resident : tracker -> int -> beta:int -> pinned:bool -> bool
  (** Whether the group's access at the current point is served by a
      register under the given allocation entry. *)
end

val pp_info : Format.formatter -> info -> unit
