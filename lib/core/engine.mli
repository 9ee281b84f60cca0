(** The unified allocation engine.

    Every allocator in this library — FR-RA, PR-RA, CPA-RA (and its CPA+
    variant) and the exact knapsack — is a {e strategy} over one explicit
    allocation state: the per-group entry array, the remaining budget, the
    pinned set and a round counter. This module owns that state and the
    shared primitives ([try_assign_full], [assign_partial], [finalize]),
    so the strategies contain only their decision logic, and every
    decision flows through one place where it can be traced.

    Invariants maintained:
    - [remaining t = budget - total registers held by the entries];
    - betas never exceed the group's window size [nu], and never drop
      except through the explicit takebacks: {!reclaim} (the repair
      layer's full move) and {!rebudget}'s shrink walk, which also takes
      back part of a window;
    - an entry is pinned exactly when some assignment touched it
      (CPA-style strategies pin the rest at {!finalize} time).

    Tracing: pass a {!Srfa_util.Trace.sink} to {!create} and the engine
    emits ["engine.init"], ["assign.full"], ["assign.partial"],
    ["engine.drain"] and ["engine.finalize"] events; strategies add their
    own (CPA-RA emits one ["round"] event per cut round, and the cut
    engine underneath reports its max-flow statistics). The default sink
    is the no-op, which costs one physical-equality test per decision. *)

open Srfa_reuse

type t

val create : ?trace:Srfa_util.Trace.sink -> Analysis.t -> budget:int -> t
(** Feasibility-checked initial state: one unpinned register per group,
    [remaining = budget - num_groups], round 0.
    @raise Invalid_argument when the budget is below one register per
    reference group (see {!Ordering.check_budget}). *)

val of_allocation : ?trace:Srfa_util.Trace.sink -> Allocation.t -> t
(** Reopen a finished allocation for repair: the entries are copied (the
    original allocation is never mutated), [remaining] is the budget the
    allocator left unspent, the round counter restarts at 0. Emits an
    ["engine.reopen"] event. Used by {!Certify} to re-spend or reclaim
    registers of a candidate that simulated worse than a baseline. *)

val analysis : t -> Analysis.t
val budget : t -> int
val remaining : t -> int
val round : t -> int

val trace : t -> Srfa_util.Trace.sink
(** The engine's sink, for strategy-level events. *)

val beta : t -> int -> int
(** Registers currently held by a group id. *)

val info : t -> int -> Analysis.info

val need : t -> int -> int
(** [nu - beta]: extra registers for full coverage of the group. *)

val charged : t -> Group.t -> bool
(** Whether the group still hits RAM in steady state under the current
    betas: no temporal reuse, or a window not yet fully covered. *)

val improvable : t -> Group.t -> bool
(** Whether spending more registers on the group can remove RAM traffic:
    temporal reuse with an uncovered window. *)

val next_round : t -> int
(** Bump and return the round counter (CPA-RA calls this per cut round). *)

val try_assign_full : ?reason:string -> t -> int -> bool
(** Cover the group's whole window if its [need] fits the remaining
    budget: sets [beta = nu], pins the entry, deducts. Returns whether it
    happened. [need = 0] succeeds (and still pins — FR-RA's behaviour on
    windows of size one). *)

val assign_partial : ?reason:string -> t -> int -> amount:int -> int
(** Grant up to [amount] extra registers to the group, capped by the
    window ([need]) and the remaining budget; pins the entry when anything
    was granted. Returns the granted count (possibly 0).
    @raise Invalid_argument when [amount < 0]. *)

val reclaim : ?reason:string -> t -> int -> int
(** Take the group's registers back down to the feasibility minimum
    (beta 1), crediting the freed count to the remaining budget, and
    return how many were freed (0 when the group already sits at 1; the
    pinned flag is left as it was). Emits a ["repair.reclaim"] event.
    This is the one sanctioned way a beta decreases — the repair layer
    uses it to undo partial cut shares that simulated worse than a
    greedy baseline before re-spending them benefit/cost-first. *)

type rebudget_outcome = {
  requested : int;  (** the budget the event asked for *)
  effective : int;  (** after clamping at the feasibility minimum *)
  clamped : bool;   (** [requested < feasibility minimum] *)
  freed : int;      (** registers taken back to fit a shrink *)
}

val rebudget : ?reason:string -> t -> budget:int -> rebudget_outcome
(** Answer one budget shrink/grow event against the live state — the
    incremental primitive under dynamic re-allocation (DESIGN.md §16).
    A grow credits the new headroom to [remaining] (re-spending it is
    the caller's move, e.g. {!Certify.respend}). A shrink takes held
    registers back cheapest-loss-first — reverse benefit/cost order,
    partial windows before full ones — until the entries fit, emitting
    one ["repair.reclaim"] event per touched group; pinned entries are
    spilled like any other once nothing cheaper is left. A request below
    the feasibility minimum cannot be honored even by spilling every
    pinned entry, so the budget degrades gracefully: it clamps at the
    minimum and [clamped] is set (callers report W-GUARD-REBUDGET)
    instead of raising. Always emits one ["engine.rebudget"] event. *)

val drain : ?reason:string -> t -> unit
(** Zero the remaining budget: the strategy declares the rest unspendable
    (CPA-RA does this when no cut round can make progress, which is what
    keeps plain CPA-RA from handing the stranded registers to CPA+'s
    spender). *)

val finalize : ?pin_all:bool -> t -> algorithm:string -> Allocation.t
(** Freeze the state into an {!Allocation.t}. [pin_all] (default false)
    pins every entry first — CPA-RA's contract, where even beta-1 groups
    are deliberate allocations. *)
