(** Code-generation plan: how each reference group is realised in hardware.

    Derived from an allocation. The paper's code-generation scheme uses
    loop peeling (or predication) to load reuse windows into registers and
    restore them to memory; the plan captures, per group, which accesses
    the steady-state body serves from the register window and under what
    condition. *)

open Srfa_reuse

type access =
  | Ram_always
      (** no pinned registers (or no reuse): plain RAM access *)
  | Window_full of { beta : int; rank_coeffs : int array }
      (** the whole reuse window is register-resident; the rank expression
          (per-level coefficients) names the slot an iteration touches *)
  | Window_partial of { beta : int; rank_coeffs : int array }
      (** slots [0, beta) resident; access is in registers iff the rank
          expression evaluates below [beta] *)
  | Window_opaque of { beta : int }
      (** the window's first-touch order is not affine; the emitted code
          keeps these accesses in RAM (conservative: the simulator's
          optimistic covering does not apply to generated code) *)

type t = private {
  allocation : Allocation.t;
  accesses : access array; (** by group id *)
}

val build : Allocation.t -> t

val access : t -> int -> access

val needs_prologue : t -> int -> bool
(** Whether the group's window must be loaded from RAM at window entry:
    windowed groups that are read before any write reaches them (pure
    inputs and accumulators). *)

val needs_writeback : t -> int -> bool
(** Whether the group's window must reach RAM at window exit: written
    windows of live-out arrays, and written windows that a later prologue
    would otherwise reload stale. *)

type edge_strategy =
  | Reload_window
      (** naive peeling: refill every covered slot at each window entry *)
  | Shift_window
      (** delta peeling: load each element the first time it becomes
          resident, shifting surviving values between windows (the
          accounting the paper's saved-access formula implies) *)

val edge_transfers : t -> strategy:edge_strategy -> int
(** Total RAM transfers the peeled prologues and writeback epilogues of
    the generated code perform over the whole nest, under the given
    code-generation strategy. The steady-state cycle model charges none of
    these (DESIGN.md §4); this function quantifies the assumption. *)

val describe : t -> (string * string) list
(** Human-readable (group, realisation) pairs, for reports and examples. *)
