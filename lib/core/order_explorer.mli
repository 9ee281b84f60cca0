(** Loop-order exploration (our extension).

    The reuse windows that drive every allocation depend on the loop
    order: IMI with the frame loop outermost needs 4096 registers per
    image, with it innermost a single register each. This explorer
    evaluates every legal interchange of a nest under a chosen allocator,
    each through {!Flow.Core.evaluate_analysis}, and returns the orders
    ranked by simulated cycles. *)

open Srfa_ir

type candidate = {
  order : int list;          (** permutation applied (old levels, new order) *)
  loop_vars : string list;   (** resulting order, outermost first *)
  cycles : int;
  memory_cycles : int;
}

val explore :
  ?config:Flow.config -> Allocator.algorithm -> Nest.t ->
  candidate list * Srfa_util.Diag.t list
(** Candidates sorted by ascending cycle count (ties: identity order
    first, then lexicographic). The identity order is always included
    and is never illegal, so the list is never empty: a nest that is not
    fully permutable degrades to the identity-only candidate plus one
    [W-GUARD-EXPLORE] warning carrying the illegality reason and the
    skipped-order count ({!Srfa_ir.Permute.legal_orders}) — no exception
    escapes. *)
