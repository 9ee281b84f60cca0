(** Simulator-backed certification and repair of a candidate allocation.

    The paper's claim — CPA-RA never loses to the greedy baselines — is
    statistical, not structural: on a small fraction of random kernels
    the critical-path model strands registers, or spreads them over a
    cut whose partial coverage buys less than a greedy spend would (the
    fuzz campaign's comparative regressions). {!certify} closes that gap
    {e by construction}, comparing the candidate against FR-RA and PR-RA
    at the same budget and repairing when it loses.

    The comparison has a fast path and a slow path. The pinned residency
    rule ([resident <-> pinned && slot_rank < beta], with slot ranks a
    function of the analysis alone) makes simulated cycles monotone in
    pointwise coverage: if the candidate's entries cover a baseline's
    everywhere, it cannot lose to it. Two simulation-free certificates
    are tried in order ({!Dominates}): the candidate covering both
    baselines (PR-RA coverage alone suffices when PR-RA covers FR-RA,
    which its construction guarantees), and — failing that — the
    re-spent candidate covering them, which is safe to adopt because
    re-spending only adds registers and so covers the candidate too.
    Only when both fail are the candidate and the baselines simulated
    (PR-RA alone when it covers FR-RA pointwise) and, on a regression,
    repair runs:

    + {b re-spend}: hand the registers the candidate left unspent to the
      benefit/cost order (CPA+'s spender), via {!Engine.of_allocation};
    + {b reclaim}: additionally take back partial cut shares
      ({!Engine.reclaim}) and re-spend the freed registers;
    + {b adopt}: fall back to the winning baseline allocation outright.

    The returned allocation therefore never simulates worse than either
    baseline under the certification's simulator configuration, and it is
    relabeled ["portfolio"] (see {!Allocator.Portfolio}).

    Trace vocabulary: ["certify.start"], then either
    ["certify.dominates"] (fast path) or ["certify.compare"] followed by
    ["certify.pass"] or ["certify.regression"] with ["repair.respend"],
    ["repair.respent_reclaimed"] (plus ["repair.reclaim"] per reclaimed
    group, from the engine) and ["repair.adopt"] as repair progresses;
    ["certify.done"] always closes, and the engine adds
    ["engine.reopen"]/["assign.*"] events for every repair decision. *)

open Srfa_reuse

val algorithm_name : string
(** ["portfolio"] — the provenance label of certified allocations. *)

type comparison =
  | Dominates
      (** the certified allocation's coverage dominates both baselines
          pointwise (either as-is or after a re-spend repair); certified
          without simulating *)
  | Simulated of { candidate_cycles : int; bar_cycles : int }
      (** simulated comparison; [bar_cycles] is the best baseline's total
          and the final allocation's cycles are [<= bar_cycles] *)

type outcome = {
  allocation : Allocation.t;  (** certified, [algorithm = "portfolio"] *)
  sim : Srfa_sched.Simulator.result option;
      (** the simulation of [allocation] when the slow path ran
          (reusable via {!Srfa_estimate.Report.of_result});
          [None] on the dominance fast path *)
  comparison : comparison;
  repaired : bool;  (** a repair pass produced the certified allocation *)
  adopted : string option;
      (** [Some "fr-ra"/"pr-ra"] when repair could not beat the baseline
          and certification adopted it *)
}

val respend : Engine.t -> unit
(** CPA+'s stranded-register spender over an open engine: cover full
    reuse windows in benefit/cost order while they fit, then one partial
    top-up. Exposed for the incremental re-budgeting path
    ({!Flow.Core.rebudget}), which re-spends the headroom a grow event
    credits before re-certifying. *)

val covers : Allocation.t -> Allocation.t -> bool
(** [covers a b]: [a]'s entries dominate [b]'s pointwise — every group
    [b] pins is pinned by [a] with at least the same beta — so [a]
    register-hits everywhere [b] does and cannot simulate worse. *)

val certify :
  ?trace:Srfa_util.Trace.sink ->
  ?sim_config:Srfa_sched.Simulator.config ->
  ?sim_scratch:Srfa_sched.Simulator.scratch ->
  ?simulate:(Allocation.t -> Srfa_sched.Simulator.result) ->
  Allocation.t ->
  outcome
(** [certify candidate] runs the candidate's analysis through FR-RA and
    PR-RA at [candidate.budget] and certifies as above. Fast path: two
    greedy allocations and a coverage scan, no simulation. Slow path:
    additionally two simulations (candidate and the covering baseline),
    up to two more under repair.

    [simulate] replaces the slow path's simulator calls (default
    [Simulator.run ~config:sim_config ?scratch:sim_scratch]). It must
    return what that call would, for example by looking the allocation
    up in a memo of simulations already run under [sim_config]: the
    design-space explorer passes its entries-keyed memo, so the
    candidate its CPA-RA point has just simulated is not simulated
    again. *)
