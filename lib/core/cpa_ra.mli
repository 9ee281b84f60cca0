(** Critical-Path-Aware Register Allocation (paper Fig. 4) — the paper's
    contribution.

    Starting from one pinned register per group, the algorithm repeatedly:
    extracts the Critical Graph of the body's DFG under the current
    allocation, asks the polynomial cut engine
    ({!Srfa_dfg.Cut.cheapest_answer}, max-flow over the node-split CG)
    for the improvable cut with the smallest additional register
    requirement, and fully allocates it. When the cheapest cut no longer
    fits, the remaining registers are divided evenly between that cut's
    references (partial reuse on a whole cut, so every critical path
    still improves on the covered iterations), and the algorithm
    stops. Cuts containing a reference without temporal reuse cannot be
    improved and are skipped. *)

open Srfa_reuse

type trace_step = {
  cut : Group.t list;        (** the cut selected this round *)
  required : int;            (** extra registers for full coverage *)
  granted_full : bool;       (** false for the final even split *)
  critical_length : int;     (** CP latency before the assignment *)
}

type prepared
(** Budget-independent analysis scratch: the body's DFG and the critical
    extraction state. Building it costs one {!Srfa_dfg.Graph.build} plus a
    topological sort; {!Flow.sweep} builds it once per kernel and reuses
    it across every budget and both CPA variants. *)

val prepare : Analysis.t -> prepared

val ladder : prepared -> prepared
(** A copy of the scratch for one budget ladder: it shares the DFG and
    the critical extraction state, and adds a memo of round answers.

    A round's question — the cheapest improvable cut of the critical
    graph — depends only on the allocation state, never on the budget.
    So the memo keys each answer on every group's beta and stores the
    cut, its requirement, the critical length and the query's
    ["cut.flow"] event. A round whose state is already stored skips the
    critical extraction and the cut query and replays the event
    unchanged, so allocations, {!allocate_traced} steps and traces are
    those of a run without the memo. Every budget, CPA-RA, CPA+ and the
    portfolio's candidate share one memo: their rounds ask the same
    questions.

    Two guards keep a hit honest. A stored answer whose query needed
    more max-flow work than the caller's [cut_work_limit] allows is
    computed again, so the work guard trips as it would have. The first
    query fixes the latency model the memo answers for; a query under
    another model bypasses the memo.

    The memo grows with every new state, so give it only to the owner
    of a ladder ({!Flow.Core.sweep_kernel} and each explore variant
    hold one); a scratch cached across requests stays memo-free. Not
    thread-safe, like the scratch itself. *)

val rounds_computed : prepared -> int
(** Rounds the ladder's memo computed rather than answered from a
    stored state (0 for a scratch without a memo). *)

val dfg : prepared -> Srfa_dfg.Graph.t
(** The DFG the scratch was built from — donate it to
    {!Srfa_sched.Simulator.scratch} so one kernel needs one graph build
    total. *)

val allocate :
  ?latency:Srfa_hw.Latency.t -> ?spend_leftover:bool ->
  ?trace:Srfa_util.Trace.sink -> ?cut_work_limit:int ->
  ?prepared:prepared -> Analysis.t -> budget:int -> Allocation.t
(** @raise Invalid_argument when [budget < feasibility_minimum].
    @raise Srfa_dfg.Cut.Work_limit when [cut_work_limit] (default
    unlimited) is exhausted by a cut query — {!Allocator.run} catches it
    and falls back to PR-RA.

    [spend_leftover] (default [false], the paper's algorithm) switches on
    the CPA+ extension: once no critical-graph cut can be improved, the
    stranded registers are handed out in benefit/cost order like FR-RA /
    PR-RA would. Coverage is monotone in registers under the cycle model,
    so CPA+ never executes more cycles than CPA-RA.

    [prepared] (default: built on the spot) must come from {!prepare} on
    the same analysis. [trace] receives the engine's assignment events,
    one ["round"] event per cut round and the cut engine's ["cut.flow"]
    statistics. *)

val allocate_traced :
  ?latency:Srfa_hw.Latency.t -> ?spend_leftover:bool ->
  ?trace:Srfa_util.Trace.sink -> ?cut_work_limit:int ->
  ?prepared:prepared -> Analysis.t ->
  budget:int -> Allocation.t * trace_step list
(** Like {!allocate}, also returning the per-round decisions (used by the
    examples and the DOT dumper to narrate the algorithm). *)
