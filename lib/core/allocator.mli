(** Uniform entry point over the allocation algorithms. *)

open Srfa_reuse

type algorithm =
  | Fr_ra     (** greedy, full reuse only (paper v1) *)
  | Pr_ra     (** greedy with partial leftover (paper v2) *)
  | Cpa_ra    (** critical-path-aware (paper v3, the contribution) *)
  | Cpa_plus  (** CPA-RA + benefit/cost spending of stranded registers
                  (our extension; see {!Cpa_ra.allocate}) *)
  | Knapsack  (** exact access-count optimum (our reference baseline) *)
  | Portfolio (** certified CPA-RA: simulator-backed repair against the
                  greedy baselines, never worse than FR-RA or PR-RA by
                  construction (see {!Certify}) *)

val all : algorithm list
val name : algorithm -> string
val version_label : algorithm -> string
(** The paper's design labels: v1, v2, v3; our extensions get "v3+",
    "ks" and "pf". *)

val of_name : string -> algorithm option
(** Accepts the {!name} strings, e.g. ["cpa-ra"], plus the short aliases
    ("fr", "cpa+", "knapsack", "best-of", "cert", ...),
    case-insensitively — ["CPA-RA"] round-trips like ["cpa-ra"]. *)

val run :
  ?latency:Srfa_hw.Latency.t -> ?trace:Srfa_util.Trace.sink ->
  ?cut_work_limit:int -> ?prepared:Cpa_ra.prepared ->
  ?sim_config:Srfa_sched.Simulator.config ->
  ?sim_scratch:Srfa_sched.Simulator.scratch -> algorithm ->
  Analysis.t -> budget:int -> Allocation.t
(** Every algorithm runs as a strategy over {!Engine}; [trace] observes
    its decisions (see {!Engine} for the event vocabulary). [prepared] is
    {!Cpa_ra.prepare} scratch, reused across budgets by {!Flow.sweep}
    (as a {!Cpa_ra.ladder}, with its round memo) and ignored by the
    non-CPA algorithms.

    [cut_work_limit] (default unlimited) caps the max-flow effort of every
    CPA cut query (see {!Srfa_dfg.Cut.cheapest_answer}). When the guard
    trips, the CPA variants degrade to PR-RA on the same analysis and
    budget — a ["fallback.pr_ra"] event is emitted on [trace] and the
    PR-RA allocation is returned; no exception escapes. The guard is
    ignored by the non-CPA algorithms, which ask no cut queries.

    [sim_config] is the simulator configuration {!Portfolio}'s
    certification pass measures cycles under (default
    {!Srfa_sched.Simulator.default_config}, with [latency] substituted
    when given), and [sim_scratch] its reusable simulator state; the
    other algorithms never simulate and ignore both.
    @raise Invalid_argument when the budget is below one register per
    reference group. *)

val run_portfolio :
  ?latency:Srfa_hw.Latency.t -> ?trace:Srfa_util.Trace.sink ->
  ?cut_work_limit:int -> ?prepared:Cpa_ra.prepared ->
  ?sim_config:Srfa_sched.Simulator.config ->
  ?sim_scratch:Srfa_sched.Simulator.scratch ->
  Analysis.t -> budget:int -> Certify.outcome
(** {!run} for {!Portfolio}, but returning the whole certification
    outcome. When [outcome.sim] is [Some], it is the simulation of the
    certified allocation under [sim_config] — reuse it (e.g. via
    {!Srfa_estimate.Report.of_result}) instead of simulating again; on
    the dominance fast path it is [None] and no simulation ever ran. *)
