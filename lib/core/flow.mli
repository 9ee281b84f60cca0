(** End-to-end evaluation flow: kernel -> analysis -> allocation ->
    simulation -> design report. This mirrors the paper's experimental
    pipeline (C kernel -> scalar replacement -> HLS -> P&R -> simulate),
    with the substitutions documented in DESIGN.md §2.

    Flow is one layer, the {e pure core} (DESIGN.md §14): deterministic
    functions from (parsed kernel, device/config, algorithm, budget,
    scratch) to reports and diagnostics. It touches no filesystem, owns
    no formatter or channel state, and never calls [exit] — the only
    effects are writes to caller-injected {!Srfa_util.Trace} sinks and to
    the explicitly passed mutable scratch. Its values ([prepared],
    reports) are therefore safe to cache and reuse across requests, which
    is what the serve daemon's content-addressed cache does. The CLI, the
    daemon and the bench own all rendering and IO.

    The implementation is {!Core}, and [Flow] includes it: [Flow.x] and
    [Flow.Core.x] are one value. [Core] keeps its name because the
    repository benchmark (perfbench/) refers to it. *)

open Srfa_ir
open Srfa_reuse

(** The pure core. See the module header for the purity contract. *)
module Core : sig
  type guards = {
    cut_work_limit : int option;
        (** max-flow work budget per CPA cut query ([None] = unlimited); a
            trip degrades CPA-RA to PR-RA (see {!Allocator.run}) *)
    event_model_cap : int;
        (** clock cap for the {!Srfa_sched.Event_model} second opinion in
            {!checked}; a trip keeps the Cycle_model timing *)
  }

  val default_guards : guards
  (** [cut_work_limit = Some 200_000] (far beyond any of the paper
      kernels' needs — the fir kernel's full allocation costs under a
      hundred work units), [event_model_cap = 100_000]. *)

  type config = {
    budget : int;                            (** register budget (paper: 64) *)
    sim : Srfa_sched.Simulator.config;
    clock_params : Srfa_estimate.Clock.params;
    guards : guards;
  }

  val default_config : config
  (** Budget 64, default simulator, clock parameters and guards. *)

  val analyze : Nest.t -> Analysis.t

  val allocation :
    ?config:config -> ?trace:Srfa_util.Trace.sink ->
    ?prepared:Cpa_ra.prepared ->
    ?sim_scratch:Srfa_sched.Simulator.scratch ->
    Allocator.algorithm -> Analysis.t -> Allocation.t

  val evaluate_analysis :
    ?trace:Srfa_util.Trace.sink -> ?prepared:Cpa_ra.prepared ->
    ?sim_scratch:Srfa_sched.Simulator.scratch ->
    config -> Allocator.algorithm -> Analysis.t ->
    Allocation.t * Srfa_estimate.Report.t
  (** Allocate, simulate and estimate one design — the design-point step
      every entry point reduces to ({!checked}, {!sweep}'s points, a
      rebudget stream's opening event, the CLI's [alloc] and [export],
      {!Order_explorer}); only the explorer's memoised points report
      without it. Returns the allocation with its report.
      {!Allocator.Portfolio} runs through {!Allocator.run_portfolio}, and
      its report reuses certification's simulation of the final
      allocation when the slow path ran one; every other point is
      simulated once. The allocation runs under an in-memory trace
      collector either way, so the report's [trace_summary] (the
      allocation's decisions) is always filled in; [trace] additionally
      receives the raw events (e.g. {!Srfa_util.Trace.channel}),
      including a simulation's own. *)

  type prepared = {
    nest : Nest.t;
    analysis : Analysis.t;
    cpa : Cpa_ra.prepared;
    dfg : Srfa_dfg.Graph.t;
    minimum : int;  (** {!Ordering.feasibility_minimum} of the analysis *)
  }
  (** Every budget-independent product of one parsed kernel. Building one
      costs one analysis, one {!Cpa_ra.prepare} and one graph build; the
      sweep pays it once per kernel, the serve daemon once per tier-1
      cache entry. Immutable once built (the mutable per-evaluation state
      lives in the separately threaded scratch). *)

  val prepare : Nest.t -> prepared

  val scratch : config:config -> prepared -> Srfa_sched.Simulator.scratch
  (** A simulator scratch specialised to [prepared] under [config]'s
      latency table, donating the already-built DFG. Not thread-safe:
      one per domain (see {!Srfa_sched.Simulator.scratch}). *)

  val evaluate_all :
    ?config:config -> ?algorithms:Allocator.algorithm list ->
    ?trace:Srfa_util.Trace.sink -> Nest.t -> Srfa_estimate.Report.t list
  (** One report per algorithm (default: {!Allocator.all} — v1, v2, v3,
      v3+, the knapsack baseline and the certified portfolio), sharing
      one {!prepare} of the nest and one simulator scratch. *)

  val checked_prepared :
    ?trace:Srfa_util.Trace.sink ->
    ?sim_scratch:Srfa_sched.Simulator.scratch ->
    config -> Allocator.algorithm -> prepared ->
    (Srfa_estimate.Report.t * Srfa_util.Diag.t list, Srfa_util.Diag.t list)
    result
  (** The total pipeline against a prepared kernel: never raises, guard
      trips come back as warning diagnostics (see {!checked}). Builds a
      private scratch when [sim_scratch] is not supplied. *)

  val checked :
    ?config:config -> ?algorithm:Allocator.algorithm ->
    ?trace:Srfa_util.Trace.sink -> Nest.t ->
    (Srfa_estimate.Report.t * Srfa_util.Diag.t list, Srfa_util.Diag.t list)
    result
  (** The total pipeline: analyse, allocate (default {!Allocator.Cpa_ra}),
      simulate and estimate — never raising. Any library-boundary
      exception (semantic validation, dependency cycles, infeasible
      budget, internal invariant) comes back as [Error diags] via
      {!Srfa_util.Diag.of_exn}. [Ok (report, warnings)] carries one
      warning diagnostic per tripped resource guard: [W-GUARD-CUT] (CPA
      fell back to PR-RA on an exhausted cut work budget; trace event
      [fallback.pr_ra]), [W-GUARD-MASK] (the nest has more than
      {!Srfa_sched.Simulator.mask_cap} reference groups, so the simulator
      runs past its bitmask memo cap; raised from the group count, and
      the [guard.mask] trace event appears only where a simulation was
      traced, which a certified point's slow path does not do),
      [W-GUARD-EVENT] (the event-model second opinion diverged; the
      report keeps the Cycle_model timing; trace event
      [fallback.cycle_model]). {!prepare} + {!checked_prepared}. *)

  val portfolio_point :
    ?trace:Srfa_util.Trace.sink -> prepared:Cpa_ra.prepared ->
    ?sim_scratch:Srfa_sched.Simulator.scratch ->
    carry:
      (int * Srfa_reuse.Allocation.entry array * int) option ref ->
    config -> string -> Analysis.t -> Srfa_estimate.Report.t
  (** One budget-monotonic certified-portfolio point; [carry] threads the
      best certified allocation along a budget ladder (see {!sweep}). *)

  type sweep_point = {
    kernel : string;
    algorithm : Allocator.algorithm;
    budget : int;
    report : Srfa_estimate.Report.t;
  }

  val default_budgets : int list
  (** [[8; 16; 32; 64; 128]] — the differential-test grid; 64 is the
      paper's budget. *)

  val sweep_kernel :
    config:config -> algorithms:Allocator.algorithm list ->
    budgets:int list -> ?trace:Srfa_util.Trace.sink ->
    string * Nest.t -> sweep_point list
  (** One kernel's full budget ladder, sequential by construction (the
      portfolio carry-forward threads state budget to budget). This is
      the unit of work {!sweep} fans out over kernels. The ladder holds
      one CPA-RA round memo ({!Cpa_ra.ladder}) across its budgets and
      algorithms. *)

  val sweep :
    ?config:config -> ?algorithms:Allocator.algorithm list ->
    ?budgets:int list -> ?trace:Srfa_util.Trace.sink ->
    ?pool:Srfa_util.Pool.t ->
    (string * Nest.t) list -> sweep_point list
  (** The batch sweep: kernels × algorithms × budgets in one pass, one
      {!sweep_kernel} per kernel; [config.budget] is superseded by
      [budgets]. Budgets below a kernel's feasibility minimum (one
      register per reference group) are skipped rather than raising, so
      a mixed-kernel sweep never aborts. Points are ordered kernel-major,
      then budget, then algorithm.

      {!Allocator.Portfolio} points are additionally budget-monotonic:
      per kernel, the sweep carries the best certified allocation forward
      (any allocation feasible at a lower budget stays feasible at a
      higher one) and adopts it whenever a fresh point would report more
      cycles, so more registers never yield more cycles. Each takeover
      emits a ["certify.monotonic"] trace event.

      [pool] parallelises the sweep {e across kernels}; the result is
      equal to the sequential sweep — same points in the same
      kernel-major order, and the same [trace] stream, each kernel's
      events buffered ({!Srfa_util.Trace.buffered}) and spliced back in
      kernel order. *)

  (** {2 Design-space exploration}

      The joint (loop order × tile × budget × algorithm) explorer
      (DESIGN.md §17): enumerate the variants of one kernel, evaluate
      every surviving design point, and return the
      (cycles, registers, slices, clock) Pareto frontier. Three layers
      make the product cheap: lossless dominance cuts from
      per-point lower bounds, per-variant preparation plus an
      entries-keyed simulation memo, and pool fan-out across variants
      with a byte-identical serial/parallel contract. *)

  type order_spec =
    | Identity_order  (** the source order only *)
    | All_orders
        (** every legal permutation ({!Srfa_ir.Permute.legal_orders});
            non-permutable nests degrade to the identity with a
            [W-GUARD-EXPLORE] warning instead of raising *)
    | Orders of int list list
        (** an explicit list; illegal or malformed entries are skipped
            (counted in [orders_skipped]), the identity is always
            included *)

  val order_spec_of_string : string -> order_spec option
  (** The CLI's [--orders] and the daemon's ["orders"] field:
      [all], [identity] or [id] in any case, else semicolon-separated
      permutations of comma-separated integers like ["0,2,1;2,0,1"]
      (blanks around each integer are ignored). [None] when an entry is
      not an integer, the empty string included. *)

  val order_spec_to_string : order_spec -> string
  (** The canonical rendering the daemon keys frontiers on: [all],
      [identity], or the permutations joined with ['|'] (not the [';']
      the parser reads), e.g. ["0,2,1|2,0,1"]. *)

  type space = {
    orders : order_spec;
    tile_factors : int list;
        (** candidate strip-mine factors ({!Srfa_ir.Tile.steps}); [[]]
            disables the tiling axis *)
    space_budgets : int list;
    space_algorithms : Allocator.algorithm list;
    certify : bool;
        (** evaluate every ladder point through the certified portfolio
            ({!Allocator.run_portfolio}), recording the certification
            outcome on the point. Unlike {!sweep}, no carry-forward
            across budgets — each point certifies independently, which
            keeps the frontier identical with and without pruning. *)
    prune : bool;
        (** dominance cuts; [false] evaluates the full product (the
            differential-testing arm) *)
  }

  val default_space : space
  (** All legal orders, no tiling, {!default_budgets}, CPA-RA only,
      no certification, pruning on. *)

  type coords = {
    cycles : int;
    registers : int;
    slices : int;
    clock_ns : float;
  }
  (** The four frontier axes, all minimised. *)

  type cert = { dominates : bool; repaired : bool; adopted : string option }
  (** A point's certification outcome summary (see {!Certify.outcome}). *)

  type explore_point = {
    variant : int;  (** index in deterministic enumeration order *)
    label : string;  (** e.g. ["tile k/4 | i k_t k_i j"] *)
    loop_vars : string list;
    tiling : (int * int) option;  (** strip-mine (level, factor) *)
    order : int list;
    point_budget : int;
    point_algorithm : string;  (** allocator name, or ["floor"] *)
    floor : bool;
        (** the variant's all-RAM baseline: one unpinned feasibility
            register per group at the minimum budget — the frontier's
            register/area/clock corner, evaluated unconditionally *)
    coords : coords;
    point_report : Srfa_estimate.Report.t;
    point_cert : cert option;
  }

  type explore_stats = {
    variants_enumerated : int;
    variants_unique : int;  (** after canonical-source deduplication *)
    variants_pruned : int;  (** whole ladders cut by the variant-level bound *)
    points_pruned : int;
    points_evaluated : int;
    sim_memo_hits : int;
    duplicate_variants : int;
    orders_skipped : int;
    budgets_skipped : int;  (** below the variant's feasibility minimum *)
  }
  (** Cut and memo counters are schedule-dependent under a pool (which
      domain publishes a frontier entry first decides what the others
      can cut) — report them, but never byte-compare them. The frontier
      itself is deterministic. *)

  type frontier = {
    frontier_kernel : string;
    points : explore_point list;
        (** the Pareto frontier: non-dominated over every evaluated
            point, exact-coordinate duplicates collapsed onto the
            smallest enumeration key, sorted by coordinates *)
    frontier_stats : explore_stats;
    frontier_warnings : Srfa_util.Diag.t list;
  }

  val explore :
    ?trace:Srfa_util.Trace.sink -> ?pool:Srfa_util.Pool.t ->
    ?space:space -> config -> Nest.t -> frontier
  (** Explore one kernel's design space. [config.budget] is superseded
      by [space.space_budgets]. The frontier (points, order, labels) is
      byte-identical across [prune] on/off and any [pool] size; only
      [frontier_stats] varies. Per-variant trace
      events are buffered and spliced in variant order, like {!sweep}.
      @raise Invalid_argument when [space.space_algorithms] is empty. *)

  val frontier_json : ?compact:bool -> frontier -> string
  (** The frontier as deterministic JSON (fixed field order, ["%.3f"]
      floats, no stats) — the one renderer the CLI, the serve daemon and
      the tests share, so byte-comparing outputs is meaningful.
      [compact] (default [false]) emits one line, for embedding in the
      line-framed serve protocol; the per-point bytes are identical. *)

  val frontier_csv : frontier -> string
  (** The frontier as a CSV table (same determinism contract). *)

  val sweep_json : sweep_point list -> string
  (** Sweep points as the CLI's [sweep --json] prints them: a JSON array,
      one compact point object per line ({!Srfa_util.Json.to_lines}). *)

  (** {2 Dynamic re-budgeting}

      Partial reconfiguration modeled as a stream of budget shrink/grow
      events against a live allocation, answered incrementally through
      {!Engine.rebudget} (cheapest-loss-first reclaim on shrink,
      {!Certify.respend} of the new headroom on grow) instead of
      from-scratch reruns, with the certified never-worse contract
      re-established by {!Certify.certify} after every event. Semantics,
      the pinned-shrink rule and the serve protocol extension are
      documented in DESIGN.md §16. *)

  type rebudget_step = {
    requested : int;  (** the budget the event asked for *)
    effective : int;  (** after clamping at the feasibility minimum *)
    clamped : bool;
        (** the pinned-shrink rule fired: [requested] was below the
            kernel's feasibility minimum; a [W-GUARD-REBUDGET] warning
            and a ["guard.rebudget"] trace event accompany the clamp *)
    freed : int;      (** registers reclaimed by the shrink walk *)
    respent : int;    (** registers re-spent out of the grown headroom *)
    memoized : bool;
        (** served from the stream's per-budget memo — the effective
            budget was already visited, no engine or certify work ran *)
    allocation : Allocation.t;  (** certified, [algorithm = "portfolio"] *)
    report : Srfa_estimate.Report.t;
    warnings : Srfa_util.Diag.t list;
  }

  type rebudget_session
  (** A live allocation under a budget-event stream: the prepared
      kernel, a warm simulator scratch, the current certified
      allocation and the per-budget memo. Holds mutable state (scratch,
      memo): single-owner, one domain at a time — the same ownership
      rule as {!scratch}. *)

  val rebudget_start :
    ?trace:Srfa_util.Trace.sink ->
    ?sim_scratch:Srfa_sched.Simulator.scratch ->
    config -> prepared -> budget:int -> rebudget_session * rebudget_step
  (** Open a stream at an initial budget: one from-scratch certified
      portfolio point ([config.budget] is superseded by [budget], which
      clamps at the feasibility minimum like any event). Builds a
      private scratch when [sim_scratch] is not supplied. *)

  val rebudget_step :
    ?trace:Srfa_util.Trace.sink ->
    rebudget_session -> budget:int -> rebudget_step
  (** Answer one budget event incrementally against the session's live
      allocation. Never raises on any [budget] (the pinned-shrink rule
      clamps instead); after every event the returned allocation is
      certified never-worse than FR-RA/PR-RA at the effective budget. *)

  val rebudget_current : rebudget_session -> Allocation.t
  (** The live certified allocation after the last event. *)

  val rebudget :
    ?trace:Srfa_util.Trace.sink ->
    ?sim_scratch:Srfa_sched.Simulator.scratch ->
    config -> prepared -> initial:int -> events:int list ->
    rebudget_step list
  (** Replay a whole event stream: {!rebudget_start} at [initial], then
      one {!rebudget_step} per event, returning the steps in order
      (initial point first — [1 + length events] steps). *)
end

include module type of struct include Core end
