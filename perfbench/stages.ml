(* The library pipeline called one layer at a time, each call wrapped in a
   span. [checked] is [Flow.Core.checked_prepared] replayed stage by stage
   through public functions only; the traced runs assert that what it
   renders is byte-identical to the one-call path. Work counts are read off
   the decision events each allocation emits on its collector sink. *)

open Srfa_core
module Trace = Srfa_util.Trace
module Sim = Srfa_sched.Simulator
module Report = Srfa_estimate.Report
module Protocol = Srfa_server.Protocol

let span = Span.span

type counts = {
  mutable cut_queries : int;
  mutable augmenting_paths : int;
  mutable certify_starts : int;
  mutable certify_dominates : int;
  mutable repairs : int;
  mutable simulations : int;
  mutable iterations : int;
  mutable explore_variants : int;
  mutable explore_evaluated : int;
  mutable explore_pruned : int;
  mutable explore_memo_hits : int;
  mutable rebudget_memo_hits : int;
}

let counts =
  {
    cut_queries = 0;
    augmenting_paths = 0;
    certify_starts = 0;
    certify_dominates = 0;
    repairs = 0;
    simulations = 0;
    iterations = 0;
    explore_variants = 0;
    explore_evaluated = 0;
    explore_pruned = 0;
    explore_memo_hits = 0;
    rebudget_memo_hits = 0;
  }

(* A copy of the counters as they stand. *)
let snapshot () = { counts with cut_queries = counts.cut_queries }

let count_events events =
  List.iter
    (fun (e : Trace.event) ->
      match e.Trace.name with
      | "cut.flow" ->
        counts.cut_queries <- counts.cut_queries + 1;
        (match List.assoc_opt "augmenting_paths" e.Trace.fields with
        | Some (Trace.Int n) ->
          counts.augmenting_paths <- counts.augmenting_paths + n
        | _ -> ())
      | "certify.start" -> counts.certify_starts <- counts.certify_starts + 1
      | "certify.dominates" ->
        counts.certify_dominates <- counts.certify_dominates + 1
      | name when String.starts_with ~prefix:"repair." name ->
        counts.repairs <- counts.repairs + 1
      | _ -> ())
    events

(* Metric-safe algorithm names ("cpa-ra+" carries a '+'). *)
let alg_key algorithm =
  String.concat "-plus" (String.split_on_char '+' (Allocator.name algorithm))

let config_at budget = { Flow.Core.default_config with Flow.Core.budget }

let parse src = span "frontend.parse" (fun () -> Srfa_frontend.Parser.parse_result src)

let canonical_digest nest =
  span "frontend.canonical" (fun () ->
      Digest.to_hex (Digest.string (Srfa_frontend.Parser.canonical_source nest)))

let prepare nest : Flow.Core.prepared =
  let analysis =
    span "reuse.analyze" (fun () -> Srfa_reuse.Analysis.analyze nest)
  in
  let cpa = span "dfg.prepare" (fun () -> Cpa_ra.prepare analysis) in
  {
    Flow.Core.nest;
    analysis;
    cpa;
    dfg = Cpa_ra.dfg cpa;
    minimum = Ordering.feasibility_minimum analysis;
  }

let scratch (config : Flow.config) (p : Flow.Core.prepared) =
  span "sched.scratch" (fun () ->
      Sim.scratch ~config:config.Flow.sim ~dfg:p.Flow.Core.dfg
        p.Flow.Core.analysis)

let simulate ~trace (config : Flow.config) scratch alloc =
  let r =
    span "sched.simulate" (fun () ->
        Sim.run ~trace ~config:config.Flow.sim ~scratch alloc)
  in
  counts.simulations <- counts.simulations + 1;
  counts.iterations <- counts.iterations + r.Sim.iterations;
  r

let allocate ~trace (config : Flow.config) algorithm (p : Flow.Core.prepared)
    scratch =
  span
    ("core.alloc." ^ alg_key algorithm)
    (fun () ->
      Allocator.run ~latency:config.Flow.sim.Sim.latency ~trace
        ?cut_work_limit:config.Flow.guards.Flow.cut_work_limit
        ~prepared:p.Flow.Core.cpa ~sim_config:config.Flow.sim
        ~sim_scratch:scratch algorithm p.Flow.Core.analysis
        ~budget:config.Flow.budget)

(* Flow.Core.evaluate_analysis: allocate, simulate, estimate. *)
let evaluate (config : Flow.config) algorithm p scratch =
  let sink, events = Trace.collector () in
  let alloc = allocate ~trace:sink config algorithm p scratch in
  let trace_summary = Trace.summary (events ()) in
  let sim = simulate ~trace:sink config scratch alloc in
  let report =
    span "estimate.report" (fun () ->
        Report.of_result ~clock_params:config.Flow.clock_params ~trace_summary
          ~sim_config:config.Flow.sim
          ~version:(Allocator.version_label algorithm)
          alloc sim)
  in
  count_events (events ());
  (report, alloc)

(* Flow.Core.checked_prepared: [evaluate] plus the event-model second
   opinion on the steady-state schedule. *)
let checked (config : Flow.config) algorithm (p : Flow.Core.prepared) scratch =
  let report, alloc = evaluate config algorithm p scratch in
  span "sched.event_model" (fun () ->
      let sim_config = config.Flow.sim in
      let ram_map = Sim.ram_map_for sim_config alloc in
      let residual = Srfa_reuse.Allocation.residual_ram_groups alloc in
      let charged (g : Srfa_reuse.Group.t) =
        List.mem g.Srfa_reuse.Group.id residual
      in
      match
        Srfa_sched.Event_model.makespan
          ~cap:config.Flow.guards.Flow.event_model_cap ~dfg:p.Flow.Core.dfg
          ~latency:sim_config.Sim.latency ~ram_map ~charged ()
      with
      | _ -> ()
      | exception Srfa_sched.Event_model.Diverged _ -> ());
  report

let render report = span "render.report" (fun () -> Protocol.json_of_report report)

let explore ?space config nest =
  let f = span "explore" (fun () -> Flow.Core.explore ?space config nest) in
  let s = f.Flow.Core.frontier_stats in
  counts.explore_variants <- counts.explore_variants + s.Flow.Core.variants_unique;
  counts.explore_evaluated <-
    counts.explore_evaluated + s.Flow.Core.points_evaluated;
  counts.explore_pruned <- counts.explore_pruned + s.Flow.Core.points_pruned;
  counts.explore_memo_hits <-
    counts.explore_memo_hits + s.Flow.Core.sim_memo_hits;
  f

let count_step (step : Flow.Core.rebudget_step) =
  if step.Flow.Core.memoized then
    counts.rebudget_memo_hits <- counts.rebudget_memo_hits + 1;
  step

let rebudget_start ~sim_scratch config prepared ~budget =
  let session, step =
    span "rebudget.start" (fun () ->
        Flow.Core.rebudget_start ~sim_scratch config prepared ~budget)
  in
  (session, count_step step)

let rebudget_step session ~budget =
  count_step
    (span "rebudget.step" (fun () -> Flow.Core.rebudget_step session ~budget))
