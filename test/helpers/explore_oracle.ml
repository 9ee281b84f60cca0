(* A from-scratch oracle for Flow.Core.explore, sharing none of its code.
   It walks the whole design space: every (tiling, order) variant,
   duplicates included, and in each one the all-RAM floor plus every
   budget at or above the feasibility minimum under every algorithm.
   Each point is evaluated afresh: a new Analysis.analyze,
   Allocator.run or run_portfolio without a prepared CPA-RA state, and
   Simulator.run without a scratch. [check] then holds a frontier to
   two claims: its coordinates are exactly the Pareto-minimal set of
   all those points, and each of its points carries the report and the
   certification stamp of the same point computed here. *)

open Srfa_ir
module Core = Srfa_core.Flow.Core
module Allocator = Srfa_core.Allocator
module Certify = Srfa_core.Certify
module Analysis = Srfa_reuse.Analysis
module Allocation = Srfa_reuse.Allocation
module Report = Srfa_estimate.Report
module Simulator = Srfa_sched.Simulator

type point = {
  tiling : (int * int) option;
  order : int list;
  budget : int;
  algorithm : string;
      (** allocator name, ["portfolio"] when certified, or ["floor"] *)
  report : Report.t;
  cert : Core.cert option;
}

(* The loop orders the space asks for, over one (possibly tiled) nest. *)
let orders (space : Core.space) nest =
  match space.Core.orders with
  | Core.Identity_order -> [ List.init (Nest.depth nest) Fun.id ]
  | Core.All_orders -> fst (Permute.legal_orders nest)
  | Core.Orders _ -> invalid_arg "Explore_oracle: explicit orders"

let variants (space : Core.space) nest =
  let tilings =
    None
    :: List.map Option.some (Tile.steps nest ~factors:space.Core.tile_factors)
  in
  List.concat_map
    (fun tiling ->
      let tnest =
        match tiling with
        | None -> nest
        | Some (level, factor) -> Tile.tile nest ~level ~factor
      in
      let id = List.init (Nest.depth tnest) Fun.id in
      List.map
        (fun order ->
          ( tiling,
            order,
            if order = id then tnest else Permute.interchange tnest ~order ))
        (orders space tnest))
    tilings

let variant_points (config : Core.config) (space : Core.space)
    (tiling, order, nest) =
  let sim_config = config.Core.sim in
  let latency = sim_config.Simulator.latency in
  let cut_work_limit = config.Core.guards.Core.cut_work_limit in
  let point ~budget ~algorithm ~version ?cert ?sim alloc =
    let sim =
      match sim with
      | Some sim -> sim
      | None -> Simulator.run ~config:sim_config alloc
    in
    let report =
      Report.of_result ~clock_params:config.Core.clock_params ~sim_config
        ~version alloc sim
    in
    { tiling; order; budget; algorithm; report; cert }
  in
  let analysis = Analysis.analyze nest in
  let minimum = Srfa_core.Ordering.feasibility_minimum analysis in
  let floor =
    point ~budget:minimum ~algorithm:"floor" ~version:"floor"
      (Allocation.make ~analysis ~budget:minimum ~algorithm:"floor"
         (Array.make (Analysis.num_groups analysis)
            { Allocation.beta = 1; Allocation.pinned = false }))
  in
  let ladder budget algorithm =
    let analysis = Analysis.analyze nest in
    if space.Core.certify || algorithm = Allocator.Portfolio then begin
      let o =
        Allocator.run_portfolio ~latency ?cut_work_limit ~sim_config analysis
          ~budget
      in
      let cert =
        {
          Core.dominates =
            (match o.Certify.comparison with
            | Certify.Dominates -> true
            | Certify.Simulated _ -> false);
          repaired = o.Certify.repaired;
          adopted = o.Certify.adopted;
        }
      in
      point ~budget ~algorithm:(Allocator.name Allocator.Portfolio)
        ~version:(Allocator.version_label Allocator.Portfolio)
        ~cert ?sim:o.Certify.sim o.Certify.allocation
    end
    else
      point ~budget ~algorithm:(Allocator.name algorithm)
        ~version:(Allocator.version_label algorithm)
        (Allocator.run ~latency ?cut_work_limit ~sim_config algorithm
           analysis ~budget)
  in
  floor
  :: List.concat_map
       (fun budget ->
         if budget < minimum then []
         else List.map (ladder budget) space.Core.space_algorithms)
       space.Core.space_budgets

(* Every point of [space] over [nest] under [config] (its budget aside,
   as in Flow.Core.explore), each evaluated from scratch. *)
let points ~space config nest =
  List.concat_map (variant_points config space) (variants space nest)

let coords_of (r : Report.t) =
  (r.Report.cycles, r.Report.total_registers, r.Report.slices,
   r.Report.clock_ns)

let dominates (c, r, s, k) (c', r', s', k') =
  c <= c' && r <= r' && s <= s' && k <= k' && (c, r, s, k) <> (c', r', s', k')

(* The distinct coordinates no other point dominates, sorted. *)
let pareto points =
  let all =
    List.sort_uniq compare (List.map (fun p -> coords_of p.report) points)
  in
  List.filter (fun c -> not (List.exists (fun d -> dominates d c) all)) all

let show_coords cs =
  String.concat " "
    (List.map (fun (c, r, s, k) -> Printf.sprintf "(%d,%d,%d,%.3f)" c r s k) cs)

let describe (p : Core.explore_point) =
  Printf.sprintf "%s %s at budget %d" p.Core.label p.Core.point_algorithm
    p.Core.point_budget

(* [Ok ()] when [frontier] is what [points] (the whole space, from
   {!points}) says it must be, else the first discrepancy. *)
let check points (frontier : Core.frontier) =
  let expected = pareto points in
  let got =
    List.sort compare
      (List.map
         (fun (p : Core.explore_point) ->
           let c = p.Core.coords in
           (c.Core.cycles, c.Core.registers, c.Core.slices, c.Core.clock_ns))
         frontier.Core.points)
  in
  if got <> expected then
    Error
      (Printf.sprintf "frontier coordinates %s, Pareto set %s"
         (show_coords got) (show_coords expected))
  else
    let same (p : Core.explore_point) q =
      q.tiling = p.Core.tiling && q.order = p.Core.order
      && q.budget = p.Core.point_budget
      && q.algorithm = p.Core.point_algorithm
    in
    match
      List.find_map
        (fun (p : Core.explore_point) ->
          match List.find_opt (same p) points with
          | None -> Some (describe p ^ ": not a point of the space")
          | Some q when q.report <> p.Core.point_report ->
            Some (describe p ^ ": report differs from scratch")
          | Some q when q.cert <> p.Core.point_cert ->
            Some (describe p ^ ": certification differs from scratch")
          | Some _ -> None)
        frontier.Core.points
    with
    | None -> Ok ()
    | Some msg -> Error msg
