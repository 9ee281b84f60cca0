open Srfa_reuse
module Diag = Srfa_util.Diag
module Json = Srfa_util.Json
module Trace = Srfa_util.Trace

(* ---- pure core --------------------------------------------------------

   Everything in [module Core] is deterministic value-to-value
   computation: (parsed kernel, device/config, algorithm, budget,
   scratch) -> report. No filesystem, no formatters, no channels, no
   exit codes — trace sinks are injected by the caller and the in-memory
   collector is the only one Core creates itself. The callers (the CLI,
   the serve daemon, the bench) own all rendering and channel state,
   which is what lets Core values ([prepared], reports) be cached and
   reused across requests. [Flow] is [Core]: the file ends in
   [include Core]. *)

module Core = struct
  type guards = { cut_work_limit : int option; event_model_cap : int }

  let default_guards =
    { cut_work_limit = Some 200_000; event_model_cap = 100_000 }

  type config = {
    budget : int;
    sim : Srfa_sched.Simulator.config;
    clock_params : Srfa_estimate.Clock.params;
    guards : guards;
  }

  let default_config =
    {
      budget = 64;
      sim = Srfa_sched.Simulator.default_config;
      clock_params = Srfa_estimate.Clock.default_params;
      guards = default_guards;
    }

  let analyze nest = Analysis.analyze nest

  let allocation ?(config = default_config) ?trace ?prepared ?sim_scratch
      algorithm analysis =
    Allocator.run ~latency:config.sim.Srfa_sched.Simulator.latency ?trace
      ?cut_work_limit:config.guards.cut_work_limit ?prepared
      ~sim_config:config.sim ?sim_scratch algorithm analysis
      ~budget:config.budget

  (* The caller's sink (CLI --trace, bench) tees with an in-memory collector
     so the report can summarise the decision stream either way. *)
  let tee_collector trace =
    let collect, events = Trace.collector () in
    let sink =
      if Trace.enabled trace then
        Trace.make (fun e ->
            Trace.emit trace (fun () -> e);
            Trace.emit collect (fun () -> e))
      else collect
    in
    (sink, events)

  (* The design-point step every evaluation shares: allocate into [sink],
     summarise the decisions [events] collected, simulate and estimate.
     The allocation comes back too, for the checked pipeline's
     second-opinion schedule check. *)
  let evaluate_step ~sink ~events ?prepared ?sim_scratch config algorithm
      analysis =
    let alloc =
      allocation ~config ~trace:sink ?prepared ?sim_scratch algorithm analysis
    in
    (* Summarise the allocation decisions only (fixed before the simulator
       appends its own guard events to the same stream). *)
    let trace_summary = Trace.summary (events ()) in
    let report =
      Srfa_estimate.Report.build ~sim_config:config.sim
        ~clock_params:config.clock_params ~trace:sink ~trace_summary
        ?sim_scratch
        ~version:(Allocator.version_label algorithm)
        alloc
    in
    (report, alloc)

  let evaluate_analysis ?(trace = Trace.null) ?prepared ?sim_scratch config
      algorithm analysis =
    let sink, events = tee_collector trace in
    fst
      (evaluate_step ~sink ~events ?prepared ?sim_scratch config algorithm
         analysis)

  (* ---- prepared kernels ---------------------------------------------- *)

  (* Every budget-independent product of one parsed kernel, bundled so a
     caller (the sweep, the serve tier-1 cache) pays for analysis, CPA
     scratch and the graph build exactly once per kernel. *)
  type prepared = {
    nest : Srfa_ir.Nest.t;
    analysis : Analysis.t;
    cpa : Cpa_ra.prepared;
    dfg : Srfa_dfg.Graph.t;
    minimum : int;
  }

  let prepare nest =
    let analysis = analyze nest in
    let cpa = Cpa_ra.prepare analysis in
    {
      nest;
      analysis;
      cpa;
      dfg = Cpa_ra.dfg cpa;
      minimum = Ordering.feasibility_minimum analysis;
    }

  let scratch ~config prepared =
    Srfa_sched.Simulator.scratch ~config:config.sim ~dfg:prepared.dfg
      prepared.analysis

  let evaluate_all ?(config = default_config) ?(algorithms = Allocator.all)
      ?trace nest =
    let prepared = prepare nest in
    let sim_scratch = scratch ~config prepared in
    List.map
      (fun alg ->
        evaluate_analysis ?trace ~prepared:prepared.cpa ~sim_scratch config alg
          prepared.analysis)
      algorithms

  (* ---- checked pipeline ---------------------------------------------- *)

  (* Guard trips announce themselves on the trace; translating the collected
     events into warning diagnostics here keeps the guard sites free of any
     Diag dependency. *)
  let warnings_of_events events =
    let field name (e : Trace.event) =
      match List.assoc_opt name e.Trace.fields with
      | Some (Trace.Int v) -> string_of_int v
      | Some (Trace.String s) -> s
      | Some (Trace.Bool b) -> string_of_bool b
      | Some (Trace.Float f) -> string_of_float f
      | Some (Trace.List _) | None -> "?"
    in
    List.filter_map
      (fun (e : Trace.event) ->
        match e.Trace.name with
        | "fallback.pr_ra" ->
          Some
            (Diag.warning ~code:"W-GUARD-CUT"
               "cut work limit exceeded; CPA-RA fell back to PR-RA"
               ~context:
                 [
                   ("work_limit", field "work_limit" e);
                   ("bfs_phases", field "bfs_phases" e);
                   ("augmenting_paths", field "augmenting_paths" e);
                 ])
        | "guard.mask" ->
          Some
            (Diag.warning ~code:"W-GUARD-MASK"
               "group count exceeds the bitmask memo cap; simulator degraded \
                to the string-keyed memo"
               ~context:
                 [ ("groups", field "groups" e); ("cap", field "cap" e) ])
        | _ -> None)
      events

  (* Second-opinion schedule check: re-time the steady-state body with the
     cycle-stepped event model. A divergence is not an error — the report
     keeps the (agreeing-by-construction) Cycle_model numbers — but it is
     worth a warning and a trace event. *)
  let event_model_warning ~sink ~guards ~sim_config ~dfg alloc =
    let ram_map = Srfa_sched.Simulator.ram_map_for sim_config alloc in
    let residual = Allocation.residual_ram_groups alloc in
    let charged (g : Group.t) = List.mem g.Group.id residual in
    match
      Srfa_sched.Event_model.makespan ~cap:guards.event_model_cap ~dfg
        ~latency:sim_config.Srfa_sched.Simulator.latency ~ram_map ~charged ()
    with
    | _ -> None
    | exception Srfa_sched.Event_model.Diverged { cycles; cap } ->
      Trace.emit sink (fun () ->
          Trace.event "fallback.cycle_model"
            [
              ("reason", Trace.String "event model diverged");
              ("cycles", Trace.Int cycles);
              ("cap", Trace.Int cap);
            ]);
      Some
        (Diag.warning ~code:"W-GUARD-EVENT"
           "event model failed to converge; report keeps the coarse \
            Cycle_model timing"
           ~context:
             [ ("cycles", string_of_int cycles); ("cap", string_of_int cap) ])

  (* The body shared by the nest-at-a-time entry point and the
     prepared-kernel one: the evaluate step, a second opinion on the
     schedule, guard events translated into warnings. Never raises. *)
  let checked_prepared ?(trace = Trace.null) ?sim_scratch config algorithm
      prepared =
    let sink, events = tee_collector trace in
    match
      let sim_scratch =
        match sim_scratch with Some s -> s | None -> scratch ~config prepared
      in
      let report, alloc =
        evaluate_step ~sink ~events ~prepared:prepared.cpa ~sim_scratch config
          algorithm prepared.analysis
      in
      let event_warning =
        event_model_warning ~sink ~guards:config.guards ~sim_config:config.sim
          ~dfg:prepared.dfg alloc
      in
      (report, warnings_of_events (events ()) @ Option.to_list event_warning)
    with
    | checked -> Ok checked
    | exception exn -> Result.Error [ Diag.of_exn exn ]

  let checked ?(config = default_config) ?(algorithm = Allocator.Cpa_ra)
      ?trace nest =
    match prepare nest with
    | prepared -> checked_prepared ?trace config algorithm prepared
    | exception exn -> Result.Error [ Diag.of_exn exn ]

  (* A report on [alloc] from [sim] when its simulation has already run
     (certification's slow path ends in one), else from [simulate alloc].
     Certified points, rebudget steps and explore points all report
     through here. *)
  let report_of ~config ?trace_summary ~simulate ?sim ~version alloc =
    let sim = match sim with Some sim -> sim | None -> simulate alloc in
    Srfa_estimate.Report.of_result ~clock_params:config.clock_params
      ?trace_summary ~sim_config:config.sim ~version alloc sim

  let portfolio_version = Allocator.version_label Allocator.Portfolio

  (* Budget monotonicity for the certified portfolio: certification alone
     makes a point never worse than the greedy baselines at its own budget,
     but says nothing across budgets — a sweep could still show more
     registers buying more cycles. Any allocation feasible at a lower
     budget stays feasible at a higher one (its total only has to fit), so
     the sweep carries the best certified allocation forward and adopts it
     whenever the fresh point loses to it, announcing the takeover as a
     ["certify.monotonic"] trace event. *)
  let portfolio_point ?(trace = Trace.null) ~prepared ?sim_scratch ~carry
      config kernel analysis =
    let sink, events = tee_collector trace in
    let outcome =
      Allocator.run_portfolio
        ~latency:config.sim.Srfa_sched.Simulator.latency ~trace:sink
        ?cut_work_limit:config.guards.cut_work_limit ~prepared
        ~sim_config:config.sim ?sim_scratch analysis ~budget:config.budget
    in
    let alloc = outcome.Certify.allocation in
    let trace_summary = Trace.summary (events ()) in
    let build =
      report_of ~config ~trace_summary ~version:portfolio_version
        ~simulate:
          (Srfa_sched.Simulator.run ~trace:sink ~config:config.sim
             ?scratch:sim_scratch)
    in
    let report = build ?sim:outcome.Certify.sim alloc in
    let report, final_alloc =
      match !carry with
      | Some (b0, entries0, cycles0)
        when b0 <= config.budget && cycles0 < report.Srfa_estimate.Report.cycles
        ->
        Trace.emit sink (fun () ->
            Trace.event "certify.monotonic"
              [
                ("kernel", Trace.String kernel);
                ("budget", Trace.Int config.budget);
                ("carried_budget", Trace.Int b0);
                ("carried_cycles", Trace.Int cycles0);
                ("fresh_cycles", Trace.Int report.Srfa_estimate.Report.cycles);
              ]);
        let adopted =
          Allocation.make ~analysis ~budget:config.budget
            ~algorithm:Certify.algorithm_name entries0
        in
        (build adopted, adopted)
      | _ -> (report, alloc)
    in
    let final_cycles = report.Srfa_estimate.Report.cycles in
    (match !carry with
    | Some (_, _, cycles0) when cycles0 <= final_cycles -> ()
    | _ ->
      let entries =
        Array.init (Analysis.num_groups analysis)
          (Allocation.entry final_alloc)
      in
      carry := Some (config.budget, entries, final_cycles));
    report

  type sweep_point = {
    kernel : string;
    algorithm : Allocator.algorithm;
    budget : int;
    report : Srfa_estimate.Report.t;
  }

  let default_budgets = [ 8; 16; 32; 64; 128 ]

  (* [f ~trace] over [items], results in input order, on [pool] when one
     is given. Under a pool each item traces into a private buffer, and
     the buffers are spliced into [trace] in input order after the join:
     the stream the sequential walk emits, at any job count. *)
  let fan_out ?pool ~trace f items =
    match pool with
    | None -> Array.map (f ~trace) items
    | Some pool when not (Trace.enabled trace) ->
      Srfa_util.Pool.map pool (f ~trace) items
    | Some pool ->
      let outputs =
        Srfa_util.Pool.map pool
          (fun x ->
            let sink, splice = Trace.buffered () in
            (f ~trace:sink x, splice))
          items
      in
      Array.iter (fun (_, splice) -> splice trace) outputs;
      Array.map fst outputs

  (* One kernel's full budget ladder. This stays sequential even under a
     pool: the portfolio carry-forward (budget monotonicity) threads state
     from each budget to the next, so the ladder is the unit of work and
     kernels are the parallel axis. *)
  let sweep_kernel ~config ~algorithms ~budgets ?trace (kernel, nest) =
    let prepared = prepare nest in
    let analysis = prepared.analysis in
    (* One simulator scratch and one CPA-RA round memo per kernel, created
       inside the task so each pool domain owns its own (neither is
       thread-safe). *)
    let sim_scratch = scratch ~config prepared in
    let cpa = Cpa_ra.ladder prepared.cpa in
    let carry = ref None in
    List.concat_map
      (fun budget ->
        if budget < prepared.minimum then []
        else
          List.map
            (fun algorithm ->
              let report =
                match algorithm with
                | Allocator.Portfolio ->
                  portfolio_point ?trace ~prepared:cpa ~sim_scratch ~carry
                    { config with budget } kernel analysis
                | _ ->
                  evaluate_analysis ?trace ~prepared:cpa ~sim_scratch
                    { config with budget } algorithm analysis
              in
              { kernel; algorithm; budget; report })
            algorithms)
      budgets

  let sweep ?(config = default_config) ?(algorithms = Allocator.all)
      ?(budgets = default_budgets) ?(trace = Trace.null) ?pool kernels =
    fan_out ?pool ~trace
      (fun ~trace -> sweep_kernel ~config ~algorithms ~budgets ~trace)
      (Array.of_list kernels)
    |> Array.to_list |> List.concat

  (* ---- design-space exploration (DESIGN.md §17) ---------------------- *)

  (* The joint (permutation x tile x budget x algorithm) explorer: every
     kernel becomes a design space, and the output is the
     (cycles, registers, slices, clock) Pareto frontier. Three layers
     keep the product tractable:

     1. dominance cuts: a point's coordinates are bounded below before
        its allocation exists (feasibility register floor, port-free
        charged-path cycle bound over the groups the budget forces to
        stay in RAM, area/clock term floors); a point whose bound box is
        already covered by the online frontier is skipped. Lossless —
        see DESIGN.md §17 for the argument, test_explore for the proof
        by differential testing.
     2. memoisation: one [prepared] (analysis + CPA scratch + DFG) and
        one simulator scratch per distinct variant (variants deduped by
        a canonical-source digest), and within a variant an
        entries-keyed simulation memo — two budgets that produce the
        same allocation (ladders saturate) share one simulation — and a
        betas-keyed CPA-RA round memo ([Cpa_ra.ladder]): every budget
        starts from the same state and saturated budgets share their
        tails, so most cut rounds are answered, not computed. Within a
        budget, one CPA-RA allocation serves the CPA-RA point and every
        certified point, and certification looks its simulations up in
        the memo.
     3. pool fan-out: variants shard across domains with the
        byte-identical parallel-vs-serial contract: per-variant
        [Trace.buffered] sinks spliced in variant order, and a frontier
        that is a deterministic function of the evaluated set no matter
        which points the (schedule-dependent) cuts removed. *)

  type order_spec =
    | Identity_order
    | All_orders
    | Orders of int list list

  let order_spec_of_string s =
    let perm o =
      List.map
        (fun k -> int_of_string (String.trim k))
        (String.split_on_char ',' o)
    in
    match String.lowercase_ascii s with
    | "all" -> Some All_orders
    | "identity" | "id" -> Some Identity_order
    | _ -> (
      try Some (Orders (List.map perm (String.split_on_char ';' s)))
      with Failure _ -> None)

  let order_spec_to_string = function
    | All_orders -> "all"
    | Identity_order -> "identity"
    | Orders os ->
      let perm o = String.concat "," (List.map string_of_int o) in
      String.concat "|" (List.map perm os)

  type space = {
    orders : order_spec;
    tile_factors : int list;
    space_budgets : int list;
    space_algorithms : Allocator.algorithm list;
    certify : bool;  (** evaluate points through the certified portfolio *)
    prune : bool;  (** dominance cuts; [false] = exhaustive (the differential arm) *)
    naive : bool;  (** re-derive analysis/DFG/simulation per point (bench baseline) *)
  }

  let default_space =
    {
      orders = All_orders;
      tile_factors = [];
      space_budgets = default_budgets;
      space_algorithms = [ Allocator.Cpa_ra ];
      certify = false;
      prune = true;
      naive = false;
    }

  type coords = {
    cycles : int;
    registers : int;
    slices : int;
    clock_ns : float;
  }

  type cert = { dominates : bool; repaired : bool; adopted : string option }

  type explore_point = {
    variant : int;  (** index in deterministic enumeration order *)
    label : string;
    loop_vars : string list;
    tiling : (int * int) option;  (** strip-mine (level, factor), if any *)
    order : int list;
    point_budget : int;
    point_algorithm : string;  (** allocator name, or ["floor"] *)
    floor : bool;  (** the all-RAM baseline at the feasibility minimum *)
    coords : coords;
    point_report : Srfa_estimate.Report.t;
    point_cert : cert option;
  }

  type explore_stats = {
    variants_enumerated : int;
    variants_unique : int;
    variants_pruned : int;
    points_pruned : int;
    points_evaluated : int;
    sim_memo_hits : int;
    duplicate_variants : int;
    orders_skipped : int;
    budgets_skipped : int;
  }

  type frontier = {
    frontier_kernel : string;
    points : explore_point list;  (** the Pareto frontier, sorted *)
    frontier_stats : explore_stats;
    frontier_warnings : Srfa_util.Diag.t list;
  }

  (* internal: one enumerated variant *)
  type variant = {
    v_idx : int;
    v_tiling : (int * int) option;
    v_order : int list;
    v_nest : Srfa_ir.Nest.t;
    v_label : string;
    v_loop_vars : string list;
  }

  let coords_of_report (r : Srfa_estimate.Report.t) =
    {
      cycles = r.Srfa_estimate.Report.cycles;
      registers = r.Srfa_estimate.Report.total_registers;
      slices = r.Srfa_estimate.Report.slices;
      clock_ns = r.Srfa_estimate.Report.clock_ns;
    }

  let coords_leq a b =
    a.cycles <= b.cycles && a.registers <= b.registers && a.slices <= b.slices
    && a.clock_ns <= b.clock_ns

  let coords_lt_somewhere a b =
    a.cycles < b.cycles || a.registers < b.registers || a.slices < b.slices
    || a.clock_ns < b.clock_ns

  let coords_dominates q p = coords_leq q p && coords_lt_somewhere q p

  (* The online frontier shared by every domain: coordinates plus the
     (variant, serial) enumeration key of the point that produced them.
     Strictly dominated entries are dropped and exact-coordinate ties
     keep the smallest key — both preserve pruning power (the survivor
     prunes at least everything its victim could). *)
  type online = {
    mutable entries : (coords * (int * int)) list;
    lock : Mutex.t;
  }

  let online_create () = { entries = []; lock = Mutex.create () }

  let online_insert online c key =
    Mutex.lock online.lock;
    let covered =
      List.exists
        (fun (q, qk) ->
          coords_dominates q c || (q = c && compare qk key <= 0))
        online.entries
    in
    if not covered then
      online.entries <-
        (c, key)
        :: List.filter
             (fun (q, qk) ->
               not (coords_dominates c q || (q = c && compare key qk < 0)))
             online.entries;
    Mutex.unlock online.lock

  (* [p] (with enumeration key [key]) can be cut when a frontier point
     [q] covers its whole lower-bound box: either strictly below the
     bound somewhere (then q strictly beats anything p can produce), or
     exactly equal to it with a smaller key (then p can at best tie, and
     the coordinate-duplicate collapse would discard it for [q] anyway —
     the key comparison keeps the surviving representative the same
     whether or not the cut fired, which is what makes jobs=1 and jobs=N
     byte-identical). *)
  let online_prunes online lb key =
    Mutex.lock online.lock;
    let cut =
      List.exists
        (fun (q, qk) ->
          coords_leq q lb
          && (coords_lt_somewhere q lb || compare qk key < 0))
        online.entries
    in
    Mutex.unlock online.lock;
    cut

  (* Some entry sits at or below [c] in every coordinate: a necessary
     condition for [online_prunes] against any box below [c]. *)
  let online_covers online c =
    Mutex.lock online.lock;
    let covered = List.exists (fun (q, _) -> coords_leq q c) online.entries in
    Mutex.unlock online.lock;
    covered

  let identity_order d = List.init d Fun.id

  let variant_label ~base_vars tiling loop_vars =
    let tile_part =
      match tiling with
      | None -> "untiled"
      | Some (level, factor) ->
        let var =
          match List.nth_opt base_vars level with
          | Some v -> v
          | None -> string_of_int level
        in
        Printf.sprintf "tile %s/%d" var factor
    in
    Printf.sprintf "%s | %s" tile_part (String.concat " " loop_vars)

  (* Deterministic serial enumeration: tilings level-major, orders as
     Permute yields them, duplicates (by canonical-source digest)
     dropped with a count. *)
  let enumerate_variants ~space nest =
    let base_vars = Srfa_ir.Nest.loop_vars nest in
    let orders_skipped = ref 0 in
    let tilings =
      None
      :: List.map Option.some
           (Srfa_ir.Tile.steps nest ~factors:space.tile_factors)
    in
    let raw =
      List.concat_map
        (fun tiling ->
          let tnest =
            match tiling with
            | None -> nest
            | Some (level, factor) -> Srfa_ir.Tile.tile nest ~level ~factor
          in
          let d = Srfa_ir.Nest.depth tnest in
          let id = identity_order d in
          let orders =
            match space.orders with
            | Identity_order -> [ id ]
            | All_orders ->
              let orders, skipped = Srfa_ir.Permute.legal_orders tnest in
              orders_skipped := !orders_skipped + skipped;
              orders
            | Orders os ->
              let legal = Srfa_ir.Permute.fully_permutable tnest in
              let valid o =
                List.sort Int.compare o = id && (legal || o = id)
              in
              let keep, dropped = List.partition valid os in
              orders_skipped := !orders_skipped + List.length dropped;
              id :: List.filter (fun o -> o <> id) keep
          in
          List.map
            (fun order ->
              let vnest =
                if order = id then tnest
                else Srfa_ir.Permute.interchange tnest ~order
              in
              (tiling, order, vnest))
            orders)
        tilings
    in
    let seen = Hashtbl.create 64 in
    let dups = ref 0 in
    let uniq =
      List.filter
        (fun (_, _, vnest) ->
          let key =
            Digest.string (Format.asprintf "%a" Srfa_ir.Nest.pp vnest)
          in
          if Hashtbl.mem seen key then begin
            incr dups;
            false
          end
          else begin
            Hashtbl.add seen key ();
            true
          end)
        raw
    in
    let variants =
      List.mapi
        (fun i (tiling, order, vnest) ->
          let loop_vars = Srfa_ir.Nest.loop_vars vnest in
          {
            v_idx = i;
            v_tiling = tiling;
            v_order = order;
            v_nest = vnest;
            v_label = variant_label ~base_vars tiling loop_vars;
            v_loop_vars = loop_vars;
          })
        uniq
    in
    (variants, List.length raw, !dups, !orders_skipped)

  let entries_key analysis alloc =
    let b = Buffer.create 64 in
    for gid = 0 to Analysis.num_groups analysis - 1 do
      let e = Allocation.entry alloc gid in
      Buffer.add_string b (string_of_int e.Allocation.beta);
      Buffer.add_char b (if e.Allocation.pinned then 'p' else 'u');
      Buffer.add_char b ';'
    done;
    Buffer.contents b

  type variant_result = {
    r_points : explore_point list;
    r_variants_pruned : int;
    r_points_pruned : int;
    r_points_evaluated : int;
    r_sim_memo_hits : int;
    r_budgets_skipped : int;
  }

  let evaluate_variant ~config ~space ~online ~trace v =
    let module Sim = Srfa_sched.Simulator in
    let nest = v.v_nest in
    let prepared = prepare nest in
    let analysis = prepared.analysis in
    let n = prepared.minimum in
    let sim_scratch = scratch ~config prepared in
    let cpa = Cpa_ra.ladder prepared.cpa in
    let iterations = Srfa_ir.Nest.iterations nest in
    let depth = Srfa_ir.Nest.depth nest in
    let latency = config.sim.Sim.latency in
    let cm = Srfa_sched.Cycle_model.prepare ~dfg:prepared.dfg ~latency in
    (* The naive arm re-derives the analysis for every point. *)
    let point_analysis () = if space.naive then analyze nest else analysis in
    (* The all-RAM baseline: one unpinned feasibility register per group
       (the engine's starting state), nothing resident. Evaluated
       unconditionally — it anchors the frontier's register/area/clock
       floor and is what the dominance cuts prune against. *)
    let floor_alloc =
      Allocation.make ~analysis:(point_analysis ()) ~budget:n
        ~algorithm:"floor"
        (Array.make (Analysis.num_groups analysis)
           { Allocation.beta = 1; Allocation.pinned = false })
    in
    (* Pipelined cycle floor: the loop-carried recurrence, which is
       RAM-map independent (ports only raise the initiation interval). *)
    let recurrence =
      lazy
        (let ram_map = Sim.ram_map_for config.sim floor_alloc in
         let m =
           Srfa_sched.Cycle_model.create ~prepared:cm ~dfg:prepared.dfg
             ~latency ~ram_map ()
         in
         Srfa_sched.Cycle_model.initiation_interval m ~charged:(fun _ -> false))
    in
    (* At budget [b] the other [n-1] groups hold at least their
       feasibility register, so no group holds more than [b - (n-1)]. *)
    let cycles_lb b =
      match config.sim.Sim.execution with
      | Sim.Serial ->
        Sim.cycles_floor ~config:config.sim sim_scratch
          ~beta_max:(b - (n - 1))
      | Sim.Pipelined -> iterations * Lazy.force recurrence
    in
    let slices_lb =
      Srfa_estimate.Area.lower_bound ~device:config.sim.Sim.device analysis
    in
    let clock_lb =
      Srfa_estimate.Clock.lower_bound ~params:config.clock_params
        ~min_registers:n ~depth ()
    in
    let lower_bound b =
      { cycles = cycles_lb b; registers = n; slices = slices_lb;
        clock_ns = clock_lb }
    in
    (* Floors do not increase with the budget: a larger [beta_max]
       forces fewer accesses to RAM, and a RAM access never finishes
       before a register one. So the bound at the feasibility minimum
       caps every ladder budget's, and it is computed once, outside the
       frontier lock. A budget's own floor is computed only when some
       online entry sits at or below that ceiling in every coordinate;
       otherwise no entry can cover the budget's box and nothing is cut. *)
    let ceiling = lazy (lower_bound n) in
    let bound_at b = if b = n then ceiling else lazy (lower_bound b) in
    let prunes bound key =
      space.prune
      && online_covers online (Lazy.force ceiling)
      && online_prunes online (Lazy.force bound) key
    in
    let sim_memo : (string, Sim.result) Hashtbl.t = Hashtbl.create 8 in
    let memo_hits = ref 0
    and points_evaluated = ref 0
    and points_pruned = ref 0
    and variants_pruned = ref 0
    and budgets_skipped = ref 0 in
    let points = ref [] in
    let run_sim alloc =
      let key = entries_key analysis alloc in
      match Hashtbl.find_opt sim_memo key with
      | Some sim ->
        incr memo_hits;
        Trace.emit trace (fun () ->
            Trace.event "explore.memo"
              [
                ("variant", Trace.String v.v_label);
                ("budget", Trace.Int alloc.Allocation.budget);
                ("algorithm", Trace.String alloc.Allocation.algorithm);
              ]);
        sim
      | None ->
        let scratch = if space.naive then None else Some sim_scratch in
        let sim = Sim.run ~trace ~config:config.sim ?scratch alloc in
        if not space.naive then Hashtbl.add sim_memo key sim;
        sim
    in
    (* Certification's simulations: a lookup of what has already run,
       uncounted and unrecorded, so the memo's hits and events stay those
       of the explorer's own points. *)
    let memo_sim alloc =
      match Hashtbl.find_opt sim_memo (entries_key analysis alloc) with
      | Some sim -> sim
      | None -> Sim.run ~config:config.sim ~scratch:sim_scratch alloc
    in
    let add_point ~serial ~budget ~algorithm ~version ~floor ~cert ?sim alloc
        =
      let report = report_of ~config ~simulate:run_sim ?sim ~version alloc in
      let c = coords_of_report report in
      if space.prune then online_insert online c (v.v_idx, serial);
      incr points_evaluated;
      points :=
        {
          variant = v.v_idx;
          label = v.v_label;
          loop_vars = v.v_loop_vars;
          tiling = v.v_tiling;
          order = v.v_order;
          point_budget = budget;
          point_algorithm = algorithm;
          floor;
          coords = c;
          point_report = report;
          point_cert = cert;
        }
        :: !points
    in
    add_point ~serial:0 ~budget:n ~algorithm:"floor" ~version:"floor"
      ~floor:true ~cert:None floor_alloc;
    (* budget x algorithm ladder *)
    let budgets =
      List.filter
        (fun b ->
          if b >= n then true
          else begin
            incr budgets_skipped;
            false
          end)
        space.space_budgets
    in
    let algorithms = space.space_algorithms in
    let ladder_size = List.length budgets * List.length algorithms in
    let emit_prune ~scope ~points_cut ~budget ~algorithm =
      Trace.emit trace (fun () ->
          Trace.event "explore.prune"
            ([
               ("scope", Trace.String scope);
               ("variant", Trace.String v.v_label);
               ("points", Trace.Int points_cut);
             ]
            @ (match budget with
              | Some b -> [ ("budget", Trace.Int b) ]
              | None -> [])
            @
            match algorithm with
            | Some a -> [ ("algorithm", Trace.String a) ]
            | None -> []))
    in
    let bmax = List.fold_left max n budgets in
    let variant_cut = ladder_size > 0 && prunes (bound_at bmax) (v.v_idx, 1) in
    if variant_cut then begin
      variants_pruned := 1;
      points_pruned := ladder_size;
      emit_prune ~scope:"variant" ~points_cut:ladder_size ~budget:None
        ~algorithm:None
    end
    else begin
      let serial = ref 0 in
      List.iter
        (fun b ->
          let bound = bound_at b in
          let cfg = { config with budget = b } in
          (* The budget's CPA-RA allocation, run at most once: the CPA-RA
             point reports it and every certified point certifies it. *)
          let candidate =
            lazy
              (allocation ~config:cfg ~trace ~prepared:cpa ~sim_scratch
                 Allocator.Cpa_ra analysis)
          in
          List.iter
            (fun alg ->
              incr serial;
              let key = (v.v_idx, !serial) in
              if prunes bound key then begin
                incr points_pruned;
                emit_prune ~scope:"point" ~points_cut:1 ~budget:(Some b)
                  ~algorithm:(Some (Allocator.name alg))
              end
              else begin
                let certified = space.certify || alg = Allocator.Portfolio in
                let alloc, sim, cert =
                  if certified then begin
                    let outcome =
                      if space.naive then
                        Allocator.run_portfolio ~latency ~trace
                          ?cut_work_limit:cfg.guards.cut_work_limit
                          ~sim_config:cfg.sim (point_analysis ()) ~budget:b
                      else
                        Certify.certify ~trace ~sim_config:cfg.sim
                          ~sim_scratch ~simulate:memo_sim (Lazy.force candidate)
                    in
                    ( outcome.Certify.allocation,
                      outcome.Certify.sim,
                      Some
                        {
                          dominates =
                            (match outcome.Certify.comparison with
                            | Certify.Dominates -> true
                            | Certify.Simulated _ -> false);
                          repaired = outcome.Certify.repaired;
                          adopted = outcome.Certify.adopted;
                        } )
                  end
                  else
                    let alloc =
                      if space.naive then
                        Allocator.run ~latency ~trace
                          ?cut_work_limit:cfg.guards.cut_work_limit
                          ~sim_config:cfg.sim alg (point_analysis ()) ~budget:b
                      else if alg = Allocator.Cpa_ra then Lazy.force candidate
                      else
                        allocation ~config:cfg ~trace ~prepared:cpa
                          ~sim_scratch alg analysis
                    in
                    (alloc, None, None)
                in
                let alg = if certified then Allocator.Portfolio else alg in
                add_point ~serial:!serial ~budget:b
                  ~algorithm:(Allocator.name alg)
                  ~version:(Allocator.version_label alg) ~floor:false ~cert
                  ?sim alloc
              end)
            algorithms)
        budgets
    end;
    {
      r_points = List.rev !points;
      r_variants_pruned = !variants_pruned;
      r_points_pruned = !points_pruned;
      r_points_evaluated = !points_evaluated;
      r_sim_memo_hits = !memo_hits;
      r_budgets_skipped = !budgets_skipped;
    }

  (* Final frontier from the evaluated set: drop dominated points, then
     collapse exact-coordinate ties onto the smallest enumeration key.
     Both are deterministic functions of the full design space even
     though the evaluated set is not (cuts depend on domain scheduling):
     a cut point is either strictly dominated by an online entry — and
     so by transitivity by some final frontier point — or it ties an
     entry with a smaller key, which the collapse would have kept
     instead anyway.

     Dominance is tested against the running skyline, not every point:
     dominance is transitive, so a dominated point is dominated by some
     undominated one, and the skyline (an antichain, kept newest first)
     ends as exactly the undominated points. *)
  let assemble_frontier results =
    let skyline =
      List.fold_left
        (fun sky p ->
          if List.exists (fun q -> coords_dominates q.coords p.coords) sky
          then sky
          else
            p
            :: List.filter
                 (fun q -> not (coords_dominates p.coords q.coords))
                 sky)
        []
        (List.concat_map (fun r -> r.r_points) results)
    in
    let survivors = List.rev skyline in
    let collapsed =
      (* points arrive in (variant, serial) order already *)
      let seen = Hashtbl.create 16 in
      List.filter
        (fun p ->
          let k =
            (p.coords.cycles, p.coords.registers, p.coords.slices,
             Printf.sprintf "%.6f" p.coords.clock_ns)
          in
          if Hashtbl.mem seen k then false
          else begin
            Hashtbl.add seen k ();
            true
          end)
        survivors
    in
    List.sort
      (fun a b ->
        let c = Int.compare a.coords.cycles b.coords.cycles in
        if c <> 0 then c
        else
          let c = Int.compare a.coords.registers b.coords.registers in
          if c <> 0 then c
          else
            let c = Int.compare a.coords.slices b.coords.slices in
            if c <> 0 then c
            else
              let c = Float.compare a.coords.clock_ns b.coords.clock_ns in
              if c <> 0 then c else Int.compare a.variant b.variant)
      collapsed

  let explore ?(trace = Trace.null) ?pool ?(space = default_space) config
      nest =
    if space.space_algorithms = [] then
      invalid_arg "Flow.Core.explore: empty algorithm list";
    let variants, enumerated, dups, orders_skipped =
      enumerate_variants ~space nest
    in
    let warnings =
      if orders_skipped > 0 then begin
        Trace.emit trace (fun () ->
            Trace.event "guard.explore"
              [
                ("kernel", Trace.String nest.Srfa_ir.Nest.name);
                ("skipped_orders", Trace.Int orders_skipped);
              ]);
        [
          Diag.warning ~code:"W-GUARD-EXPLORE"
            "some loop orders are illegal for this nest and were skipped \
             (interchange requires full permutability)"
            ~context:
              [
                ("kernel", nest.Srfa_ir.Nest.name);
                ("skipped_orders", string_of_int orders_skipped);
              ];
        ]
      end
      else []
    in
    let results =
      fan_out ?pool ~trace
        (evaluate_variant ~config ~space ~online:(online_create ()))
        (Array.of_list variants)
      |> Array.to_list
    in
    let sum f = List.fold_left (fun acc r -> acc + f r) 0 results in
    let stats =
      {
        variants_enumerated = enumerated;
        variants_unique = List.length variants;
        variants_pruned = sum (fun r -> r.r_variants_pruned);
        points_pruned = sum (fun r -> r.r_points_pruned);
        points_evaluated = sum (fun r -> r.r_points_evaluated);
        sim_memo_hits = sum (fun r -> r.r_sim_memo_hits);
        duplicate_variants = dups;
        orders_skipped;
        budgets_skipped = sum (fun r -> r.r_budgets_skipped);
      }
    in
    Trace.emit trace (fun () ->
        Trace.event "explore.done"
          [
            ("kernel", Trace.String nest.Srfa_ir.Nest.name);
            ("variants", Trace.Int stats.variants_unique);
            ("variants_pruned", Trace.Int stats.variants_pruned);
            ("points_pruned", Trace.Int stats.points_pruned);
            ("points_evaluated", Trace.Int stats.points_evaluated);
            ("sim_memo_hits", Trace.Int stats.sim_memo_hits);
          ]);
    {
      frontier_kernel = nest.Srfa_ir.Nest.name;
      points = assemble_frontier results;
      frontier_stats = stats;
      frontier_warnings = warnings;
    }

  (* ---- frontier rendering -------------------------------------------- *)

  (* One renderer shared by the CLI, the serve daemon and the tests so
     "byte-identical frontier" means one thing. Deterministic: fixed
     field order, fixed float format, no stats (cut/memo counts depend
     on domain scheduling and live in [frontier_stats] only). *)

  let point_json p =
    let open Json in
    let tiling =
      match p.tiling with
      | Some (level, factor) ->
        [ ("tile_level", Int level); ("tile_factor", Int factor) ]
      | None -> []
    in
    let certified =
      match p.point_cert with
      | Some c ->
        let adopted = match c.adopted with Some a -> Str a | None -> Null in
        let cert =
          [ ("dominates", Bool c.dominates); ("repaired", Bool c.repaired);
            ("adopted", adopted) ]
        in
        [ ("certified", Obj cert) ]
      | None -> []
    in
    Obj
      ((("label", Str p.label) :: tiling)
      @ [
          ("order", Arr (List.map (fun i -> Int i) p.order));
          ("loop_vars", Arr (List.map (fun v -> Str v) p.loop_vars));
          ("budget", Int p.point_budget);
          ("algorithm", Str p.point_algorithm);
          ("floor", Bool p.floor);
          ("cycles", Int p.coords.cycles);
          ("registers", Int p.coords.registers);
          ("slices", Int p.coords.slices);
          ("clock_ns", fixed 3 p.coords.clock_ns);
          ( "exec_time_us",
            fixed 3 p.point_report.Srfa_estimate.Report.exec_time_us );
        ]
      @ certified)

  let frontier_json ?(compact = false) f =
    let v =
      Json.Obj
        [
          ("kernel", Json.Str f.frontier_kernel);
          ("points", Json.Arr (List.map point_json f.points));
        ]
    in
    if compact then Json.to_string v else Json.to_lines v

  let sweep_json points =
    let point (p : sweep_point) =
      let r = p.report in
      Json.Obj
        [
          ("kernel", Json.Str p.kernel);
          ("algorithm", Json.Str (Allocator.name p.algorithm));
          ("version", Json.Str r.Srfa_estimate.Report.version);
          ("budget", Json.Int p.budget);
          ("registers", Json.Int r.total_registers);
          ("cycles", Json.Int r.cycles);
          ("memory_cycles", Json.Int r.memory_cycles);
          ("ram_accesses", Json.Int r.ram_accesses);
          ("exec_time_us", Json.fixed 3 r.exec_time_us);
        ]
    in
    Json.to_lines (Json.Arr (List.map point points))

  let frontier_csv f =
    let b = Buffer.create 1024 in
    Buffer.add_string b
      "kernel,label,order,budget,algorithm,floor,cycles,registers,slices,clock_ns,exec_time_us\n";
    List.iter
      (fun p ->
        Buffer.add_string b
          (Printf.sprintf "%s,%s,%s,%d,%s,%b,%d,%d,%d,%.3f,%.3f\n"
             f.frontier_kernel p.label
             (String.concat " " (List.map string_of_int p.order))
             p.point_budget p.point_algorithm p.floor p.coords.cycles
             p.coords.registers p.coords.slices p.coords.clock_ns
             p.point_report.Srfa_estimate.Report.exec_time_us))
      f.points;
    Buffer.contents b

  (* ---- dynamic re-budgeting (DESIGN.md §16) -------------------------- *)

  type rebudget_step = {
    requested : int;
    effective : int;
    clamped : bool;
    freed : int;
    respent : int;
    memoized : bool;
    allocation : Allocation.t;
    report : Srfa_estimate.Report.t;
    warnings : Srfa_util.Diag.t list;
  }

  (* The live allocation plus everything an event needs to be answered
     without a from-scratch rerun: the prepared kernel, the warm
     simulator scratch, and a per-effective-budget memo of steps already
     certified in this stream (a budget ladder that oscillates revisits
     budgets constantly; re-deriving an identical certified allocation
     would be pure waste). Single-owner like every scratch-bearing value
     in this module: one session per domain at a time. [rb_current] is
     [None] until the stream's opening event is answered. *)
  type rebudget_session = {
    rb_prepared : prepared;
    rb_config : config;
    rb_scratch : Srfa_sched.Simulator.scratch;
    mutable rb_current : Allocation.t option;
    rb_memo :
      (int, Allocation.t * Srfa_estimate.Report.t * Srfa_util.Diag.t list)
      Hashtbl.t;
  }

  (* The pinned-shrink rule: a request below the feasibility minimum is
     not an error — the budget clamps there (the engine spills every
     entry cheapest-first to fit) and the event is answered under the
     clamp, with the degradation announced as a trace event and a
     W-GUARD-REBUDGET warning. *)
  let rebudget_guard ~sink ~requested ~minimum =
    Trace.emit sink (fun () ->
        Trace.event "guard.rebudget"
          [
            ("requested", Trace.Int requested);
            ("minimum", Trace.Int minimum);
          ]);
    Diag.warning ~code:"W-GUARD-REBUDGET"
      "budget event below the feasibility minimum (one register per \
       reference group); budget clamped at the minimum"
      ~context:
        [
          ("requested", string_of_int requested);
          ("minimum", string_of_int minimum);
        ]

  (* Every event of a stream, the opening one included: clamp, answer
     from the memo when the effective budget was visited before, else
     certify a fresh allocation — from scratch for the opening event,
     by reclaiming or re-spending the live one after it. *)
  let rebudget_step ?(trace = Trace.null) session ~budget =
    let prepared = session.rb_prepared in
    let minimum = prepared.minimum in
    let effective = max budget minimum in
    let clamped = budget < minimum in
    let sink, events = tee_collector trace in
    let clamp_warning =
      if clamped then [ rebudget_guard ~sink ~requested:budget ~minimum ]
      else []
    in
    let (alloc, report, warnings), freed, respent, memoized =
      match Hashtbl.find_opt session.rb_memo effective with
      | Some answer -> (answer, 0, 0, true)
      | None ->
        let config = { session.rb_config with budget = effective } in
        let sim_scratch = session.rb_scratch in
        let outcome, freed, respent =
          match session.rb_current with
          | None ->
            ( Allocator.run_portfolio
                ~latency:config.sim.Srfa_sched.Simulator.latency ~trace:sink
                ?cut_work_limit:config.guards.cut_work_limit
                ~prepared:prepared.cpa ~sim_config:config.sim ~sim_scratch
                prepared.analysis ~budget:effective,
              0,
              0 )
          | Some current ->
            let eng = Engine.of_allocation ~trace:sink current in
            let moved =
              Engine.rebudget ~reason:"rebudget event" eng ~budget:effective
            in
            let headroom = Engine.remaining eng in
            Certify.respend eng;
            let respent = headroom - Engine.remaining eng in
            let candidate =
              Engine.finalize ~pin_all:true eng
                ~algorithm:Certify.algorithm_name
            in
            (* Re-establish the certified never-worse contract at the new
               budget: the reclaimed/re-spent candidate is certified
               against FR-RA and PR-RA exactly like a from-scratch
               portfolio point. *)
            ( Certify.certify ~trace:sink ~sim_config:config.sim ~sim_scratch
                candidate,
              moved.Engine.freed,
              respent )
        in
        let alloc = outcome.Certify.allocation in
        let trace_summary = Trace.summary (events ()) in
        let report =
          report_of ~config ~trace_summary
            ~simulate:
              (Srfa_sched.Simulator.run ~trace:sink ~config:config.sim
                 ~scratch:sim_scratch)
            ?sim:outcome.Certify.sim ~version:portfolio_version alloc
        in
        let answer = (alloc, report, warnings_of_events (events ())) in
        Hashtbl.replace session.rb_memo effective answer;
        (answer, freed, respent, false)
    in
    session.rb_current <- Some alloc;
    {
      requested = budget;
      effective;
      clamped;
      freed;
      respent;
      memoized;
      allocation = alloc;
      report;
      warnings = clamp_warning @ warnings;
    }

  let rebudget_start ?trace ?sim_scratch config prepared ~budget =
    let session =
      {
        rb_prepared = prepared;
        rb_config = config;
        rb_scratch =
          (match sim_scratch with
          | Some s -> s
          | None -> scratch ~config prepared);
        rb_current = None;
        rb_memo = Hashtbl.create 8;
      }
    in
    (session, rebudget_step ?trace session ~budget)

  let rebudget_current session = Option.get session.rb_current

  let rebudget ?trace ?sim_scratch config prepared ~initial ~events =
    let session, first =
      rebudget_start ?trace ?sim_scratch config prepared ~budget:initial
    in
    first :: List.map (fun b -> rebudget_step ?trace session ~budget:b) events
end

include Core
