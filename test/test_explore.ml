(* The design-space explorer's contract (DESIGN.md §17): the frontier
   Flow.Core.explore returns is byte-identical whether the dominance
   cuts are on or off, whether the memoised or the naive evaluation
   path runs, and whether the variants fan out over a pool or run
   serially. On top of the differential checks, a golden pins the
   frontier JSON of the paper's running example, the entries memo is
   shown to actually fire on a saturating ladder, non-permutable nests
   degrade to the identity with W-GUARD-EXPLORE instead of raising,
   and certification composes (every real point carries an outcome). *)

open Srfa_ir
open Srfa_test_helpers
module Core = Srfa_core.Flow.Core
module Allocator = Srfa_core.Allocator
module Pool = Srfa_util.Pool

let json ?pool space nest =
  Core.frontier_json (Core.explore ?pool ~space Core.default_config nest)

(* The valid fuzz kernels among case ids 0-999 of campaign 42. *)
let valid_cases = lazy (Helpers.gen_valid ~seed:42 ~cases:1000)

(* A space with several variants so the pool and the pruner both have
   real work: all 6 orders of the running example plus one strip-mine
   factor, two algorithms. *)
let example_space =
  {
    Core.default_space with
    Core.orders = Core.All_orders;
    tile_factors = [ 2 ];
    space_budgets = [ 4; 8; 16 ];
    space_algorithms = [ Allocator.Cpa_ra; Allocator.Fr_ra ];
  }

(* Non-associative reduction: acc[i] -= x[j] is not reorderable, so
   All_orders must degrade to the identity (same fixture as
   test_permute's rejection tests). *)
let subred () =
  let open Builder in
  let x = input "x" [ 4 ] and acc = output "acc" [ 4 ] in
  let i = idx "i" and j = idx "j" in
  nest "subred" ~loops:[ ("i", 4); ("j", 4) ]
    [ at acc [ i ] <-- (acc.%[ [ i ] ] - x.%[ [ j ] ]) ]

let test_pruned_equals_exhaustive () =
  List.iter
    (fun (name, nest) ->
      let space = { example_space with Core.orders = Core.All_orders } in
      let pruned = json space nest in
      let exhaustive = json { space with Core.prune = false } nest in
      Alcotest.(check string) (name ^ ": pruned == exhaustive") exhaustive
        pruned)
    [ ("example", Helpers.example ()); ("subred", subred ()) ]

(* A partially funded group still serves its lowest-ranked accesses from
   registers, so a cycle floor that charged every group no budget could
   fund in full pruned real frontier points: on this BIC the tiled,
   interchanged variant's CPA-RA points at budgets 10, 12 and 16 were
   cut although nothing evaluated dominates them. *)
let test_partial_funding_not_pruned () =
  let nest = Helpers.small_bic () in
  let space =
    {
      Core.default_space with
      Core.orders = Core.All_orders;
      tile_factors = [ 2 ];
      space_budgets = [ 3; 10; 12; 16; 24 ];
      space_algorithms = [ Allocator.Cpa_ra; Allocator.Pr_ra ];
    }
  in
  Alcotest.(check string) "bic: pruned == exhaustive"
    (json { space with Core.prune = false } nest)
    (json space nest)

(* The memoised path shares one CPA-RA allocation per (variant, budget)
   between the CPA-RA point and the certified points, and certifies
   through the simulation memo; the naive path runs and simulates
   everything afresh. Frontiers, certification stamps included, must
   agree whichever algorithm comes first in the ladder. *)
let sharing_spaces base =
  let algorithms l = { base with Core.space_algorithms = l } in
  [
    ("cpa+fr", algorithms [ Allocator.Cpa_ra; Allocator.Fr_ra ]);
    ("cpa+portfolio", algorithms [ Allocator.Cpa_ra; Allocator.Portfolio ]);
    ("portfolio+cpa", algorithms [ Allocator.Portfolio; Allocator.Cpa_ra ]);
    ( "certified cpa+pr",
      {
        (algorithms [ Allocator.Cpa_ra; Allocator.Pr_ra ]) with
        Core.certify = true;
      } );
  ]

let check_memoised_equals_naive ~base (name, nest) =
  List.iter
    (fun (label, space) ->
      let naive = json { space with Core.naive = true; prune = false } nest in
      Alcotest.(check string)
        (Printf.sprintf "%s, %s: memoised == naive" name label)
        naive (json space nest))
    (sharing_spaces base)

(* The fuzz kernels run under a smaller space: identity order, one
   strip-mine factor, four budgets. *)
let test_memoised_equals_naive () =
  List.iter
    (check_memoised_equals_naive ~base:example_space)
    [ ("example", Helpers.example ()); ("bic", Helpers.small_bic ()) ];
  let base =
    {
      example_space with
      Core.orders = Core.Identity_order;
      space_budgets = [ 4; 8; 16; 32 ];
    }
  in
  List.iter
    (fun (id, nest) ->
      check_memoised_equals_naive ~base (Printf.sprintf "gen %d" id, nest))
    (Lazy.force valid_cases)

(* One CPA-RA decision stream per evaluated (variant, budget): the
   CPA-RA point and the portfolio point share one allocation, so a
   traced explore over [cpa-ra; portfolio] opens one engine per ladder
   budget that kept at least one of its two points. A budget whose two
   points were both cut, and every budget of a cut variant, opens none.
   Fuzz case 36 has a variant the floor cuts whole. *)
let test_one_cpa_run_per_budget () =
  let module T = Srfa_util.Trace in
  let space =
    {
      example_space with
      Core.space_algorithms = [ Allocator.Cpa_ra; Allocator.Portfolio ];
      space_budgets = [ 4; 5; 6; 8; 16; 64 ];
    }
  in
  let check (name, nest) (label, space) =
    let sink, events = T.collector () in
    let f = Core.explore ~trace:sink ~space Core.default_config nest in
    let named n = List.filter (fun (e : T.event) -> e.T.name = n) (events ()) in
    let field k (e : T.event) = List.assoc k e.T.fields in
    let s = f.Core.frontier_stats in
    (* ladder points over two algorithms, floors excluded *)
    let pairs =
      (s.Core.points_evaluated + s.Core.points_pruned - s.Core.variants_unique)
      / 2
    in
    let both_cut = Hashtbl.create 16 in
    let cut_pairs =
      List.fold_left
        (fun acc e ->
          match (field "scope" e, field "points" e) with
          | T.String "variant", T.Int points -> acc + (points / 2)
          | _ ->
            let k = (field "variant" e, field "budget" e) in
            if Hashtbl.mem both_cut k then acc + 1
            else begin
              Hashtbl.add both_cut k ();
              acc
            end)
        0 (named "explore.prune")
    in
    Alcotest.(check int)
      (Printf.sprintf "%s, %s: one engine.init per evaluated (variant, budget)"
         name label)
      (pairs - cut_pairs)
      (List.length (named "engine.init"))
  in
  List.iter
    (fun input ->
      List.iter (check input)
        [
          ("pruned", space);
          ("exhaustive", { space with Core.prune = false });
        ])
    [
      ("example", Helpers.example ());
      ("gen 36", List.assoc 36 (Lazy.force valid_cases));
    ]

let test_parallel_equals_serial () =
  let nest = Helpers.example () in
  let serial = json example_space nest in
  Pool.with_pool ~jobs:4 (fun pool ->
      Alcotest.(check string) "jobs=4 == jobs=1" serial
        (json ~pool example_space nest))

(* The trace half of the same contract: each variant's events are
   buffered under a pool and spliced back in variant order. Exhaustive
   spaces only, since which points a pruned run cuts depends on
   scheduling. example_space already strip-mines by 2. *)
let test_parallel_trace_equals_serial () =
  let module T = Srfa_util.Trace in
  let nest = Helpers.example () in
  let events ?pool space =
    let sink, events = T.collector () in
    ignore (Core.explore ~trace:sink ?pool ~space Core.default_config nest);
    List.map T.to_json (events ())
  in
  List.iter
    (fun (label, space) ->
      let space = { space with Core.prune = false } in
      let serial = events space in
      Pool.with_pool ~jobs:4 (fun pool ->
          Alcotest.(check (list string))
            (label ^ ": jobs=4 == jobs=1")
            serial (events ~pool space)))
    [
      ("example space", example_space);
      ("certified", { example_space with Core.certify = true });
    ]

let test_memo_fires_on_saturating_ladder () =
  (* Budgets at and beyond full replacement produce identical entries,
     so one simulation must serve the whole tail of the ladder. *)
  let nest = Helpers.example () in
  let full =
    Srfa_reuse.Analysis.total_registers_full (Srfa_core.Flow.analyze nest)
  in
  let space =
    {
      Core.default_space with
      Core.orders = Core.Identity_order;
      space_budgets = [ full; full + 16; full + 32 ];
      space_algorithms = [ Allocator.Cpa_ra ];
    }
  in
  let f = Core.explore ~space Core.default_config nest in
  Alcotest.(check bool) "memo hits >= 2" true
    (f.Core.frontier_stats.Core.sim_memo_hits >= 2)

let test_nonpermutable_degrades_with_warning () =
  let nest = subred () in
  let space = { Core.default_space with Core.orders = Core.All_orders } in
  let f = Core.explore ~space Core.default_config nest in
  Alcotest.(check bool) "frontier non-empty" true (f.Core.points <> []);
  List.iter
    (fun (p : Core.explore_point) ->
      Alcotest.(check (list int)) "identity order only" [ 0; 1 ] p.Core.order)
    f.Core.points;
  Alcotest.(check bool) "W-GUARD-EXPLORE emitted" true
    (List.exists
       (fun (d : Srfa_util.Diag.t) -> d.Srfa_util.Diag.code = "W-GUARD-EXPLORE")
       f.Core.frontier_warnings)

let test_explicit_illegal_orders_skipped () =
  let nest = subred () in
  let space =
    { Core.default_space with Core.orders = Core.Orders [ [ 1; 0 ] ] }
  in
  let f = Core.explore ~space Core.default_config nest in
  Alcotest.(check int) "illegal order skipped" 1
    f.Core.frontier_stats.Core.orders_skipped;
  Alcotest.(check bool) "identity still evaluated" true (f.Core.points <> [])

let test_order_explorer_degrades () =
  let candidates, warnings =
    Srfa_core.Order_explorer.explore Allocator.Cpa_ra (subred ())
  in
  Alcotest.(check int) "identity candidate only" 1 (List.length candidates);
  Alcotest.(check bool) "W-GUARD-EXPLORE emitted" true
    (List.exists
       (fun (d : Srfa_util.Diag.t) -> d.Srfa_util.Diag.code = "W-GUARD-EXPLORE")
       warnings)

(* One parser reads the CLI's --orders and the daemon's "orders" field.
   Keywords match in any case; a spec that is not all integers is
   rejected, not raised. The rendering is the daemon's frontier-key
   layout. *)
let test_order_spec_strings () =
  let spec =
    Alcotest.(
      option
        (testable
           (fun ppf o ->
             Format.pp_print_string ppf (Core.order_spec_to_string o))
           ( = )))
  in
  List.iter
    (fun (input, expected) ->
      Alcotest.check spec (Printf.sprintf "%S" input) expected
        (Core.order_spec_of_string input))
    [
      ("all", Some Core.All_orders);
      ("ALL", Some Core.All_orders);
      ("identity", Some Core.Identity_order);
      ("id", Some Core.Identity_order);
      ("0,2,1;2,0,1", Some (Core.Orders [ [ 0; 2; 1 ]; [ 2; 0; 1 ] ]));
      (" 1 , 0 ", Some (Core.Orders [ [ 1; 0 ] ]));
      ("0,x", None);
      ("", None);
    ];
  Alcotest.(check (list string))
    "rendering"
    [ "all"; "identity"; "0,2,1|2,0,1" ]
    (List.map Core.order_spec_to_string
       [
         Core.All_orders;
         Core.Identity_order;
         Core.Orders [ [ 0; 2; 1 ]; [ 2; 0; 1 ] ];
       ])

let test_certify_composes () =
  let nest = Helpers.example () in
  let space =
    {
      Core.default_space with
      Core.orders = Core.Identity_order;
      space_budgets = [ 4; 8 ];
      Core.certify = true;
    }
  in
  let f = Core.explore ~space Core.default_config nest in
  List.iter
    (fun (p : Core.explore_point) ->
      if p.Core.floor then
        Alcotest.(check bool)
          "floor points carry no certification" true
          (p.Core.point_cert = None)
      else
        Alcotest.(check bool)
          (Printf.sprintf "point %s@%d certified" p.Core.point_algorithm
             p.Core.point_budget)
          true
          (p.Core.point_cert <> None))
    f.Core.points;
  (* Certification does not break the pruning differential. *)
  let exhaustive =
    Core.explore ~space:{ space with Core.prune = false } Core.default_config
      nest
  in
  Alcotest.(check string) "certified: pruned == exhaustive"
    (Core.frontier_json exhaustive)
    (Core.frontier_json f)

(* Budget 4 sits below the example's feasibility minimum (5), so the
   ladder keeps budget 8 plus the unconditional floor point at the
   minimum itself. Any intentional model change must update this pin
   consciously, like test_goldens. *)
let golden =
  {|{
  "kernel": "example",
  "points": [
    {"label": "untiled | i j k", "order": [0, 1, 2], "loop_vars": ["i", "j", "k"], "budget": 8, "algorithm": "cpa-ra", "floor": false, "cycles": 2919, "registers": 8, "slices": 414, "clock_ns": 45.340, "exec_time_us": 132.347},
    {"label": "untiled | i j k", "order": [0, 1, 2], "loop_vars": ["i", "j", "k"], "budget": 5, "algorithm": "floor", "floor": true, "cycles": 3000, "registers": 5, "slices": 310, "clock_ns": 41.350, "exec_time_us": 124.050}
  ]
}|}

let test_frontier_json_golden () =
  let nest = Helpers.example () in
  let space =
    {
      Core.default_space with
      Core.orders = Core.Identity_order;
      space_budgets = [ 4; 8 ];
      space_algorithms = [ Allocator.Cpa_ra ];
    }
  in
  Alcotest.(check string) "frontier JSON pinned" golden
    (json space nest)

let test_csv_shape () =
  let nest = Helpers.example () in
  let space =
    {
      Core.default_space with
      Core.orders = Core.Identity_order;
      space_budgets = [ 4; 8 ];
      space_algorithms = [ Allocator.Cpa_ra ];
    }
  in
  let f = Core.explore ~space Core.default_config nest in
  let lines =
    String.split_on_char '\n' (String.trim (Core.frontier_csv f))
  in
  Alcotest.(check string) "csv header"
    "kernel,label,order,budget,algorithm,floor,cycles,registers,slices,clock_ns,exec_time_us"
    (List.hd lines);
  Alcotest.(check int) "one row per frontier point"
    (List.length f.Core.points)
    (List.length lines - 1)

let test_compact_json_single_line () =
  let nest = Helpers.example () in
  let f =
    Core.explore
      ~space:{ example_space with Core.orders = Core.Identity_order }
      Core.default_config nest
  in
  let compact = Core.frontier_json ~compact:true f in
  Alcotest.(check bool) "no newlines" false (String.contains compact '\n')

(* Lower-bound soundness. The dominance cuts drop a variant or a ladder
   point when its lower bound is already dominated, so an unsound bound
   would silently lose frontier points on spaces too large to check
   exhaustively. Every evaluated point must sit on or above the bounds
   the explorer prunes with: the area and clock floors, and the cycle
   floor of allocations that give no group more than [b - (n-1)]
   registers. That floor must also stay at or below the floor at the
   feasibility minimum, the ceiling the explorer checks before it
   computes a budget's own floor. Drawn over valid fuzz kernels
   (campaign 42, ids below 1000) x legal orders x an optional factor-2
   strip-mine x budgets x {CPA-RA, portfolio}. *)
let prop_lower_bounds_sound =
  let draw =
    QCheck.Gen.(
      quad
        (int_bound (List.length (Lazy.force valid_cases) - 1))
        (int_bound 1000) (int_bound 1000)
        (oneofl [ 0; 1; 3; 8; 24; 64; 120 ]))
  in
  let print (k, tile, order, extra) =
    Printf.sprintf "gen case %d, tile pick %d, order pick %d, budget min+%d"
      (fst (List.nth (Lazy.force valid_cases) k))
      tile order extra
  in
  QCheck.Test.make ~name:"explorer lower bounds are sound" ~count:400
    (QCheck.make ~print draw)
    (fun (k, tile, order, extra) ->
      let _, base = List.nth (Lazy.force valid_cases) k in
      let tilings = Tile.steps base ~factors:[ 2 ] in
      let nest =
        match List.nth_opt tilings (tile mod (1 + List.length tilings)) with
        | Some (level, factor) -> Tile.tile base ~level ~factor
        | None -> base
      in
      let orders, _ = Permute.legal_orders nest in
      let order = List.nth orders (order mod List.length orders) in
      let nest =
        (* A non-permutable nest has only the identity, which
           [interchange] rejects. *)
        if order = List.init (Nest.depth nest) Fun.id then nest
        else Permute.interchange nest ~order
      in
      let prepared = Core.prepare nest in
      let analysis = prepared.Core.analysis in
      let n = prepared.Core.minimum in
      let budget = n + extra in
      let config = { Core.default_config with Core.budget } in
      let sim = config.Core.sim in
      let sim_scratch = Core.scratch ~config prepared in
      let cycles_lb =
        Srfa_sched.Simulator.cycles_floor ~config:sim sim_scratch
          ~beta_max:(budget - (n - 1))
      in
      let ceiling =
        Srfa_sched.Simulator.cycles_floor ~config:sim sim_scratch ~beta_max:1
      in
      if cycles_lb > ceiling then
        QCheck.Test.fail_reportf
          "budget %d: cycle floor %d above the floor %d at the minimum"
          budget cycles_lb ceiling;
      let slices_lb =
        Srfa_estimate.Area.lower_bound
          ~device:sim.Srfa_sched.Simulator.device analysis
      in
      let clock_lb =
        Srfa_estimate.Clock.lower_bound ~params:config.Core.clock_params
          ~min_registers:n ~depth:(Nest.depth nest) ()
      in
      List.for_all
        (fun algorithm ->
          let r =
            Core.evaluate_analysis ~prepared:prepared.Core.cpa ~sim_scratch
              config algorithm prepared.Core.analysis
          in
          let ok =
            slices_lb <= r.Srfa_estimate.Report.slices
            && clock_lb <= r.Srfa_estimate.Report.clock_ns
            && cycles_lb <= r.Srfa_estimate.Report.cycles
          in
          if not ok then
            QCheck.Test.fail_reportf
              "%s at budget %d: slices %d (floor %d), clock %.3f (floor \
               %.3f), cycles %d (floor %d)"
              (Allocator.name algorithm) budget r.Srfa_estimate.Report.slices
              slices_lb r.Srfa_estimate.Report.clock_ns clock_lb
              r.Srfa_estimate.Report.cycles cycles_lb;
          ok)
        [ Allocator.Cpa_ra; Allocator.Portfolio ])

let () =
  Alcotest.run "explore"
    [
      ( "differential",
        [
          Alcotest.test_case "pruned == exhaustive" `Quick
            test_pruned_equals_exhaustive;
          Alcotest.test_case "partially funded points survive pruning" `Quick
            test_partial_funding_not_pruned;
          Alcotest.test_case "memoised == naive" `Quick
            test_memoised_equals_naive;
          Alcotest.test_case "jobs=4 == jobs=1" `Quick
            test_parallel_equals_serial;
          Alcotest.test_case "traced jobs=4 == jobs=1" `Quick
            test_parallel_trace_equals_serial;
        ] );
      ( "perf layers",
        [
          Alcotest.test_case "memo fires when the ladder saturates" `Quick
            test_memo_fires_on_saturating_ladder;
          Alcotest.test_case "one CPA-RA run per (variant, budget)" `Quick
            test_one_cpa_run_per_budget;
        ] );
      ( "guards",
        [
          Alcotest.test_case "non-permutable degrades with W-GUARD-EXPLORE"
            `Quick test_nonpermutable_degrades_with_warning;
          Alcotest.test_case "explicit illegal orders skipped" `Quick
            test_explicit_illegal_orders_skipped;
          Alcotest.test_case "Order_explorer degrades without raising" `Quick
            test_order_explorer_degrades;
          Alcotest.test_case "order spec strings" `Quick
            test_order_spec_strings;
        ] );
      ( "bounds",
        List.map QCheck_alcotest.to_alcotest [ prop_lower_bounds_sound ] );
      ( "composition",
        [
          Alcotest.test_case "certify composes" `Quick test_certify_composes;
          Alcotest.test_case "frontier JSON golden" `Quick
            test_frontier_json_golden;
          Alcotest.test_case "CSV shape" `Quick test_csv_shape;
          Alcotest.test_case "compact JSON is one line" `Quick
            test_compact_json_single_line;
        ] );
    ]
