(* End-to-end coverage of Flow's entry points (the functions behind the
   CLI and the bench harness). *)

open Srfa_test_helpers
module Flow = Srfa_core.Flow
module Report = Srfa_estimate.Report

let small_config budget =
  { Flow.default_config with Flow.budget }

let test_evaluate_all_versions () =
  let nest = Helpers.small_fir () in
  let reports = Flow.evaluate_all ~config:(small_config 10) nest in
  Alcotest.(check int) "all algorithms by default" 6 (List.length reports);
  Alcotest.(check (list string)) "labels"
    [ "v1"; "v2"; "v3"; "v3+"; "ks"; "pf" ]
    (List.map (fun r -> r.Report.version) reports);
  List.iter
    (fun r ->
      Alcotest.(check bool)
        (r.Report.version ^ " carries a trace summary")
        true
        (match r.Report.trace_summary with
        | Some s -> String.length s > 0
        | None -> false))
    reports

let test_evaluate_consistent_with_parts () =
  let nest = Helpers.small_mat () in
  let config = small_config 12 in
  let analysis = Flow.analyze nest in
  let _, direct =
    Flow.evaluate_analysis config Srfa_core.Allocator.Cpa_ra analysis
  in
  let alloc = Flow.allocation ~config Srfa_core.Allocator.Cpa_ra analysis in
  let sim = Srfa_sched.Simulator.run ~config:config.Flow.sim alloc in
  Alcotest.(check int) "cycles agree" sim.Srfa_sched.Simulator.total_cycles
    direct.Report.cycles

(* The design-point step against its parts, over the registry kernels
   under every algorithm at budgets 16 and 64 (where feasible): its
   allocation is Flow.allocation's, and its report is Report.of_result
   of a fresh simulation of that allocation, whichever certification
   path a portfolio point took. Both paths occur; the example at 64
   takes the slow one, whose simulation the step reuses. *)
let test_step_matches_parts () =
  let module Allocation = Srfa_reuse.Allocation in
  let module Allocator = Srfa_core.Allocator in
  let module Simulator = Srfa_sched.Simulator in
  let module Trace = Srfa_util.Trace in
  let entries (a : Allocation.t) =
    ( a.Allocation.algorithm,
      Array.init
        (Srfa_reuse.Analysis.num_groups a.Allocation.analysis)
        (Allocation.entry a) )
  in
  let slow = ref [] and fast = ref 0 in
  List.iter
    (fun name ->
      let analysis = Flow.analyze (Option.get (Srfa_kernels.Kernels.find name)) in
      List.iter
        (fun budget ->
          let config = small_config budget in
          List.iter
            (fun algorithm ->
              let label =
                Printf.sprintf "%s/%s/%d" name (Allocator.name algorithm) budget
              in
              let sink, events = Trace.collector () in
              let alloc, report =
                Flow.evaluate_analysis ~trace:sink config algorithm analysis
              in
              Alcotest.(check bool) (label ^ ": allocation") true
                (entries alloc
                = entries (Flow.allocation ~config algorithm analysis));
              let fresh =
                Report.of_result ~clock_params:config.Flow.clock_params
                  ?trace_summary:report.Report.trace_summary
                  ~sim_config:config.Flow.sim ~version:report.Report.version
                  alloc
                  (Simulator.run ~config:config.Flow.sim alloc)
              in
              Alcotest.(check bool) (label ^ ": report") true (report = fresh);
              if algorithm = Allocator.Portfolio then
                if
                  List.exists
                    (fun (e : Trace.event) -> e.Trace.name = "certify.compare")
                    (events ())
                then slow := (name, budget) :: !slow
                else incr fast)
            Allocator.all)
        (List.filter
           (fun b -> b >= Srfa_core.Ordering.feasibility_minimum analysis)
           [ 16; 64 ]))
    Srfa_kernels.Kernels.names;
  Alcotest.(check int) "registry kernels" 11
    (List.length Srfa_kernels.Kernels.names);
  Alcotest.(check bool) "some point certifies on the fast path" true (!fast > 0);
  Alcotest.(check bool) "the example at 64 takes the slow path" true
    (List.mem ("example", 64) !slow)

let test_custom_algorithms () =
  let nest = Helpers.small_pat () in
  let reports =
    Flow.evaluate_all ~config:(small_config 12)
      ~algorithms:Srfa_core.Allocator.all nest
  in
  Alcotest.(check int) "six algorithms" 6 (List.length reports)

let test_default_budget_is_paper () =
  Alcotest.(check int) "64 registers" 64 Flow.default_config.Flow.budget

let test_texttable_render () =
  let open Srfa_util.Texttable in
  let t = create ~headers:[ ("name", Left); ("value", Right) ] in
  add_row t [ "alpha"; "1" ];
  add_separator t;
  add_row t [ "b"; "22" ];
  let text = render t in
  Alcotest.(check bool) "header present" true
    (Helpers.contains_substring text "name");
  Alcotest.(check bool) "right aligned value" true
    (Helpers.contains_substring text " 1\n");
  Alcotest.(check bool)
    "over-wide row rejected" true
    (try
       add_row t [ "a"; "b"; "c" ];
       false
     with Invalid_argument _ -> true)

let test_toposort () =
  let succs = function 0 -> [ 1; 2 ] | 1 -> [ 3 ] | 2 -> [ 3 ] | _ -> [] in
  let order = Srfa_util.Toposort.sort ~n:4 ~succs in
  let pos x = Option.get (List.find_index (fun y -> y = x) order) in
  Alcotest.(check bool) "edges respected" true
    (pos 0 < pos 1 && pos 0 < pos 2 && pos 1 < pos 3 && pos 2 < pos 3);
  let levels = Srfa_util.Toposort.levels ~n:4 ~succs in
  Alcotest.(check (array int)) "levels" [| 0; 1; 1; 2 |] levels;
  Alcotest.(check bool)
    "cycle detected" true
    (try
       ignore (Srfa_util.Toposort.sort ~n:2 ~succs:(fun _ -> [ 0; 1 ]));
       false
     with Srfa_util.Toposort.Cycle _ -> true);
  let reach = Srfa_util.Toposort.reachable ~n:4 ~succs [ 1 ] in
  Alcotest.(check (array bool)) "reachable from 1"
    [| false; true; false; true |] reach

let test_prng_determinism () =
  let a = Srfa_util.Prng.create ~seed:42 in
  let b = Srfa_util.Prng.create ~seed:42 in
  let seq g = List.init 20 (fun _ -> Srfa_util.Prng.int g 1000) in
  Alcotest.(check (list int)) "same seed, same stream" (seq a) (seq b);
  let c = Srfa_util.Prng.create ~seed:43 in
  Alcotest.(check bool) "different seed differs" true (seq a <> seq c);
  let g = Srfa_util.Prng.create ~seed:7 in
  for _ = 1 to 100 do
    let v = Srfa_util.Prng.int g 10 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 10)
  done;
  Alcotest.(check bool)
    "non-positive bound rejected" true
    (try
       ignore (Srfa_util.Prng.int g 0);
       false
     with Invalid_argument _ -> true)

let () =
  Alcotest.run "flow-and-util"
    [
      ( "flow",
        [
          Alcotest.test_case "evaluate_all" `Quick test_evaluate_all_versions;
          Alcotest.test_case "consistent with parts" `Quick
            test_evaluate_consistent_with_parts;
          Alcotest.test_case "the step matches its parts" `Quick
            test_step_matches_parts;
          Alcotest.test_case "custom algorithms" `Quick test_custom_algorithms;
          Alcotest.test_case "paper budget default" `Quick
            test_default_budget_is_paper;
        ] );
      ( "util",
        [
          Alcotest.test_case "texttable" `Quick test_texttable_render;
          Alcotest.test_case "toposort" `Quick test_toposort;
          Alcotest.test_case "prng" `Quick test_prng_determinism;
        ] );
    ]
