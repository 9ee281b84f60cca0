(* The Trace event layer and the Flow.sweep batch driver. *)

open Srfa_test_helpers
module Trace = Srfa_util.Trace
module Flow = Srfa_core.Flow
module Allocator = Srfa_core.Allocator
module Report = Srfa_estimate.Report

(* ------------------------------------------------------------- trace *)

let test_null_sink_is_free () =
  Alcotest.(check bool) "null disabled" false (Trace.enabled Trace.null);
  let forced = ref false in
  Trace.emit Trace.null (fun () ->
      forced := true;
      Trace.event "boom" []);
  Alcotest.(check bool) "thunk never forced on null" false !forced;
  let sink, _ = Trace.collector () in
  Alcotest.(check bool) "collector enabled" true (Trace.enabled sink)

let test_collector_order () =
  let sink, events = Trace.collector () in
  Trace.emit sink (fun () -> Trace.event "a" []);
  Trace.emit sink (fun () -> Trace.event "b" [ ("x", Trace.Int 1) ]);
  Trace.emit sink (fun () -> Trace.event "a" []);
  Alcotest.(check (list string)) "emission order" [ "a"; "b"; "a" ]
    (List.map (fun (e : Trace.event) -> e.Trace.name) (events ()))

let test_to_json () =
  let e =
    Trace.event "cut.flow"
      [
        ("ok", Trace.Bool true);
        ("n", Trace.Int 42);
        ("share", Trace.Float 0.5);
        ("who", Trace.String "a[k] \"quoted\"\n");
        ("cut", Trace.List [ Trace.String "a"; Trace.Int 2 ]);
      ]
  in
  Alcotest.(check string) "rendering"
    "{\"event\": \"cut.flow\", \"ok\": true, \"n\": 42, \"share\": 0.5, \
     \"who\": \"a[k] \\\"quoted\\\"\\n\", \"cut\": [\"a\", 2]}"
    (Trace.to_json e);
  Alcotest.(check string) "non-finite floats are null"
    "{\"event\": \"e\", \"x\": null}"
    (Trace.to_json (Trace.event "e" [ ("x", Trace.Float nan) ]))

let test_summary () =
  Alcotest.(check string) "empty" "no events" (Trace.summary []);
  let es = [ Trace.event "a" []; Trace.event "b" []; Trace.event "a" [] ] in
  Alcotest.(check string) "counted in first-appearance order"
    "3 events: 2 a, 1 b" (Trace.summary es)

(* Every allocation round of CPA-RA on the Fig. 2 example must leave at
   least one event in the trace (acceptance criterion for the JSONL CLI
   path: one line per round, plus init/finalize bookkeeping). *)
let test_events_per_round () =
  let an = Helpers.analyze (Helpers.example ()) in
  let sink, events = Trace.collector () in
  let _alloc, steps =
    Srfa_core.Cpa_ra.allocate_traced ~trace:sink an ~budget:64
  in
  let events = events () in
  let count name =
    List.length
      (List.filter (fun (e : Trace.event) -> e.Trace.name = name) events)
  in
  Alcotest.(check bool) "at least one round" true (List.length steps > 0);
  Alcotest.(check int) "one round event per trace step" (List.length steps)
    (count "round");
  Alcotest.(check int) "one flow query per round" (List.length steps)
    (count "cut.flow");
  Alcotest.(check bool) "assignments traced" true
    (count "assign.full" + count "assign.partial" > 0);
  Alcotest.(check int) "init and finalize" 2
    (count "engine.init" + count "engine.finalize");
  (* Each line of the JSONL rendering is one non-empty object. *)
  List.iter
    (fun (e : Trace.event) ->
      let line = Trace.to_json e in
      Alcotest.(check bool) "object shape" true
        (String.length line > 2
        && line.[0] = '{'
        && line.[String.length line - 1] = '}'
        && not (String.contains line '\n')))
    events

(* ------------------------------------------------------------- sweep *)

let test_sweep_matches_evaluate () =
  let nest = Helpers.small_fir () in
  let points =
    Flow.sweep ~budgets:[ 8; 64 ]
      ~algorithms:[ Allocator.Fr_ra; Allocator.Cpa_ra ]
      [ ("fir", nest) ]
  in
  Alcotest.(check int) "2 budgets x 2 algorithms" 4 (List.length points);
  List.iter
    (fun (p : Flow.sweep_point) ->
      let config = { Flow.default_config with Flow.budget = p.Flow.budget } in
      let direct =
        Flow.evaluate_analysis config p.Flow.algorithm (Flow.analyze nest)
      in
      Alcotest.(check int)
        (Printf.sprintf "cycles at b=%d agree with evaluate" p.Flow.budget)
        direct.Report.cycles p.Flow.report.Report.cycles;
      Alcotest.(check int) "registers agree" direct.Report.total_registers
        p.Flow.report.Report.total_registers)
    points

let test_sweep_skips_infeasible () =
  let nest = Helpers.example () in
  (* The example has 5 reference groups: budget 3 is infeasible and must
     be skipped, not raise. *)
  let points =
    Flow.sweep ~budgets:[ 3; 64 ] ~algorithms:[ Allocator.Cpa_ra ]
      [ ("example", nest) ]
  in
  Alcotest.(check (list int)) "only the feasible budget survives" [ 64 ]
    (List.map (fun p -> p.Flow.budget) points)

let test_sweep_order_and_goldens () =
  let points =
    Flow.sweep ~budgets:[ 64 ] [ ("example", Helpers.example ()) ]
  in
  Alcotest.(check (list string)) "algorithm order"
    (List.map Allocator.name Allocator.all)
    (List.map (fun p -> Allocator.name p.Flow.algorithm) points);
  let mem alg =
    let p = List.find (fun p -> p.Flow.algorithm = alg) points in
    p.Flow.report.Report.memory_cycles
  in
  (* Fig. 2: the three paper algorithms at budget 64. *)
  Alcotest.(check int) "fr-ra 1800" 1800 (mem Allocator.Fr_ra);
  Alcotest.(check int) "pr-ra 1560" 1560 (mem Allocator.Pr_ra);
  Alcotest.(check int) "cpa-ra 1184" 1184 (mem Allocator.Cpa_ra)

let test_sweep_trace_and_summary () =
  let sink, events = Trace.collector () in
  let points =
    Flow.sweep ~trace:sink ~budgets:[ 64 ] ~algorithms:[ Allocator.Cpa_ra ]
      [ ("example", Helpers.example ()) ]
  in
  Alcotest.(check bool) "sweep forwards events" true (events () <> []);
  List.iter
    (fun (p : Flow.sweep_point) ->
      match p.Flow.report.Report.trace_summary with
      | Some s ->
        Alcotest.(check bool) "summary mentions events" true
          (Helpers.contains_substring s "events")
      | None -> Alcotest.fail "sweep report lacks a trace summary")
    points

let () =
  Alcotest.run "trace-and-sweep"
    [
      ( "trace",
        [
          Alcotest.test_case "null sink is free" `Quick test_null_sink_is_free;
          Alcotest.test_case "collector order" `Quick test_collector_order;
          Alcotest.test_case "to_json" `Quick test_to_json;
          Alcotest.test_case "summary" `Quick test_summary;
          Alcotest.test_case "events per round (fig2)" `Quick
            test_events_per_round;
        ] );
      ( "sweep",
        [
          Alcotest.test_case "matches evaluate" `Quick
            test_sweep_matches_evaluate;
          Alcotest.test_case "skips infeasible budgets" `Quick
            test_sweep_skips_infeasible;
          Alcotest.test_case "order and fig2 goldens" `Quick
            test_sweep_order_and_goldens;
          Alcotest.test_case "trace forwarding and summaries" `Quick
            test_sweep_trace_and_summary;
        ] );
    ]
