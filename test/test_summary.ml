open Srfa_test_helpers
module Summary = Srfa_estimate.Summary
module Report = Srfa_estimate.Report
module Flow = Srfa_core.Flow

let test_means () =
  Alcotest.(check (float 1e-9)) "arithmetic" 2.0
    (Summary.arithmetic_mean [ 1.0; 2.0; 3.0 ]);
  Alcotest.(check (float 1e-9)) "geometric" 2.0
    (Summary.geometric_mean [ 1.0; 2.0; 4.0 ] *. 1.0);
  Alcotest.(check bool) "empty arithmetic rejected" true
    (try
       ignore (Summary.arithmetic_mean []);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "non-positive geometric rejected" true
    (try
       ignore (Summary.geometric_mean [ 1.0; 0.0 ]);
       false
     with Invalid_argument _ -> true)

let per_kernel () =
  List.map
    (fun (_, nest) -> Flow.evaluate_all nest)
    [ ("fir", Helpers.small_fir ()); ("mat", Helpers.small_mat ()) ]

let test_of_reports () =
  let s = Summary.of_reports ~version:"v3" (per_kernel ()) in
  Alcotest.(check int) "two kernels" 2 s.Summary.kernels;
  Alcotest.(check string) "version" "v3" s.Summary.version;
  Alcotest.(check bool) "cycle reduction non-negative" true
    (s.Summary.mean_cycle_reduction_pct >= 0.0);
  Alcotest.(check bool) "wins within range" true
    (s.Summary.wins >= 0 && s.Summary.wins <= 2)

let test_base_summary_is_identity () =
  let s = Summary.of_reports ~version:"v1" (per_kernel ()) in
  Alcotest.(check (float 1e-9)) "no cycle reduction vs itself" 0.0
    s.Summary.mean_cycle_reduction_pct;
  Alcotest.(check (float 1e-9)) "geomean speedup 1" 1.0
    s.Summary.geomean_speedup;
  Alcotest.(check int) "no strict wins" 0 s.Summary.wins

let test_missing_version_rejected () =
  Alcotest.(check bool) "unknown version" true
    (try
       ignore (Summary.of_reports ~version:"v9" (per_kernel ()));
       false
     with Invalid_argument _ -> true)

(* Smoke tests of the pretty printers across the code base: they must
   produce non-empty output mentioning the obvious identifiers. *)
let test_printers () =
  let an = Helpers.analyze (Helpers.example ()) in
  let alloc = Srfa_core.Allocator.run Srfa_core.Allocator.Cpa_ra an ~budget:64 in
  let mentions text needle =
    Alcotest.(check bool)
      (Printf.sprintf "%S in output" needle)
      true
      (Helpers.contains_substring text needle)
  in
  mentions (Format.asprintf "%a" Srfa_reuse.Allocation.pp alloc) "cpa-ra";
  let sim = Srfa_sched.Simulator.run alloc in
  mentions (Format.asprintf "%a" Srfa_sched.Simulator.pp_result sim) "memory";
  let report =
    Report.of_result ~sim_config:Srfa_sched.Simulator.default_config
      ~version:"v3" alloc sim
  in
  mentions (Format.asprintf "%a" Report.pp report) "example";
  let s = Summary.of_reports ~version:"v3" (per_kernel ()) in
  mentions (Format.asprintf "%a" Summary.pp s) "geomean";
  mentions
    (Format.asprintf "%a" Srfa_hw.Device.pp Srfa_hw.Device.xcv1000)
    "XCV1000";
  let ram_map =
    Srfa_hw.Ram_map.build Srfa_hw.Device.xcv1000
      (Helpers.example ()).Srfa_ir.Nest.arrays
  in
  mentions (Format.asprintf "%a" Srfa_hw.Ram_map.pp ram_map) "bank";
  let dfg = Srfa_dfg.Graph.build an in
  mentions (Format.asprintf "%a" Srfa_dfg.Graph.pp dfg) "mul";
  let area =
    Srfa_estimate.Area.estimate ~device:Srfa_hw.Device.xcv1000 ~ram_arrays:5
      alloc
  in
  mentions (Format.asprintf "%a" Srfa_estimate.Area.pp area) "registers"

let () =
  Alcotest.run "summary"
    [
      ( "statistics",
        [
          Alcotest.test_case "means" `Quick test_means;
          Alcotest.test_case "of_reports" `Quick test_of_reports;
          Alcotest.test_case "base identity" `Quick
            test_base_summary_is_identity;
          Alcotest.test_case "missing version" `Quick
            test_missing_version_rejected;
        ] );
      ("printers", [ Alcotest.test_case "smoke" `Quick test_printers ]);
    ]
