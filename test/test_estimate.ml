open Srfa_test_helpers
module Area = Srfa_estimate.Area
module Clock = Srfa_estimate.Clock
module Report = Srfa_estimate.Report

let device = Srfa_hw.Device.xcv1000

let alloc_with_budget budget =
  let an = Helpers.analyze (Helpers.example ()) in
  Srfa_core.Allocator.run Srfa_core.Allocator.Cpa_ra an ~budget

(* [alloc]'s report under the default simulator. *)
let report_of ~version alloc =
  let module Simulator = Srfa_sched.Simulator in
  Report.of_result ~sim_config:Simulator.default_config ~version alloc
    (Simulator.run alloc)

let test_area_breakdown_consistent () =
  let alloc = alloc_with_budget 64 in
  let b = Area.estimate ~device ~ram_arrays:5 alloc in
  Alcotest.(check int) "total is the sum"
    (b.Area.datapath + b.Area.registers + b.Area.control + b.Area.address_gen)
    b.Area.total;
  Alcotest.(check bool) "all parts positive" true
    (b.Area.datapath > 0 && b.Area.registers > 0 && b.Area.control > 0
   && b.Area.address_gen > 0)

let test_area_registers_monotonic () =
  let small = Area.estimate ~device ~ram_arrays:5 (alloc_with_budget 8) in
  let large = Area.estimate ~device ~ram_arrays:5 (alloc_with_budget 64) in
  Alcotest.(check bool) "more registers, more slices" true
    (large.Area.registers > small.Area.registers)

let test_area_utilization () =
  let b = Area.estimate ~device ~ram_arrays:5 (alloc_with_budget 64) in
  let u = Area.utilization ~device b in
  Alcotest.(check bool) "utilization in (0,1) for this design" true
    (u > 0.0 && u < 1.0)

let test_clock_monotonic_in_registers () =
  Alcotest.(check bool) "more registers, slower clock" true
    (Clock.period_ns (alloc_with_budget 64)
    > Clock.period_ns (alloc_with_budget 8))

let test_clock_frequency_inverse () =
  let alloc = alloc_with_budget 64 in
  Alcotest.(check (float 0.001)) "f = 1000/T"
    (1000.0 /. Clock.period_ns alloc)
    (Clock.frequency_mhz alloc)

let test_clock_params_override () =
  let alloc = alloc_with_budget 64 in
  let params = { Clock.default_params with Clock.base_ns = 100.0 } in
  Alcotest.(check bool) "base dominates" true
    (Clock.period_ns ~params alloc > 100.0)

let test_report_consistency () =
  let alloc = alloc_with_budget 64 in
  let r = report_of ~version:"v3" alloc in
  Alcotest.(check string) "kernel name" "example" r.Report.kernel;
  Alcotest.(check string) "algorithm" "cpa-ra" r.Report.algorithm;
  Alcotest.(check int) "registers" 64 r.Report.total_registers;
  Alcotest.(check (float 0.01)) "time = cycles * clock / 1000"
    (float_of_int r.Report.cycles *. r.Report.clock_ns /. 1000.0)
    r.Report.exec_time_us;
  Alcotest.(check int) "five required entries" 5
    (List.length r.Report.required);
  Alcotest.(check int) "five allocated entries" 5
    (List.length r.Report.allocated);
  Alcotest.(check bool) "rams positive" true (r.Report.rams > 0)

let test_speedup_identities () =
  let alloc = alloc_with_budget 64 in
  let r = report_of ~version:"v3" alloc in
  Alcotest.(check (float 0.0001)) "self speedup" 1.0 (Report.speedup ~base:r r);
  Alcotest.(check (float 0.0001)) "self cycle reduction" 0.0
    (Report.cycle_reduction_pct ~base:r r);
  Alcotest.(check (float 0.0001)) "self clock degradation" 0.0
    (Report.clock_degradation_pct ~base:r r)

let test_report_vs_paper_shape () =
  (* v3 must beat v1 in cycles on the example, with a modest clock
     penalty, netting a wall-clock win: the paper's headline behaviour. *)
  let an = Helpers.analyze (Helpers.example ()) in
  let report alg v =
    report_of ~version:v (Srfa_core.Allocator.run alg an ~budget:64)
  in
  let v1 = report Srfa_core.Allocator.Fr_ra "v1" in
  let v3 = report Srfa_core.Allocator.Cpa_ra "v3" in
  Alcotest.(check bool) "cycle win" true (v3.Report.cycles < v1.Report.cycles);
  Alcotest.(check bool) "clock penalty positive but small" true
    (let d = Report.clock_degradation_pct ~base:v1 v3 in
     d > 0.0 && d < 15.0);
  Alcotest.(check bool) "net wall-clock win" true
    (Report.speedup ~base:v1 v3 > 1.0)

let () =
  Alcotest.run "estimate"
    [
      ( "area",
        [
          Alcotest.test_case "breakdown consistent" `Quick
            test_area_breakdown_consistent;
          Alcotest.test_case "monotonic in registers" `Quick
            test_area_registers_monotonic;
          Alcotest.test_case "utilization" `Quick test_area_utilization;
        ] );
      ( "clock",
        [
          Alcotest.test_case "monotonic in registers" `Quick
            test_clock_monotonic_in_registers;
          Alcotest.test_case "frequency inverse" `Quick
            test_clock_frequency_inverse;
          Alcotest.test_case "params override" `Quick
            test_clock_params_override;
        ] );
      ( "report",
        [
          Alcotest.test_case "consistency" `Quick test_report_consistency;
          Alcotest.test_case "speedup identities" `Quick
            test_speedup_identities;
          Alcotest.test_case "paper shape on the example" `Quick
            test_report_vs_paper_shape;
        ] );
    ]
