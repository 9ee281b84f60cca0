(* Certification-layer guarantees, as tests:

   - the certified portfolio never simulates worse than FR-RA or PR-RA at
     the same budget (the never-worse contract, Certify);
   - through Flow.sweep it is additionally budget-monotonic: more
     registers never cost more cycles (the carry-forward rule);
   - repair passes reopen the candidate via Engine.of_allocation and must
     not leak mutations into the Cpa_ra.prepare scratch shared across a
     sweep's budget points. *)

open Srfa_reuse
open Srfa_test_helpers
module Allocator = Srfa_core.Allocator
module Certify = Srfa_core.Certify
module Cpa_ra = Srfa_core.Cpa_ra
module Flow = Srfa_core.Flow
module Report = Srfa_estimate.Report
module Simulator = Srfa_sched.Simulator

let budgets = [ 8; 16; 32; 64; 128 ]

let feasible an budget = budget >= Srfa_core.Ordering.feasibility_minimum an

let cycles alloc = (Simulator.run alloc).Simulator.total_cycles

(* Every kernel in lib/kernels, swept over the standard budgets with the
   certified portfolio: cycles must be non-increasing in the budget. *)
let test_sweep_monotonic () =
  let points =
    Flow.sweep ~algorithms:[ Allocator.Portfolio ] ~budgets
      (Srfa_kernels.Kernels.all ())
  in
  Alcotest.(check bool) "sweep produced points" true (points <> []);
  let by_kernel = Hashtbl.create 8 in
  List.iter
    (fun (p : Flow.sweep_point) ->
      let prev =
        try Hashtbl.find by_kernel p.Flow.kernel with Not_found -> []
      in
      Hashtbl.replace by_kernel p.Flow.kernel
        ((p.Flow.budget, p.Flow.report.Report.cycles) :: prev))
    points;
  Hashtbl.iter
    (fun kernel pts ->
      let pts = List.sort compare pts in
      ignore
        (List.fold_left
           (fun prev (budget, c) ->
             (match prev with
             | Some (pb, pc) ->
               Alcotest.(check bool)
                 (Printf.sprintf "%s: cycles at %d regs (%d) <= at %d (%d)"
                    kernel budget c pb pc)
                 true (c <= pc)
             | None -> ());
             Some (budget, c))
           None pts))
    by_kernel

let entries alloc =
  Array.init
    (Analysis.num_groups alloc.Allocation.analysis)
    (Allocation.entry alloc)

(* The never-worse contract itself, checked against fresh greedy runs.
   Certifying through a simulation memo (as the explorer does, with the
   candidate and baselines already simulated) must not change the
   outcome. *)
let test_never_worse_than_baselines () =
  let memo_lookups = ref 0 in
  List.iter
    (fun (name, nest) ->
      let an = Helpers.analyze nest in
      List.iter
        (fun budget ->
          if feasible an budget then begin
            let run alg = Allocator.run alg an ~budget in
            let bar =
              min (cycles (run Allocator.Fr_ra)) (cycles (run Allocator.Pr_ra))
            in
            Alcotest.(check bool)
              (Printf.sprintf "%s @ %d: portfolio <= best greedy" name budget)
              true
              (cycles (run Allocator.Portfolio) <= bar);
            let candidate = run Allocator.Cpa_ra in
            let memo = Hashtbl.create 8 in
            let simulate alloc =
              let key = entries alloc in
              match Hashtbl.find_opt memo key with
              | Some sim -> sim
              | None ->
                let sim = Simulator.run alloc in
                Hashtbl.add memo key sim;
                sim
            in
            List.iter
              (fun alg -> ignore (simulate (run alg)))
              [ Allocator.Cpa_ra; Allocator.Fr_ra; Allocator.Pr_ra ];
            let plain = Certify.certify candidate in
            let memoised =
              Certify.certify
                ~simulate:(fun alloc ->
                  incr memo_lookups;
                  simulate alloc)
                candidate
            in
            let label what =
              Printf.sprintf "%s @ %d: memoised certification, same %s" name
                budget what
            in
            Alcotest.(check bool) (label "entries") true
              (entries plain.Certify.allocation
              = entries memoised.Certify.allocation);
            Alcotest.(check bool) (label "comparison") true
              (plain.Certify.comparison = memoised.Certify.comparison);
            Alcotest.(check bool) (label "repaired") plain.Certify.repaired
              memoised.Certify.repaired;
            Alcotest.(check (option string)) (label "adopted")
              plain.Certify.adopted memoised.Certify.adopted;
            Alcotest.(check (option int)) (label "cycles")
              (Option.map (fun s -> s.Simulator.total_cycles) plain.Certify.sim)
              (Option.map
                 (fun s -> s.Simulator.total_cycles)
                 memoised.Certify.sim)
          end)
        budgets)
    (Helpers.small_kernels ());
  Alcotest.(check bool) "some certification simulated through the memo" true
    (!memo_lookups > 0)

(* Certified allocations carry the portfolio provenance label, and the
   dominance fast path really skips the simulator. *)
let test_outcome_shape () =
  let an = Helpers.analyze (Helpers.example ()) in
  let outcome = Allocator.run_portfolio an ~budget:64 in
  Alcotest.(check string) "label" Certify.algorithm_name
    outcome.Certify.allocation.Allocation.algorithm;
  (match outcome.Certify.comparison with
  | Certify.Dominates ->
    Alcotest.(check bool) "dominance path has no simulation" true
      (outcome.Certify.sim = None)
  | Certify.Simulated { candidate_cycles = _; bar_cycles } ->
    (match outcome.Certify.sim with
    | Some sim ->
      Alcotest.(check bool) "certified <= bar" true
        (sim.Simulator.total_cycles <= bar_cycles)
    | None -> Alcotest.fail "simulated path must return its simulation"));
  Alcotest.(check bool) "within budget" true
    (Allocation.total_registers outcome.Certify.allocation <= 64)

(* Repair passes must not corrupt the Cpa_ra.prepare scratch shared
   across budget points: running the portfolio over a shared [prepared]
   must match fresh-scratch runs entry for entry. *)
let test_prepared_state_no_leak () =
  List.iter
    (fun (name, nest) ->
      let an = Helpers.analyze nest in
      let shared = Cpa_ra.prepare an in
      List.iter
        (fun budget ->
          if feasible an budget then begin
            let with_shared =
              Allocator.run ~prepared:shared Allocator.Portfolio an ~budget
            in
            let with_fresh =
              Allocator.run ~prepared:(Cpa_ra.prepare an) Allocator.Portfolio
                an ~budget
            in
            for gid = 0 to Analysis.num_groups an - 1 do
              Alcotest.(check bool)
                (Printf.sprintf "%s @ %d: entry %d identical" name budget gid)
                true
                (Allocation.entry with_shared gid
                = Allocation.entry with_fresh gid)
            done
          end)
        budgets)
    (Helpers.small_kernels ())

let () =
  Alcotest.run "certify"
    [
      ( "portfolio",
        [
          Alcotest.test_case "sweep is budget-monotonic" `Quick
            test_sweep_monotonic;
          Alcotest.test_case "never worse than greedy baselines" `Quick
            test_never_worse_than_baselines;
          Alcotest.test_case "outcome shape" `Quick test_outcome_shape;
          Alcotest.test_case "prepared scratch does not leak" `Quick
            test_prepared_state_no_leak;
        ] );
    ]
