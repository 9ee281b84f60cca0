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
   across budget points, and a ladder's round memo must be invisible.
   One ladder serves CPA-RA, CPA+ and the portfolio at every budget,
   visiting the budgets in ascending, descending and shuffled order; each
   answer must equal a fresh-scratch run's: entries, allocate_traced
   steps and the full event list. *)
let ladder_budgets = [ 8; 12; 16; 24; 32; 48; 64; 96; 128 ]

type ladder_alg = Cpa | Cpa_plus | Portfolio

let run_traced ~prepared alg an ~budget =
  let sink, events = Srfa_util.Trace.collector () in
  let alloc, steps =
    match alg with
    | Cpa -> Cpa_ra.allocate_traced ~trace:sink ~prepared an ~budget
    | Cpa_plus ->
      Cpa_ra.allocate_traced ~spend_leftover:true ~trace:sink ~prepared an
        ~budget
    | Portfolio ->
      (Allocator.run ~trace:sink ~prepared Allocator.Portfolio an ~budget, [])
  in
  let step (s : Cpa_ra.trace_step) =
    Printf.sprintf "%s req=%d full=%b len=%d"
      (String.concat "," (List.map Group.name s.Cpa_ra.cut))
      s.Cpa_ra.required s.Cpa_ra.granted_full s.Cpa_ra.critical_length
  in
  ( entries alloc,
    List.map step steps,
    List.map Srfa_util.Trace.to_json (events ()) )

let check_same what (e1, s1, ev1) (e2, s2, ev2) =
  Alcotest.(check bool) (what ^ ": entries identical") true (e1 = e2);
  Alcotest.(check (list string)) (what ^ ": steps") s2 s1;
  Alcotest.(check (list string)) (what ^ ": events") ev2 ev1

let memo_inputs () =
  let fuzz =
    List.filteri
      (fun i _ -> i < 200)
      (Helpers.gen_valid ~seed:42 ~cases:500)
  in
  Alcotest.(check int) "200 valid fuzz kernels" 200 (List.length fuzz);
  let kernels = Helpers.small_kernels () in
  kernels
  @ List.concat_map Helpers.variants kernels
  @ List.map (fun (id, nest) -> (Printf.sprintf "fuzz %d" id, nest)) fuzz

let shuffled seed l =
  let a = Array.of_list l in
  let st = Random.State.make [| seed |] in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

let test_prepared_state_no_leak () =
  List.iteri
    (fun idx (name, nest) ->
      let an = Helpers.analyze nest in
      let budgets = List.filter (feasible an) ladder_budgets in
      let algs = [ Cpa; Cpa_plus; Portfolio ] in
      let fresh =
        List.map
          (fun budget ->
            ( budget,
              List.map
                (fun alg ->
                  run_traced ~prepared:(Cpa_ra.prepare an) alg an ~budget)
                algs ))
          budgets
      in
      List.iter
        (fun (order, budgets) ->
          let ladder = Cpa_ra.ladder (Cpa_ra.prepare an) in
          List.iter
            (fun budget ->
              List.iter2
                (fun alg reference ->
                  check_same
                    (Printf.sprintf "%s @ %d (%s)" name budget order)
                    (run_traced ~prepared:ladder alg an ~budget)
                    reference)
                algs (List.assoc budget fresh))
            budgets)
        [
          ("ascending", budgets);
          ("descending", List.rev budgets);
          ("shuffled", shuffled idx budgets);
        ])
    (memo_inputs ())

(* A stored round never skips the work guard: a ladder filled without a
   limit, asked again at a limit every cut query trips, answers exactly
   what a memo-free run does — the PR-RA fallback and its event. *)
let test_memo_work_guard () =
  let an = Helpers.analyze (Srfa_kernels.Kernels.bic ()) in
  let ladder = Cpa_ra.ladder (Cpa_ra.prepare an) in
  let budgets = List.filter (feasible an) ladder_budgets in
  let algs = Allocator.[ Cpa_ra; Cpa_plus; Portfolio ] in
  List.iter
    (fun budget ->
      List.iter
        (fun alg -> ignore (Allocator.run ~prepared:ladder alg an ~budget))
        algs)
    budgets;
  List.iter
    (fun budget ->
      List.iter
        (fun alg ->
          let guarded prepared =
            let sink, events = Srfa_util.Trace.collector () in
            let alloc =
              Allocator.run ~trace:sink ~cut_work_limit:1 ?prepared alg an
                ~budget
            in
            (entries alloc, List.map Srfa_util.Trace.to_json (events ()))
          in
          let what =
            Printf.sprintf "bic @ %d, %s, limit 1" budget (Allocator.name alg)
          in
          let entries, events = guarded (Some ladder) in
          let entries', events' = guarded None in
          Alcotest.(check bool) (what ^ ": entries identical") true
            (entries = entries');
          Alcotest.(check (list string)) (what ^ ": events") events' events;
          Alcotest.(check bool) (what ^ ": fallback.pr_ra fired") true
            (List.exists
               (fun e -> Helpers.contains_substring e "fallback.pr_ra")
               events))
        algs)
    budgets

(* The memo pays on the paper's example: across a nine-budget CPA-RA
   ladder it computes fewer rounds than the ladder answers. *)
let test_memo_hits () =
  let an = Helpers.analyze (Helpers.example ()) in
  let ladder = Cpa_ra.ladder (Cpa_ra.prepare an) in
  let answered =
    List.fold_left
      (fun acc budget ->
        let _, steps = Cpa_ra.allocate_traced ~prepared:ladder an ~budget in
        acc + List.length steps)
      0 ladder_budgets
  in
  let computed = Cpa_ra.rounds_computed ladder in
  Alcotest.(check bool)
    (Printf.sprintf "0 < %d rounds computed < %d answered" computed answered)
    true
    (0 < computed && computed < answered)

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
          Alcotest.test_case "round memo keeps the work guard" `Quick
            test_memo_work_guard;
          Alcotest.test_case "round memo answers the example's ladder"
            `Quick test_memo_hits;
        ] );
    ]
