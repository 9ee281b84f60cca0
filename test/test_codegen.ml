open Srfa_reuse
open Srfa_test_helpers
module Plan = Srfa_codegen.Plan
module C_source = Srfa_codegen.C_source
module Vhdl = Srfa_codegen.Vhdl
module Exec_check = Srfa_codegen.Exec_check

let plan_for nest alg budget =
  let an = Helpers.analyze nest in
  Plan.build (Srfa_core.Allocator.run alg an ~budget)

let test_plan_classification () =
  let plan = plan_for (Helpers.example ()) Srfa_core.Allocator.Cpa_ra 64 in
  let an = plan.Plan.allocation.Allocation.analysis in
  let access name =
    Plan.access plan (Helpers.info_named an name).Analysis.group.Group.id
  in
  (match access "d[i][k]" with
  | Plan.Window_full { beta; _ } -> Alcotest.(check int) "d full at 30" 30 beta
  | _ -> Alcotest.fail "d should be a full window");
  (match access "a[k]" with
  | Plan.Window_partial { beta; _ } ->
    Alcotest.(check int) "a partial at 16" 16 beta
  | _ -> Alcotest.fail "a should be a partial window");
  match access "e[i][j][k]" with
  | Plan.Ram_always -> ()
  | _ -> Alcotest.fail "e should stay in RAM"

let test_plan_unpinned_is_ram () =
  let plan = plan_for (Helpers.example ()) Srfa_core.Allocator.Fr_ra 64 in
  let an = plan.Plan.allocation.Allocation.analysis in
  match
    Plan.access plan (Helpers.info_named an "b[k][j]").Analysis.group.Group.id
  with
  | Plan.Ram_always -> ()
  | _ -> Alcotest.fail "FR's unpinned b must remain a RAM access"

let test_plan_opaque_for_bic_image () =
  let plan = plan_for (Helpers.small_bic ()) Srfa_core.Allocator.Cpa_ra 16 in
  let an = plan.Plan.allocation.Allocation.analysis in
  match
    Plan.access plan
      (Helpers.info_named an "im[r+u][c+v]").Analysis.group.Group.id
  with
  | Plan.Window_opaque _ -> ()
  | Plan.Window_partial _ | Plan.Window_full _ | Plan.Ram_always ->
    Alcotest.fail "coupled 2-D window should be opaque"

let test_prologue_and_writeback_flags () =
  let plan = plan_for (Helpers.example ()) Srfa_core.Allocator.Cpa_ra 64 in
  let an = plan.Plan.allocation.Allocation.analysis in
  let gid name = (Helpers.info_named an name).Analysis.group.Group.id in
  Alcotest.(check bool) "a needs prologue" true
    (Plan.needs_prologue plan (gid "a[k]"));
  Alcotest.(check bool) "d write-first needs no prologue" false
    (Plan.needs_prologue plan (gid "d[i][k]"));
  Alcotest.(check bool) "d output needs writeback" true
    (Plan.needs_writeback plan (gid "d[i][k]"));
  Alcotest.(check bool) "a read-only never written back" false
    (Plan.needs_writeback plan (gid "a[k]"))

let test_accumulator_prologue () =
  (* y[i] in FIR is read before written: its window must be preloaded and
     written back. *)
  let plan = plan_for (Helpers.small_fir ()) Srfa_core.Allocator.Cpa_ra 12 in
  let an = plan.Plan.allocation.Allocation.analysis in
  let gid = (Helpers.info_named an "y[i]").Analysis.group.Group.id in
  Alcotest.(check bool) "accumulator prologue" true
    (Plan.needs_prologue plan gid);
  Alcotest.(check bool) "accumulator writeback" true
    (Plan.needs_writeback plan gid)

(* Semantics: the transformed execution equals the reference interpreter
   for every kernel and every algorithm. *)
let test_equivalence_all () =
  List.iter
    (fun (name, nest) ->
      let an = Helpers.analyze nest in
      let minimum = Srfa_core.Ordering.feasibility_minimum an in
      List.iter
        (fun alg ->
          List.iter
            (fun budget ->
              let alloc = Srfa_core.Allocator.run alg an ~budget in
              let plan = Plan.build alloc in
              Alcotest.(check bool)
                (Printf.sprintf "%s/%s/budget %d" name
                   (Srfa_core.Allocator.name alg)
                   budget)
                true
                (Exec_check.equivalent plan ~init:Helpers.init))
            [ minimum; minimum + 5; minimum + 13; 64 ])
        Srfa_core.Allocator.all)
    (Helpers.small_kernels ())

(* The access-count oracle: per group, the steady-state iterations in
   which the executed plan goes to RAM against the simulator's
   [group_ram_accesses]. They must agree on every group the plan does
   not mark Window_opaque. The simulator serves an opaque group's first
   beta first-touched elements from registers while the emitted code
   reads them from RAM, so a triple (kernel, algorithm, budget) whose
   only mismatches are opaque groups is counted instead, and the count
   is pinned until the rank of such windows is closed. *)
let opaque_gap_triples = 34

let ram_count_gap ~label alloc =
  let plan = Plan.build alloc in
  let executed = Exec_check.ram_iterations plan in
  let simulated =
    (Srfa_sched.Simulator.run alloc).Srfa_sched.Simulator.group_ram_accesses
  in
  let gap = ref false in
  Array.iteri
    (fun gid count ->
      if count <> simulated.(gid) then
        match Plan.access plan gid with
        | Plan.Window_opaque _ -> gap := true
        | Plan.Ram_always | Plan.Window_full _ | Plan.Window_partial _ ->
          let an = alloc.Allocation.analysis in
          Alcotest.failf "%s %s: executed %d RAM iterations, simulated %d"
            label
            (Group.name (Analysis.info an gid).Analysis.group)
            count simulated.(gid))
    executed;
  !gap

let test_ram_counts () =
  let triples = ref 0 and gaps = ref 0 in
  let check name nest budgets =
    let an = Helpers.analyze nest in
    let minimum = Srfa_core.Ordering.feasibility_minimum an in
    List.iter
      (fun alg ->
        List.iter
          (fun budget ->
            if budget >= minimum then begin
              incr triples;
              let label =
                Printf.sprintf "%s/%s/budget %d" name
                  (Srfa_core.Allocator.name alg)
                  budget
              in
              if ram_count_gap ~label (Srfa_core.Allocator.run alg an ~budget)
              then incr gaps
            end)
          budgets)
      Srfa_core.Allocator.all
  in
  List.iter
    (fun (name, nest) -> check name nest [ 8; 16; 32; 64 ])
    (Helpers.small_registry ());
  let cases =
    List.filteri (fun k _ -> k < 300) (Helpers.gen_valid ~seed:42 ~cases:700)
  in
  Alcotest.(check int) "300 valid cases" 300 (List.length cases);
  List.iter
    (fun (id, nest) ->
      let case = Srfa_fuzzer.Gen.generate ~seed:42 ~id in
      check
        (Printf.sprintf "gen case %d" id)
        nest [ case.Srfa_fuzzer.Gen.budget ])
    cases;
  Alcotest.(check int) "triples" 2064 !triples;
  Alcotest.(check int) "triples with an opaque gap" opaque_gap_triples !gaps

let test_c_output_shape () =
  let plan = plan_for (Helpers.example ()) Srfa_core.Allocator.Cpa_ra 64 in
  let c = C_source.emit plan in
  let has s =
    Alcotest.(check bool) ("contains " ^ s) true
      (Helpers.contains_substring c s)
  in
  has "void example(void)";
  has "int win_d_2[30];";
  has "for (int j = 0; j < 20; j++)";
  (* partial access steering for a (beta 16, rank k) *)
  has "(k < 16 ? win_a_0[k] : a[k])";
  (* full window for d: unconditional register write *)
  has "win_d_2[k] =";
  (* writeback epilogue for the output window *)
  has "d[i][k] = win_d_2[k];";
  (* balanced braces *)
  let count ch = String.fold_left (fun n c -> if c = ch then n + 1 else n) 0 c in
  Alcotest.(check int) "balanced braces" (count '{') (count '}')

let test_c_ram_only_has_no_windows () =
  let plan = plan_for (Helpers.example ()) Srfa_core.Allocator.Fr_ra 5 in
  let c = C_source.emit plan in
  Alcotest.(check bool) "no window arrays at feasibility budget" false
    (Helpers.contains_substring c "win_")

let test_vhdl_output_shape () =
  let plan = plan_for (Helpers.small_fir ()) Srfa_core.Allocator.Cpa_ra 8 in
  let v = Vhdl.emit plan in
  let has s =
    Alcotest.(check bool) ("contains " ^ s) true
      (Helpers.contains_substring v s)
  in
  Alcotest.(check string) "entity name" "fir" (Vhdl.entity_name plan);
  has "entity fir is";
  has "architecture behavioral of fir is";
  has "end architecture behavioral;";
  has "main : process";
  has "end process main;";
  has "wait until rising_edge(clk)";
  (* every for loop is closed *)
  let count s text =
    let n = String.length s and h = String.length text in
    let rec go i acc =
      if i + n > h then acc
      else if String.sub text i n = s then go (i + 1) (acc + 1)
      else go (i + 1) acc
    in
    go 0 0
  in
  Alcotest.(check int) "loops balanced" (count "for " v) (count "end loop;" v);
  Alcotest.(check int) "one entity, one architecture" 1 (count "entity fir is" v)

let test_vhdl_testbench () =
  let plan = plan_for (Helpers.small_fir ()) Srfa_core.Allocator.Cpa_ra 8 in
  let tb = Vhdl.emit_testbench plan in
  let has s =
    Alcotest.(check bool) ("contains " ^ s) true
      (Helpers.contains_substring tb s)
  in
  has "entity fir_tb is";
  has "dut : entity work.fir";
  has "clk <= not clk after 20 ns";
  has "assert done = '1'";
  has "end architecture sim;"

let test_vhdl_hyphen_name () =
  let plan = plan_for (Srfa_kernels.Kernels.dec_fir ~taps:4 ~samples:12 ~decimation:2 ())
      Srfa_core.Allocator.Cpa_ra 10
  in
  Alcotest.(check string) "hyphen becomes underscore" "dec_fir"
    (Vhdl.entity_name plan)

let test_edge_transfers_example () =
  let plan = plan_for (Helpers.example ()) Srfa_core.Allocator.Cpa_ra 64 in
  (* Shift peeling: loads = covered elements of read windows
     (a: 16, b: 16, c: 1), stores = covered elements of written output
     windows (d: 30). e and the rest contribute nothing. *)
  Alcotest.(check int) "shift transfers" (16 + 16 + 1 + 30)
    (Plan.edge_transfers plan ~strategy:Plan.Shift_window);
  (* Naive reloading repeats the loads at every window entry: a, b and c
     have a single window here (one i iteration); d writes back at each of
     its 20 j-windows. *)
  Alcotest.(check int) "reload transfers" (16 + 16 + 1 + (20 * 30))
    (Plan.edge_transfers plan ~strategy:Plan.Reload_window)

let test_edge_transfers_shift_bounded_by_reload () =
  List.iter
    (fun (name, nest) ->
      let an = Helpers.analyze nest in
      List.iter
        (fun alg ->
          let plan = Plan.build (Srfa_core.Allocator.run alg an ~budget:20) in
          let shift = Plan.edge_transfers plan ~strategy:Plan.Shift_window in
          let reload = Plan.edge_transfers plan ~strategy:Plan.Reload_window in
          Alcotest.(check bool)
            (Printf.sprintf "%s/%s: 0 <= shift <= reload" name
               (Srfa_core.Allocator.name alg))
            true
            (0 <= shift && shift <= reload))
        Srfa_core.Allocator.all)
    (Helpers.small_kernels ())

let test_edge_transfers_zero_without_windows () =
  let plan = plan_for (Helpers.example ()) Srfa_core.Allocator.Fr_ra 5 in
  Alcotest.(check int) "no windows, no transfers" 0
    (Plan.edge_transfers plan ~strategy:Plan.Shift_window);
  Alcotest.(check int) "no windows, no reloads" 0
    (Plan.edge_transfers plan ~strategy:Plan.Reload_window)

let test_describe () =
  let plan = plan_for (Helpers.example ()) Srfa_core.Allocator.Cpa_ra 64 in
  let desc = Plan.describe plan in
  Alcotest.(check int) "five entries" 5 (List.length desc);
  Alcotest.(check bool) "d described as full window" true
    (List.exists
       (fun (name, how) ->
         name = "d[i][k]" && Helpers.contains_substring how "full window")
       desc)

let () =
  Alcotest.run "codegen"
    [
      ( "plan",
        [
          Alcotest.test_case "classification" `Quick test_plan_classification;
          Alcotest.test_case "unpinned is RAM" `Quick
            test_plan_unpinned_is_ram;
          Alcotest.test_case "opaque windows" `Quick
            test_plan_opaque_for_bic_image;
          Alcotest.test_case "prologue/writeback flags" `Quick
            test_prologue_and_writeback_flags;
          Alcotest.test_case "accumulator prologue" `Quick
            test_accumulator_prologue;
          Alcotest.test_case "describe" `Quick test_describe;
          Alcotest.test_case "edge transfers (example)" `Quick
            test_edge_transfers_example;
          Alcotest.test_case "edge transfers bounded" `Quick
            test_edge_transfers_shift_bounded_by_reload;
          Alcotest.test_case "edge transfers zero" `Quick
            test_edge_transfers_zero_without_windows;
        ] );
      ( "semantics",
        [
          Alcotest.test_case "transform equivalence" `Slow test_equivalence_all;
          Alcotest.test_case "RAM iterations: executed vs simulated" `Quick
            test_ram_counts;
        ] );
      ( "emitters",
        [
          Alcotest.test_case "c output" `Quick test_c_output_shape;
          Alcotest.test_case "c without windows" `Quick
            test_c_ram_only_has_no_windows;
          Alcotest.test_case "vhdl output" `Quick test_vhdl_output_shape;
          Alcotest.test_case "vhdl testbench" `Quick test_vhdl_testbench;
          Alcotest.test_case "vhdl entity naming" `Quick test_vhdl_hyphen_name;
        ] );
    ]
