(* Dynamic re-budgeting (DESIGN.md §16), as tests:

   - Engine.rebudget's accounting: shrink reclaims exactly the deficit,
     cheapest-loss-first with partial windows sacrificed before full
     ones; grow credits headroom without touching entries;
   - the pinned-shrink rule (ISSUE 9 satellite): a budget below the
     feasibility minimum clamps there and degrades gracefully — spill,
     trace events, W-GUARD-REBUDGET warning — instead of raising;
   - Flow.Core's session layer: memoized revisits, re-spent grows, the
     clamp warning, replay shape, and W-GUARD-MASK on every step past
     the simulator's bitmask cap (the cap's boundary through
     Flow.checked too);
   - the correctness spine: a fuzzed differential campaign (>= 200
     event streams, >= 2000 events, seed 42) asserting after EVERY
     event that the incremental allocation is coverage-equivalent to a
     from-scratch run at the same budget — never worse than either
     greedy baseline (the certified envelope, re-verified here by
     independent simulation), legal under the effective budget, and
     correctly clamped. Failures print a minimised reproducer. *)

open Srfa_reuse
open Srfa_test_helpers
module Allocator = Srfa_core.Allocator
module Certify = Srfa_core.Certify
module Diag = Srfa_util.Diag
module Engine = Srfa_core.Engine
module Flow = Srfa_core.Flow
module Gen = Srfa_fuzzer.Gen
module Simulator = Srfa_sched.Simulator
module Trace = Srfa_util.Trace

let config = Flow.default_config
let cycles alloc = (Simulator.run alloc).Simulator.total_cycles
let minimum an = Srfa_core.Ordering.feasibility_minimum an

let has_warning code warnings =
  List.exists (fun (d : Diag.t) -> d.Diag.code = code) warnings

(* ---- Engine.rebudget unit tests -------------------------------------- *)

let test_engine_shrink_accounting () =
  let an = Helpers.analyze (Helpers.small_fir ()) in
  let m = minimum an in
  let alloc = Allocator.run Allocator.Pr_ra an ~budget:24 in
  let before = Allocation.total_registers alloc in
  let eng = Engine.of_allocation alloc in
  let outcome = Engine.rebudget eng ~budget:12 in
  Alcotest.(check int) "requested" 12 outcome.Engine.requested;
  Alcotest.(check int) "effective" 12 outcome.Engine.effective;
  Alcotest.(check bool) "not clamped" false outcome.Engine.clamped;
  Alcotest.(check bool) "minimum fits" true (m <= 12);
  Alcotest.(check int) "budget updated" 12 (Engine.budget eng);
  Alcotest.(check bool) "no overdraft" true (Engine.remaining eng >= 0);
  let after = Engine.finalize ~pin_all:true eng ~algorithm:"test" in
  Alcotest.(check int) "freed = drop in spent registers"
    (before - Allocation.total_registers after)
    outcome.Engine.freed;
  Alcotest.(check bool) "fits the shrunk budget" true
    (Allocation.total_registers after <= 12)

let test_engine_grow_credits_headroom () =
  let an = Helpers.analyze (Helpers.small_fir ()) in
  let alloc = Allocator.run Allocator.Pr_ra an ~budget:12 in
  let spent = Allocation.total_registers alloc in
  let eng = Engine.of_allocation alloc in
  let outcome = Engine.rebudget eng ~budget:64 in
  Alcotest.(check int) "nothing freed on grow" 0 outcome.Engine.freed;
  Alcotest.(check int) "headroom credited" (64 - spent) (Engine.remaining eng);
  let after = Engine.finalize ~pin_all:true eng ~algorithm:"test" in
  Alcotest.(check int) "entries untouched by the grow" spent
    (Allocation.total_registers after)

(* The satellite regression: shrinking below the pinned feasibility
   minimum must not raise — the budget clamps at one register per group,
   every entry spills to beta 1, and the degradation is announced as
   trace events (repair.reclaim per spill, engine.rebudget with
   clamped=true). *)
let test_engine_clamp_below_minimum () =
  let an = Helpers.analyze (Helpers.small_fir ()) in
  let m = minimum an in
  let alloc = Allocator.run Allocator.Pr_ra an ~budget:24 in
  let sink, events = Trace.collector () in
  let eng = Engine.of_allocation ~trace:sink alloc in
  let outcome = Engine.rebudget eng ~budget:1 in
  Alcotest.(check bool) "clamped" true outcome.Engine.clamped;
  Alcotest.(check int) "clamped at the minimum" m outcome.Engine.effective;
  Alcotest.(check int) "budget is the minimum" m (Engine.budget eng);
  let after = Engine.finalize ~pin_all:true eng ~algorithm:"test" in
  Alcotest.(check int) "one register per group" m
    (Allocation.total_registers after);
  Array.iteri
    (fun gid _ ->
      Alcotest.(check int)
        (Printf.sprintf "group %d at beta 1" gid)
        1
        (Allocation.beta after gid))
    an.Analysis.infos;
  let names = List.map (fun (e : Trace.event) -> e.Trace.name) (events ()) in
  Alcotest.(check bool) "engine.rebudget traced" true
    (List.mem "engine.rebudget" names);
  Alcotest.(check bool) "repair.reclaim traced" true
    (List.mem "repair.reclaim" names)

(* Cheapest-loss-first: a partial cut share (beta < nu) is sacrificed
   before any full reuse window. PR-RA tops its last group up partially
   whenever the budget does not land on a window boundary, which gives a
   deterministic victim to watch. *)
let test_engine_shrink_prefers_partial () =
  let an = Helpers.analyze (Helpers.small_mat ()) in
  let partial_of alloc =
    let found = ref None in
    Array.iteri
      (fun gid (i : Analysis.info) ->
        let b = Allocation.beta alloc gid in
        if b > 1 && b < i.Analysis.nu then found := Some gid)
      an.Analysis.infos;
    !found
  in
  let victim =
    List.fold_left
      (fun acc budget ->
        match acc with
        | Some _ -> acc
        | None when budget < minimum an -> None
        | None ->
          let alloc = Allocator.run Allocator.Pr_ra an ~budget in
          (match partial_of alloc with
          | Some gid -> Some (alloc, gid)
          | None -> None))
      None
      [ 6; 8; 10; 12; 16; 20; 24 ]
  in
  match victim with
  | None -> Alcotest.fail "no PR-RA budget produced a partial entry"
  | Some (alloc, gid) ->
    let eng = Engine.of_allocation alloc in
    let before = Engine.beta eng gid in
    let _ =
      Engine.rebudget eng ~budget:(Allocation.total_registers alloc - 1)
    in
    Alcotest.(check int) "the partial entry paid for the shrink"
      (before - 1) (Engine.beta eng gid)

(* ---- Flow.Core session tests ------------------------------------------ *)

let test_flow_session () =
  let prepared = Flow.Core.prepare (Helpers.small_fir ()) in
  let m = prepared.Flow.Core.minimum in
  let session, first =
    Flow.Core.rebudget_start config prepared ~budget:32
  in
  Alcotest.(check int) "opens at the requested budget" 32
    first.Flow.Core.effective;
  Alcotest.(check bool) "bootstrap is not memoized" false
    first.Flow.Core.memoized;
  let spent = Allocation.total_registers first.Flow.Core.allocation in
  Alcotest.(check bool) "fixture spends past the minimum" true (spent > m);
  let shrink = Flow.Core.rebudget_step session ~budget:m in
  Alcotest.(check int) "shrink freed the excess" (spent - m)
    shrink.Flow.Core.freed;
  Alcotest.(check bool) "shrink fits" true
    (Allocation.total_registers shrink.Flow.Core.allocation <= m);
  Alcotest.(check string) "certified label" Certify.algorithm_name
    shrink.Flow.Core.allocation.Allocation.algorithm;
  let grow = Flow.Core.rebudget_step session ~budget:64 in
  Alcotest.(check bool) "grow frees nothing" true (grow.Flow.Core.freed = 0);
  Alcotest.(check bool) "grow never costs cycles" true
    (grow.Flow.Core.report.Srfa_estimate.Report.cycles
    <= shrink.Flow.Core.report.Srfa_estimate.Report.cycles);
  let revisit = Flow.Core.rebudget_step session ~budget:m in
  Alcotest.(check bool) "revisit is memoized" true
    revisit.Flow.Core.memoized;
  Alcotest.(check bool) "memo returns the same report" true
    (revisit.Flow.Core.report == shrink.Flow.Core.report);
  Alcotest.(check bool) "memo restores the live allocation" true
    (Flow.Core.rebudget_current session == shrink.Flow.Core.allocation);
  let starved = Flow.Core.rebudget_step session ~budget:1 in
  Alcotest.(check bool) "starved event clamps" true
    starved.Flow.Core.clamped;
  Alcotest.(check int) "clamped at the minimum" m
    starved.Flow.Core.effective;
  Alcotest.(check bool) "W-GUARD-REBUDGET raised" true
    (has_warning "W-GUARD-REBUDGET" starved.Flow.Core.warnings)

let test_flow_replay_shape () =
  let prepared = Flow.Core.prepare (Helpers.example ()) in
  let events = [ 8; 16; 8; 2; 16 ] in
  let steps = Flow.Core.rebudget config prepared ~initial:16 ~events in
  Alcotest.(check int) "one step per event plus the bootstrap"
    (1 + List.length events)
    (List.length steps);
  List.iteri
    (fun k (s : Flow.Core.rebudget_step) ->
      Alcotest.(check int)
        (Printf.sprintf "step %d echoes its request" k)
        (if k = 0 then 16 else List.nth events (k - 1))
        s.Flow.Core.requested)
    steps

(* ---- W-GUARD-MASK from the group count --------------------------------- *)

let mask_warnings warnings =
  List.length
    (List.filter (fun (d : Diag.t) -> d.Diag.code = "W-GUARD-MASK") warnings)

(* Past the simulator's bitmask cap every design point warns once,
   whichever certification path answered it: a stream on 64 groups
   warns on each of its six steps. *)
let test_mask_on_every_step () =
  let prepared =
    Flow.Core.prepare (Srfa_kernels.Extra.synthetic_cut ~groups:64 ())
  in
  let steps =
    Flow.Core.rebudget config prepared ~initial:128
      ~events:[ 200; 96; 300; 140; 64 ]
  in
  List.iter
    (fun (s : Flow.Core.rebudget_step) ->
      Alcotest.(check int)
        (Printf.sprintf "W-GUARD-MASK at budget %d" s.Flow.Core.requested)
        1
        (mask_warnings s.Flow.Core.warnings))
    steps

(* The cap's boundary: 60 groups fit the bitmask, 61 do not. *)
let test_mask_cap_boundary () =
  List.iter
    (fun (groups, expected) ->
      let nest = Srfa_kernels.Extra.synthetic_cut ~groups () in
      let budget = 2 * groups in
      List.iter
        (fun algorithm ->
          match
            Flow.checked ~config:{ config with Flow.budget } ~algorithm nest
          with
          | Ok (_, warnings) ->
            Alcotest.(check int)
              (Printf.sprintf "%d groups, %s" groups
                 (Allocator.name algorithm))
              expected (mask_warnings warnings)
          | Error _ -> Alcotest.failf "%d groups: rejected" groups)
        [ Allocator.Cpa_ra; Allocator.Portfolio ];
      let session, first =
        Flow.Core.rebudget_start config (Flow.Core.prepare nest) ~budget
      in
      let step = Flow.Core.rebudget_step session ~budget:(budget + 8) in
      List.iter
        (fun (what, (s : Flow.Core.rebudget_step)) ->
          Alcotest.(check int)
            (Printf.sprintf "%d groups, rebudget %s" groups what)
            expected (mask_warnings s.Flow.Core.warnings))
        [ ("start", first); ("step", step) ])
    [ (Simulator.mask_cap, 0); (Simulator.mask_cap + 1, 1) ]

(* ---- the differential campaign ---------------------------------------- *)

let campaign_seed = 42
let campaign_streams = 220

(* Budget-independent state, paid once per kernel for the whole
   campaign: the prepared kernel, a warm simulator scratch, and a
   memo of from-scratch comparator points keyed by effective budget
   (the fuzzer draws budgets from a small ladder, so the expensive
   from-scratch runs collapse to ~a dozen per kernel). *)
type comparator_point = {
  fr_cycles : int;
  pr_cycles : int;
  scratch_cycles : int;  (** from-scratch certified portfolio *)
}

type kernel_state = {
  ks_prepared : Flow.Core.prepared;
  ks_scratch : Simulator.scratch;
  ks_points : (int, comparator_point) Hashtbl.t;
}

let kernel_states : (string, kernel_state) Hashtbl.t = Hashtbl.create 8

let kernel_state name =
  match Hashtbl.find_opt kernel_states name with
  | Some ks -> ks
  | None ->
    let nest =
      match Srfa_kernels.Kernels.find name with
      | Some n -> n
      | None -> Alcotest.failf "stream references unknown kernel %s" name
    in
    let prepared = Flow.Core.prepare nest in
    let ks =
      {
        ks_prepared = prepared;
        ks_scratch = Flow.Core.scratch ~config prepared;
        ks_points = Hashtbl.create 16;
      }
    in
    Hashtbl.add kernel_states name ks;
    ks

let comparator ks ~effective =
  match Hashtbl.find_opt ks.ks_points effective with
  | Some p -> p
  | None ->
    let an = ks.ks_prepared.Flow.Core.analysis in
    let sim alloc =
      (Simulator.run ~scratch:ks.ks_scratch alloc).Simulator.total_cycles
    in
    let fr = Allocator.run Allocator.Fr_ra an ~budget:effective in
    let pr = Allocator.run Allocator.Pr_ra an ~budget:effective in
    let outcome =
      Allocator.run_portfolio ~prepared:ks.ks_prepared.Flow.Core.cpa
        ~sim_scratch:ks.ks_scratch an ~budget:effective
    in
    let p =
      {
        fr_cycles = sim fr;
        pr_cycles = sim pr;
        scratch_cycles = sim outcome.Certify.allocation;
      }
    in
    Hashtbl.add ks.ks_points effective p;
    p

(* Replay one stream, checking every step against the from-scratch
   comparator. Returns the violations as (event index, message) pairs;
   event index -1 is the bootstrap point. [deep] additionally re-simulates
   the incremental allocation instead of trusting its report (slower;
   the campaign samples it on the first few streams). *)
let replay ?(deep = false) (s : Gen.stream) =
  let ks = kernel_state s.Gen.kernel in
  let m = ks.ks_prepared.Flow.Core.minimum in
  let violations = ref [] in
  let fail idx fmt =
    Printf.ksprintf (fun msg -> violations := (idx, msg) :: !violations) fmt
  in
  let check_step idx target (step : Flow.Core.rebudget_step) =
    let eff = step.Flow.Core.effective in
    if eff <> max target m then
      fail idx "effective %d, expected max(%d, minimum %d)" eff target m;
    if step.Flow.Core.clamped <> (target < m) then
      fail idx "clamped flag %b disagrees with target %d vs minimum %d"
        step.Flow.Core.clamped target m;
    if step.Flow.Core.clamped
       && not (has_warning "W-GUARD-REBUDGET" step.Flow.Core.warnings)
    then fail idx "clamped step carries no W-GUARD-REBUDGET warning";
    let alloc = step.Flow.Core.allocation in
    if alloc.Allocation.budget <> eff then
      fail idx "allocation budget %d under effective %d"
        alloc.Allocation.budget eff;
    if Allocation.total_registers alloc > eff then
      fail idx "allocation spends %d registers over budget %d"
        (Allocation.total_registers alloc)
        eff;
    let p = comparator ks ~effective:eff in
    let bar = min p.fr_cycles p.pr_cycles in
    let inc_cycles =
      if deep then
        (Simulator.run ~scratch:ks.ks_scratch alloc).Simulator.total_cycles
      else step.Flow.Core.report.Srfa_estimate.Report.cycles
    in
    if deep
       && inc_cycles <> step.Flow.Core.report.Srfa_estimate.Report.cycles
    then
      fail idx "report says %d cycles but the simulator says %d"
        step.Flow.Core.report.Srfa_estimate.Report.cycles inc_cycles;
    if inc_cycles > bar then
      fail idx
        "incremental %d cycles loses to the greedy bar %d (fr %d, pr %d)"
        inc_cycles bar p.fr_cycles p.pr_cycles;
    if p.scratch_cycles > bar then
      fail idx "from-scratch portfolio %d cycles loses to its own bar %d"
        p.scratch_cycles bar
  in
  let session, first =
    Flow.Core.rebudget_start ~sim_scratch:ks.ks_scratch config
      ks.ks_prepared ~budget:s.Gen.initial
  in
  check_step (-1) s.Gen.initial first;
  List.iteri
    (fun k target ->
      check_step k target (Flow.Core.rebudget_step session ~budget:target))
    s.Gen.events;
  List.rev !violations

(* Greedy event-list minimisation: drop events one at a time while the
   stream still fails, then report the survivor as the reproducer. *)
let minimise (s : Gen.stream) =
  let still_fails events = replay { s with Gen.events } <> [] in
  let rec shrink events =
    let n = List.length events in
    let rec try_drop k =
      if k >= n then events
      else
        let dropped = List.filteri (fun i _ -> i <> k) events in
        if still_fails dropped then shrink dropped else try_drop (k + 1)
    in
    try_drop 0
  in
  if still_fails s.Gen.events then { s with Gen.events = shrink s.Gen.events }
  else s

let describe (s : Gen.stream) =
  Printf.sprintf "seed=%d id=%d kernel=%s initial=%d events=[%s]"
    campaign_seed s.Gen.stream_id s.Gen.kernel s.Gen.initial
    (String.concat "; " (List.map string_of_int s.Gen.events))

let test_campaign () =
  let total_events = ref 0 in
  let failure = ref None in
  for id = 0 to campaign_streams - 1 do
    if !failure = None then begin
      let s = Gen.generate_stream ~seed:campaign_seed ~id in
      total_events := !total_events + 1 + List.length s.Gen.events;
      match replay ~deep:(id < 3) s with
      | [] -> ()
      | violations -> failure := Some (s, violations)
    end
  done;
  (match !failure with
  | None -> ()
  | Some (s, violations) ->
    let minimal = minimise s in
    Alcotest.failf
      "rebudget differential violated on stream %s\n%s\nreproducer: %s"
      (describe s)
      (String.concat "\n"
         (List.map
            (fun (idx, msg) -> Printf.sprintf "  event %d: %s" idx msg)
            violations))
      (describe minimal));
  Alcotest.(check bool)
    (Printf.sprintf "campaign covered %d events (>= 2000)" !total_events)
    true
    (!total_events >= 2000)

(* The incremental path must agree with the from-scratch sweep's
   certified portfolio on the never-worse contract's fast path too:
   when the live allocation covers PR-RA pointwise, no simulation is
   needed to certify it. This pins the coverage relation the campaign's
   cycle comparison rests on. *)
let test_coverage_fast_path () =
  let prepared = Flow.Core.prepare (Helpers.small_fir ()) in
  let an = prepared.Flow.Core.analysis in
  let session, _ = Flow.Core.rebudget_start config prepared ~budget:64 in
  let step = Flow.Core.rebudget_step session ~budget:16 in
  let pr = Allocator.run Allocator.Pr_ra an ~budget:16 in
  if Certify.covers step.Flow.Core.allocation pr then
    Alcotest.(check bool) "coverage implies never-worse" true
      (cycles step.Flow.Core.allocation <= cycles pr)
  else
    Alcotest.(check bool) "no coverage, still never-worse" true
      (cycles step.Flow.Core.allocation <= cycles pr)

let () =
  Alcotest.run "rebudget"
    [
      ( "engine",
        [
          Alcotest.test_case "shrink accounting" `Quick
            test_engine_shrink_accounting;
          Alcotest.test_case "grow credits headroom" `Quick
            test_engine_grow_credits_headroom;
          Alcotest.test_case "clamp below minimum (regression)" `Quick
            test_engine_clamp_below_minimum;
          Alcotest.test_case "shrink prefers partial entries" `Quick
            test_engine_shrink_prefers_partial;
        ] );
      ( "flow",
        [
          Alcotest.test_case "session steps" `Quick test_flow_session;
          Alcotest.test_case "replay shape" `Quick test_flow_replay_shape;
          Alcotest.test_case "coverage fast path" `Quick
            test_coverage_fast_path;
          Alcotest.test_case "W-GUARD-MASK on every step" `Quick
            test_mask_on_every_step;
          Alcotest.test_case "W-GUARD-MASK cap boundary" `Quick
            test_mask_cap_boundary;
        ] );
      ( "differential",
        [ Alcotest.test_case "fuzzed campaign" `Slow test_campaign ] );
    ]
