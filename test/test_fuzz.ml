open Srfa_util
module Flow = Srfa_core.Flow
module Allocator = Srfa_core.Allocator
module Report = Srfa_estimate.Report
module Gen = Srfa_fuzzer.Gen
module Harness = Srfa_fuzzer.Harness
module Helpers = Srfa_test_helpers.Helpers

let has_warning code warnings =
  List.exists (fun (d : Diag.t) -> d.Diag.code = code) warnings

let has_event name events =
  List.exists (fun (e : Trace.event) -> e.Trace.name = name) events

(* The pinned smoke campaign (same cases as the @fuzz-smoke alias): no
   crash, no violation, and every case lands in accepted or rejected. *)
let test_campaign_clean () =
  let s = Harness.run ~cases:200 ~seed:42 () in
  Alcotest.(check bool) "campaign ok" true (Harness.ok s);
  Alcotest.(check int) "no crashes" 0 (List.length s.Harness.crashes);
  Alcotest.(check int) "no violations" 0 (List.length s.Harness.violations);
  Alcotest.(check int) "every case classified" s.Harness.cases
    (s.Harness.accepted + s.Harness.rejected)

let test_generator_deterministic () =
  let c1 = Gen.generate ~seed:7 ~id:13 and c2 = Gen.generate ~seed:7 ~id:13 in
  Alcotest.(check string) "same source" c1.Gen.source c2.Gen.source;
  Alcotest.(check int) "same budget" c1.Gen.budget c2.Gen.budget;
  let c3 = Gen.generate ~seed:8 ~id:13 in
  Alcotest.(check bool) "seed changes the stream" true
    (c1.Gen.source <> c3.Gen.source)

let test_outcome_replays () =
  let constructor = function
    | Harness.Accepted _ -> "accepted"
    | Harness.Rejected _ -> "rejected"
    | Harness.Violation _ -> "violation"
    | Harness.Crash _ -> "crash"
  in
  for id = 0 to 19 do
    let case = Gen.generate ~seed:11 ~id in
    Alcotest.(check string)
      (Printf.sprintf "case %d outcome stable" id)
      (constructor (Harness.run_case case))
      (constructor (Harness.run_case case))
  done

(* Starving the cut work budget must degrade CPA-RA to PR-RA — warning,
   trace event, and the PR-RA numbers — never an exception. *)
let test_cut_guard_falls_back () =
  let nest = Helpers.small_fir () in
  let guarded =
    {
      Flow.default_config with
      budget = 5;
      guards = { Flow.default_guards with Flow.cut_work_limit = Some 1 };
    }
  in
  let sink, events = Trace.collector () in
  match Flow.checked ~config:guarded ~algorithm:Allocator.Cpa_ra ~trace:sink nest with
  | Error _ -> Alcotest.fail "guarded CPA-RA run rejected the fir kernel"
  | Ok (report, warnings) -> (
    Alcotest.(check bool) "W-GUARD-CUT warning" true
      (has_warning "W-GUARD-CUT" warnings);
    Alcotest.(check bool) "fallback.pr_ra event" true
      (has_event "fallback.pr_ra" (events ()));
    let unguarded = { guarded with Flow.guards = Flow.default_guards } in
    match Flow.checked ~config:unguarded ~algorithm:Allocator.Pr_ra nest with
    | Error _ -> Alcotest.fail "PR-RA reference run rejected the fir kernel"
    | Ok (pr, _) ->
      Alcotest.(check int) "degraded run carries PR-RA's cycles"
        pr.Report.cycles report.Report.cycles;
      Alcotest.(check int) "and PR-RA's registers" pr.Report.total_registers
        report.Report.total_registers)

(* A generous work budget must leave CPA-RA alone: no warning, no event. *)
let test_cut_guard_quiet_when_unneeded () =
  let nest = Helpers.small_fir () in
  let sink, events = Trace.collector () in
  match Flow.checked ~algorithm:Allocator.Cpa_ra ~trace:sink nest with
  | Error _ -> Alcotest.fail "default run rejected the fir kernel"
  | Ok (_, warnings) ->
    Alcotest.(check bool) "no guard warning" false
      (has_warning "W-GUARD-CUT" warnings);
    Alcotest.(check bool) "no fallback event" false
      (has_event "fallback.pr_ra" (events ()))

(* A kernel with more groups than the bitmask cap must evaluate through
   the degraded memo path and say so. *)
let test_mask_guard () =
  let rec find_mask id =
    if id > 500 then Alcotest.fail "no mask-stress case in the first 500"
    else
      let case = Gen.generate ~seed:42 ~id in
      match case.Gen.kind with
      | Gen.Mask_stress -> case
      | _ -> find_mask (id + 1)
  in
  let case = find_mask 0 in
  match Harness.run_case case with
  | Harness.Accepted { warnings; events; _ } ->
    Alcotest.(check bool) "W-GUARD-MASK warning" true
      (has_warning "W-GUARD-MASK" warnings);
    Alcotest.(check bool) "guard.mask event" true (has_event "guard.mask" events)
  | _ -> Alcotest.fail "mask-stress kernel did not evaluate"

(* Capping the event model's clock must fall back to the Cycle_model
   timing, with the warning and the trace event, leaving the report's
   numbers identical to an unguarded run. *)
let test_event_cap_falls_back () =
  let nest = Helpers.small_fir () in
  let capped =
    {
      Flow.default_config with
      guards = { Flow.default_guards with Flow.event_model_cap = 1 };
    }
  in
  let sink, events = Trace.collector () in
  match Flow.checked ~config:capped ~trace:sink nest with
  | Error _ -> Alcotest.fail "capped run rejected the fir kernel"
  | Ok (report, warnings) -> (
    Alcotest.(check bool) "W-GUARD-EVENT warning" true
      (has_warning "W-GUARD-EVENT" warnings);
    Alcotest.(check bool) "fallback.cycle_model event" true
      (has_event "fallback.cycle_model" (events ()));
    match Flow.checked nest with
    | Error _ -> Alcotest.fail "unguarded run rejected the fir kernel"
    | Ok (plain, _) ->
      Alcotest.(check int) "Cycle_model timing kept" plain.Report.cycles
        report.Report.cycles)

(* The frontend's diagnostic oracle over campaign 42's 9,920 cases: a
   broken case's first diagnostic carries its defect's code, every span
   lies inside the source (column [length + 1] is the line's end, where
   a truncated source's end-of-input token sits), and a diagnostic that
   quotes a name points at that name. *)
let span_inside source (s : Diag.span) =
  let lines = Array.of_list (String.split_on_char '\n' source) in
  s.Diag.line >= 1
  && s.Diag.line <= Array.length lines
  && s.Diag.col >= 1
  && s.Diag.col <= String.length lines.(s.Diag.line - 1) + 1

(* The source from [s] to the end of its line; [s] lies inside. *)
let text_at source (s : Diag.span) =
  let line = List.nth (String.split_on_char '\n' source) (s.Diag.line - 1) in
  String.sub line (s.Diag.col - 1) (String.length line - s.Diag.col + 1)

(* The name an undeclared-array, rank-mismatch or dup-var diagnostic
   quotes: the word after its message's fixed prefix. *)
let quoted_name label message =
  let word_after prefix =
    if String.starts_with ~prefix message then
      let rest =
        String.sub message (String.length prefix)
          (String.length message - String.length prefix)
      in
      Some (List.hd (String.split_on_char ' ' rest))
    else None
  in
  match label with
  | "undeclared-array" -> word_after "undeclared array "
  | "rank-mismatch" -> word_after ""
  | "dup-var" -> word_after "loop variable "
  | _ -> None

let test_frontend_codes_match_defects () =
  let seen = Hashtbl.create 16 in
  for id = 0 to 9919 do
    let case = Gen.generate ~seed:42 ~id in
    match case.Gen.kind with
    | Gen.Valid | Gen.Mask_stress -> ()
    | Gen.Broken label -> (
      Hashtbl.replace seen label ();
      let where = Printf.sprintf "case %d (%s)" id label in
      match Srfa_frontend.Parser.parse_result case.Gen.source with
      | Ok _ ->
        (* Starving the budget leaves the source valid; a truncation
           parses only when it cut just the final newline. *)
        if
          not
            (label = "starved-budget"
            || (label = "truncate"
               && String.ends_with ~suffix:"}" case.Gen.source))
        then Alcotest.failf "%s parsed" where
      | Error [] -> Alcotest.failf "%s rejected without a diagnostic" where
      | Error (d :: _ as diags) ->
        let code_ok =
          match label with
          | "garbage-char" -> d.Diag.code = "E-LEX-001"
          | "unterminated-comment" -> d.Diag.code = "E-LEX-003"
          | "zero-trip" -> d.Diag.code = "E-PARSE-004"
          | "undeclared-array" -> d.Diag.code = "E-PARSE-002"
          | "rank-mismatch" -> d.Diag.code = "E-PARSE-003"
          | "dup-var" -> d.Diag.code = "E-PARSE-005"
          | "oob-index" -> d.Diag.code = "E-SEM-001" && d.Diag.span = None
          | "truncate" -> String.starts_with ~prefix:"E-PARSE-" d.Diag.code
          | _ -> false
        in
        if not code_ok then
          Alcotest.failf "%s answered %s" where (Diag.to_string d);
        (match (label, quoted_name label d.Diag.message, d.Diag.span) with
        | ("undeclared-array" | "rank-mismatch" | "dup-var"), Some name, Some s
          when span_inside case.Gen.source s ->
          if not (String.starts_with ~prefix:name (text_at case.Gen.source s))
          then
            Alcotest.failf "%s: the span of %s is not at %s" where
              (Diag.to_string d) name
        | ("undeclared-array" | "rank-mismatch" | "dup-var"), _, _ ->
          Alcotest.failf "%s: no quoted name at a span in %s" where
            (Diag.to_string d)
        | _ -> ());
        List.iter
          (fun (d : Diag.t) ->
            match d.Diag.span with
            | Some s when not (span_inside case.Gen.source s) ->
              Alcotest.failf "%s: span outside the source: %s" where
                (Diag.to_string d)
            | _ -> ())
          diags)
  done;
  Alcotest.(check int) "every defect label drawn" 9 (Hashtbl.length seen)

let test_minimize_shrinks_to_witness () =
  let source = "alpha\nbeta\ngamma\nMAGIC\ndelta\n" in
  let keeps s = Helpers.contains_substring s "MAGIC" in
  let reduced = Harness.minimize keeps source in
  Alcotest.(check string) "only the witness line survives" "MAGIC" reduced;
  Alcotest.(check bool) "property preserved" true (keeps reduced)

let test_minimize_requires_property () =
  let source = "a\nb\n" in
  let keeps s = Helpers.contains_substring s "zzz" in
  Alcotest.(check string) "input without the property is untouched" source
    (Harness.minimize keeps source)

let () =
  Alcotest.run "fuzz"
    [
      ( "campaign",
        [
          Alcotest.test_case "200 cases, seed 42, clean" `Quick
            test_campaign_clean;
          Alcotest.test_case "generator deterministic" `Quick
            test_generator_deterministic;
          Alcotest.test_case "outcomes replay" `Quick test_outcome_replays;
          Alcotest.test_case "diagnostics name the defect"
            `Quick test_frontend_codes_match_defects;
        ] );
      ( "guards",
        [
          Alcotest.test_case "cut guard falls back to PR-RA" `Quick
            test_cut_guard_falls_back;
          Alcotest.test_case "cut guard quiet by default" `Quick
            test_cut_guard_quiet_when_unneeded;
          Alcotest.test_case "mask guard degrades and warns" `Quick
            test_mask_guard;
          Alcotest.test_case "event cap keeps Cycle_model" `Quick
            test_event_cap_falls_back;
        ] );
      ( "minimizer",
        [
          Alcotest.test_case "shrinks to the witness" `Quick
            test_minimize_shrinks_to_witness;
          Alcotest.test_case "no property, no shrink" `Quick
            test_minimize_requires_property;
        ] );
    ]
