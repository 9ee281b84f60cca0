(* Deterministic fuzz driver for the hardened pipeline.

   `srfa_fuzz --cases 1000 --seed 42` generates valid, mask-stress and
   deliberately broken kernels and pushes each through parse_result +
   Flow.checked, asserting the never-crash contract (see
   Srfa_fuzzer.Harness). Any crash is minimised and printed with the seed
   and case id needed to replay it (`--replay ID`). Exit 0 when the
   campaign is clean, 1 otherwise. *)

open Cmdliner
module Gen = Srfa_fuzzer.Gen
module Harness = Srfa_fuzzer.Harness

let outcome_name = function
  | Harness.Accepted { warnings; _ } ->
    if warnings = [] then "accepted"
    else
      Printf.sprintf "accepted (%s)"
        (String.concat ", "
           (List.map (fun (d : Srfa_util.Diag.t) -> d.Srfa_util.Diag.code) warnings))
  | Harness.Rejected diags ->
    Printf.sprintf "rejected (%s)"
      (String.concat ", "
         (List.map (fun (d : Srfa_util.Diag.t) -> d.Srfa_util.Diag.code) diags))
  | Harness.Violation m -> "VIOLATION: " ^ m
  | Harness.Crash e -> "CRASH: " ^ e

let print_case (case : Gen.case) outcome =
  Printf.printf "case %d [%s] seed=%d budget=%d: %s\n" case.Gen.id
    (Gen.kind_name case.Gen.kind)
    case.Gen.seed case.Gen.budget (outcome_name outcome)

let replay_case ~seed ~id =
  let case = Gen.generate ~seed ~id in
  let outcome = Harness.run_case case in
  print_case case outcome;
  print_string "--- source ---\n";
  print_string case.Gen.source;
  if case.Gen.source = "" || case.Gen.source.[String.length case.Gen.source - 1] <> '\n'
  then print_newline ();
  print_string "--------------\n";
  match outcome with
  | Harness.Accepted _ | Harness.Rejected _ -> 0
  | Harness.Violation _ | Harness.Crash _ -> 1

let campaign ~cases ~seed ~verbose ~jobs =
  let log case outcome =
    if verbose then print_case case outcome
    else
      match outcome with
      | Harness.Violation _ | Harness.Crash _ -> print_case case outcome
      | _ -> ()
  in
  let jobs, warnings = Srfa_util.Pool.resolve ?requested:jobs () in
  List.iter (fun d -> Format.eprintf "%a@." Srfa_util.Diag.pp d) warnings;
  let summary =
    Srfa_util.Pool.with_pool ~jobs (fun pool ->
        Harness.run ~cases ~seed ~log ~pool ())
  in
  Format.printf "fuzz (seed %d): %a@." seed Harness.pp_summary summary;
  List.iter
    (fun ((case : Gen.case), exn, minimized) ->
      Format.printf
        "@.crash in case %d [%s] (replay: --seed %d --replay %d): %s@.\
         minimised reproducer:@.%s@."
        case.Gen.id
        (Gen.kind_name case.Gen.kind)
        seed case.Gen.id exn minimized)
    summary.Harness.crashes;
  List.iter
    (fun ((case : Gen.case), m) ->
      Format.printf "@.violation in case %d [%s] (replay: --seed %d --replay %d): %s@."
        case.Gen.id
        (Gen.kind_name case.Gen.kind)
        seed case.Gen.id m)
    summary.Harness.violations;
  if verbose then begin
    List.iter
      (fun ((case : Gen.case), m) ->
        Format.printf "comparative regression in case %d: %s@." case.Gen.id m)
      summary.Harness.regressions;
    List.iter
      (fun ((case : Gen.case), m) ->
        Format.printf "cpa+ regression in case %d: %s@." case.Gen.id m)
      summary.Harness.plus_regressions
  end;
  if Harness.ok summary then 0 else 1

let fuzz cases seed verbose replay jobs =
  match replay with
  | Some id -> replay_case ~seed ~id
  | None -> campaign ~cases ~seed ~verbose ~jobs

let cases_t =
  Arg.(value & opt int 200 & info [ "cases"; "n" ] ~docv:"N" ~doc:"Number of generated kernels.")

let seed_t =
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"Campaign seed; every case derives from (seed, id).")

let verbose_t =
  Arg.(value & flag & info [ "verbose"; "v" ] ~doc:"Print every case outcome, not just failures.")

let replay_t =
  Arg.(value & opt (some int) None & info [ "replay" ] ~docv:"ID" ~doc:"Regenerate and run a single case by id, printing its source.")

let jobs_t =
  Arg.(
    value
    & opt (some int) None
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Worker domains for the campaign (default: $(b,SRFA_JOBS) or the \
           machine's recommended domain count; clamped to the latter with a \
           W-GUARD-JOBS warning). The campaign report is byte-identical at \
           every job count.")

let cmd =
  let doc = "deterministic never-crash fuzzing of the srfa pipeline" in
  Cmd.v
    (Cmd.info "srfa_fuzz" ~doc)
    Term.(const fuzz $ cases_t $ seed_t $ verbose_t $ replay_t $ jobs_t)

let () = exit (Cmd.eval' cmd)
