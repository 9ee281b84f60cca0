(* The [design] workload: design-space work over a small fixed set of
   parsed kernels, single-domain and without a pool. Analysis is paid once
   per kernel or explore variant, so nearly all the work falls on the
   allocation engine, certification, the simulator, the estimator, and the
   explorer's pruning bounds and memo. One round is a budget-ladder sweep
   of every kernel over all six algorithms, the rebudget replay of every
   seeded event stream, and a joint explore of two kernels; the
   operations run in a fresh seeded order each round. *)

open Common
open Srfa_core
module K = Srfa_kernels.Kernels
module E = Srfa_kernels.Extra
module Protocol = Srfa_server.Protocol

(* Named so that every kernel a rebudget stream can draw resolves here
   (Gen streams name example, fir, dec-fir, imi, mat, pat and bic). *)
let kernels () =
  [
    ("example", K.example ());
    ("fir", K.fir ~taps:16 ~samples:256 ());
    ("dec-fir", K.dec_fir ~taps:16 ~samples:512 ~decimation:4 ());
    ("imi", K.imi ~width:24 ~height:24 ~frames:4 ());
    ("mat", K.mat ~size:12 ());
    ("pat", K.pat ~pattern:16 ~text:256 ());
    ("bic", K.bic ~template:4 ~image:16 ());
    ("conv2d", E.conv2d ~mask:3 ~image:24 ());
    ("corner-turn", E.corner_turn ~size:12 ());
    ("moving-average", E.moving_average ~window:8 ~samples:256 ());
  ]

let budgets = [ 8; 12; 16; 24; 32; 48; 64; 96; 128 ]
let streams_per_round = 8
let explore_kernels = [ "example"; "corner-turn" ]

let space =
  {
    Flow.Core.default_space with
    Flow.Core.tile_factors = [ 2; 4 ];
    space_budgets = budgets;
    space_algorithms = [ Allocator.Cpa_ra; Allocator.Portfolio ];
  }

type op =
  | Sweep of string * Allocator.algorithm
  | Rebudget of Srfa_fuzzer.Gen.stream
  | Explore of string

type kernel = { nest : Srfa_ir.Nest.t; prepared : Flow.Core.prepared }

(* Set-up: parse every kernel from its rendered source and prepare it. *)
let load () =
  List.map
    (fun (name, nest) ->
      match Srfa_frontend.Parser.parse_result (source nest) with
      | Ok nest -> (name, { nest; prepared = Flow.Core.prepare nest })
      | Error _ -> failwith ("design: kernel does not parse: " ^ name))
    (kernels ())

let config = Flow.default_config

(* One operation through the one-call entry points: the rendered reports
   (sweep points, rebudget steps) or the frontier JSON, and the number of
   design points it answered. *)
let run_op set = function
  | Sweep (name, alg) ->
    let k = List.assoc name set in
    let points =
      Flow.Core.sweep_kernel ~config ~algorithms:[ alg ] ~budgets (name, k.nest)
    in
    ( List.map
        (fun (p : Flow.Core.sweep_point) -> Protocol.json_of_report p.Flow.Core.report)
        points,
      List.length points )
  | Rebudget st ->
    let k = List.assoc st.Srfa_fuzzer.Gen.kernel set in
    let steps =
      Flow.Core.rebudget config k.prepared ~initial:st.Srfa_fuzzer.Gen.initial
        ~events:st.Srfa_fuzzer.Gen.events
    in
    ( List.map
        (fun (s : Flow.Core.rebudget_step) -> Protocol.json_of_report s.Flow.Core.report)
        steps,
      List.length steps )
  | Explore name ->
    let f = Flow.Core.explore ~space config (List.assoc name set).nest in
    let s = f.Flow.Core.frontier_stats in
    ( [ Flow.Core.frontier_json f ],
      s.Flow.Core.points_evaluated + s.Flow.Core.points_pruned )

(* The same operation, one layer at a time. The certified portfolio point
   of a sweep threads a carry-forward across the ladder, so it is taken
   whole through [Flow.Core.portfolio_point]; its span covers its own
   certification simulations. *)
let run_staged set = function
  | Sweep (name, alg) ->
    let k = List.assoc name set in
    let p = Stages.prepare k.nest in
    let scratch = Stages.scratch config p in
    let carry = ref None in
    List.filter_map
      (fun budget ->
        if budget < p.Flow.Core.minimum then None
        else
          let cfg = { config with Flow.budget } in
          let report =
            match alg with
            | Allocator.Portfolio ->
              let sink, events = Srfa_util.Trace.collector () in
              let r =
                Stages.span "core.alloc.portfolio" (fun () ->
                    Flow.Core.portfolio_point ~trace:sink
                      ~prepared:p.Flow.Core.cpa ~sim_scratch:scratch ~carry cfg
                      name p.Flow.Core.analysis)
              in
              Stages.count_events (events ());
              r
            | _ -> fst (Stages.evaluate cfg alg p scratch)
          in
          Some (Stages.render report))
      budgets
  | Rebudget st ->
    let k = List.assoc st.Srfa_fuzzer.Gen.kernel set in
    let p = Stages.prepare k.nest in
    let sim_scratch = Stages.scratch config p in
    let session, first =
      Stages.rebudget_start ~sim_scratch config p ~budget:st.Srfa_fuzzer.Gen.initial
    in
    List.map
      (fun (s : Flow.Core.rebudget_step) -> Stages.render s.Flow.Core.report)
      (first
      :: List.map
           (fun budget -> Stages.rebudget_step session ~budget)
           st.Srfa_fuzzer.Gen.events)
  | Explore name ->
    [ Flow.Core.frontier_json (Stages.explore ~space config (List.assoc name set).nest) ]

(* Untimed, once per run: along every sweep ladder and after every
   rebudget event the certified portfolio is never slower than FR-RA or
   PR-RA at the same (effective) budget. *)
let check_op t set op =
  let cycles k alg budget =
    match
      Flow.Core.checked_prepared { config with Flow.budget } alg k.prepared
    with
    | Ok (r, _) -> r.Srfa_estimate.Report.cycles
    | Error _ -> -1
  in
  let never_worse what k budget pf =
    let fr = cycles k Allocator.Fr_ra budget in
    let pr = cycles k Allocator.Pr_ra budget in
    check t what (fr >= 0 && pr >= 0 && pf <= min fr pr)
  in
  match op with
  | Sweep (name, Allocator.Portfolio) ->
    let k = List.assoc name set in
    List.iter
      (fun (p : Flow.Core.sweep_point) ->
        never_worse
          (Printf.sprintf "design: sweep %s portfolio never worse at %d" name
             p.Flow.Core.budget)
          k p.Flow.Core.budget p.Flow.Core.report.Srfa_estimate.Report.cycles)
      (Flow.Core.sweep_kernel ~config ~algorithms:[ Allocator.Portfolio ] ~budgets
         (name, k.nest))
  | Sweep _ -> ()
  | Rebudget st ->
    let k = List.assoc st.Srfa_fuzzer.Gen.kernel set in
    List.iter
      (fun (s : Flow.Core.rebudget_step) ->
        never_worse
          (Printf.sprintf "design: rebudget stream %d never worse at %d"
             st.Srfa_fuzzer.Gen.stream_id s.Flow.Core.effective)
          k s.Flow.Core.effective s.Flow.Core.report.Srfa_estimate.Report.cycles)
      (Flow.Core.rebudget config k.prepared ~initial:st.Srfa_fuzzer.Gen.initial
         ~events:st.Srfa_fuzzer.Gen.events)
  | Explore _ -> ()

let run (s : settings) =
  let t = tally () in
  let set = load () in
  let setup_s = setup_time 7 (fun () -> ignore (load ())) in
  let ops =
    Array.of_list
      (List.concat_map
         (fun (name, _) -> List.map (fun alg -> Sweep (name, alg)) Allocator.all)
         set
      @ List.init streams_per_round (fun id ->
            Rebudget (Srfa_fuzzer.Gen.generate_stream ~seed:s.seed ~id))
      @ List.map (fun name -> Explore name) explore_kernels)
  in
  run_common_checks s t;
  let loop =
    rounds s t ~what:"design" ~n:(Array.length ops)
      ~run:(fun i ->
        let rendered, points = run_op set ops.(i) in
        (Some rendered, points))
      ~staged:(fun i -> Some (run_staged set ops.(i)))
  in
  let peak = peak_rss_kb "self" in
  Array.iter (check_op t set) ops;
  write_spans s ~workload:"design";
  {
    attempted = t.attempted;
    failed = t.failed;
    metrics = loop_metrics s ~setup_s ~peak loop;
  }
