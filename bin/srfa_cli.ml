(* Command-line driver for the scalar-replacement register-allocation
   flow: run allocations, print design reports, dump DFGs, emit code. *)

open Cmdliner

let kernel_conv =
  let parse s =
    match Srfa_kernels.Kernels.find s with
    | Some nest -> Ok nest
    | None ->
      Error
        (`Msg
          (Printf.sprintf "unknown kernel %S (try: %s)" s
             (String.concat ", " Srfa_kernels.Kernels.names)))
  in
  let print ppf nest = Format.fprintf ppf "%s" nest.Srfa_ir.Nest.name in
  Arg.conv (parse, print)

let algorithm_conv =
  let parse s =
    match Srfa_core.Allocator.of_name s with
    | Some a -> Ok a
    | None -> Error (`Msg (Printf.sprintf "unknown algorithm %S" s))
  in
  let print ppf a = Format.fprintf ppf "%s" (Srfa_core.Allocator.name a) in
  Arg.conv (parse, print)

let budget_arg =
  let doc = "Register budget available to the allocator." in
  Arg.(value & opt int 64 & info [ "b"; "budget" ] ~docv:"N" ~doc)

let kernel_pos =
  Arg.(
    required
    & pos 0 (some kernel_conv) None
    & info [] ~docv:"KERNEL" ~doc:"Kernel name (see $(b,kernels) command).")

let algorithm_arg =
  let doc =
    "Allocation algorithm: fr-ra, pr-ra, cpa-ra, cpa-ra+, ks-ra or \
     portfolio."
  in
  Arg.(
    value
    & opt algorithm_conv Srfa_core.Allocator.Cpa_ra
    & info [ "a"; "algorithm" ] ~docv:"ALG" ~doc)

let certify_arg =
  let doc =
    "Certify the allocation: simulate it against the FR-RA and PR-RA \
     baselines at the same budget and repair (re-spend stranded \
     registers, reclaim partial cut shares, or adopt the winning \
     baseline) on a regression. Shorthand for the $(b,portfolio) \
     algorithm."
  in
  Arg.(value & flag & info [ "certify" ] ~doc)

let config_of_budget budget =
  { Srfa_core.Flow.default_config with Srfa_core.Flow.budget }

(* ---- diagnostics ------------------------------------------------------- *)

(* One rendering and one exit-code policy for every subcommand:
   [severity[CODE] line L, column C: message], warnings exit 0, input
   errors exit 2, internal/fatal errors exit 3 (see Diag.exit_code). *)
let report_diags ?file diags =
  List.iter
    (fun d ->
      (match file with
      | Some f -> Format.eprintf "%s: " f
      | None -> ());
      Format.eprintf "%a@." Srfa_util.Diag.pp d)
    diags

let fail_diags ?file diags =
  report_diags ?file diags;
  exit (Srfa_util.Diag.exit_code diags)

(* Last-resort exception boundary around a subcommand body. Commands that
   read files or run the pipeline can fail deep inside the libraries; the
   classifier turns any escape into one coded diagnostic instead of an
   uncaught-exception crash. *)
let guarded f =
  try f ()
  with (Sys_error _ | Invalid_argument _ | Failure _ | Not_found) as exn ->
    fail_diags [ Srfa_util.Diag.of_exn exn ]

(* kernels *)
let kernels_cmd =
  let run () =
    let show (name, nest) =
      Format.printf "%-8s %d-deep, %d iterations@." name
        (Srfa_ir.Nest.depth nest)
        (Srfa_ir.Nest.iterations nest)
    in
    List.iter show
      (("example", Srfa_kernels.Kernels.example ()) :: Srfa_kernels.Kernels.all ())
  in
  Cmd.v (Cmd.info "kernels" ~doc:"List available kernels.")
    Term.(const run $ const ())

(* show: pretty-print a kernel and its reuse analysis *)
let show_cmd =
  let run nest =
    guarded @@ fun () ->
    Format.printf "%a@." Srfa_ir.Nest.pp nest;
    let analysis = Srfa_core.Flow.analyze nest in
    Array.iter
      (fun info -> Format.printf "%a@." Srfa_reuse.Analysis.pp_info info)
      analysis.Srfa_reuse.Analysis.infos
  in
  Cmd.v
    (Cmd.info "show" ~doc:"Print a kernel and its data-reuse analysis.")
    Term.(const run $ kernel_pos)

(* alloc: run one allocator and print the design report *)
let trace_arg =
  let doc =
    "Write the allocator's decision trace (one JSON object per event: \
     budget checks, per-round cuts with max-flow statistics, full/partial \
     assignments with their reasons) to $(docv) as JSON lines."
  in
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)

let alloc_cmd =
  let run nest algorithm budget trace_file certify =
    guarded @@ fun () ->
    let algorithm =
      if certify then Srfa_core.Allocator.Portfolio else algorithm
    in
    let config = config_of_budget budget in
    let analysis = Srfa_core.Flow.analyze nest in
    let trace, finish =
      match trace_file with
      | None -> (Srfa_util.Trace.null, ignore)
      | Some file ->
        let oc = open_out file in
        let chan = Srfa_util.Trace.channel oc and written = ref 0 in
        let counted =
          Srfa_util.Trace.make (fun e ->
              incr written;
              Srfa_util.Trace.emit chan (fun () -> e))
        in
        let finish () =
          close_out oc;
          Format.printf "trace: %d events written to %s@." !written file
        in
        (counted, finish)
    in
    let alloc, report =
      Srfa_core.Flow.evaluate_analysis ~trace config algorithm analysis
    in
    Format.printf "%a@.@." Srfa_reuse.Allocation.pp alloc;
    Format.printf "%a@." Srfa_estimate.Report.pp report;
    finish ()
  in
  Cmd.v
    (Cmd.info "alloc" ~doc:"Allocate registers for a kernel and report.")
    Term.(
      const run $ kernel_pos $ algorithm_arg $ budget_arg $ trace_arg
      $ certify_arg)

(* compare: all algorithms side by side *)
let print_comparison nest budget =
    let config = config_of_budget budget in
    let reports =
      Srfa_core.Flow.evaluate_all ~config
        ~algorithms:Srfa_core.Allocator.all nest
    in
    let base = List.hd reports in
    let table =
      Srfa_util.Texttable.create
        ~headers:
          [
            ("version", Srfa_util.Texttable.Left);
            ("algorithm", Srfa_util.Texttable.Left);
            ("regs", Srfa_util.Texttable.Right);
            ("cycles", Srfa_util.Texttable.Right);
            ("mem cycles", Srfa_util.Texttable.Right);
            ("clock ns", Srfa_util.Texttable.Right);
            ("time us", Srfa_util.Texttable.Right);
            ("speedup", Srfa_util.Texttable.Right);
            ("slices", Srfa_util.Texttable.Right);
            ("rams", Srfa_util.Texttable.Right);
          ]
    in
    let row (r : Srfa_estimate.Report.t) =
      Srfa_util.Texttable.add_row table
        [
          r.Srfa_estimate.Report.version;
          r.Srfa_estimate.Report.algorithm;
          string_of_int r.Srfa_estimate.Report.total_registers;
          string_of_int r.Srfa_estimate.Report.cycles;
          string_of_int r.Srfa_estimate.Report.memory_cycles;
          Printf.sprintf "%.1f" r.Srfa_estimate.Report.clock_ns;
          Printf.sprintf "%.1f" r.Srfa_estimate.Report.exec_time_us;
          Printf.sprintf "%.2f" (Srfa_estimate.Report.speedup ~base r);
          string_of_int r.Srfa_estimate.Report.slices;
          string_of_int r.Srfa_estimate.Report.rams;
        ]
    in
    List.iter row reports;
    Srfa_util.Texttable.print table

let compare_cmd =
  let run nest budget = guarded @@ fun () -> print_comparison nest budget in
  Cmd.v
    (Cmd.info "compare" ~doc:"Compare all allocation algorithms on a kernel.")
    Term.(const run $ kernel_pos $ budget_arg)

(* compile: parse a kernel source file and evaluate it *)
let compile_cmd =
  let file_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"FILE" ~doc:"Kernel source file (see kernels_src/).")
  in
  let run file budget =
    guarded @@ fun () ->
    match Srfa_frontend.Parser.parse_file_result file with
    | Result.Error diags -> fail_diags ~file diags
    | Ok nest ->
      Format.printf "%a@.@." Srfa_ir.Nest.pp nest;
      let analysis = Srfa_core.Flow.analyze nest in
      Array.iter
        (fun info -> Format.printf "%a@." Srfa_reuse.Analysis.pp_info info)
        analysis.Srfa_reuse.Analysis.infos;
      Format.printf "@.";
      print_comparison nest budget
  in
  Cmd.v
    (Cmd.info "compile"
       ~doc:"Parse a kernel source file, analyse it and compare all              allocation algorithms on it.")
    Term.(const run $ file_arg $ budget_arg)

(* check: total pipeline over a source file — report or diagnostics *)
let check_cmd =
  let file_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"FILE" ~doc:"Kernel source file (see kernels_src/).")
  in
  let run file algorithm budget =
    guarded @@ fun () ->
    match Srfa_frontend.Parser.parse_file_result file with
    | Result.Error diags -> fail_diags ~file diags
    | Ok nest -> (
      let config = config_of_budget budget in
      match Srfa_core.Flow.checked ~config ~algorithm nest with
      | Result.Error diags -> fail_diags ~file diags
      | Ok (report, warnings) ->
        report_diags ~file warnings;
        Format.printf "%a@." Srfa_estimate.Report.pp report;
        exit (Srfa_util.Diag.exit_code warnings))
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Run the checked pipeline on a kernel source file: print a design \
          report (with warnings for any degraded stage) or coded \
          diagnostics. Exit 0 on success or warnings, 2 on input errors, 3 \
          on internal errors.")
    Term.(const run $ file_arg $ algorithm_arg $ budget_arg)

(* dfg: DOT dump *)
let dfg_cmd =
  let run nest algorithm budget =
    guarded @@ fun () ->
    let config = config_of_budget budget in
    let analysis = Srfa_core.Flow.analyze nest in
    let alloc = Srfa_core.Flow.allocation ~config algorithm analysis in
    let dfg = Srfa_dfg.Graph.build analysis in
    let charged g =
      let gid = g.Srfa_reuse.Group.id in
      let info = Srfa_reuse.Analysis.info analysis gid in
      let e = Srfa_reuse.Allocation.entry alloc gid in
      (not info.Srfa_reuse.Analysis.has_reuse)
      || e.Srfa_reuse.Allocation.beta < info.Srfa_reuse.Analysis.nu
    in
    let cg =
      Srfa_dfg.Critical.make dfg ~latency:Srfa_hw.Latency.default ~charged
    in
    print_string (Srfa_dfg.Dot.render ~highlight:cg dfg ~charged)
  in
  Cmd.v
    (Cmd.info "dfg"
       ~doc:"Dump the kernel's data-flow graph (with its critical graph \
             under the chosen allocation) as Graphviz DOT.")
    Term.(const run $ kernel_pos $ algorithm_arg $ budget_arg)

(* cuts: show CG cuts *)
let cuts_cmd =
  let run nest =
    guarded @@ fun () ->
    let analysis = Srfa_core.Flow.analyze nest in
    let dfg = Srfa_dfg.Graph.build analysis in
    let charged _ = true in
    let cg =
      Srfa_dfg.Critical.make dfg ~latency:Srfa_hw.Latency.default ~charged
    in
    Format.printf "critical path latency: %d@." (Srfa_dfg.Critical.length cg);
    let show cut =
      Format.printf "cut: {%s}@."
        (String.concat ", " (List.map Srfa_reuse.Group.name cut))
    in
    List.iter show (Srfa_dfg.Cut.enumerate_exhaustive cg)
  in
  Cmd.v
    (Cmd.info "cuts" ~doc:"Enumerate the cuts of a kernel's critical graph.")
    Term.(const run $ kernel_pos)

(* codegen: emit transformed C or VHDL *)
let codegen_cmd =
  let lang_arg =
    let doc = "Output language: c or vhdl." in
    Arg.(value & opt (enum [ ("c", `C); ("vhdl", `Vhdl) ]) `C
         & info [ "l"; "lang" ] ~docv:"LANG" ~doc)
  in
  let run nest algorithm budget lang =
    guarded @@ fun () ->
    let config = config_of_budget budget in
    let analysis = Srfa_core.Flow.analyze nest in
    let alloc = Srfa_core.Flow.allocation ~config algorithm analysis in
    let plan = Srfa_codegen.Plan.build alloc in
    match lang with
    | `C -> print_string (Srfa_codegen.C_source.emit plan)
    | `Vhdl -> print_string (Srfa_codegen.Vhdl.emit plan)
  in
  Cmd.v
    (Cmd.info "codegen"
       ~doc:"Emit the scalar-replaced kernel as C or behavioral VHDL.")
    Term.(const run $ kernel_pos $ algorithm_arg $ budget_arg $ lang_arg)

(* sweep: kernels x algorithms x budgets batch driver *)
let named_kernel_conv =
  let parse s =
    match Srfa_kernels.Kernels.find s with
    | Some nest -> Ok (s, nest)
    | None ->
      Error
        (`Msg
          (Printf.sprintf "unknown kernel %S (try: %s)" s
             (String.concat ", " Srfa_kernels.Kernels.names)))
  in
  let print ppf (name, _) = Format.fprintf ppf "%s" name in
  Arg.conv (parse, print)

let sweep_cmd =
  let kernels_pos =
    Arg.(
      value
      & pos_all named_kernel_conv []
      & info [] ~docv:"KERNEL"
          ~doc:
            "Kernels to sweep (default: the Fig. 1 example and the six \
             Table 1 kernels).")
  in
  let budgets_arg =
    let doc = "Comma-separated register budgets." in
    Arg.(
      value
      & opt (list int) Srfa_core.Flow.default_budgets
      & info [ "budgets" ] ~docv:"N,N,..." ~doc)
  in
  let algorithms_arg =
    let doc = "Comma-separated algorithms (default: all six)." in
    Arg.(
      value
      & opt (list algorithm_conv) Srfa_core.Allocator.all
      & info [ "algorithms" ] ~docv:"ALG,ALG,..." ~doc)
  in
  let json_arg =
    let doc = "Emit one JSON object per design point instead of a table." in
    Arg.(value & flag & info [ "json" ] ~doc)
  in
  let jobs_arg =
    let doc =
      "Worker domains for the sweep, parallelising across kernels (default: \
       $(b,SRFA_JOBS) or the machine's recommended domain count; clamped to \
       the latter with a W-GUARD-JOBS warning). Output — points, order and \
       trace — is identical at every job count."
    in
    Arg.(value & opt (some int) None & info [ "j"; "jobs" ] ~docv:"N" ~doc)
  in
  let run kernels budgets algorithms json trace_file certify jobs =
    guarded @@ fun () ->
    let jobs, jobs_warnings = Srfa_util.Pool.resolve ?requested:jobs () in
    report_diags jobs_warnings;
    let algorithms =
      if certify && not (List.mem Srfa_core.Allocator.Portfolio algorithms)
      then algorithms @ [ Srfa_core.Allocator.Portfolio ]
      else algorithms
    in
    let kernels =
      match kernels with
      | [] ->
        ("example", Srfa_kernels.Kernels.example ())
        :: Srfa_kernels.Kernels.all ()
      | ks -> ks
    in
    let finish, trace =
      match trace_file with
      | None -> (ignore, None)
      | Some file ->
        let oc = open_out file in
        ( (fun () -> close_out oc),
          Some (Srfa_util.Trace.channel oc) )
    in
    let points =
      Srfa_util.Pool.with_pool ~jobs (fun pool ->
          Srfa_core.Flow.sweep ~algorithms ~budgets ?trace ~pool kernels)
    in
    finish ();
    if json then print_endline (Srfa_core.Flow.Core.sweep_json points)
    else begin
      let table =
        Srfa_util.Texttable.create
          ~headers:
            [
              ("kernel", Srfa_util.Texttable.Left);
              ("budget", Srfa_util.Texttable.Right);
              ("version", Srfa_util.Texttable.Left);
              ("algorithm", Srfa_util.Texttable.Left);
              ("regs", Srfa_util.Texttable.Right);
              ("cycles", Srfa_util.Texttable.Right);
              ("mem cycles", Srfa_util.Texttable.Right);
              ("time us", Srfa_util.Texttable.Right);
            ]
      in
      List.iter
        (fun (p : Srfa_core.Flow.sweep_point) ->
          let r = p.Srfa_core.Flow.report in
          Srfa_util.Texttable.add_row table
            [
              p.Srfa_core.Flow.kernel;
              string_of_int p.Srfa_core.Flow.budget;
              r.Srfa_estimate.Report.version;
              r.Srfa_estimate.Report.algorithm;
              string_of_int r.Srfa_estimate.Report.total_registers;
              string_of_int r.Srfa_estimate.Report.cycles;
              string_of_int r.Srfa_estimate.Report.memory_cycles;
              Printf.sprintf "%.1f" r.Srfa_estimate.Report.exec_time_us;
            ])
        points;
      Srfa_util.Texttable.print table
    end
  in
  Cmd.v
    (Cmd.info "sweep"
       ~doc:
         "Sweep kernels x algorithms x register budgets in one pass \
          (analysis and CPA scratch reused across budgets) and report each \
          design point as a table or JSON.")
    Term.(
      const run $ kernels_pos $ budgets_arg $ algorithms_arg $ json_arg
      $ trace_arg $ certify_arg $ jobs_arg)

(* export: write generated artifacts to a directory *)
let export_cmd =
  let dir_arg =
    let doc = "Directory to write into (created if missing)." in
    Arg.(value & opt string "srfa-out" & info [ "o"; "output" ] ~docv:"DIR" ~doc)
  in
  let run nest algorithm budget dir =
    guarded @@ fun () ->
    let config = config_of_budget budget in
    let alloc, report =
      Srfa_core.Flow.evaluate_analysis config algorithm
        (Srfa_core.Flow.analyze nest)
    in
    let plan = Srfa_codegen.Plan.build alloc in
    let name = Srfa_codegen.Vhdl.entity_name plan in
    if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
    let write file text =
      let path = Filename.concat dir file in
      let oc = open_out path in
      output_string oc text;
      close_out oc;
      Format.printf "wrote %s@." path
    in
    write (name ^ ".c") (Srfa_codegen.C_source.emit plan);
    write (name ^ ".vhd") (Srfa_codegen.Vhdl.emit plan);
    write (name ^ "_tb.vhd") (Srfa_codegen.Vhdl.emit_testbench plan);
    write (name ^ "_report.txt")
      (Format.asprintf "%a@.@.%a@." Srfa_reuse.Allocation.pp alloc
         Srfa_estimate.Report.pp report)
  in
  Cmd.v
    (Cmd.info "export"
       ~doc:"Write the generated C, VHDL, testbench and design report for              a kernel to a directory.")
    Term.(const run $ kernel_pos $ algorithm_arg $ budget_arg $ dir_arg)

(* profile: per-iteration cycle-cost histogram *)
let profile_cmd =
  let run nest algorithm budget =
    guarded @@ fun () ->
    let config = config_of_budget budget in
    let analysis = Srfa_core.Flow.analyze nest in
    let alloc = Srfa_core.Flow.allocation ~config algorithm analysis in
    let hist =
      Srfa_sched.Simulator.profile ~config:config.Srfa_core.Flow.sim alloc
    in
    let total = List.fold_left (fun acc (_, n) -> acc + n) 0 hist in
    Format.printf "%8s %10s %8s@." "cycles" "iterations" "share";
    List.iter
      (fun (cost, count) ->
        Format.printf "%8d %10d %7.1f%%@." cost count
          (100.0 *. float_of_int count /. float_of_int total))
      hist
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:"Histogram of per-iteration cycle costs under an allocation.")
    Term.(const run $ kernel_pos $ algorithm_arg $ budget_arg)

(* orders: loop-interchange exploration *)
let orders_cmd =
  let run nest algorithm budget =
    guarded @@ fun () ->
    let config = config_of_budget budget in
    let candidates, warnings =
      Srfa_core.Order_explorer.explore ~config algorithm nest
    in
    List.iter (fun d -> Format.eprintf "%a@." Srfa_util.Diag.pp d) warnings;
    Format.printf "%-14s %10s %12s@." "loop order" "cycles" "mem cycles";
    List.iter
      (fun (c : Srfa_core.Order_explorer.candidate) ->
        Format.printf "%-14s %10d %12d@."
          (String.concat " " c.Srfa_core.Order_explorer.loop_vars)
          c.Srfa_core.Order_explorer.cycles
          c.Srfa_core.Order_explorer.memory_cycles)
      candidates
  in
  Cmd.v
    (Cmd.info "orders"
       ~doc:"Explore loop interchanges of a kernel under an allocator.")
    Term.(const run $ kernel_pos $ algorithm_arg $ budget_arg)

(* explore: joint (order x tile x budget x algorithm) frontier *)
let explore_cmd =
  let orders_arg =
    let doc =
      "Loop-order axis: $(b,all) (every legal permutation; non-permutable \
       nests degrade to the identity with a W-GUARD-EXPLORE warning), \
       $(b,identity), or an explicit semicolon-separated list of \
       permutations like $(b,0,2,1;2,0,1)."
    in
    let parse s =
      Option.to_result (Srfa_core.Flow.Core.order_spec_of_string s)
        ~none:
          (`Msg
            (Printf.sprintf
               "invalid loop-order spec %S (all, identity, or permutations \
                like 0,2,1;2,0,1)"
               s))
    in
    let print ppf o =
      Format.pp_print_string ppf (Srfa_core.Flow.Core.order_spec_to_string o)
    in
    Arg.(
      value
      & opt (conv (parse, print)) Srfa_core.Flow.Core.All_orders
      & info [ "orders" ] ~docv:"SPEC" ~doc)
  in
  let tiles_arg =
    let doc =
      "Comma-separated candidate strip-mine factors; every legal \
       (level, factor) combination becomes a tiling variant. Empty \
       disables the tiling axis."
    in
    Arg.(value & opt (list int) [] & info [ "tiles" ] ~docv:"F,F,..." ~doc)
  in
  let budgets_arg =
    let doc = "Comma-separated register budgets." in
    Arg.(
      value
      & opt (list int) Srfa_core.Flow.default_budgets
      & info [ "budgets" ] ~docv:"N,N,..." ~doc)
  in
  let algorithms_arg =
    let doc = "Comma-separated algorithms, at least one (default: cpa-ra)." in
    let algorithms = Arg.list algorithm_conv in
    let parse s =
      match Arg.conv_parser algorithms s with
      | Ok [] -> Error (`Msg "expected at least one algorithm")
      | parsed -> parsed
    in
    let algorithms = Arg.conv (parse, Arg.conv_printer algorithms) in
    Arg.(
      value
      & opt algorithms [ Srfa_core.Allocator.Cpa_ra ]
      & info [ "algorithms" ] ~docv:"ALG,ALG,..." ~doc)
  in
  let json_arg =
    let doc = "Emit the frontier as JSON (stats go to stderr)." in
    Arg.(value & flag & info [ "json" ] ~doc)
  in
  let csv_arg =
    let doc = "Emit the frontier as CSV (stats go to stderr)." in
    Arg.(value & flag & info [ "csv" ] ~doc)
  in
  let no_prune_arg =
    let doc =
      "Disable the dominance cuts and evaluate the exhaustive product \
       (the frontier is identical either way; this is the \
       differential-testing arm)."
    in
    Arg.(value & flag & info [ "no-prune" ] ~doc)
  in
  let jobs_arg =
    let doc =
      "Worker domains, parallelising across variants (default: \
       $(b,SRFA_JOBS) or the machine's recommended domain count). The \
       frontier is byte-identical at every job count."
    in
    Arg.(value & opt (some int) None & info [ "j"; "jobs" ] ~docv:"N" ~doc)
  in
  let run nest orders tiles budgets algorithms json csv trace_file certify
      no_prune jobs =
    guarded @@ fun () ->
    let jobs, jobs_warnings = Srfa_util.Pool.resolve ?requested:jobs () in
    report_diags jobs_warnings;
    let space =
      {
        Srfa_core.Flow.Core.orders;
        tile_factors = tiles;
        space_budgets = budgets;
        space_algorithms = algorithms;
        certify;
        prune = not no_prune;
      }
    in
    let finish, trace =
      match trace_file with
      | None -> (ignore, None)
      | Some file ->
        let oc = open_out file in
        ((fun () -> close_out oc), Some (Srfa_util.Trace.channel oc))
    in
    let f =
      Srfa_util.Pool.with_pool ~jobs (fun pool ->
          Srfa_core.Flow.Core.explore ?trace ~pool ~space
            Srfa_core.Flow.default_config nest)
    in
    finish ();
    report_diags f.Srfa_core.Flow.Core.frontier_warnings;
    let s = f.Srfa_core.Flow.Core.frontier_stats in
    let stats_line =
      Printf.sprintf
        "explore: %d variants (%d unique, %d ladders cut), %d points \
         evaluated, %d cut, %d sim memo hits"
        s.Srfa_core.Flow.Core.variants_enumerated
        s.Srfa_core.Flow.Core.variants_unique
        s.Srfa_core.Flow.Core.variants_pruned
        s.Srfa_core.Flow.Core.points_evaluated
        s.Srfa_core.Flow.Core.points_pruned
        s.Srfa_core.Flow.Core.sim_memo_hits
    in
    if json then begin
      print_endline (Srfa_core.Flow.Core.frontier_json f);
      prerr_endline stats_line
    end
    else if csv then begin
      print_string (Srfa_core.Flow.Core.frontier_csv f);
      prerr_endline stats_line
    end
    else begin
      let module T = Srfa_util.Texttable in
      let table =
        T.create
          ~headers:
            [
              ("variant", T.Left); ("budget", T.Right);
              ("algorithm", T.Left); ("cycles", T.Right);
              ("regs", T.Right); ("slices", T.Right);
              ("clock ns", T.Right); ("time us", T.Right);
            ]
      in
      List.iter
        (fun (p : Srfa_core.Flow.Core.explore_point) ->
          T.add_row table
            [
              p.Srfa_core.Flow.Core.label;
              string_of_int p.Srfa_core.Flow.Core.point_budget;
              p.Srfa_core.Flow.Core.point_algorithm;
              string_of_int p.Srfa_core.Flow.Core.coords.cycles;
              string_of_int p.Srfa_core.Flow.Core.coords.registers;
              string_of_int p.Srfa_core.Flow.Core.coords.slices;
              Printf.sprintf "%.2f" p.Srfa_core.Flow.Core.coords.clock_ns;
              Printf.sprintf "%.1f"
                p.Srfa_core.Flow.Core.point_report
                  .Srfa_estimate.Report.exec_time_us;
            ])
        f.Srfa_core.Flow.Core.points;
      T.print table;
      print_endline stats_line
    end
  in
  Cmd.v
    (Cmd.info "explore"
       ~doc:
         "Explore the joint (loop order x tile x budget x algorithm) \
          design space of a kernel and print its (cycles, registers, \
          slices, clock) Pareto frontier. Dominance cuts and memoised \
          analysis keep the product cheap; the frontier is identical to \
          the exhaustive product (see DESIGN.md \xC2\xA717).")
    Term.(
      const run $ kernel_pos $ orders_arg $ tiles_arg $ budgets_arg
      $ algorithms_arg $ json_arg $ csv_arg $ trace_arg $ certify_arg
      $ no_prune_arg $ jobs_arg)

(* rebudget: replay a budget-event stream against a live allocation *)

(* The events file is JSON: either a bare array of events, or an object
   {"initial": N, "events": [...]} that also pins the opening budget.
   Each event is an absolute target — a bare integer or {"budget": N} —
   or a relative {"delta": D} against the previous target (the opening
   budget for the first event). The file is read where the option is
   parsed, so a malformed one is a usage error like a missing one. The
   value is the pinned opening budget, if any, and each event as a
   function of the previous target. *)
let events_conv =
  let module J = Srfa_util.Json in
  let event = function
    | J.Int n -> Fun.const n
    | J.Obj _ as obj -> (
      match (J.member "budget" obj, J.member "delta" obj) with
      | Some (J.Int n), None -> Fun.const n
      | None, Some (J.Int d) -> ( + ) d
      | _ -> failwith "event objects carry \"budget\" or \"delta\" (integer)")
    | _ -> failwith "events are integers or {\"budget\"|\"delta\": N} objects"
  in
  let of_json = function
    | J.Arr events -> (None, List.map event events)
    | J.Obj _ as obj ->
      let initial =
        match J.member "initial" obj with
        | Some (J.Int n) -> Some n
        | None -> None
        | Some _ -> failwith "\"initial\" must be an integer"
      in
      (match J.member "events" obj with
      | Some (J.Arr events) -> (initial, List.map event events)
      | _ -> failwith "expected an \"events\" array")
    | _ -> failwith "expected an array of events or an object with one"
  in
  let parse file =
    Result.bind (Arg.conv_parser Arg.file file) (fun file ->
        let read ic = J.parse (In_channel.input_all ic) in
        match of_json (In_channel.with_open_text file read) with
        | events -> Ok events
        | exception (J.Malformed why | Failure why | Sys_error why) ->
          Error (`Msg (Printf.sprintf "events file %s: %s" file why)))
  in
  Arg.conv (parse, fun ppf _ -> Format.pp_print_string ppf "FILE")

let rebudget_cmd =
  let events_arg =
    let doc =
      "JSON budget-event stream to replay: an array of events, or an \
       object {\"initial\": N, \"events\": [...]}. Events are absolute \
       targets (integers or {\"budget\": N}) or relative \
       ({\"delta\": -8}) against the previous target."
    in
    Arg.(
      required
      & opt (some events_conv) None
      & info [ "events" ] ~docv:"FILE" ~doc)
  in
  let initial_arg =
    let doc =
      "Budget the stream opens at (overridden by the events file's \
       \"initial\" field when present)."
    in
    Arg.(value & opt int 64 & info [ "initial" ] ~docv:"N" ~doc)
  in
  let json_arg =
    let doc = "Emit one JSON object per step instead of a table." in
    Arg.(value & flag & info [ "json" ] ~doc)
  in
  let run nest initial (pinned, events) json_out =
    guarded @@ fun () ->
    let module Flow = Srfa_core.Flow in
    let initial = Option.value pinned ~default:initial in
    let last = ref initial in
    let events = List.map (fun next -> last := next !last; !last) events in
    let prepared = Flow.Core.prepare nest in
    let steps =
      Flow.Core.rebudget Flow.default_config prepared ~initial ~events
    in
    if json_out then
      let module J = Srfa_util.Json in
      List.iteri
        (fun k (s : Flow.Core.rebudget_step) ->
          let r = s.Flow.Core.report in
          print_endline
            (J.to_string
               (J.Obj
                  [
                    ("event", J.Int (k - 1));
                    ("requested", J.Int s.Flow.Core.requested);
                    ("effective", J.Int s.Flow.Core.effective);
                    ("clamped", J.Bool s.Flow.Core.clamped);
                    ("memoized", J.Bool s.Flow.Core.memoized);
                    ("freed", J.Int s.Flow.Core.freed);
                    ("respent", J.Int s.Flow.Core.respent);
                    ("registers", J.Int r.Srfa_estimate.Report.total_registers);
                    ("cycles", J.Int r.Srfa_estimate.Report.cycles);
                    ("memory_cycles", J.Int r.Srfa_estimate.Report.memory_cycles);
                  ])))
        steps
    else begin
      Format.printf "%6s %9s %9s %6s %7s %9s %10s %6s@." "event" "request"
        "budget" "freed" "respent" "registers" "cycles" "notes";
      List.iteri
        (fun k (s : Flow.Core.rebudget_step) ->
          let notes =
            String.concat ","
              ((if s.Flow.Core.clamped then [ "clamped" ] else [])
              @ (if s.Flow.Core.memoized then [ "memo" ] else []))
          in
          Format.printf "%6s %9d %9d %6d %7d %9d %10d %6s@."
            (if k = 0 then "open" else string_of_int (k - 1))
            s.Flow.Core.requested s.Flow.Core.effective s.Flow.Core.freed
            s.Flow.Core.respent
            s.Flow.Core.report.Srfa_estimate.Report.total_registers
            s.Flow.Core.report.Srfa_estimate.Report.cycles notes)
        steps
    end;
    let warnings =
      List.concat_map (fun s -> s.Flow.Core.warnings) steps
      |> List.sort_uniq compare
    in
    report_diags warnings
  in
  Cmd.v
    (Cmd.info "rebudget"
       ~doc:
         "Replay a budget shrink/grow event stream incrementally against \
          a live certified allocation (partial reconfiguration; see \
          DESIGN.md \xC2\xA716).")
    Term.(const run $ kernel_pos $ initial_arg $ events_arg $ json_arg)

let main_cmd =
  let doc =
    "Register allocation in the presence of scalar replacement for \
     fine-grain configurable architectures (DATE 2005 reproduction)."
  in
  Cmd.group
    (Cmd.info "srfa" ~version:"1.0.0" ~doc)
    [
      kernels_cmd;
      show_cmd;
      compile_cmd;
      check_cmd;
      alloc_cmd;
      compare_cmd;
      dfg_cmd;
      cuts_cmd;
      codegen_cmd;
      sweep_cmd;
      rebudget_cmd;
      orders_cmd;
      explore_cmd;
      profile_cmd;
      export_cmd;
    ]

let () = exit (Cmd.eval main_cmd)
