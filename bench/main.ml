(* Benchmark harness: regenerates every quantitative artifact of the paper
   (DESIGN.md §5) and micro-benchmarks the allocators themselves.

     dune exec bench/main.exe            -- everything
     dune exec bench/main.exe fig2 ...   -- selected sections

   Sections:
     fig2                  Fig. 2(c) worked example (golden numbers)
     fig2-dfg              Fig. 2(a)/(b) DFG, critical graph and cuts
     table1                Table 1 (six kernels x v1/v2/v3)
     table1-summary        the paper's prose averages
     budget-sweep          cycles vs register budget per kernel (series)
     ablation-concurrency  distinct-RAM concurrency ablation
     ablation-knapsack     exact knapsack vs the greedy allocators
     ablation-residency    pinned slots vs LRU / direct-mapped registers
     ablation-cpa-plus     CPA-RA vs the CPA+ leftover-spending extension
     ablation-loop-order   best loop interchange per kernel (extension)
     ablation-latency      RAM-latency sensitivity of the v3 gain
     fixed-clock           Section 5's fixed-clock-fabric remark
     ablation-peeling      cost of the peeled window loads/writebacks
     ablation-pipelining   serial vs pipelined execution regimes
     perf                  Bechamel micro-benchmarks of the allocators
     perf-cuts             flow min-vertex-cut vs exhaustive enumeration
                           on synthetic unrolled kernels (BENCH_cuts.json)
     perf-fuzz             hardened run_checked vs raw evaluate, and
                           fuzz-harness case throughput
     perf-certify          certified portfolio vs plain CPA-RA wall-clock
                           across the sweep kernels (BENCH_certify.json)
     perf-parallel         serial vs N-domain wall-clock for the sweep,
                           fuzz and certify drivers, with the determinism
                           contract re-checked (BENCH_parallel.json)
     perf-core             allocation-free hot core: warm-evaluation
                           wall-clock, allocation rate and max-RSS per
                           kernel across a GC minor-heap matrix, against
                           the recorded pre-arena baselines
                           (BENCH_core.json)
     perf-robust           the daemon under a seeded fault plan and a
                           pipelined overload flood: clean vs faulted
                           throughput/latency and the shed rate
                           (BENCH_robust.json)
     perf-rebudget         incremental re-budgeting (one session, 40
                           oscillating budget events) vs one certified
                           portfolio point per event from scratch
                           (BENCH_rebudget.json)
     perf-explore          the joint design-space explorer vs its naive
                           full-product arm on the matmul space, with
                           prune/memo rates and the byte-identity
                           differential re-checked (BENCH_explore.json)

   Sections can also be picked with `--sections core,cuts,certify` —
   shorthand names expand to their perf-* section. *)

module Allocator = Srfa_core.Allocator
module Cpa_ra = Srfa_core.Cpa_ra
module Flow = Srfa_core.Flow
module Report = Srfa_estimate.Report
module Simulator = Srfa_sched.Simulator
module T = Srfa_util.Texttable
module Pool = Srfa_util.Pool

let budget = 64

(* ---- JSON artifacts --------------------------------------------------
   Every perf section that leaves a machine-readable trail (BENCH_*.json)
   writes it through [write_json]: a [Srfa_util.Json] object in the
   line-per-member layout, plus the bench's number formats. *)
module Json = struct
  include Srfa_util.Json

  let float f = if Float.is_finite f then fixed 3 f else Null
  let ns f = fixed 1 f
  let opt f = function Some v -> f v | None -> Null
end

let write_json file (fields : (string * Json.t) list) =
  Out_channel.with_open_text file (fun oc ->
      output_string oc (Json.to_lines (Json.Obj fields));
      output_char oc '\n');
  Printf.printf "wrote %s\n" file

let section title =
  Printf.printf "\n==============================================================\n";
  Printf.printf "== %s\n" title;
  Printf.printf "==============================================================\n\n"

(* ------------------------------------------------------------------ fig2 *)

let fig2 () =
  section "fig2: worked example of Fig. 2(c) (budget 64)";
  let nest = Srfa_kernels.Kernels.example () in
  let analysis = Flow.analyze nest in
  let expected = [ ("fr-ra", 1800); ("pr-ra", 1560); ("cpa-ra", 1184) ] in
  let table =
    T.create
      ~headers:
        [
          ("algorithm", T.Left); ("beta distribution", T.Left);
          ("regs", T.Right); ("T_mem (cycles)", T.Right);
          ("paper", T.Right); ("match", T.Left);
        ]
  in
  let run alg =
    let alloc = Allocator.run alg analysis ~budget in
    let sim = Simulator.run alloc in
    let betas =
      String.concat " "
        (List.map
           (fun gid ->
             let i = Srfa_reuse.Analysis.info analysis gid in
             Printf.sprintf "%s:%d"
               (Srfa_reuse.Group.decl i.Srfa_reuse.Analysis.group).Srfa_ir.Decl.name
               (Srfa_reuse.Allocation.beta alloc gid))
           (List.init (Srfa_reuse.Analysis.num_groups analysis) Fun.id))
    in
    let name = Allocator.name alg in
    let mem = sim.Simulator.memory_cycles in
    let paper = List.assoc_opt name expected in
    T.add_row table
      [
        name;
        betas;
        string_of_int (Srfa_reuse.Allocation.total_registers alloc);
        string_of_int mem;
        (match paper with Some p -> string_of_int p | None -> "-");
        (match paper with
        | Some p -> if p = mem then "exact" else "MISMATCH"
        | None -> "");
      ]
  in
  List.iter run
    [ Allocator.Fr_ra; Allocator.Pr_ra; Allocator.Cpa_ra; Allocator.Knapsack ];
  T.print table

let fig2_dfg () =
  section "fig2-dfg: Fig. 2(a)/(b) data-flow graph, critical graph, cuts";
  let nest = Srfa_kernels.Kernels.example () in
  let analysis = Flow.analyze nest in
  let dfg = Srfa_dfg.Graph.build analysis in
  let charged _ = true in
  let cg =
    Srfa_dfg.Critical.make dfg ~latency:Srfa_hw.Latency.default ~charged
  in
  Printf.printf "critical path latency (all references in RAM): %d\n"
    (Srfa_dfg.Critical.length cg);
  List.iter
    (fun cut ->
      Printf.printf "cut: {%s}\n"
        (String.concat ", " (List.map Srfa_reuse.Group.name cut)))
    (Srfa_dfg.Cut.enumerate_exhaustive cg);
  Printf.printf "\nGraphviz DOT of the DFG (boxes = references):\n\n%s"
    (Srfa_dfg.Dot.render ~highlight:cg dfg ~charged)

(* ---------------------------------------------------------------- table1 *)

let kernel_reports () =
  List.map
    (fun (name, nest) -> (name, Flow.evaluate_all nest))
    (Srfa_kernels.Kernels.all ())

let table1 () =
  section
    (Printf.sprintf
       "table1: register allocation and hardware designs (budget %d, %s)"
       budget Srfa_hw.Device.xcv1000.Srfa_hw.Device.name);
  let show_kernel (name, reports) =
    let base = List.hd reports in
    Printf.printf "%s  (required registers for full replacement: %s)\n" name
      (String.concat ", "
         (List.map
            (fun (g, nu) -> Printf.sprintf "%s=%d" g nu)
            base.Report.required));
    let table =
      T.create
        ~headers:
          [
            ("version", T.Left); ("registers", T.Left); ("total", T.Right);
            ("cycles", T.Right); ("vs v1", T.Right); ("clock ns", T.Right);
            ("time us", T.Right); ("speedup", T.Right); ("slices", T.Right);
            ("occupancy", T.Right); ("RAMs", T.Right);
          ]
    in
    let row (r : Report.t) =
      T.add_row table
        [
          r.Report.version;
          String.concat " "
            (List.map (fun (_, b) -> string_of_int b) r.Report.allocated);
          string_of_int r.Report.total_registers;
          string_of_int r.Report.cycles;
          Printf.sprintf "%+.1f%%" (Report.cycle_reduction_pct ~base r);
          Printf.sprintf "%.1f" r.Report.clock_ns;
          Printf.sprintf "%.1f" r.Report.exec_time_us;
          Printf.sprintf "%.2f" (Report.speedup ~base r);
          string_of_int r.Report.slices;
          Printf.sprintf "%.1f%%" (100.0 *. r.Report.slice_utilization);
          string_of_int r.Report.rams;
        ]
    in
    List.iter row reports;
    T.print table;
    Printf.printf "\n"
  in
  List.iter show_kernel (kernel_reports ())

let table1_summary () =
  section "table1-summary: averages quoted in the paper's prose";
  let all = List.map snd (kernel_reports ()) in
  let summary v = Srfa_estimate.Summary.of_reports ~version:v all in
  let s2 = summary "v2" and s3 = summary "v3" in
  let cyc = function
    | "v2" -> s2.Srfa_estimate.Summary.mean_cycle_reduction_pct
    | _ -> s3.Srfa_estimate.Summary.mean_cycle_reduction_pct
  in
  let time = function
    | "v2" -> s2.Srfa_estimate.Summary.mean_wall_clock_gain_pct
    | _ -> s3.Srfa_estimate.Summary.mean_wall_clock_gain_pct
  in
  let clock = function
    | "v2" -> s2.Srfa_estimate.Summary.mean_clock_degradation_pct
    | _ -> s3.Srfa_estimate.Summary.mean_clock_degradation_pct
  in
  let table =
    T.create
      ~headers:
        [
          ("quantity", T.Left); ("v2 (PR-RA)", T.Right);
          ("v3 (CPA-RA)", T.Right); ("paper v2", T.Right); ("paper v3", T.Right);
        ]
  in
  T.add_row table
    [
      "avg cycle reduction";
      Printf.sprintf "%+.1f%%" (cyc "v2");
      Printf.sprintf "%+.1f%%" (cyc "v3");
      "+9%"; "+29.5%";
    ];
  T.add_row table
    [
      "avg wall-clock gain";
      Printf.sprintf "%+.1f%%" (time "v2");
      Printf.sprintf "%+.1f%%" (time "v3");
      "-0.2%"; "+22%";
    ];
  T.add_row table
    [
      "avg clock degradation";
      Printf.sprintf "%+.1f%%" (clock "v2");
      Printf.sprintf "%+.1f%%" (clock "v3");
      "-"; "~7.4%";
    ];
  T.print table;
  Printf.printf "\n%s\n%s\n"
    (Format.asprintf "%a" Srfa_estimate.Summary.pp s2)
    (Format.asprintf "%a" Srfa_estimate.Summary.pp s3);
  Printf.printf
    "\nShape criteria: v3 >= v2 >= v1 on cycles for every kernel; v2\n\
     wall-clock flat-to-negative; v3 wall-clock positive on average with\n\
     MAT/BIC-style kernels losing to clock degradation (paper §5).\n\
     EXPERIMENTS.md records paper-vs-measured per artifact.\n"

(* ---------------------------------------------------------- budget sweep *)

let budget_sweep () =
  section "budget-sweep: total cycles vs register budget (series per kernel)";
  let budgets = [ 8; 16; 24; 32; 48; 64; 96; 128; 192; 256 ] in
  let algorithms =
    [ Allocator.Fr_ra; Allocator.Pr_ra; Allocator.Cpa_ra; Allocator.Knapsack ]
  in
  (* One Flow.sweep pass over kernels x algorithms x budgets: each kernel
     is analysed once and its CPA scratch reused across every budget; the
     allocators' decision traces stream to a JSONL file as they run. *)
  let oc = open_out "BENCH_sweep_trace.jsonl" in
  let trace = Srfa_util.Trace.channel oc in
  (* Kernels fan out across the domain pool; the trace stream and the
     point order are identical to the sequential sweep by contract. *)
  let jobs, _ = Pool.resolve () in
  let points =
    Pool.with_pool ~jobs (fun pool ->
        Flow.sweep ~algorithms ~budgets ~trace ~pool
          (Srfa_kernels.Kernels.all ()))
  in
  close_out oc;
  List.iter
    (fun (name, nest) ->
      let minimum =
        Srfa_core.Ordering.feasibility_minimum (Flow.analyze nest)
      in
      Printf.printf "%s (feasibility minimum %d registers)\n" name minimum;
      let mine =
        List.filter (fun p -> p.Flow.kernel = name) points
      in
      let table =
        T.create
          ~headers:
            [
              ("budget", T.Right); ("v1 cycles", T.Right);
              ("v2 cycles", T.Right); ("v3 cycles", T.Right);
              ("ks cycles", T.Right);
            ]
      in
      List.iter
        (fun b ->
          let at = List.filter (fun p -> p.Flow.budget = b) mine in
          if at <> [] then begin
            let cycles alg =
              let p = List.find (fun p -> p.Flow.algorithm = alg) at in
              p.Flow.report.Report.cycles
            in
            T.add_row table
              [
                string_of_int b;
                string_of_int (cycles Allocator.Fr_ra);
                string_of_int (cycles Allocator.Pr_ra);
                string_of_int (cycles Allocator.Cpa_ra);
                string_of_int (cycles Allocator.Knapsack);
              ]
          end)
        budgets;
      T.print table;
      Printf.printf "\n")
    (Srfa_kernels.Kernels.all ());
  Printf.printf "wrote BENCH_sweep_trace.jsonl (%d design points traced)\n"
    (List.length points)

(* ------------------------------------------------------------- ablations *)

let ablation_concurrency () =
  section
    "ablation-concurrency: distinct-RAM concurrency vs a single shared bank";
  let table =
    T.create
      ~headers:
        [
          ("kernel", T.Left); ("algorithm", T.Left);
          ("cycles (private banks)", T.Right);
          ("cycles (single bank)", T.Right); ("penalty", T.Right);
        ]
  in
  List.iter
    (fun (name, nest) ->
      let analysis = Flow.analyze nest in
      List.iter
        (fun alg ->
          let cycles policy =
            let config =
              { Simulator.default_config with Simulator.ram_policy = policy }
            in
            let alloc = Allocator.run alg analysis ~budget in
            (Simulator.run ~config alloc).Simulator.total_cycles
          in
          let priv = cycles Simulator.Private_banks in
          let single = cycles Simulator.Single_bank in
          T.add_row table
            [
              name;
              Allocator.name alg;
              string_of_int priv;
              string_of_int single;
              Printf.sprintf "%.2fx" (float_of_int single /. float_of_int priv);
            ])
        [ Allocator.Fr_ra; Allocator.Cpa_ra ])
    (Srfa_kernels.Kernels.all ());
  T.print table

let ablation_knapsack () =
  section
    "ablation-knapsack: eliminating the most accesses is not the paper's \
     objective";
  let table =
    T.create
      ~headers:
        [
          ("kernel", T.Left); ("algorithm", T.Left); ("regs", T.Right);
          ("RAM accesses", T.Right); ("cycles", T.Right);
        ]
  in
  List.iter
    (fun (name, nest) ->
      let analysis = Flow.analyze nest in
      List.iter
        (fun alg ->
          let alloc = Allocator.run alg analysis ~budget in
          let sim = Simulator.run alloc in
          T.add_row table
            [
              name;
              Allocator.name alg;
              string_of_int (Srfa_reuse.Allocation.total_registers alloc);
              string_of_int sim.Simulator.ram_accesses;
              string_of_int sim.Simulator.total_cycles;
            ])
        [ Allocator.Knapsack; Allocator.Cpa_ra ];
      T.add_separator table)
    (Srfa_kernels.Kernels.all ());
  T.print table

let ablation_residency () =
  section
    "ablation-residency: compile-time pinned slots vs dynamic register      management";
  let table =
    T.create
      ~headers:
        [
          ("kernel", T.Left); ("pinned cycles", T.Right);
          ("LRU cycles", T.Right); ("direct-mapped cycles", T.Right);
          ("pinned hits", T.Right); ("LRU hits", T.Right);
          ("direct hits", T.Right);
        ]
  in
  List.iter
    (fun (name, nest) ->
      let analysis = Flow.analyze nest in
      let alloc = Allocator.run Allocator.Cpa_ra analysis ~budget in
      let run policy =
        let config =
          { Simulator.default_config with Simulator.residency = policy }
        in
        Simulator.run ~config alloc
      in
      let pinned = run Srfa_sched.Residency.Pinned in
      let lru = run Srfa_sched.Residency.Lru in
      let direct = run Srfa_sched.Residency.Direct_mapped in
      T.add_row table
        [
          name;
          string_of_int pinned.Simulator.total_cycles;
          string_of_int lru.Simulator.total_cycles;
          string_of_int direct.Simulator.total_cycles;
          string_of_int pinned.Simulator.register_hits;
          string_of_int lru.Simulator.register_hits;
          string_of_int direct.Simulator.register_hits;
        ])
    (Srfa_kernels.Kernels.all ());
  T.print table;
  Printf.printf
    "\nCyclic reuse windows larger than their register share thrash LRU to\n\
     zero hits; the compile-time pinned discipline keeps a guaranteed\n\
     fraction resident — the quantitative case for the paper's static\n\
     allocation over dynamic register management.\n"

let ablation_cpa_plus () =
  section "ablation-cpa-plus: spending CPA-RA's stranded registers";
  let table =
    T.create
      ~headers:
        [
          ("kernel", T.Left); ("v3 regs", T.Right); ("v3 cycles", T.Right);
          ("v3+ regs", T.Right); ("v3+ cycles", T.Right); ("gain", T.Right);
        ]
  in
  List.iter
    (fun (name, nest) ->
      let analysis = Flow.analyze nest in
      let eval alg =
        let alloc = Allocator.run alg analysis ~budget in
        ( Srfa_reuse.Allocation.total_registers alloc,
          (Simulator.run alloc).Simulator.total_cycles )
      in
      let r3, c3 = eval Allocator.Cpa_ra in
      let r3p, c3p = eval Allocator.Cpa_plus in
      T.add_row table
        [
          name;
          string_of_int r3;
          string_of_int c3;
          string_of_int r3p;
          string_of_int c3p;
          Printf.sprintf "%+.1f%%"
            (100.0 *. (1.0 -. (float_of_int c3p /. float_of_int c3)));
        ])
    (Srfa_kernels.Kernels.all ());
  T.print table;
  Printf.printf
    "\nAn honest negative: with the paper's budget the cut loop already\n\
     consumes everything, and when registers do strand (larger budgets),\n\
     the groups they could cover sit off the critical path, where extra\n\
     coverage cannot shorten a serial schedule. CPA-RA's frugality is\n\
     justified, not a missed opportunity.\n"

let ablation_loop_order () =
  section
    "ablation-loop-order: interchange changes the reuse windows (extension)";
  let table =
    T.create
      ~headers:
        [
          ("kernel", T.Left); ("default order", T.Left);
          ("default cycles", T.Right); ("best order", T.Left);
          ("best cycles", T.Right); ("gain", T.Right);
        ]
  in
  List.iter
    (fun (name, nest) ->
      match Srfa_ir.Permute.illegality nest with
      | Some why -> Printf.printf "%s: not permutable (%s)\n" name why
      | None ->
        let candidates, _ =
          Srfa_core.Order_explorer.explore Allocator.Cpa_ra nest
        in
        let identity = List.init (Srfa_ir.Nest.depth nest) Fun.id in
        let default =
          List.find (fun c -> c.Srfa_core.Order_explorer.order = identity)
            candidates
        in
        let best = List.hd candidates in
        T.add_row table
          [
            name;
            String.concat " " default.Srfa_core.Order_explorer.loop_vars;
            string_of_int default.Srfa_core.Order_explorer.cycles;
            String.concat " " best.Srfa_core.Order_explorer.loop_vars;
            string_of_int best.Srfa_core.Order_explorer.cycles;
            Printf.sprintf "%+.1f%%"
              (100.0
              *. (1.0
                 -. float_of_int best.Srfa_core.Order_explorer.cycles
                    /. float_of_int default.Srfa_core.Order_explorer.cycles));
          ])
    (Srfa_kernels.Kernels.all ());
  T.print table;
  Printf.printf
    "\nInterchange moves reuse to cheaper windows before any register is\n\
     allocated (IMI: the frame loop innermost turns two 4096-element image\n\
     windows into single registers). The paper fixes the loop order; this\n\
     is the natural phase-ordering companion experiment.\n"

let ablation_latency () =
  section
    "ablation-latency: RAM access latency sensitivity (v3 vs v1 cycle gain)";
  Printf.printf
    "The Fig. 2 calibration fixes the default table (RAM = 1 cycle); this\n\
     sweep checks the conclusions survive slower memories.\n\n";
  let table =
    T.create
      ~headers:
        [
          ("kernel", T.Left); ("RAM latency", T.Right);
          ("v1 cycles", T.Right); ("v3 cycles", T.Right);
          ("v3 gain", T.Right);
        ]
  in
  List.iter
    (fun (name, nest) ->
      let analysis = Flow.analyze nest in
      List.iter
        (fun ram ->
          let latency = Srfa_hw.Latency.make ~ram_access:ram () in
          let config =
            { Simulator.default_config with Simulator.latency = latency }
          in
          let cycles alg =
            let alloc = Allocator.run ~latency alg analysis ~budget in
            (Simulator.run ~config alloc).Simulator.total_cycles
          in
          let v1 = cycles Allocator.Fr_ra and v3 = cycles Allocator.Cpa_ra in
          T.add_row table
            [
              name;
              string_of_int ram;
              string_of_int v1;
              string_of_int v3;
              Printf.sprintf "%+.1f%%"
                (100.0 *. (1.0 -. (float_of_int v3 /. float_of_int v1)));
            ])
        [ 1; 2; 4 ];
      T.add_separator table)
    (Srfa_kernels.Kernels.all ());
  T.print table

let fixed_clock () =
  section
    "fixed-clock: the paper's closing remark of Section 5 (fixed-rate      fabrics)";
  Printf.printf
    "\"For configurable architectures where the clock rate is fixed\n\
     regardless of the design complexity, the results would yield\n\
     performance improvements for all code variants.\" Under a fixed 40 ns\n\
     clock, speedup = cycle ratio:\n\n";
  let table =
    T.create
      ~headers:
        [
          ("kernel", T.Left); ("v2 speedup", T.Right); ("v3 speedup", T.Right);
          ("v2 >= 1", T.Left); ("v3 >= 1", T.Left);
        ]
  in
  List.iter
    (fun (name, reports) ->
      let base = List.hd reports in
      let ratio v =
        let r = List.find (fun r -> r.Report.version = v) reports in
        float_of_int base.Report.cycles /. float_of_int r.Report.cycles
      in
      let v2 = ratio "v2" and v3 = ratio "v3" in
      T.add_row table
        [
          name;
          Printf.sprintf "%.2fx" v2;
          Printf.sprintf "%.2fx" v3;
          (if v2 >= 1.0 then "yes" else "NO");
          (if v3 >= 1.0 then "yes" else "NO");
        ])
    (kernel_reports ());
  T.print table

let ablation_peeling () =
  section
    "ablation-peeling: what the uncharged prologue/epilogue transfers cost";
  Printf.printf
    "The steady-state model (and the paper's accounting) charges nothing\n\
     for window loads/writebacks. Shift-style peeling loads each element\n\
     once (the saved-access formula's assumption); naive whole-window\n\
     reloading would not be negligible.\n\n";
  let table =
    T.create
      ~headers:
        [
          ("kernel", T.Left); ("steady cycles (v3)", T.Right);
          ("+shift edges", T.Right); ("+naive reload edges", T.Right);
          ("shift overhead", T.Right);
        ]
  in
  List.iter
    (fun (name, nest) ->
      let analysis = Flow.analyze nest in
      let alloc = Allocator.run Allocator.Cpa_ra analysis ~budget in
      let steady = (Simulator.run alloc).Simulator.total_cycles in
      let plan = Srfa_codegen.Plan.build alloc in
      let shift =
        Srfa_codegen.Plan.edge_transfers plan
          ~strategy:Srfa_codegen.Plan.Shift_window
      in
      let reload =
        Srfa_codegen.Plan.edge_transfers plan
          ~strategy:Srfa_codegen.Plan.Reload_window
      in
      T.add_row table
        [
          name;
          string_of_int steady;
          string_of_int (steady + shift);
          string_of_int (steady + reload);
          Printf.sprintf "%.1f%%"
            (100.0 *. float_of_int shift /. float_of_int steady);
        ])
    (Srfa_kernels.Kernels.all ());
  T.print table

let ablation_pipelining () =
  section
    "ablation-pipelining: where the serial-schedule argument holds (and      where the knapsack objective takes over)";
  Printf.printf
    "The paper's designs execute serially (Monet emits one-body-at-a-time\n\
     FSMs); CPA-RA minimises the serial critical path. A fully pipelined\n\
     body is limited by RAM-port pressure instead: with private dual-ported\n\
     banks every design reaches II = 1 (allocation irrelevant), and with a\n\
     single shared port the initiation interval equals the access count —\n\
     the regime where the paper's Section 3 knapsack formulation is the\n\
     right objective.\n\n";
  let table =
    T.create
      ~headers:
        [
          ("kernel", T.Left); ("algorithm", T.Left);
          ("serial", T.Right); ("pipelined/private", T.Right);
          ("pipelined/1-port", T.Right);
        ]
  in
  List.iter
    (fun (name, nest) ->
      let analysis = Flow.analyze nest in
      List.iter
        (fun alg ->
          let cycles execution ram_policy =
            let config =
              { Simulator.default_config with
                Simulator.execution; ram_policy }
            in
            let alloc = Allocator.run alg analysis ~budget in
            (Simulator.run ~config alloc).Simulator.total_cycles
          in
          T.add_row table
            [
              name;
              Allocator.name alg;
              string_of_int (cycles Simulator.Serial Simulator.Private_banks);
              string_of_int (cycles Simulator.Pipelined Simulator.Private_banks);
              string_of_int (cycles Simulator.Pipelined Simulator.Single_bank);
            ])
        [ Allocator.Fr_ra; Allocator.Cpa_ra; Allocator.Knapsack ];
      T.add_separator table)
    (Srfa_kernels.Kernels.all ());
  T.print table

(* ------------------------------------------------------------------ perf *)

let perf () =
  section "perf: Bechamel micro-benchmarks of the allocators";
  let open Bechamel in
  let nest = Srfa_kernels.Kernels.example () in
  let analysis = Flow.analyze nest in
  let mat_analysis = Flow.analyze (Srfa_kernels.Kernels.mat ~size:8 ()) in
  let stage name f = Test.make ~name (Staged.stage f) in
  let tests =
    [
      stage "analyze example" (fun () -> ignore (Flow.analyze nest));
      stage "fr-ra example" (fun () ->
          ignore (Allocator.run Allocator.Fr_ra analysis ~budget));
      stage "pr-ra example" (fun () ->
          ignore (Allocator.run Allocator.Pr_ra analysis ~budget));
      stage "cpa-ra example" (fun () ->
          ignore (Allocator.run Allocator.Cpa_ra analysis ~budget));
      stage "ks-ra example" (fun () ->
          ignore (Allocator.run Allocator.Knapsack analysis ~budget));
      stage "cpa-ra mat8" (fun () ->
          ignore (Allocator.run Allocator.Cpa_ra mat_analysis ~budget));
      stage "cut enumeration" (fun () ->
          let dfg = Srfa_dfg.Graph.build analysis in
          let cg =
            Srfa_dfg.Critical.make dfg ~latency:Srfa_hw.Latency.default
              ~charged:(fun _ -> true)
          in
          ignore (Srfa_dfg.Cut.enumerate_exhaustive cg));
      stage "simulate example (cpa)" (fun () ->
          let alloc = Allocator.run Allocator.Cpa_ra analysis ~budget in
          ignore (Simulator.run alloc));
    ]
  in
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.25) () in
  let raw =
    Benchmark.all cfg [ instance ] (Test.make_grouped ~name:"srfa" tests)
  in
  let results =
    Analyze.all
      (Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |])
      instance raw
  in
  let rows = ref [] in
  Hashtbl.iter
    (fun name result ->
      let est =
        match Analyze.OLS.estimates result with
        | Some [ e ] -> Printf.sprintf "%12.1f ns/run" e
        | Some _ | None -> "(no estimate)"
      in
      rows := (name, est) :: !rows)
    results;
  List.iter
    (fun (name, est) -> Printf.printf "  %-32s %s\n" name est)
    (List.sort compare !rows)

(* ------------------------------------------------------------- perf-cuts *)

(* The cheapest-cut query CPA-RA issues every round, asked two ways on the
   same critical graph: through the polynomial flow engine and through the
   exhaustive minimal-cut enumeration (capped at 16 groups — its hard
   wall). The synthetic kernels put every reference group on the CG, the
   unrolled regime the enumerator cannot survive. *)
let perf_cuts () =
  section
    "perf-cuts: flow min-vertex-cut vs exhaustive enumeration (synthetic \
     unrolled kernels)";
  let sizes = [ 8; 12; 16; 24; 48 ] in
  let instances =
    List.map
      (fun g ->
        let nest = Srfa_kernels.Extra.synthetic_cut ~groups:g () in
        let analysis = Flow.analyze nest in
        let dfg = Srfa_dfg.Graph.build analysis in
        let info gid = Srfa_reuse.Analysis.info analysis gid in
        (* The CPA-RA round-1 memory state: one pinned register per group. *)
        let charged (grp : Srfa_reuse.Group.t) =
          let i = info grp.Srfa_reuse.Group.id in
          (not i.Srfa_reuse.Analysis.has_reuse) || 1 < i.Srfa_reuse.Analysis.nu
        in
        let improvable (grp : Srfa_reuse.Group.t) =
          let i = info grp.Srfa_reuse.Group.id in
          i.Srfa_reuse.Analysis.has_reuse && 1 < i.Srfa_reuse.Analysis.nu
        in
        let weight (grp : Srfa_reuse.Group.t) =
          (info grp.Srfa_reuse.Group.id).Srfa_reuse.Analysis.nu - 1
        in
        let cg =
          Srfa_dfg.Critical.make dfg ~latency:Srfa_hw.Latency.default ~charged
        in
        (g, cg, improvable, weight))
      sizes
  in
  let flow_query cg improvable weight () =
    ignore (Srfa_dfg.Cut.cheapest cg ~eligible:improvable ~weight)
  in
  let exhaustive_query cg improvable weight () =
    (* What Cpa_ra.allocate did before the flow engine: enumerate every
       minimal cut, keep the all-improvable ones, fold to the cheapest. *)
    let cuts = Srfa_dfg.Cut.enumerate_exhaustive cg in
    let eligible = List.filter (List.for_all improvable) cuts in
    let required = List.fold_left (fun acc grp -> acc + weight grp) 0 in
    ignore
      (List.fold_left
         (fun acc cut ->
           match acc with
           | None -> Some cut
           | Some b -> if required cut < required b then Some cut else acc)
         None eligible)
  in
  (* Equal answers before timing: the oracle and the engine must name the
     same cheapest weight wherever the oracle can run at all. *)
  List.iter
    (fun (g, cg, improvable, weight) ->
      if g <= 16 then begin
        let required = List.fold_left (fun acc grp -> acc + weight grp) 0 in
        let reference =
          Srfa_dfg.Cut.enumerate_exhaustive cg
          |> List.filter (List.for_all improvable)
          |> List.fold_left
               (fun acc cut ->
                 match acc with
                 | None -> Some (required cut)
                 | Some b -> Some (min b (required cut)))
               None
        in
        let flow =
          Option.map snd (Srfa_dfg.Cut.cheapest cg ~eligible:improvable ~weight)
        in
        Printf.printf "%2d groups: cheapest weight flow=%s exhaustive=%s %s\n"
          g
          (match flow with Some w -> string_of_int w | None -> "-")
          (match reference with Some w -> string_of_int w | None -> "-")
          (if flow = reference then "agree" else "MISMATCH")
      end)
    instances;
  Printf.printf "\n";
  let open Bechamel in
  let stage name f = Test.make ~name (Staged.stage f) in
  let tests =
    List.concat_map
      (fun (g, cg, improvable, weight) ->
        let flow = stage (Printf.sprintf "flow-%02d" g)
            (flow_query cg improvable weight)
        in
        if g <= 16 then
          [
            flow;
            stage (Printf.sprintf "exhaustive-%02d" g)
              (exhaustive_query cg improvable weight);
          ]
        else [ flow ])
      instances
  in
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg = Benchmark.cfg ~limit:50 ~quota:(Time.second 0.25) () in
  let raw =
    Benchmark.all cfg [ instance ] (Test.make_grouped ~name:"cuts" tests)
  in
  let results =
    Analyze.all
      (Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |])
      instance raw
  in
  let estimates = Hashtbl.create 16 in
  Hashtbl.iter
    (fun name result ->
      match Analyze.OLS.estimates result with
      | Some [ e ] -> Hashtbl.replace estimates name e
      | Some _ | None -> ())
    results;
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  let lookup kind g =
    Hashtbl.fold
      (fun name e acc ->
        if contains name (Printf.sprintf "%s-%02d" kind g) then Some e else acc)
      estimates None
  in
  let table =
    T.create
      ~headers:
        [
          ("ref groups", T.Right); ("flow ns/query", T.Right);
          ("exhaustive ns/query", T.Right); ("speedup", T.Right);
        ]
  in
  let points =
    List.map
      (fun g ->
        let flow = lookup "flow" g and exh = lookup "exhaustive" g in
        let speedup =
          match (flow, exh) with
          | Some f, Some e when f > 0.0 -> Some (e /. f)
          | _ -> None
        in
        T.add_row table
          [
            string_of_int g;
            (match flow with Some f -> Printf.sprintf "%.0f" f | None -> "-");
            (match exh with Some e -> Printf.sprintf "%.0f" e | None -> "-");
            (match speedup with
            | Some s -> Printf.sprintf "%.0fx" s
            | None -> "- (beyond the 16-group wall)");
          ];
        (g, flow, exh, speedup))
      sizes
  in
  T.print table;
  (match List.find_opt (fun (g, _, _, _) -> g = 16) points with
  | Some (_, _, _, Some s) ->
    Printf.printf "\nspeedup at the 16-group wall: %.0fx (target >= 10x): %s\n"
      s
      (if s >= 10.0 then "ok" else "MISMATCH")
  | _ -> Printf.printf "\nspeedup at the 16-group wall: unavailable\n");
  write_json "BENCH_cuts.json"
    [
      ("benchmark", Json.Str "perf-cuts");
      ("unit", Json.Str "ns/query");
      ( "points",
        Json.Arr
          (List.map
             (fun (g, flow, exh, speedup) ->
               Json.Obj
                 [
                   ("groups", Json.Int g);
                   ("flow_ns", Json.opt Json.ns flow);
                   ("exhaustive_ns", Json.opt Json.ns exh);
                   ("speedup", Json.opt Json.ns speedup);
                 ])
             points) );
    ]

(* ------------------------------------------------------------- perf-fuzz *)

(* The robustness layer must be close to free on the happy path:
   run_checked adds guard bookkeeping, the event-model second opinion and
   warning synthesis on top of evaluate. Measure both on the Fig. 1
   example, plus the fuzz harness's generate-and-judge throughput (a mix
   of valid, mask-stress and broken kernels). *)
let perf_fuzz () =
  section "perf-fuzz: hardened-pipeline overhead and fuzz throughput";
  let open Bechamel in
  let nest = Srfa_kernels.Kernels.example () in
  let stage name f = Test.make ~name (Staged.stage f) in
  let case_id = ref 0 in
  let jobs, _ = Pool.resolve () in
  let pool = Pool.create ~jobs in
  let tests =
    [
      stage "evaluate (raw)" (fun () ->
          ignore (Flow.evaluate Allocator.Cpa_ra nest));
      stage "run_checked (hardened)" (fun () ->
          ignore (Flow.run_checked nest));
      stage "fuzz case (generate+judge)" (fun () ->
          let id = !case_id in
          case_id := (id + 1) mod 200;
          ignore
            (Srfa_fuzzer.Harness.run_case
               (Srfa_fuzzer.Gen.generate ~seed:42 ~id)));
      stage
        (Printf.sprintf "fuzz campaign (20 cases, %d domains)" jobs)
        (fun () -> ignore (Srfa_fuzzer.Harness.run ~cases:20 ~seed:42 ~pool ()));
    ]
  in
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.25) () in
  let raw =
    Benchmark.all cfg [ instance ] (Test.make_grouped ~name:"srfa" tests)
  in
  let results =
    Analyze.all
      (Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |])
      instance raw
  in
  let rows = ref [] in
  Hashtbl.iter
    (fun name result ->
      let est =
        match Analyze.OLS.estimates result with
        | Some [ e ] -> Printf.sprintf "%12.1f ns/run" e
        | Some _ | None -> "(no estimate)"
      in
      rows := (name, est) :: !rows)
    results;
  List.iter
    (fun (name, est) -> Printf.printf "  %-32s %s\n" name est)
    (List.sort compare !rows);
  Pool.shutdown pool

(* ---------------------------------------------------------- perf-certify *)

(* What the never-worse guarantee costs: a certified portfolio point pays
   for the two greedy baseline allocations and their simulations on top
   of the plain CPA-RA evaluation (allocation + simulation), plus the
   repair passes when the candidate lost. Measured end to end on every
   sweep kernel at the paper's budget; the recorded overhead is the plain
   wall-clock ratio certified_ns / plain_ns, and the acceptance bar is
   that ratio under 3x (the old bar — extra work below 2x plain —
   restated in the units the JSON actually carries). *)
let perf_certify () =
  section
    "perf-certify: certification overhead vs plain CPA-RA (sweep kernels)";
  let open Bechamel in
  let stage name f = Test.make ~name (Staged.stage f) in
  (* The per-kernel analyses are independent; build them through the
     pool so the section's setup scales with the machine. *)
  let instances =
    let jobs, _ = Pool.resolve () in
    let named = Array.of_list (Srfa_kernels.Kernels.all ()) in
    Array.to_list
      (Pool.with_pool ~jobs (fun pool ->
           Pool.map pool (fun (name, nest) -> (name, Flow.analyze nest)) named))
  in
  (* Both arms end with a simulation result in hand: plain allocates and
     simulates; certified allocates, certifies, and reuses the
     certification's final simulation when the slow path already produced
     one (as Flow.sweep does), simulating only on the dominance fast
     path. *)
  let plain analysis () =
    let alloc = Allocator.run Allocator.Cpa_ra analysis ~budget in
    ignore (Simulator.run alloc)
  in
  let certified analysis () =
    let outcome = Allocator.run_portfolio analysis ~budget in
    match outcome.Srfa_core.Certify.sim with
    | Some sim -> ignore sim
    | None -> ignore (Simulator.run outcome.Srfa_core.Certify.allocation)
  in
  let tests =
    List.concat_map
      (fun (name, analysis) ->
        [
          stage (Printf.sprintf "plain:%s" name) (plain analysis);
          stage (Printf.sprintf "certified:%s" name) (certified analysis);
        ])
      instances
  in
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg = Benchmark.cfg ~limit:100 ~quota:(Time.second 0.25) () in
  let raw =
    Benchmark.all cfg [ instance ] (Test.make_grouped ~name:"certify" tests)
  in
  let results =
    Analyze.all
      (Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |])
      instance raw
  in
  let estimates = Hashtbl.create 16 in
  Hashtbl.iter
    (fun name result ->
      match Analyze.OLS.estimates result with
      | Some [ e ] -> Hashtbl.replace estimates name e
      | Some _ | None -> ())
    results;
  let lookup kind kernel =
    let suffix = Printf.sprintf "%s:%s" kind kernel in
    Hashtbl.fold
      (fun name e acc ->
        if String.ends_with ~suffix name then Some e else acc)
      estimates None
  in
  let table =
    T.create
      ~headers:
        [
          ("kernel", T.Left); ("plain ns", T.Right);
          ("certified ns", T.Right); ("overhead", T.Right);
        ]
  in
  let points =
    List.map
      (fun (name, _) ->
        let plain = lookup "plain" name
        and certified = lookup "certified" name in
        let overhead =
          match (plain, certified) with
          | Some p, Some c when p > 0.0 -> Some (c /. p)
          | _ -> None
        in
        T.add_row table
          [
            name;
            (match plain with Some p -> Printf.sprintf "%.0f" p | None -> "-");
            (match certified with
            | Some c -> Printf.sprintf "%.0f" c
            | None -> "-");
            (match overhead with
            | Some o -> Printf.sprintf "%.2fx" o
            | None -> "-");
          ];
        (name, plain, certified, overhead))
      instances
  in
  T.print table;
  let worst =
    List.fold_left
      (fun acc (_, _, _, o) ->
        match (acc, o) with
        | None, o -> o
        | Some a, Some o -> Some (max a o)
        | Some a, None -> Some a)
      None points
  in
  (match worst with
  | Some w ->
    Printf.printf
      "\nworst certification overhead: %.2fx plain CPA-RA wall-clock (target \
       < 3x): %s\n"
      w
      (if w < 3.0 then "ok" else "MISMATCH")
  | None -> Printf.printf "\nworst certification overhead: unavailable\n");
  write_json "BENCH_certify.json"
    [
      ("benchmark", Json.Str "perf-certify");
      ("unit", Json.Str "ns/evaluation");
      ("budget", Json.Int budget);
      ("overhead_target_x", Json.Raw "3.0");
      ( "points",
        Json.Arr
          (List.map
             (fun (name, plain, certified, overhead) ->
               Json.Obj
                 [
                   ("kernel", Json.Str name);
                   ("plain_ns", Json.opt Json.ns plain);
                   ("certified_ns", Json.opt Json.ns certified);
                   ("overhead_x", Json.opt Json.ns overhead);
                 ])
             points) );
    ]

(* ---------------------------------------------------------- perf-parallel *)

(* Serial vs pooled wall-clock for the three heavy drivers (the sweep
   batch driver, the fuzz campaign, and the certified-portfolio sweep),
   with the determinism contract checked in the same breath: each
   driver's pooled result must equal its serial result structurally.
   Wall-clock, not CPU time — CPU time sums across domains and would
   hide every speedup. *)
let perf_parallel () =
  section "perf-parallel: serial vs N-domain wall-clock (heavy drivers)";
  let wall f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, Unix.gettimeofday () -. t0)
  in
  let jobs, _ = Pool.resolve () in
  let kernels = Srfa_kernels.Kernels.all () in
  let digest points =
    String.concat ";"
      (List.map
         (fun (p : Flow.sweep_point) ->
           Printf.sprintf "%s/%s/%d:%dc/%dr" p.Flow.kernel
             (Allocator.name p.Flow.algorithm)
             p.Flow.budget p.Flow.report.Report.cycles
             p.Flow.report.Report.total_registers)
         points)
  in
  let fuzz_digest (s : Srfa_fuzzer.Harness.summary) =
    let ids l =
      String.concat ","
        (List.map
           (fun ((c : Srfa_fuzzer.Gen.case), _) -> string_of_int c.Srfa_fuzzer.Gen.id)
           l)
    in
    Format.asprintf "%a | regressions:[%s] plus:[%s] violations:[%s]"
      Srfa_fuzzer.Harness.pp_summary s
      (ids s.Srfa_fuzzer.Harness.regressions)
      (ids s.Srfa_fuzzer.Harness.plus_regressions)
      (ids s.Srfa_fuzzer.Harness.violations)
  in
  let greedy = [ Allocator.Fr_ra; Allocator.Pr_ra; Allocator.Cpa_ra ] in
  let fuzz_cases = 800 in
  let drivers =
    [
      ("sweep", fun pool -> digest (Flow.sweep ~algorithms:greedy ?pool kernels));
      ( "fuzz",
        fun pool ->
          fuzz_digest (Srfa_fuzzer.Harness.run ~cases:fuzz_cases ~seed:42 ?pool ())
      );
      ( "certify-sweep",
        fun pool ->
          digest (Flow.sweep ~algorithms:[ Allocator.Portfolio ] ?pool kernels) );
    ]
  in
  let table =
    T.create
      ~headers:
        [
          ("driver", T.Left); ("serial s", T.Right);
          (Printf.sprintf "%d-domain s" jobs, T.Right); ("speedup", T.Right);
          ("identical", T.Left);
        ]
  in
  let points =
    Pool.with_pool ~jobs (fun pool ->
        List.map
          (fun (name, run) ->
            let serial, serial_s = wall (fun () -> run None) in
            let pooled, parallel_s = wall (fun () -> run (Some pool)) in
            let speedup = serial_s /. parallel_s in
            let identical = serial = pooled in
            T.add_row table
              [
                name;
                Printf.sprintf "%.3f" serial_s;
                Printf.sprintf "%.3f" parallel_s;
                Printf.sprintf "%.2fx" speedup;
                (if identical then "yes" else "MISMATCH");
              ];
            (name, serial_s, parallel_s, speedup, identical))
          drivers)
  in
  T.print table;
  let domains_available = Domain.recommended_domain_count () in
  (* On a single-core host both arms take the sequential path: the
     numbers are real wall-clock but verify nothing about the domain
     pool, so the artifact says so machine-readably instead of letting
     a ~1x ratio masquerade as a measured parallel result. *)
  let unverified = domains_available <= 1 || jobs <= 1 in
  let note =
    if unverified then
      "single-core host: the pool degrades to the sequential path, so \
       speedups of ~1x are expected and do not exercise the domain pool; \
       re-run on a multicore host for meaningful ratios"
    else
      Printf.sprintf
        "pooled arms ran on %d worker domains of %d available" jobs
        domains_available
  in
  if unverified then
    Printf.printf
      "\nNOTE: only %d domain(s) available — parallel speedups are \
       UNVERIFIED on this host; BENCH_parallel.json is stamped \
       \"unverified\": true.\n"
      domains_available;
  Printf.printf
    "\n%d worker domains (machine recommends %d, %d available); the fuzz\n\
     driver runs %d cases. Speedup is wall-clock; on a single-core host\n\
     both arms take the sequential path and the ratio sits at ~1x by\n\
     construction.\n"
    jobs (Pool.recommended ()) domains_available fuzz_cases;
  write_json "BENCH_parallel.json"
    [
      ("benchmark", Json.Str "perf-parallel");
      ("unit", Json.Str "seconds wall-clock");
      ("jobs", Json.Int jobs);
      ("recommended_domains", Json.Int (Pool.recommended ()));
      ("domains_available", Json.Int domains_available);
      ("unverified", Json.Bool unverified);
      ("note", Json.Str note);
      ("fuzz_cases", Json.Int fuzz_cases);
      ( "drivers",
        Json.Arr
          (List.map
             (fun (name, serial_s, parallel_s, speedup, identical) ->
               Json.Obj
                 [
                   ("driver", Json.Str name);
                   ("serial_s", Json.float serial_s);
                   ("parallel_s", Json.float parallel_s);
                   ("speedup", Json.float speedup);
                   ("identical", Json.Bool identical);
                 ])
             points) );
    ]

(* ------------------------------------------------------------- perf-core *)

(* The allocation-free hot core, measured the way mimalloc-bench measures
   allocators: one warm workload re-run under several minor-heap sizes
   (OCAMLRUNPARAM s=...), recording wall-clock, bytes allocated per
   evaluation (Gc.allocated_bytes) and max RSS (VmHWM). The runtime reads
   OCAMLRUNPARAM once at program start, so each cell of the matrix
   re-executes this binary in a hidden probe mode
   (`perf-core-probe <kernel>`) with the environment set; the parent
   parses one machine-readable line per run.

   The baselines are wall-clock and allocated-bytes numbers for the boxed
   simulator (fresh model, fresh residency and a Bytes memo key per
   iteration on every call) captured on this host immediately before the
   arena rewrite; that code path no longer exists in the library, so they
   are recorded as constants. The acceptance bars from the issue: >= 5x
   wall-clock on the bic plain evaluation and >= 10x fewer minor
   allocations per warm evaluation. *)

let core_kernels = [ "fir"; "dec-fir"; "imi"; "mat"; "pat"; "bic" ]

(* kernel -> (ns/evaluation, allocated bytes/evaluation) of the boxed
   simulator before the rewrite; same host, same budget, same
   allocate-then-simulate workload. *)
let core_baselines =
  [
    ("fir", (8_863_926.0, 6_735_043.0));
    ("dec-fir", (4_608_154.0, 3_357_536.0));
    ("imi", (16_870_975.0, 7_630_516.0));
    ("mat", (15_698_910.0, 7_603_077.0));
    ("pat", (22_454_023.0, 13_409_664.0));
    ("bic", (161_386_013.0, 105_876_090.0));
  ]

(* Minor-heap matrix: label and OCAMLRUNPARAM for the probe process.
   [None] inherits the parent's runtime defaults. *)
let core_gc_matrix =
  [
    ("default", None);
    ("s=32k", Some "s=32k");
    ("s=256k", Some "s=256k");
    ("s=4M", Some "s=4M");
  ]

let core_probe_reps = 9

let vmhwm_kb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> 0
  | ic ->
    let rec scan acc =
      match input_line ic with
      | exception End_of_file -> acc
      | line ->
        if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
          scan
            (try
               Scanf.sscanf
                 (String.sub line 6 (String.length line - 6))
                 " %d"
                 Fun.id
             with Scanf.Scan_failure _ | End_of_file | Failure _ -> acc)
        else scan acc
    in
    let kb = scan 0 in
    close_in ic;
    kb

(* Hidden mode: run one kernel's warm-evaluation loop under whatever
   OCAMLRUNPARAM this process was started with and print one line. The
   prepared CPA-RA state and the simulator scratch are built once; every
   timed evaluation is a full allocation + simulation — the Flow.sweep
   inner loop. *)
let perf_core_probe kernel =
  let nest =
    match List.assoc_opt kernel (Srfa_kernels.Kernels.all ()) with
    | Some nest -> nest
    | None ->
      Printf.eprintf "perf-core-probe: unknown kernel %s\n" kernel;
      exit 1
  in
  let analysis = Flow.analyze nest in
  let prepared = Cpa_ra.prepare analysis in
  let scratch = Simulator.scratch ~dfg:(Cpa_ra.dfg prepared) analysis in
  let evaluate () =
    let alloc = Allocator.run ~prepared Allocator.Cpa_ra analysis ~budget in
    ignore (Simulator.run ~scratch alloc)
  in
  (* Warm the scratch to its high-water mark before measuring. *)
  evaluate ();
  let times = Array.make core_probe_reps 0.0 in
  (* Empty the minor heap before both readings: OCaml 5.1's Gc.counters
     counts the words still in the minor heap at an eighth of their
     size, so an unflushed reading under-reads by up to 8x unless a
     minor collection happens to fall inside the timed loop — which
     made the allocation column depend on the minor-heap size. *)
  Gc.minor ();
  let before = Gc.allocated_bytes () in
  for i = 0 to core_probe_reps - 1 do
    let t0 = Unix.gettimeofday () in
    evaluate ();
    times.(i) <- (Unix.gettimeofday () -. t0) *. 1e9
  done;
  Gc.minor ();
  let allocated =
    (Gc.allocated_bytes () -. before) /. float_of_int core_probe_reps
  in
  Array.sort compare times;
  Printf.printf "kernel=%s median_ns=%.0f alloc_per_eval=%.0f rss_kb=%d\n"
    kernel
    times.(core_probe_reps / 2)
    allocated (vmhwm_kb ())

let run_core_probe ~runparam kernel =
  let env =
    Array.of_list
      ((match runparam with
       | None -> []
       | Some v -> [ "OCAMLRUNPARAM=" ^ v ])
      @ List.filter
          (fun s ->
            not (String.length s >= 14 && String.sub s 0 14 = "OCAMLRUNPARAM="))
          (Array.to_list (Unix.environment ())))
  in
  let ic, oc, ec =
    Unix.open_process_args_full Sys.executable_name
      [| Sys.executable_name; "perf-core-probe"; kernel |]
      env
  in
  let line = try Some (input_line ic) with End_of_file -> None in
  let status = Unix.close_process_full (ic, oc, ec) in
  match (status, line) with
  | Unix.WEXITED 0, Some line -> (
    try
      Scanf.sscanf line "kernel=%s@ median_ns=%f alloc_per_eval=%f rss_kb=%d"
        (fun _ ns alloc rss -> Some (ns, alloc, rss))
    with Scanf.Scan_failure _ | End_of_file | Failure _ -> None)
  | _ -> None

let perf_core () =
  section
    "perf-core: allocation-free hot core across a GC minor-heap matrix";
  (* One probe process per (kernel, GC config) cell. *)
  let cells =
    List.map
      (fun kernel ->
        ( kernel,
          List.map
            (fun (label, runparam) ->
              (label, run_core_probe ~runparam kernel))
            core_gc_matrix ))
      core_kernels
  in
  let default_of row = List.assoc "default" row in
  (* Absolute numbers under the default GC against the boxed baselines. *)
  let table =
    T.create
      ~headers:
        [
          ("kernel", T.Left); ("boxed ns", T.Right); ("warm ns", T.Right);
          ("speedup", T.Right); ("boxed B/eval", T.Right);
          ("warm B/eval", T.Right); ("alloc cut", T.Right);
        ]
  in
  let points =
    List.map
      (fun (kernel, row) ->
        let base_ns, base_alloc = List.assoc kernel core_baselines in
        let measured = default_of row in
        let speedup =
          match measured with
          | Some (ns, _, _) when ns > 0.0 -> Some (base_ns /. ns)
          | _ -> None
        in
        let alloc_cut =
          match measured with
          | Some (_, alloc, _) when alloc > 0.0 -> Some (base_alloc /. alloc)
          | _ -> None
        in
        let fmt f = function
          | Some v -> Printf.sprintf f v
          | None -> "-"
        in
        T.add_row table
          [
            kernel;
            Printf.sprintf "%.0f" base_ns;
            fmt "%.0f" (Option.map (fun (ns, _, _) -> ns) measured);
            fmt "%.1fx" speedup;
            Printf.sprintf "%.0f" base_alloc;
            fmt "%.0f" (Option.map (fun (_, a, _) -> a) measured);
            fmt "%.0fx" alloc_cut;
          ];
        (kernel, base_ns, base_alloc, measured, speedup, alloc_cut, row))
      cells
  in
  T.print table;
  (* Normalized medians across the minor-heap matrix, mimalloc-bench
     style: each row normalized to its default-GC median so the matrix
     reads as sensitivity, not absolute speed. *)
  let table =
    T.create
      ~headers:
        (("kernel", T.Left)
        :: List.map (fun (label, _) -> (label, T.Right)) core_gc_matrix)
  in
  List.iter
    (fun (kernel, _, _, measured, _, _, row) ->
      let base = Option.map (fun (ns, _, _) -> ns) measured in
      T.add_row table
        (kernel
        :: List.map
             (fun (label, _) ->
               match (base, List.assoc label row) with
               | Some b, Some (ns, _, _) when b > 0.0 ->
                 Printf.sprintf "%.2f" (ns /. b)
               | _ -> "-")
             core_gc_matrix))
    points;
  Printf.printf "wall-clock normalized to the default minor heap:\n\n";
  T.print table;
  let bic =
    List.find_opt (fun (kernel, _, _, _, _, _, _) -> kernel = "bic") points
  in
  let bic_speedup_ok, bic_alloc_ok =
    match bic with
    | Some (_, _, _, _, Some s, Some a, _) -> (s >= 5.0, a >= 10.0)
    | _ -> (false, false)
  in
  Printf.printf
    "\nbic plain evaluation speedup target >= 5x: %s\n\
     bic warm-allocation reduction target >= 10x: %s\n"
    (if bic_speedup_ok then "ok" else "MISMATCH")
    (if bic_alloc_ok then "ok" else "MISMATCH");
  write_json "BENCH_core.json"
    [
      ("benchmark", Json.Str "perf-core");
      ( "unit",
        Json.Str
          "ns/evaluation, warm: prepared CPA-RA state and simulator scratch \
           reused across evaluations" );
      ("budget", Json.Int budget);
      ("reps", Json.Int core_probe_reps);
      ( "baseline_note",
        Json.Str
          "baseline_ns/baseline_alloc_bytes are the boxed pre-arena \
           simulator captured on this host immediately before the rewrite; \
           that code path no longer exists, so they are recorded as \
           constants" );
      ( "gc_configs",
        Json.Arr
          (List.map (fun (label, _) -> Json.Str label) core_gc_matrix) );
      ( "targets",
        Json.Obj
          [
            ("bic_speedup_min_x", Json.Raw "5.0");
            ("alloc_reduction_min_x", Json.Raw "10.0");
          ] );
      ( "checks",
        Json.Obj
          [
            ("bic_speedup_ok", Json.Bool bic_speedup_ok);
            ("bic_alloc_reduction_ok", Json.Bool bic_alloc_ok);
          ] );
      ( "kernels",
        Json.Arr
          (List.map
             (fun (kernel, base_ns, base_alloc, measured, speedup, alloc_cut, row)
             ->
               Json.Obj
                 [
                   ("kernel", Json.Str kernel);
                   ("baseline_ns", Json.ns base_ns);
                   ("baseline_alloc_bytes", Json.ns base_alloc);
                   ( "median_ns",
                     Json.opt Json.ns
                       (Option.map (fun (ns, _, _) -> ns) measured) );
                   ( "alloc_bytes_per_eval",
                     Json.opt Json.ns
                       (Option.map (fun (_, a, _) -> a) measured) );
                   ("speedup_x", Json.opt Json.float speedup);
                   ("alloc_reduction_x", Json.opt Json.float alloc_cut);
                   ( "gc_matrix",
                     Json.Arr
                       (List.map
                          (fun (label, cell) ->
                            Json.Obj
                              [
                                ("config", Json.Str label);
                                ( "median_ns",
                                  Json.opt Json.ns
                                    (Option.map (fun (ns, _, _) -> ns) cell)
                                );
                                ( "alloc_bytes_per_eval",
                                  Json.opt Json.ns
                                    (Option.map (fun (_, a, _) -> a) cell) );
                                ( "rss_kb",
                                  Json.opt
                                    (fun (_, _, r) -> Json.Int r)
                                    cell );
                              ])
                          row) );
                 ])
             points) );
    ]

(* ------------------------------------------------------------ perf-serve *)

(* The daemon measured end-to-end over its own Unix socket: a private
   server domain, one blocking client, wall-clock per round-trip. Cold
   is the first request a (kernel, device) pair ever sees — parse,
   analyse, build the cycle model, allocate, simulate; warm is the same
   request again, i.e. a tier-2 hit that only renders the cached report.
   The mixed campaign then replays a 1000-request production-shaped mix
   (repeats, budget ladders, algorithm spreads, malformed lines, bad
   fields, infeasible budgets) and requires that not one response is an
   E-INTERNAL — the daemon's totality contract. *)

let serve_warm_reps = 100

let serve_campaign_requests = 1000

let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0.0
  else sorted.(min (n - 1) (int_of_float (ceil (p *. float_of_int n)) - 1))

let perf_serve () =
  section "perf-serve: the allocation daemon over its Unix socket";
  let socket =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "srfa-bench-%d.sock" (Unix.getpid ()))
  in
  let daemon =
    Domain.spawn (fun () -> Srfa_server.Server.run ~jobs:2 ~socket ())
  in
  let client = Srfa_server.Server.Client.connect socket in
  let rpc line =
    let t0 = Unix.gettimeofday () in
    let resp = Srfa_server.Server.Client.rpc client line in
    ((Unix.gettimeofday () -. t0) *. 1e6, resp)
  in
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  (* -- cold vs warm per kernel ------------------------------------- *)
  let kernels = List.map fst (Srfa_kernels.Kernels.all ()) in
  let points =
    List.map
      (fun kernel ->
        let line = Printf.sprintf {|{"kernel": "%s", "budget": %d}|} kernel budget in
        let cold_us, cold_resp = rpc line in
        assert (contains cold_resp "\"cache\": \"miss\"");
        let warm = Array.make serve_warm_reps 0.0 in
        for i = 0 to serve_warm_reps - 1 do
          warm.(i) <- fst (rpc line)
        done;
        Array.sort compare warm;
        let p50 = percentile warm 0.50 and p99 = percentile warm 0.99 in
        (kernel, cold_us, p50, p99, cold_us /. p50))
      kernels
  in
  let table =
    T.create
      ~headers:
        [
          ("kernel", T.Left); ("cold us", T.Right); ("warm p50 us", T.Right);
          ("warm p99 us", T.Right); ("cold/warm", T.Right);
        ]
  in
  List.iter
    (fun (kernel, cold, p50, p99, ratio) ->
      T.add_row table
        [
          kernel;
          Printf.sprintf "%.0f" cold;
          Printf.sprintf "%.0f" p50;
          Printf.sprintf "%.0f" p99;
          Printf.sprintf "%.0fx" ratio;
        ])
    points;
  T.print table;
  (* Koka-artifact style: each kernel's columns normalized to its own
     warm median, so the table reads as cache leverage, not kernel size. *)
  let table =
    T.create
      ~headers:
        [
          ("kernel", T.Left); ("warm p50", T.Right); ("warm p99", T.Right);
          ("cold", T.Right);
        ]
  in
  List.iter
    (fun (kernel, cold, p50, p99, _) ->
      T.add_row table
        [
          kernel; "1.00";
          Printf.sprintf "%.2f" (p99 /. p50);
          Printf.sprintf "%.2f" (cold /. p50);
        ])
    points;
  Printf.printf "round-trip latency normalized to each kernel's warm median:\n\n";
  T.print table;
  let bic_ratio =
    match List.find_opt (fun (k, _, _, _, _) -> k = "bic") points with
    | Some (_, _, _, _, r) -> r
    | None -> 0.0
  in
  let bic_ok = bic_ratio >= 10.0 in
  Printf.printf "\nbic cache-hit speedup target >= 10x: %s (%.0fx)\n"
    (if bic_ok then "ok" else "MISMATCH")
    bic_ratio;
  (* -- 1000-request mixed campaign ---------------------------------- *)
  let algorithms =
    [ "fr-ra"; "pr-ra"; "cpa-ra"; "cpa-ra+"; "knapsack"; "portfolio" ]
  in
  let budgets = [ 8; 16; 32; 64; 128 ] in
  let seed = ref 0x5f3a9c1 in
  let rand bound =
    (* Deterministic xorshift so the campaign replays identically. *)
    let s = !seed in
    let s = s lxor (s lsl 13) in
    let s = s lxor (s lsr 7) in
    let s = s lxor (s lsl 17) in
    seed := s land max_int;
    !seed mod bound
  in
  let pick xs = List.nth xs (rand (List.length xs)) in
  let last = ref {|{"kernel": "fir"}|} in
  let request () =
    let roll = rand 100 in
    if roll < 55 then (
      let line =
        Printf.sprintf {|{"kernel": "%s", "budget": %d, "algorithm": "%s"}|}
          (pick kernels) (pick budgets) (pick algorithms)
      in
      last := line;
      line)
    else if roll < 75 then !last (* repeat: the hit path *)
    else if roll < 82 then
      Printf.sprintf {|{"kernel": "%s", "device": "xc2v6000"}|} (pick kernels)
    else if roll < 88 then
      Printf.sprintf {|{"kernel": "%s", "budget": 1}|} (pick kernels)
    else if roll < 93 then {|{"kernel": "no-such-kernel"}|}
    else if roll < 97 then "} definitely not json {"
    else {|{"op": "stats"}|}
  in
  let latencies = Array.make serve_campaign_requests 0.0 in
  let ok = ref 0 and errors = ref 0 and internal = ref 0 in
  let campaign_t0 = Unix.gettimeofday () in
  for i = 0 to serve_campaign_requests - 1 do
    let us, resp = rpc (request ()) in
    latencies.(i) <- us;
    if contains resp "E-INTERNAL" then incr internal;
    if contains resp "\"status\": \"ok\"" then incr ok else incr errors
  done;
  let campaign_s = Unix.gettimeofday () -. campaign_t0 in
  Array.sort compare latencies;
  let p50 = percentile latencies 0.50 and p99 = percentile latencies 0.99 in
  let rps = float_of_int serve_campaign_requests /. campaign_s in
  let internal_ok = !internal = 0 in
  let rss = vmhwm_kb () in
  Printf.printf
    "\nmixed campaign: %d requests in %.2fs — %.0f req/s, p50 %.0fus, p99 \
     %.0fus (%d ok, %d coded errors)\n"
    serve_campaign_requests campaign_s rps p50 p99 !ok !errors;
  Printf.printf "zero E-INTERNAL responses: %s (%d)\n"
    (if internal_ok then "ok" else "MISMATCH")
    !internal;
  Printf.printf "peak RSS: %d kB\n" rss;
  ignore (Srfa_server.Server.Client.rpc client {|{"op": "shutdown"}|});
  Srfa_server.Server.Client.close client;
  Domain.join daemon;
  write_json "BENCH_serve.json"
    [
      ("benchmark", Json.Str "perf-serve");
      ( "unit",
        Json.Str
          "us/round-trip over a Unix-domain socket, daemon in-process \
           (2 worker domains); cold = first sight of (kernel, device), \
           warm = tier-2 cache hit" );
      ("budget", Json.Int budget);
      ("warm_reps", Json.Int serve_warm_reps);
      ( "targets",
        Json.Obj
          [
            ("bic_hit_speedup_min_x", Json.Raw "10.0");
            ("campaign_e_internal_max", Json.Int 0);
          ] );
      ( "checks",
        Json.Obj
          [
            ("bic_hit_speedup_ok", Json.Bool bic_ok);
            ("campaign_no_internal_errors", Json.Bool internal_ok);
          ] );
      ( "kernels",
        Json.Arr
          (List.map
             (fun (kernel, cold, p50, p99, ratio) ->
               Json.Obj
                 [
                   ("kernel", Json.Str kernel);
                   ("cold_us", Json.ns cold);
                   ("warm_p50_us", Json.ns p50);
                   ("warm_p99_us", Json.ns p99);
                   ("cold_over_warm_x", Json.float ratio);
                 ])
             points) );
      ( "campaign",
        Json.Obj
          [
            ("requests", Json.Int serve_campaign_requests);
            ("seconds", Json.float campaign_s);
            ("requests_per_sec", Json.ns rps);
            ("p50_us", Json.ns p50);
            ("p99_us", Json.ns p99);
            ("ok", Json.Int !ok);
            ("coded_errors", Json.Int !errors);
            ("e_internal", Json.Int !internal);
            ("rss_kb", Json.Int rss);
          ] );
    ]

(* The resilience layer priced: the same production-shaped request mix
   against a clean daemon and against one running a ~10% fault plan
   (stalling and raising workers, failing cache inserts — the sites
   that do not sever the measuring client's own connection), then a
   pipelined cold flood against a max_inflight:4 daemon to price
   overload shedding. The totality contract shifts under faults: raising
   workers *should* surface as isolated E-INTERNAL responses; what must
   still hold is one response per request and a live daemon at the end. *)

let robust_requests = 400

let perf_robust () =
  section "perf-robust: the daemon under injected faults and overload";
  let module Server = Srfa_server.Server in
  let module Client = Srfa_server.Server.Client in
  let module Fault = Srfa_util.Fault in
  let robust_socket tag =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "srfa-bench-robust-%s-%d.sock" tag (Unix.getpid ()))
  in
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  let kernels = List.map fst (Srfa_kernels.Kernels.all ()) in
  let mix () =
    (* Deterministic xorshift, regenerated per campaign so clean and
       faulted daemons answer the byte-identical request sequence. *)
    let seed = ref 0x2f6e25 in
    let rand bound =
      let s = !seed in
      let s = s lxor (s lsl 13) in
      let s = s lxor (s lsr 7) in
      let s = s lxor (s lsl 17) in
      seed := s land max_int;
      !seed mod bound
    in
    let pick xs = List.nth xs (rand (List.length xs)) in
    let last = ref {|{"kernel": "fir"}|} in
    Array.init robust_requests (fun _ ->
        let roll = rand 100 in
        if roll < 60 then (
          (* A wide budget spread keeps most of the mix cold — the fault
             sites live on the cold path (pool jobs, cache inserts), so a
             hit-dominated mix would leave the plan nothing to bite. *)
          let line =
            Printf.sprintf {|{"kernel": "%s", "budget": %d}|} (pick kernels)
              (16 + rand 185)
          in
          last := line;
          line)
        else !last)
  in
  let campaign ~faults tag =
    let sock = robust_socket tag in
    let daemon =
      Domain.spawn (fun () -> Server.run ~jobs:2 ~faults ~socket:sock ())
    in
    let client = Client.connect sock in
    let lines = mix () in
    let lat = Array.make robust_requests 0.0 in
    let ok = ref 0 and internal = ref 0 and other = ref 0 in
    let t0 = Unix.gettimeofday () in
    Array.iteri
      (fun i line ->
        let r0 = Unix.gettimeofday () in
        let resp = Client.rpc client line in
        lat.(i) <- (Unix.gettimeofday () -. r0) *. 1e6;
        if contains resp {|"status": "ok"|} then incr ok
        else if contains resp "E-INTERNAL" then incr internal
        else incr other)
      lines;
    let seconds = Unix.gettimeofday () -. t0 in
    (* The daemon must still be standing to answer this. *)
    let alive = contains (Client.rpc client {|{"op": "stats"}|}) "stats" in
    ignore (Client.rpc client {|{"op": "shutdown"}|});
    Client.close client;
    Domain.join daemon;
    Array.sort compare lat;
    ( float_of_int robust_requests /. seconds,
      percentile lat 0.50,
      percentile lat 0.99,
      !ok,
      !internal,
      !other,
      alive )
  in
  let clean_rps, clean_p50, clean_p99, clean_ok, clean_int, clean_other, clean_alive
      =
    campaign ~faults:Fault.off "clean"
  in
  let plan = "pool.job:delay:1@0.06,pool.job:raise@0.04,cache.insert:error@0.15" in
  let faults =
    match Fault.parse ~seed:42 plan with
    | Ok f -> f
    | Error msg -> failwith msg
  in
  let fault_rps, fault_p50, fault_p99, fault_ok, fault_int, fault_other, fault_alive
      =
    campaign ~faults "faulted"
  in
  let injected = Fault.injected faults in
  let fault_rate = float_of_int injected /. float_of_int robust_requests in
  let table =
    T.create
      ~headers:
        [
          ("campaign", T.Left); ("req/s", T.Right); ("p50 us", T.Right);
          ("p99 us", T.Right); ("ok", T.Right); ("E-INTERNAL", T.Right);
          ("other", T.Right);
        ]
  in
  let row name rps p50 p99 ok int_ other =
    T.add_row table
      [
        name;
        Printf.sprintf "%.0f" rps;
        Printf.sprintf "%.0f" p50;
        Printf.sprintf "%.0f" p99;
        string_of_int ok;
        string_of_int int_;
        string_of_int other;
      ]
  in
  row "clean" clean_rps clean_p50 clean_p99 clean_ok clean_int clean_other;
  row "faulted" fault_rps fault_p50 fault_p99 fault_ok fault_int fault_other;
  T.print table;
  Printf.printf
    "\nfault plan: %s\ninjected %d faults over %d requests (%.1f%%)\n" plan
    injected robust_requests (100.0 *. fault_rate);
  let clean_total_ok = clean_int = 0 in
  Printf.printf "clean campaign free of E-INTERNAL: %s (%d)\n"
    (if clean_total_ok then "ok" else "MISMATCH")
    clean_int;
  let answered_ok =
    clean_ok + clean_int + clean_other = robust_requests
    && fault_ok + fault_int + fault_other = robust_requests
  in
  Printf.printf "every request answered in both campaigns: %s\n"
    (if answered_ok then "ok" else "MISMATCH");
  Printf.printf "daemons alive after the campaigns: %s\n"
    (if clean_alive && fault_alive then "ok" else "MISMATCH");
  (* -- overload: a pipelined cold flood against max_inflight:4 ------- *)
  let sock = robust_socket "overload" in
  let max_inflight = 4 in
  let daemon =
    Domain.spawn (fun () -> Server.run ~jobs:2 ~max_inflight ~socket:sock ())
  in
  let client = Client.connect sock in
  let flood_n = 64 in
  let flood =
    String.concat ""
      (List.init flood_n (fun i ->
           Printf.sprintf "{\"id\": \"f%d\", \"kernel\": \"%s\", \"budget\": %d}\n"
             i
             (List.nth kernels (i mod List.length kernels))
             (20 + i)))
  in
  let t0 = Unix.gettimeofday () in
  let wrote = Unix.write_substring client.Client.fd flood 0 (String.length flood) in
  assert (wrote = String.length flood);
  let shed = ref 0 and flood_ok = ref 0 and flood_other = ref 0 in
  for _ = 1 to flood_n do
    let resp = Client.recv client in
    if contains resp "E-OVERLOAD" then incr shed
    else if contains resp {|"status": "ok"|} then incr flood_ok
    else incr flood_other
  done;
  let flood_s = Unix.gettimeofday () -. t0 in
  let overload_alive = contains (Client.rpc client {|{"op": "stats"}|}) "stats" in
  ignore (Client.rpc client {|{"op": "shutdown"}|});
  Client.close client;
  Domain.join daemon;
  let shed_rate = float_of_int !shed /. float_of_int flood_n in
  Printf.printf
    "\noverload flood: %d pipelined cold requests vs max_inflight=%d in %.3fs \
     — %d ok, %d shed (%.0f%%), %d other errors\n"
    flood_n max_inflight flood_s !flood_ok !shed (100.0 *. shed_rate)
    !flood_other;
  let overload_ok = !shed > 0 && !flood_ok >= max_inflight && overload_alive in
  Printf.printf "overload shed some, served some, daemon alive: %s\n"
    (if overload_ok then "ok" else "MISMATCH");
  let rss = vmhwm_kb () in
  Printf.printf "peak RSS: %d kB\n" rss;
  let campaign_json rps p50 p99 ok int_ other alive =
    Json.Obj
      [
        ("requests", Json.Int robust_requests);
        ("requests_per_sec", Json.ns rps);
        ("p50_us", Json.ns p50);
        ("p99_us", Json.ns p99);
        ("ok", Json.Int ok);
        ("e_internal", Json.Int int_);
        ("other_errors", Json.Int other);
        ("daemon_alive_after", Json.Bool alive);
      ]
  in
  write_json "BENCH_robust.json"
    [
      ("benchmark", Json.Str "perf-robust");
      ( "unit",
        Json.Str
          "us/round-trip over a Unix-domain socket, daemon in-process \
           (2 worker domains); identical seeded request mix against a \
           clean daemon and one under the fault plan; overload = one \
           pipelined cold flood against max_inflight=4" );
      ("fault_plan", Json.Str plan);
      ("fault_seed", Json.Int 42);
      ("injected_faults", Json.Int injected);
      ("injected_rate", Json.float fault_rate);
      ( "checks",
        Json.Obj
          [
            ("clean_no_internal_errors", Json.Bool clean_total_ok);
            ("every_request_answered", Json.Bool answered_ok);
            ("daemons_survived", Json.Bool (clean_alive && fault_alive));
            ("overload_shed_and_served", Json.Bool overload_ok);
          ] );
      ( "clean",
        campaign_json clean_rps clean_p50 clean_p99 clean_ok clean_int
          clean_other clean_alive );
      ( "faulted",
        campaign_json fault_rps fault_p50 fault_p99 fault_ok fault_int
          fault_other fault_alive );
      ( "overload",
        Json.Obj
          [
            ("flood_requests", Json.Int flood_n);
            ("max_inflight", Json.Int max_inflight);
            ("seconds", Json.float flood_s);
            ("ok", Json.Int !flood_ok);
            ("shed", Json.Int !shed);
            ("shed_rate", Json.float shed_rate);
            ("other_errors", Json.Int !flood_other);
            ("daemon_alive_after", Json.Bool overload_alive);
          ] );
      ("rss_kb", Json.Int rss);
    ]

(* --------------------------------------------------------- perf-rebudget *)

(* Incremental re-budgeting vs from-scratch re-allocation (DESIGN.md
   §16). The workload is what rebudget exists for: a long oscillating
   budget ladder over a live kernel — a host shrinking and re-growing
   the register file while the allocation stays resident. The
   incremental arm answers every event through one rebudget session
   (cheapest-loss-first reclaim / headroom re-spend, plus the
   per-budget memo on revisits); the from-scratch arm answers the same
   events the way a plain allocate client would, one full certified
   portfolio point per event over the same resident analysis — tier 1
   is warm in both arms, so the comparison isolates allocation +
   certification work, not parsing or analysis. Both arms carry the
   same never-worse contract, so quality is identical by construction;
   the bench measures cost only. *)
let perf_rebudget () =
  section "perf-rebudget: incremental re-budgeting vs from-scratch per event";
  let wall f =
    let t0 = Unix.gettimeofday () in
    f ();
    Unix.gettimeofday () -. t0
  in
  let median_of f ~repeats =
    let samples = Array.init repeats (fun _ -> wall f) in
    Array.sort compare samples;
    samples.(repeats / 2)
  in
  let repeats = 5 in
  let initial = 128 in
  (* Ten distinct rungs, cycled four times: 40 events per kernel, 30 of
     which revisit a budget the stream has already certified. *)
  let rung = [ 64; 32; 16; 8; 12; 24; 48; 96; 64; 32 ] in
  let events = List.concat_map (fun _ -> rung) [ (); (); (); () ] in
  let kernels =
    ("example", Srfa_kernels.Kernels.example ()) :: Srfa_kernels.Kernels.all ()
  in
  let table =
    T.create
      ~headers:
        [
          ("kernel", T.Left); ("events", T.Right); ("scratch ms", T.Right);
          ("incremental ms", T.Right); ("speedup", T.Right);
          ("memo hits", T.Right);
        ]
  in
  let points =
    List.map
      (fun (name, nest) ->
        let prepared = Flow.Core.prepare nest in
        (* The from-scratch arm would reject events below the
           feasibility minimum (E-BUDGET-001) where the incremental arm
           clamps; pre-clamp so both arms answer the same event list. *)
        let events = List.map (max prepared.Flow.Core.minimum) events in
        let initial = max prepared.Flow.Core.minimum initial in
        let scratch = Flow.Core.scratch ~config:Flow.default_config prepared in
        let full_point b =
          match
            Flow.Core.checked_prepared ~sim_scratch:scratch
              { Flow.default_config with Flow.budget = b }
              Allocator.Portfolio prepared
          with
          | Ok _ -> ()
          | Error ds ->
            failwith
              (Printf.sprintf "%s at budget %d: %s" name b
                 (String.concat "; " (List.map Srfa_util.Diag.to_json ds)))
        in
        let full_s =
          median_of ~repeats (fun () -> List.iter full_point (initial :: events))
        in
        let incr_s =
          median_of ~repeats (fun () ->
              ignore
                (Flow.Core.rebudget ~sim_scratch:scratch Flow.default_config
                   prepared ~initial ~events))
        in
        let steps =
          Flow.Core.rebudget ~sim_scratch:scratch Flow.default_config prepared
            ~initial ~events
        in
        let memo_hits =
          List.length
            (List.filter (fun s -> s.Flow.Core.memoized) steps)
        in
        let speedup = full_s /. incr_s in
        T.add_row table
          [
            name;
            string_of_int (1 + List.length events);
            Printf.sprintf "%.2f" (full_s *. 1e3);
            Printf.sprintf "%.2f" (incr_s *. 1e3);
            Printf.sprintf "%.2fx" speedup;
            string_of_int memo_hits;
          ];
        (name, List.length events, full_s, incr_s, speedup, memo_hits))
      kernels
  in
  T.print table;
  (* Koka-artifact style: each kernel normalized to its own from-scratch
     median, so the table reads as incremental leverage, not kernel
     size. *)
  let table =
    T.create
      ~headers:
        [ ("kernel", T.Left); ("scratch", T.Right); ("incremental", T.Right) ]
  in
  List.iter
    (fun (name, _, full_s, incr_s, _, _) ->
      T.add_row table
        [ name; "1.00"; Printf.sprintf "%.3f" (incr_s /. full_s) ])
    points;
  Printf.printf
    "\nstream cost normalized to each kernel's from-scratch median:\n\n";
  T.print table;
  let sum f = List.fold_left (fun acc p -> acc +. f p) 0.0 points in
  let total_full = sum (fun (_, _, f, _, _, _) -> f) in
  let total_incr = sum (fun (_, _, _, i, _, _) -> i) in
  let amortized = total_full /. total_incr in
  let target_ok = amortized >= 5.0 in
  Printf.printf
    "\namortized speedup over the whole ladder campaign: %.1fx (target >= \
     5x: %s)\n"
    amortized
    (if target_ok then "ok" else "MISMATCH");
  write_json "BENCH_rebudget.json"
    [
      ("benchmark", Json.Str "perf-rebudget");
      ( "unit",
        Json.Str
          "seconds per whole event stream, median of repeats; scratch = \
           one certified portfolio point per event over a warm analysis, \
           incremental = one rebudget session answering the same events" );
      ("initial", Json.Int initial);
      ("events_per_kernel", Json.Int (List.length events));
      ("distinct_budgets", Json.Int (List.length (List.sort_uniq compare rung)));
      ("repeats", Json.Int repeats);
      ("amortized_speedup", Json.float amortized);
      ("target_speedup", Json.float 5.0);
      ("target_ok", Json.Bool target_ok);
      ( "kernels",
        Json.Arr
          (List.map
             (fun (name, n_events, full_s, incr_s, speedup, memo_hits) ->
               Json.Obj
                 [
                   ("kernel", Json.Str name);
                   ("events", Json.Int n_events);
                   ("scratch_s", Json.float full_s);
                   ("incremental_s", Json.float incr_s);
                   ("speedup", Json.float speedup);
                   ("memo_hits", Json.Int memo_hits);
                 ])
             points) );
    ]

(* ---------------------------------------------------------- perf-explore *)

(* The joint design-space explorer vs its own naive arm (DESIGN.md
   §17). The workload is the matmul space the tentpole targets — all
   legal orders x strip-mine factors {2,4} x a five-rung budget ladder
   x two algorithms — plus the running example on the same axes. The
   naive arm evaluates the full product and re-derives analysis, DFG
   and simulation from scratch per point (space.naive, no pruning, no
   memo); the optimized arm runs the shipped path: variant-level and
   point-level dominance cuts from lower bounds, one preparation per
   variant, and the entries-keyed simulation memo. Both arms draw the
   same frontier by construction, and the bench re-checks that byte
   equality (plus jobs=1 vs jobs=N) before reporting any ratio. *)
let perf_explore () =
  section "perf-explore: naive product vs pruned+memoised explorer";
  let wall f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, Unix.gettimeofday () -. t0)
  in
  let median_of f ~repeats =
    let results = Array.init repeats (fun _ -> wall f) in
    let samples = Array.map snd results in
    Array.sort compare samples;
    (fst results.(0), samples.(repeats / 2))
  in
  let repeats = 3 in
  let space =
    {
      Flow.Core.default_space with
      Flow.Core.orders = Flow.Core.All_orders;
      tile_factors = [ 2; 4 ];
      space_budgets = [ 8; 16; 32; 64; 128 ];
      space_algorithms = [ Allocator.Cpa_ra; Allocator.Fr_ra ];
    }
  in
  let naive_space =
    { space with Flow.Core.prune = false; Flow.Core.naive = true }
  in
  let kernels =
    [
      ("example", Srfa_kernels.Kernels.example ());
      ("mat", Option.get (Srfa_kernels.Kernels.find "mat"));
    ]
  in
  let jobs, _ = Pool.resolve () in
  let table =
    T.create
      ~headers:
        [
          ("kernel", T.Left); ("points", T.Right); ("naive s", T.Right);
          ("explorer s", T.Right); ("speedup", T.Right);
          ("prune rate", T.Right); ("memo rate", T.Right);
          ("variants/s", T.Right); (Printf.sprintf "%d-domain s" jobs, T.Right);
          ("identical", T.Left);
        ]
  in
  let points =
    Pool.with_pool ~jobs (fun pool ->
        List.map
          (fun (name, nest) ->
            let explore ?pool space =
              Flow.Core.explore ?pool ~space Flow.default_config nest
            in
            let naive_f, naive_s =
              median_of ~repeats (fun () -> explore naive_space)
            in
            let opt_f, opt_s = median_of ~repeats (fun () -> explore space) in
            let pooled_f, pooled_s =
              median_of ~repeats (fun () -> explore ~pool space)
            in
            let identical =
              Flow.Core.frontier_json naive_f = Flow.Core.frontier_json opt_f
              && Flow.Core.frontier_json opt_f
                 = Flow.Core.frontier_json pooled_f
            in
            let s = opt_f.Flow.Core.frontier_stats in
            let total =
              s.Flow.Core.points_evaluated + s.Flow.Core.points_pruned
            in
            let prune_rate =
              float_of_int s.Flow.Core.points_pruned /. float_of_int total
            in
            let memo_rate =
              float_of_int s.Flow.Core.sim_memo_hits
              /. float_of_int s.Flow.Core.points_evaluated
            in
            let variants_per_s =
              float_of_int s.Flow.Core.variants_unique /. opt_s
            in
            let speedup = naive_s /. opt_s in
            T.add_row table
              [
                name;
                string_of_int total;
                Printf.sprintf "%.3f" naive_s;
                Printf.sprintf "%.3f" opt_s;
                Printf.sprintf "%.1fx" speedup;
                Printf.sprintf "%.0f%%" (100.0 *. prune_rate);
                Printf.sprintf "%.0f%%" (100.0 *. memo_rate);
                Printf.sprintf "%.0f" variants_per_s;
                Printf.sprintf "%.3f" pooled_s;
                (if identical then "yes" else "MISMATCH");
              ];
            ( name, total, naive_s, opt_s, pooled_s, speedup, prune_rate,
              memo_rate, variants_per_s, identical ))
          kernels)
  in
  T.print table;
  (* Koka-artifact style: each kernel normalized to its own naive
     median, so the table reads as explorer leverage, not kernel
     size. *)
  let norm =
    T.create
      ~headers:
        [
          ("kernel", T.Left); ("naive", T.Right); ("explorer", T.Right);
          (Printf.sprintf "%d-domain" jobs, T.Right);
        ]
  in
  List.iter
    (fun (name, _, naive_s, opt_s, pooled_s, _, _, _, _, _) ->
      T.add_row norm
        [
          name; "1.00";
          Printf.sprintf "%.3f" (opt_s /. naive_s);
          Printf.sprintf "%.3f" (pooled_s /. naive_s);
        ])
    points;
  Printf.printf "\nwall-clock normalized to each kernel's naive median:\n\n";
  T.print norm;
  let mat_speedup =
    List.fold_left
      (fun acc (name, _, _, _, _, speedup, _, _, _, _) ->
        if name = "mat" then speedup else acc)
      0.0 points
  in
  let target_ok = mat_speedup >= 5.0 in
  let all_identical =
    List.for_all (fun (_, _, _, _, _, _, _, _, _, id) -> id) points
  in
  Printf.printf
    "\nmatmul space: %.1fx naive-vs-explorer (target >= 5x: %s); frontiers \
     byte-identical across naive/pruned/pooled arms: %s\n"
    mat_speedup
    (if target_ok then "ok" else "MISMATCH")
    (if all_identical then "yes" else "MISMATCH");
  let domains_available = Domain.recommended_domain_count () in
  (* Same stamp as perf-parallel: on a single-core host the pooled arm
     takes the sequential path, so its column verifies nothing about
     the domain fan-out. The naive-vs-explorer speedup is single-arm
     and stays meaningful either way. *)
  let unverified = domains_available <= 1 || jobs <= 1 in
  if unverified then
    Printf.printf
      "\nNOTE: only %d domain(s) available — the pooled column is \
       UNVERIFIED on this host; BENCH_explore.json is stamped \
       \"unverified\": true.\n"
      domains_available;
  write_json "BENCH_explore.json"
    [
      ("benchmark", Json.Str "perf-explore");
      ( "unit",
        Json.Str
          "seconds per whole-space exploration, median of repeats; naive = \
           full product, per-point analysis/DFG/simulation from scratch; \
           explorer = dominance cuts + per-variant preparation + entries \
           memo" );
      ("repeats", Json.Int repeats);
      ("jobs", Json.Int jobs);
      ("recommended_domains", Json.Int (Pool.recommended ()));
      ("domains_available", Json.Int domains_available);
      ("unverified", Json.Bool unverified);
      ("matmul_speedup", Json.float mat_speedup);
      ("target_speedup", Json.float 5.0);
      ("target_ok", Json.Bool target_ok);
      ("frontiers_identical", Json.Bool all_identical);
      ( "kernels",
        Json.Arr
          (List.map
             (fun
               ( name, total, naive_s, opt_s, pooled_s, speedup, prune_rate,
                 memo_rate, variants_per_s, identical )
             ->
               Json.Obj
                 [
                   ("kernel", Json.Str name);
                   ("ladder_points", Json.Int total);
                   ("naive_s", Json.float naive_s);
                   ("explorer_s", Json.float opt_s);
                   ("pooled_s", Json.float pooled_s);
                   ("speedup", Json.float speedup);
                   ("prune_rate", Json.float prune_rate);
                   ("memo_hit_rate", Json.float memo_rate);
                   ("variants_per_s", Json.float variants_per_s);
                   ("identical", Json.Bool identical);
                 ])
             points) );
    ]

(* ------------------------------------------------------------------ main *)

let sections =
  [
    ("fig2", fig2);
    ("fig2-dfg", fig2_dfg);
    ("table1", table1);
    ("table1-summary", table1_summary);
    ("budget-sweep", budget_sweep);
    ("ablation-concurrency", ablation_concurrency);
    ("ablation-knapsack", ablation_knapsack);
    ("ablation-residency", ablation_residency);
    ("ablation-cpa-plus", ablation_cpa_plus);
    ("ablation-loop-order", ablation_loop_order);
    ("ablation-latency", ablation_latency);
    ("fixed-clock", fixed_clock);
    ("ablation-peeling", ablation_peeling);
    ("ablation-pipelining", ablation_pipelining);
    ("perf", perf);
    ("perf-cuts", perf_cuts);
    ("perf-fuzz", perf_fuzz);
    ("perf-certify", perf_certify);
    ("perf-parallel", perf_parallel);
    ("perf-core", perf_core);
    ("perf-serve", perf_serve);
    ("perf-robust", perf_robust);
    ("perf-rebudget", perf_rebudget);
    ("perf-explore", perf_explore);
  ]

(* `--sections core,cuts,certify` shorthand: bare names expand to their
   perf-* section; full section names pass through unchanged. *)
let expand_section = function
  | "core" -> "perf-core"
  | "cuts" -> "perf-cuts"
  | "fuzz" -> "perf-fuzz"
  | "certify" -> "perf-certify"
  | "parallel" -> "perf-parallel"
  | "serve" -> "perf-serve"
  | "robust" -> "perf-robust"
  | "rebudget" -> "perf-rebudget"
  | "explore" -> "perf-explore"
  | s -> s

let () =
  match Array.to_list Sys.argv with
  (* Hidden re-exec mode used by perf-core to read OCAMLRUNPARAM fresh. *)
  | _ :: "perf-core-probe" :: kernel :: _ -> perf_core_probe kernel
  | argv ->
    let rec parse acc = function
      | [] -> List.rev acc
      | "--sections" :: spec :: rest ->
        parse
          (List.rev_append
             (List.map expand_section (String.split_on_char ',' spec))
             acc)
          rest
      | name :: rest -> parse (name :: acc) rest
    in
    let requested =
      match parse [] (match argv with [] -> [] | _ :: rest -> rest) with
      | [] -> List.map fst sections
      | names -> names
    in
    List.iter
      (fun name ->
        match List.assoc_opt name sections with
        | Some f -> f ()
        | None ->
          Printf.eprintf "unknown section %s (have: %s)\n" name
            (String.concat ", " (List.map fst sections));
          exit 1)
      requested
