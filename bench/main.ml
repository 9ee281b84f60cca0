(* Benchmark harness: regenerates every quantitative artifact of the paper
   (DESIGN.md §5) and times the ratio claims that the repository benchmark
   (perfbench/) cannot make.

     dune exec bench/main.exe            -- every section
     dune exec bench/main.exe fig2 ...   -- the named sections, in order

   The paper's sections print deterministic text, pinned byte for byte by
   bench/paper.expected (the @bench-smoke alias):
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

   The perf sections time every arm through [measure]; all but [perf]
   write a BENCH_*.json file through [write_bench]:
     perf                  per-call cost of the allocators, the hardened
                           pipeline and the fuzz harness
     perf-cuts             flow min-vertex-cut vs exhaustive enumeration
                           on synthetic unrolled kernels (BENCH_cuts.json)
     perf-certify          certified portfolio vs plain CPA-RA across the
                           sweep kernels (BENCH_certify.json)
     perf-parallel         serial vs N-domain sweep, fuzz and certify
                           drivers, with the determinism contract
                           re-checked (BENCH_parallel.json)
     perf-rebudget         incremental re-budgeting (one session, 40
                           oscillating budget events) vs one certified
                           portfolio point per event from scratch
                           (BENCH_rebudget.json)
     perf-explore          the joint design-space explorer vs its naive
                           full-product arm on the matmul space, with
                           prune/memo rates and the byte-identity
                           differential re-checked (BENCH_explore.json) *)

module Allocator = Srfa_core.Allocator
module Flow = Srfa_core.Flow
module Report = Srfa_estimate.Report
module Simulator = Srfa_sched.Simulator
module T = Srfa_util.Texttable
module Pool = Srfa_util.Pool
module Json = Srfa_util.Json

let budget = 64

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

(* ----------------------------------------------------------- measurement *)

(* One call's cost: median and quartiles in ns, and the minor-heap words
   it allocates. *)
type stats = { median : float; q1 : float; q3 : float; words : float }

let now_ns () = Int64.to_float (Monotonic_clock.now ())

(* [measure ~samples f] calls [f] once for its result, then takes
   [samples] timed samples. A first call under 1 ms sets a batch size
   that makes each sample last about 1 ms, so the clock's resolution
   stays small against it; every statistic is per call. The words are
   read after a Gc.minor flush: OCaml 5.1 under-counts words still in
   the minor heap. They count the calling domain only, not pool
   workers. *)
let measure ~samples f =
  let t0 = now_ns () in
  let first = f () in
  let batch = max 1 (int_of_float (1e6 /. Float.max 1.0 (now_ns () -. t0))) in
  let times = Array.make samples 0.0 in
  Gc.minor ();
  let words0 = Gc.minor_words () in
  for i = 0 to samples - 1 do
    let t0 = now_ns () in
    for _ = 1 to batch do
      ignore (Sys.opaque_identity (f ()))
    done;
    times.(i) <- (now_ns () -. t0) /. float_of_int batch
  done;
  Gc.minor ();
  let calls = float_of_int (samples * batch) in
  Array.sort Float.compare times;
  let at p =
    let x = p *. float_of_int (samples - 1) in
    let i = int_of_float x in
    let j = min (i + 1) (samples - 1) in
    times.(i) +. ((x -. float_of_int i) *. (times.(j) -. times.(i)))
  in
  ( first,
    {
      median = at 0.5;
      q1 = at 0.25;
      q3 = at 0.75;
      words = (Gc.minor_words () -. words0) /. calls;
    } )

let duration ns =
  if ns >= 1e9 then Printf.sprintf "%.2f s" (ns /. 1e9)
  else if ns >= 1e6 then Printf.sprintf "%.2f ms" (ns /. 1e6)
  else if ns >= 1e3 then Printf.sprintf "%.1f us" (ns /. 1e3)
  else Printf.sprintf "%.0f ns" ns

(* A median and its spread (interquartile range over the median), the
   two table cells of every timed arm. *)
let cells s =
  [
    duration s.median;
    Printf.sprintf "~%.1f%%" (100.0 *. (s.q3 -. s.q1) /. s.median);
  ]

let timed name = [ (name, T.Right); ("iqr", T.Right) ]

let num digits f = if Float.is_finite f then Json.fixed digits f else Json.Null

let stats_json s =
  Json.Obj
    [
      ("median_ns", num 1 s.median);
      ("q1_ns", num 1 s.q1);
      ("q3_ns", num 1 s.q3);
      ("minor_words", num 1 s.words);
    ]

let verdict ok = if ok then "ok" else "MISMATCH"

let vmhwm_kb () =
  match In_channel.with_open_text "/proc/self/status" In_channel.input_all with
  | exception Sys_error _ -> 0
  | status ->
    List.fold_left
      (fun acc line ->
        try Scanf.sscanf line "VmHWM: %d" Fun.id
        with Scanf.Scan_failure _ | End_of_file | Failure _ -> acc)
      0
      (String.split_on_char '\n' status)

(* The envelope every BENCH_<name>.json shares, then the section's own
   members. A section with a pooled arm passes [~pooled:true]: on a
   one-domain host, or at one job, that arm takes the sequential path and
   verifies nothing about the domain pool, so the file says so. *)
let write_bench name ~unit ?(pooled = false) members =
  let jobs, _ = Pool.resolve () in
  let domains = Domain.recommended_domain_count () in
  let unverified = pooled && (domains <= 1 || jobs <= 1) in
  let file = Printf.sprintf "BENCH_%s.json" name in
  if unverified then
    Printf.printf
      "\nNOTE: %d domain(s) available, %d job(s) — the pooled arm is \
       UNVERIFIED here; %s is stamped \"unverified\": true.\n"
      domains jobs file;
  Out_channel.with_open_text file (fun oc ->
      output_string oc
        (Json.to_lines
           (Json.Obj
              ([
                 ("benchmark", Json.Str ("perf-" ^ name));
                 ("unit", Json.Str unit);
                 ("jobs", Json.Int jobs);
                 ("domains_available", Json.Int domains);
                 ("unverified", Json.Bool unverified);
                 ("peak_rss_kb", Json.Int (vmhwm_kb ()));
               ]
              @ members)));
      output_char oc '\n');
  Printf.printf "wrote %s\n" file

(* ------------------------------------------------------------------ perf *)

(* Per-call cost of the allocators on the Fig. 1 example, of the hardened
   pipeline against raw evaluate (checked adds guard bookkeeping, the
   event-model second opinion and warning synthesis; it must stay close
   to free), and of the fuzz harness: one generate-and-judge case over a
   mix of valid, mask-stress and broken kernels, and a pooled campaign. *)
let perf () =
  section "perf: per-call cost of the allocators and the hardened pipeline";
  let nest = Srfa_kernels.Kernels.example () in
  let analysis = Flow.analyze nest in
  let mat_analysis = Flow.analyze (Srfa_kernels.Kernels.mat ~size:8 ()) in
  let case_id = ref 0 in
  let jobs, _ = Pool.resolve () in
  let table =
    T.create
      ~headers:
        ((("benchmark", T.Left) :: timed "per call") @ [ ("words", T.Right) ])
  in
  Pool.with_pool ~jobs (fun pool ->
      List.iter
        (fun (name, f) ->
          let (), s = measure ~samples:21 f in
          T.add_row table
            ((name :: cells s) @ [ Printf.sprintf "%.0f" s.words ]))
        [
          ("analyze example", fun () -> ignore (Flow.analyze nest));
          ( "fr-ra example",
            fun () -> ignore (Allocator.run Allocator.Fr_ra analysis ~budget) );
          ( "pr-ra example",
            fun () -> ignore (Allocator.run Allocator.Pr_ra analysis ~budget) );
          ( "cpa-ra example",
            fun () -> ignore (Allocator.run Allocator.Cpa_ra analysis ~budget) );
          ( "ks-ra example",
            fun () -> ignore (Allocator.run Allocator.Knapsack analysis ~budget) );
          ( "cpa-ra mat8",
            fun () ->
              ignore (Allocator.run Allocator.Cpa_ra mat_analysis ~budget) );
          ( "cut enumeration",
            fun () ->
              let dfg = Srfa_dfg.Graph.build analysis in
              let cg =
                Srfa_dfg.Critical.make dfg ~latency:Srfa_hw.Latency.default
                  ~charged:(fun _ -> true)
              in
              ignore (Srfa_dfg.Cut.enumerate_exhaustive cg) );
          ( "simulate example (cpa)",
            fun () ->
              let alloc = Allocator.run Allocator.Cpa_ra analysis ~budget in
              ignore (Simulator.run alloc) );
          ( "evaluate (raw)",
            fun () ->
              ignore
                (Flow.evaluate_analysis Flow.default_config Allocator.Cpa_ra
                   (Flow.analyze nest)) );
          ("checked (hardened)", fun () -> ignore (Flow.checked nest));
          ( "fuzz case (generate+judge)",
            fun () ->
              let id = !case_id in
              case_id := (id + 1) mod 200;
              ignore
                (Srfa_fuzzer.Harness.run_case
                   (Srfa_fuzzer.Gen.generate ~seed:42 ~id)) );
          ( Printf.sprintf "fuzz campaign (20 cases, %d domains)" jobs,
            fun () ->
              ignore (Srfa_fuzzer.Harness.run ~cases:20 ~seed:42 ~pool ()) );
        ]);
  T.print table

(* ------------------------------------------------------------- perf-cuts *)

(* The cheapest-cut query CPA-RA issues every round, asked two ways on the
   same critical graph: through the polynomial flow engine and through the
   exhaustive minimal-cut enumeration (capped at 16 groups — its hard
   wall). The synthetic kernels put every reference group on the CG, the
   unrolled regime the enumerator cannot survive. Both must name the same
   cheapest weight wherever the enumerator can run at all. *)
let perf_cuts () =
  section
    "perf-cuts: flow min-vertex-cut vs exhaustive enumeration (synthetic \
     unrolled kernels)";
  let weight_cell = function Some w -> string_of_int w | None -> "-" in
  let points =
    List.map
      (fun g ->
        let nest = Srfa_kernels.Extra.synthetic_cut ~groups:g () in
        let analysis = Flow.analyze nest in
        let dfg = Srfa_dfg.Graph.build analysis in
        let info (grp : Srfa_reuse.Group.t) =
          Srfa_reuse.Analysis.info analysis grp.Srfa_reuse.Group.id
        in
        (* The CPA-RA round-1 memory state: one pinned register per group. *)
        let charged grp =
          let i = info grp in
          (not i.Srfa_reuse.Analysis.has_reuse) || 1 < i.Srfa_reuse.Analysis.nu
        in
        let improvable grp =
          let i = info grp in
          i.Srfa_reuse.Analysis.has_reuse && 1 < i.Srfa_reuse.Analysis.nu
        in
        let weight grp = (info grp).Srfa_reuse.Analysis.nu - 1 in
        let cg =
          Srfa_dfg.Critical.make dfg ~latency:Srfa_hw.Latency.default ~charged
        in
        let flow, flow_t =
          measure ~samples:11 (fun () ->
              Option.map snd
                (Srfa_dfg.Cut.cheapest cg ~eligible:improvable ~weight))
        in
        (* What Cpa_ra.allocate did before the flow engine: enumerate every
           minimal cut, keep the all-improvable ones, fold to the cheapest. *)
        let exhaustive () =
          Srfa_dfg.Cut.enumerate_exhaustive cg
          |> List.filter (List.for_all improvable)
          |> List.fold_left
               (fun acc cut ->
                 let w =
                   List.fold_left (fun acc grp -> acc + weight grp) 0 cut
                 in
                 Some (match acc with Some b -> min b w | None -> w))
               None
        in
        let exhaustive_t =
          if g > 16 then None
          else begin
            let reference, t = measure ~samples:11 exhaustive in
            Printf.printf "%2d groups: cheapest weight flow=%s exhaustive=%s %s\n"
              g (weight_cell flow) (weight_cell reference)
              (if flow = reference then "agree" else "MISMATCH");
            Some t
          end
        in
        let speedup =
          Option.map (fun e -> e.median /. flow_t.median) exhaustive_t
        in
        (g, flow_t, exhaustive_t, speedup))
      [ 8; 12; 16; 24; 48 ]
  in
  Printf.printf "\n";
  let table =
    T.create
      ~headers:
        ((("ref groups", T.Right) :: timed "flow/query")
        @ timed "exhaustive/query"
        @ [ ("speedup", T.Right) ])
  in
  List.iter
    (fun (g, flow, exh, speedup) ->
      T.add_row table
        ((string_of_int g :: cells flow)
        @ (match exh with Some e -> cells e | None -> [ "-"; "" ])
        @ [
            (match speedup with
            | Some s -> Printf.sprintf "%.0fx" s
            | None -> "- (beyond the 16-group wall)");
          ]))
    points;
  T.print table;
  (match List.find_opt (fun (g, _, _, _) -> g = 16) points with
  | Some (_, _, _, Some s) ->
    Printf.printf "\nspeedup at the 16-group wall: %.0fx (target >= 10x): %s\n"
      s (verdict (s >= 10.0))
  | _ -> Printf.printf "\nspeedup at the 16-group wall: unavailable\n");
  write_bench "cuts" ~unit:"ns per cheapest-cut query"
    [
      ( "points",
        Json.Arr
          (List.map
             (fun (g, flow, exh, speedup) ->
               let opt f = Option.fold ~none:Json.Null ~some:f in
               Json.Obj
                 [
                   ("groups", Json.Int g);
                   ("flow", stats_json flow);
                   ("exhaustive", opt stats_json exh);
                   ("speedup", opt (num 1) speedup);
                 ])
             points) );
    ]

(* ---------------------------------------------------------- perf-certify *)

(* What the never-worse guarantee costs: a certified portfolio point pays
   for the two greedy baseline allocations and their simulations on top
   of the plain CPA-RA evaluation (allocation + simulation), plus the
   repair passes when the candidate lost. Measured end to end on every
   sweep kernel at the paper's budget; the recorded overhead is the plain
   ratio of medians certified / plain, and the acceptance bar is that
   ratio under 3x (the old bar — extra work below 2x plain — restated in
   the units the JSON actually carries). *)
let perf_certify () =
  section
    "perf-certify: certification overhead vs plain CPA-RA (sweep kernels)";
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
    Simulator.run (Allocator.run Allocator.Cpa_ra analysis ~budget)
  in
  let certified analysis () =
    let outcome = Allocator.run_portfolio analysis ~budget in
    match outcome.Srfa_core.Certify.sim with
    | Some sim -> sim
    | None -> Simulator.run outcome.Srfa_core.Certify.allocation
  in
  let table =
    T.create
      ~headers:
        ((("kernel", T.Left) :: timed "plain")
        @ timed "certified"
        @ [ ("overhead", T.Right) ])
  in
  let points =
    List.map
      (fun (name, analysis) ->
        let _, plain = measure ~samples:11 (plain analysis) in
        let _, certified = measure ~samples:11 (certified analysis) in
        let overhead = certified.median /. plain.median in
        T.add_row table
          ((name :: cells plain)
          @ cells certified
          @ [ Printf.sprintf "%.2fx" overhead ]);
        (name, plain, certified, overhead))
      instances
  in
  T.print table;
  let worst =
    List.fold_left (fun acc (_, _, _, o) -> Float.max acc o) 0.0 points
  in
  Printf.printf
    "\nworst certification overhead: %.2fx plain CPA-RA wall-clock (target < \
     3x): %s\n"
    worst (verdict (worst < 3.0));
  write_bench "certify" ~unit:"ns per evaluation (allocation + simulation)"
    [
      ("budget", Json.Int budget);
      ("overhead_target_x", Json.Raw "3.0");
      ( "points",
        Json.Arr
          (List.map
             (fun (name, plain, certified, overhead) ->
               Json.Obj
                 [
                   ("kernel", Json.Str name);
                   ("plain", stats_json plain);
                   ("certified", stats_json certified);
                   ("overhead_x", num 3 overhead);
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
        ((("driver", T.Left) :: timed "serial")
        @ timed (Printf.sprintf "%d-domain" jobs)
        @ [ ("speedup", T.Right); ("identical", T.Left) ])
  in
  let points =
    Pool.with_pool ~jobs (fun pool ->
        List.map
          (fun (name, run) ->
            let serial_r, serial = measure ~samples:3 (fun () -> run None) in
            let pooled_r, pooled =
              measure ~samples:3 (fun () -> run (Some pool))
            in
            let speedup = serial.median /. pooled.median in
            let identical = serial_r = pooled_r in
            T.add_row table
              ((name :: cells serial)
              @ cells pooled
              @ [
                  Printf.sprintf "%.2fx" speedup;
                  (if identical then "yes" else "MISMATCH");
                ]);
            (name, serial, pooled, speedup, identical))
          drivers)
  in
  T.print table;
  Printf.printf
    "\n%d worker domains; the fuzz driver runs %d cases. Speedup is \
     wall-clock; at one job or on a one-domain host both arms take the \
     sequential path and the ratio sits at ~1x by construction.\n"
    jobs fuzz_cases;
  write_bench "parallel" ~pooled:true ~unit:"ns per whole driver run"
    [
      ("fuzz_cases", Json.Int fuzz_cases);
      ( "drivers",
        Json.Arr
          (List.map
             (fun (name, serial, pooled, speedup, identical) ->
               Json.Obj
                 [
                   ("driver", Json.Str name);
                   ("serial", stats_json serial);
                   ("pooled", stats_json pooled);
                   ("speedup", num 3 speedup);
                   ("identical", Json.Bool identical);
                 ])
             points) );
    ]

(* --------------------------------------------------------- perf-rebudget *)

(* Incremental re-budgeting vs from-scratch re-allocation (DESIGN.md
   §16). The workload is what rebudget exists for: a long oscillating
   budget ladder over a live kernel — a host shrinking and re-growing
   the register file while the allocation stays resident. Both arms
   answer the initial budget and then the same events. The
   incremental arm answers them through one rebudget session
   (cheapest-loss-first reclaim / headroom re-spend, plus the
   per-budget memo on revisits); the from-scratch arm answers them
   the way a plain allocate client would, one full certified portfolio
   point each over the same resident analysis — tier 1 is warm in both
   arms, so the comparison isolates allocation + certification work,
   not parsing or analysis. Both arms carry the same never-worse
   contract, so quality is identical by construction; the bench
   measures cost only. *)
let perf_rebudget () =
  section "perf-rebudget: incremental re-budgeting vs from-scratch per event";
  let initial = 128 in
  (* Ten rungs, eight of them distinct, cycled four times: 40 events per
     kernel after the initial budget. *)
  let rung = [ 64; 32; 16; 8; 12; 24; 48; 96; 64; 32 ] in
  let events = List.concat_map (fun _ -> rung) [ (); (); (); () ] in
  let n_events = List.length events in
  let kernels =
    ("example", Srfa_kernels.Kernels.example ()) :: Srfa_kernels.Kernels.all ()
  in
  let table =
    T.create
      ~headers:
        ((("kernel", T.Left) :: ("events", T.Right) :: timed "scratch")
        @ timed "incremental"
        @ [ ("speedup", T.Right); ("memo hits", T.Right) ])
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
        let (), full =
          measure ~samples:5 (fun () ->
              List.iter full_point (initial :: events))
        in
        let steps, incr =
          measure ~samples:5 (fun () ->
              Flow.Core.rebudget ~sim_scratch:scratch Flow.default_config
                prepared ~initial ~events)
        in
        let memo_hits =
          List.length (List.filter (fun s -> s.Flow.Core.memoized) steps)
        in
        let speedup = full.median /. incr.median in
        T.add_row table
          ((name :: string_of_int n_events :: cells full)
          @ cells incr
          @ [ Printf.sprintf "%.2fx" speedup; string_of_int memo_hits ]);
        (name, full, incr, speedup, memo_hits))
      kernels
  in
  T.print table;
  let sum f = List.fold_left (fun acc p -> acc +. f p) 0.0 points in
  let amortized =
    sum (fun (_, full, _, _, _) -> full.median)
    /. sum (fun (_, _, incr, _, _) -> incr.median)
  in
  let target_ok = amortized >= 5.0 in
  Printf.printf
    "\namortized speedup over the whole ladder campaign: %.1fx (target >= \
     5x: %s)\n"
    amortized (verdict target_ok);
  write_bench "rebudget"
    ~unit:
      "ns per whole stream (the initial budget, then the events); scratch = \
       one certified portfolio point per budget over a warm analysis, \
       incremental = one rebudget session answering the same budgets"
    [
      ("initial", Json.Int initial);
      ("events_per_kernel", Json.Int n_events);
      ("distinct_budgets", Json.Int (List.length (List.sort_uniq compare rung)));
      ("amortized_speedup", num 3 amortized);
      ("target_speedup", num 3 5.0);
      ("target_ok", Json.Bool target_ok);
      ( "kernels",
        Json.Arr
          (List.map
             (fun (name, full, incr, speedup, memo_hits) ->
               Json.Obj
                 [
                   ("kernel", Json.Str name);
                   ("events", Json.Int n_events);
                   ("scratch", stats_json full);
                   ("incremental", stats_json incr);
                   ("speedup", num 3 speedup);
                   ("memo_hits", Json.Int memo_hits);
                 ])
             points) );
    ]

(* ---------------------------------------------------------- perf-explore *)

(* The joint design-space explorer vs its own naive arm (DESIGN.md
   §17). The workload is the matmul space — all legal orders x
   strip-mine factors {2,4} x a five-rung budget ladder x two
   algorithms — plus the running example on the same axes. The naive
   arm evaluates the full product and re-derives analysis, DFG and
   simulation from scratch per point (space.naive, no pruning, no
   memo); the optimized arm runs the shipped path: variant-level and
   point-level dominance cuts from lower bounds, one preparation per
   variant, and the entries-keyed simulation memo. Both arms draw the
   same frontier by construction, and the bench re-checks that byte
   equality (plus jobs=1 vs jobs=N) before reporting any ratio. *)
let perf_explore () =
  section "perf-explore: naive product vs pruned+memoised explorer";
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
        ((("kernel", T.Left) :: ("points", T.Right) :: timed "naive")
        @ timed "explorer"
        @ [
            ("speedup", T.Right); ("prune rate", T.Right);
            ("memo rate", T.Right);
          ]
        @ timed (Printf.sprintf "%d-domain" jobs)
        @ [ ("identical", T.Left) ])
  in
  let points =
    Pool.with_pool ~jobs (fun pool ->
        List.map
          (fun (name, nest) ->
            let explore ?pool space () =
              Flow.Core.explore ?pool ~space Flow.default_config nest
            in
            let naive_f, naive = measure ~samples:3 (explore naive_space) in
            let opt_f, opt = measure ~samples:3 (explore space) in
            let pooled_f, pooled = measure ~samples:3 (explore ~pool space) in
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
            let speedup = naive.median /. opt.median in
            T.add_row table
              ((name :: string_of_int total :: cells naive)
              @ cells opt
              @ [
                  Printf.sprintf "%.1fx" speedup;
                  Printf.sprintf "%.0f%%" (100.0 *. prune_rate);
                  Printf.sprintf "%.0f%%" (100.0 *. memo_rate);
                ]
              @ cells pooled
              @ [ (if identical then "yes" else "MISMATCH") ]);
            ( name, total, naive, opt, pooled, speedup, prune_rate, memo_rate,
              identical ))
          kernels)
  in
  T.print table;
  let mat_speedup =
    List.fold_left
      (fun acc (name, _, _, _, _, speedup, _, _, _) ->
        if name = "mat" then speedup else acc)
      0.0 points
  in
  let target_ok = mat_speedup >= 5.0 in
  let all_identical =
    List.for_all (fun (_, _, _, _, _, _, _, _, id) -> id) points
  in
  Printf.printf
    "\nmatmul space: %.1fx naive-vs-explorer (target >= 5x: %s); frontiers \
     byte-identical across naive/pruned/pooled arms: %s\n"
    mat_speedup (verdict target_ok)
    (if all_identical then "yes" else "MISMATCH");
  write_bench "explore" ~pooled:true
    ~unit:
      "ns per whole-space exploration; naive = full product, per-point \
       analysis/DFG/simulation from scratch; explorer = dominance cuts + \
       per-variant preparation + entries memo"
    [
      ("matmul_speedup", num 3 mat_speedup);
      ("target_speedup", num 3 5.0);
      ("target_ok", Json.Bool target_ok);
      ("frontiers_identical", Json.Bool all_identical);
      ( "kernels",
        Json.Arr
          (List.map
             (fun
               ( name, total, naive, opt, pooled, speedup, prune_rate,
                 memo_rate, identical )
             ->
               Json.Obj
                 [
                   ("kernel", Json.Str name);
                   ("ladder_points", Json.Int total);
                   ("naive", stats_json naive);
                   ("explorer", stats_json opt);
                   ("pooled", stats_json pooled);
                   ("speedup", num 3 speedup);
                   ("prune_rate", num 3 prune_rate);
                   ("memo_hit_rate", num 3 memo_rate);
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
    ("perf-certify", perf_certify);
    ("perf-parallel", perf_parallel);
    ("perf-rebudget", perf_rebudget);
    ("perf-explore", perf_explore);
  ]

let () =
  let requested =
    match List.tl (Array.to_list Sys.argv) with
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
