(* Binary image correlation (BIC) walked through the whole flow: reuse
   analysis, critical-graph cuts, the CPA-RA decision trace, the resulting
   design, and the generated behavioral VHDL.

   Run with: dune exec examples/image_correlation.exe *)

let () =
  let nest = Srfa_kernels.Kernels.bic ~template:8 ~image:32 () in
  Format.printf "%a@." Srfa_ir.Nest.pp nest;

  let analysis = Srfa_core.Flow.analyze nest in
  Format.printf "@.=== reuse analysis ===@.";
  Array.iter
    (fun info -> Format.printf "  %a@." Srfa_reuse.Analysis.pp_info info)
    analysis.Srfa_reuse.Analysis.infos;

  (* Critical graph and its cuts under the all-in-RAM starting point. *)
  let dfg = Srfa_dfg.Graph.build analysis in
  let charged _ = true in
  let cg = Srfa_dfg.Critical.make dfg ~latency:Srfa_hw.Latency.default ~charged in
  Format.printf "@.=== critical graph ===@.";
  Format.printf "critical path latency: %d@." (Srfa_dfg.Critical.length cg);
  List.iter
    (fun cut ->
      Format.printf "cut: {%s}@."
        (String.concat ", " (List.map Srfa_reuse.Group.name cut)))
    (Srfa_dfg.Cut.enumerate_exhaustive cg);

  (* CPA-RA with its decision trace. *)
  let budget = 64 in
  let alloc, trace = Srfa_core.Cpa_ra.allocate_traced analysis ~budget in
  Format.printf "@.=== CPA-RA trace (budget %d) ===@." budget;
  List.iter
    (fun (step : Srfa_core.Cpa_ra.trace_step) ->
      Format.printf "  CP=%d, cut {%s} needs %d more registers -> %s@."
        step.Srfa_core.Cpa_ra.critical_length
        (String.concat ", "
           (List.map Srfa_reuse.Group.name step.Srfa_core.Cpa_ra.cut))
        step.Srfa_core.Cpa_ra.required
        (if step.Srfa_core.Cpa_ra.granted_full then "fully allocated"
         else "leftover split evenly"))
    trace;
  Format.printf "%a@." Srfa_reuse.Allocation.pp alloc;

  (* The design this allocation produces. *)
  let report =
    Srfa_estimate.Report.of_result
      ~sim_config:Srfa_sched.Simulator.default_config ~version:"v3" alloc
      (Srfa_sched.Simulator.run alloc)
  in
  Format.printf "@.=== design ===@.%a@." Srfa_estimate.Report.pp report;

  (* The realisation per reference, and the behavioral VHDL artefact. *)
  let plan = Srfa_codegen.Plan.build alloc in
  Format.printf "@.=== realisation ===@.";
  List.iter
    (fun (name, how) -> Format.printf "  %-20s %s@." name how)
    (Srfa_codegen.Plan.describe plan);
  Format.printf "@.=== behavioral VHDL ===@.";
  print_string (Srfa_codegen.Vhdl.emit plan)
