(* Differential proof that the Engine refactor changed no allocation: the
   pre-engine implementations of all five allocators, kept verbatim below
   (modulo the module prefixes), must produce bit-identical results —
   same beta, same pinned flag, same algorithm string — on every kernel,
   for every algorithm, across the budget grid {8, 16, 32, 64, 128}.
   Budgets below a kernel's feasibility minimum must raise
   Invalid_argument on both sides. *)

open Srfa_reuse
module Allocator = Srfa_core.Allocator
module Ordering = Srfa_core.Ordering

(* ------------------------------------------------------------------ *)
(* The legacy allocators, as they were before the Engine refactor.    *)
(* ------------------------------------------------------------------ *)
module Legacy = struct
  let fr_ra analysis ~budget =
    Ordering.check_budget analysis ~budget;
    let ngroups = Analysis.num_groups analysis in
    let entries = Array.make ngroups { Allocation.beta = 1; pinned = false } in
    let remaining = ref (budget - ngroups) in
    let try_assign (i : Analysis.info) =
      let need = i.Analysis.nu - 1 in
      if i.Analysis.has_reuse && need <= !remaining then begin
        entries.(i.Analysis.group.Group.id) <-
          { Allocation.beta = i.Analysis.nu; pinned = true };
        remaining := !remaining - need
      end
    in
    List.iter try_assign (Ordering.sorted_infos analysis);
    Allocation.make ~analysis ~budget ~algorithm:"fr-ra" entries

  let pr_ra analysis ~budget =
    let base = fr_ra analysis ~budget in
    let entries =
      Array.init (Analysis.num_groups analysis) (Allocation.entry base)
    in
    let leftover = ref (budget - Allocation.total_registers base) in
    let give (i : Analysis.info) =
      let gid = i.Analysis.group.Group.id in
      let e = entries.(gid) in
      if
        !leftover > 0 && i.Analysis.has_reuse
        && e.Allocation.beta < i.Analysis.nu
      then begin
        let extra = min !leftover (i.Analysis.nu - e.Allocation.beta) in
        entries.(gid) <-
          { Allocation.beta = e.Allocation.beta + extra; pinned = true };
        leftover := 0 (* only the first partial candidate benefits *)
      end
    in
    List.iter give (Ordering.sorted_infos analysis);
    Allocation.make ~analysis ~budget ~algorithm:"pr-ra" entries

  let cpa_ra ?(latency = Srfa_hw.Latency.default) ?(spend_leftover = false)
      analysis ~budget =
    let module Graph = Srfa_dfg.Graph in
    let module Critical = Srfa_dfg.Critical in
    let module Cut = Srfa_dfg.Cut in
    Ordering.check_budget analysis ~budget;
    let ngroups = Analysis.num_groups analysis in
    let betas = Array.make ngroups 1 in
    let remaining = ref (budget - ngroups) in
    let dfg = Graph.build analysis in
    let info gid = Analysis.info analysis gid in
    let charged (g : Group.t) =
      let i = info g.Group.id in
      (not i.Analysis.has_reuse) || betas.(g.Group.id) < i.Analysis.nu
    in
    let improvable (g : Group.t) =
      let i = info g.Group.id in
      i.Analysis.has_reuse && betas.(g.Group.id) < i.Analysis.nu
    in
    let need g = (info g.Group.id).Analysis.nu - betas.(g.Group.id) in
    let scratch = Critical.scratch dfg in
    let rec round () =
      if !remaining > 0 then begin
        let cg = Critical.make ~scratch dfg ~latency ~charged in
        let mem_len = Graph.memory_path_length dfg ~latency ~charged in
        if mem_len > 0 then begin
          match Cut.cheapest_answer cg ~eligible:improvable ~weight:need with
          | None -> ()
          | Some { Cut.cut; weight = req; _ } ->
            if req <= !remaining then begin
              let fill g =
                betas.(g.Group.id) <- (info g.Group.id).Analysis.nu
              in
              List.iter fill cut;
              remaining := !remaining - req;
              round ()
            end
            else begin
              let share = !remaining / List.length cut in
              let progressed = ref false in
              if share > 0 then begin
                let top_up g =
                  let i = info g.Group.id in
                  let gid = g.Group.id in
                  let before = betas.(gid) in
                  betas.(gid) <- min i.Analysis.nu (before + share);
                  remaining := !remaining - (betas.(gid) - before);
                  if betas.(gid) > before then progressed := true
                in
                List.iter top_up cut
              end;
              if !progressed && !remaining > 0 then round ()
              else if not !progressed then
                (* Mirrors the CPA+ stranded-budget bugfix: only plain
                   CPA-RA declares the leftover unspendable; CPA+ hands it
                   to the spender below (see Cpa_ra.allocate_traced). *)
                if not spend_leftover then remaining := 0
            end
        end
      end
    in
    round ();
    if spend_leftover then begin
      let try_full (i : Analysis.info) =
        let gid = i.Analysis.group.Group.id in
        let need = i.Analysis.nu - betas.(gid) in
        if i.Analysis.has_reuse && need > 0 && need <= !remaining then begin
          betas.(gid) <- i.Analysis.nu;
          remaining := !remaining - need
        end
      in
      List.iter try_full (Ordering.sorted_infos analysis);
      let try_partial (i : Analysis.info) =
        let gid = i.Analysis.group.Group.id in
        if
          !remaining > 0 && i.Analysis.has_reuse
          && betas.(gid) < i.Analysis.nu
        then begin
          let extra = min !remaining (i.Analysis.nu - betas.(gid)) in
          betas.(gid) <- betas.(gid) + extra;
          remaining := !remaining - extra
        end
      in
      List.iter try_partial (Ordering.sorted_infos analysis)
    end;
    let entries =
      Array.map (fun beta -> { Allocation.beta; pinned = true }) betas
    in
    let algorithm = if spend_leftover then "cpa-ra+" else "cpa-ra" in
    Allocation.make ~analysis ~budget ~algorithm entries

  let knapsack analysis ~budget =
    Ordering.check_budget analysis ~budget;
    let ngroups = Analysis.num_groups analysis in
    let capacity = budget - ngroups in
    let items =
      Array.to_list analysis.Analysis.infos
      |> List.filter (fun (i : Analysis.info) ->
             i.Analysis.has_reuse && i.Analysis.saved_full > 0
             && i.Analysis.nu - 1 <= capacity)
    in
    let n = List.length items in
    let items = Array.of_list items in
    let best = Array.make_matrix (n + 1) (capacity + 1) 0 in
    let take = Array.make_matrix (n + 1) (capacity + 1) false in
    for k = n - 1 downto 0 do
      let i = items.(k) in
      let w = i.Analysis.nu - 1 and v = i.Analysis.saved_full in
      for c = 0 to capacity do
        let skip = best.(k + 1).(c) in
        let pick = if w <= c then v + best.(k + 1).(c - w) else -1 in
        if pick > skip then begin
          best.(k).(c) <- pick;
          take.(k).(c) <- true
        end
        else best.(k).(c) <- skip
      done
    done;
    let entries = Array.make ngroups { Allocation.beta = 1; pinned = false } in
    let c = ref capacity in
    for k = 0 to n - 1 do
      if take.(k).(!c) then begin
        let i = items.(k) in
        entries.(i.Analysis.group.Group.id) <-
          { Allocation.beta = i.Analysis.nu; pinned = true };
        c := !c - (i.Analysis.nu - 1)
      end
    done;
    Allocation.make ~analysis ~budget ~algorithm:"ks-ra" entries

  let run algorithm analysis ~budget =
    match algorithm with
    | Allocator.Fr_ra -> fr_ra analysis ~budget
    | Allocator.Pr_ra -> pr_ra analysis ~budget
    | Allocator.Cpa_ra -> cpa_ra analysis ~budget
    | Allocator.Cpa_plus -> cpa_ra ~spend_leftover:true analysis ~budget
    | Allocator.Knapsack -> knapsack analysis ~budget
    | Allocator.Portfolio ->
      (* Post-dates the engine refactor: there is no legacy portfolio to
         diff against (it is filtered out of the grid below). *)
      invalid_arg "no legacy portfolio"
end

(* The pre-engine snapshot covers the five original strategies; the
   certified portfolio was built after the refactor, directly on the
   engine, so it has no legacy twin to compare with. Its determinism
   under tracing is still checked below. *)
let diffable =
  List.filter (fun alg -> alg <> Allocator.Portfolio) Allocator.all

(* ------------------------------------------------------------------ *)

let budgets = [ 8; 16; 32; 64; 128 ]

let kernels () =
  ("example", Srfa_kernels.Kernels.example ()) :: Srfa_kernels.Kernels.all ()

let check_identical label legacy current =
  Alcotest.(check string)
    (label ^ ": algorithm")
    legacy.Allocation.algorithm current.Allocation.algorithm;
  let n = Analysis.num_groups legacy.Allocation.analysis in
  for gid = 0 to n - 1 do
    let l = Allocation.entry legacy gid and c = Allocation.entry current gid in
    Alcotest.(check int)
      (Printf.sprintf "%s: beta of group %d" label gid)
      l.Allocation.beta c.Allocation.beta;
    Alcotest.(check bool)
      (Printf.sprintf "%s: pinned of group %d" label gid)
      l.Allocation.pinned c.Allocation.pinned
  done

let test_differential () =
  List.iter
    (fun (name, nest) ->
      let an = Analysis.analyze nest in
      let minimum = Ordering.feasibility_minimum an in
      List.iter
        (fun budget ->
          List.iter
            (fun alg ->
              let label =
                Printf.sprintf "%s/%s/b=%d" name (Allocator.name alg) budget
              in
              if budget < minimum then begin
                let raises f =
                  try
                    ignore (f ());
                    false
                  with Invalid_argument _ -> true
                in
                Alcotest.(check bool)
                  (label ^ ": legacy rejects infeasible budget")
                  true
                  (raises (fun () -> Legacy.run alg an ~budget));
                Alcotest.(check bool)
                  (label ^ ": engine rejects infeasible budget")
                  true
                  (raises (fun () -> Allocator.run alg an ~budget))
              end
              else
                check_identical label
                  (Legacy.run alg an ~budget)
                  (Allocator.run alg an ~budget))
            diffable)
        budgets)
    (kernels ())

(* The engine must also be deterministic under tracing: running with a
   sink attached may not perturb the result. *)
let test_tracing_is_observational () =
  List.iter
    (fun (name, nest) ->
      let an = Analysis.analyze nest in
      List.iter
        (fun alg ->
          let sink, _events = Srfa_util.Trace.collector () in
          let plain = Allocator.run alg an ~budget:64 in
          let traced = Allocator.run ~trace:sink alg an ~budget:64 in
          check_identical
            (Printf.sprintf "%s/%s traced" name (Allocator.name alg))
            plain traced)
        Allocator.all)
    (kernels ())

let () =
  Alcotest.run "engine-differential"
    [
      ( "old vs new",
        [
          Alcotest.test_case "bit-identical allocations" `Quick
            test_differential;
          Alcotest.test_case "tracing is observational" `Quick
            test_tracing_is_observational;
        ] );
    ]
