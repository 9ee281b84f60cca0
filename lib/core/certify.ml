open Srfa_reuse
module Trace = Srfa_util.Trace
module Simulator = Srfa_sched.Simulator

let algorithm_name = "portfolio"

type comparison =
  | Dominates
  | Simulated of { candidate_cycles : int; bar_cycles : int }

type outcome = {
  allocation : Allocation.t;
  sim : Simulator.result option;
  comparison : comparison;
  repaired : bool;
  adopted : string option;
}

(* Pointwise coverage order. The pinned residency rule is
   [resident <-> pinned && slot_rank < beta] (Analysis.Tracker.resident),
   and the slot rank of an access depends only on the analysis — not on
   the allocation. So if [a]'s entries cover [b]'s pointwise, every
   register hit under [b] is a hit under [a] at every iteration, [a]'s
   charged set is a subset of [b]'s everywhere, and with RAM latency
   never below register latency every per-iteration makespan (and hence
   the total) under [a] is at most [b]'s. A dominance win therefore
   certifies without simulating. *)
let covers a b =
  let n = Analysis.num_groups a.Allocation.analysis in
  let ok = ref true in
  for gid = 0 to n - 1 do
    let ea = Allocation.entry a gid and eb = Allocation.entry b gid in
    if
      eb.Allocation.pinned
      && not (ea.Allocation.pinned && ea.Allocation.beta >= eb.Allocation.beta)
    then ok := false
  done;
  !ok

(* CPA+'s stranded-register spender, replayed over a reopened engine:
   full windows in benefit/cost order while they fit, then one partial
   top-up. This is repair's cheapest move — it only adds registers the
   candidate left on the table. *)
let respend eng =
  let sorted = Ordering.sorted_infos (Engine.analysis eng) in
  List.iter
    (fun (i : Analysis.info) ->
      let gid = i.Analysis.group.Group.id in
      if i.Analysis.has_reuse && Engine.need eng gid > 0 then
        ignore
          (Engine.try_assign_full ~reason:"repair respends stranded (full)"
             eng gid))
    sorted;
  List.iter
    (fun (i : Analysis.info) ->
      let gid = i.Analysis.group.Group.id in
      if
        Engine.remaining eng > 0 && i.Analysis.has_reuse
        && Engine.beta eng gid < i.Analysis.nu
      then
        ignore
          (Engine.assign_partial ~reason:"repair respends stranded (partial)"
             eng gid ~amount:(Engine.remaining eng)))
    sorted

(* Re-entry points for the two repair moves. Each reopens the candidate
   fresh, so a failed attempt leaves no residue in the next one. *)
let repair_respend ~trace candidate =
  let eng = Engine.of_allocation ~trace candidate in
  if Engine.remaining eng = 0 then None
  else begin
    respend eng;
    Some (Engine.finalize ~pin_all:true eng ~algorithm:algorithm_name)
  end

let repair_reclaim ~trace candidate =
  let eng = Engine.of_allocation ~trace candidate in
  let freed = ref 0 in
  let n = Analysis.num_groups (Engine.analysis eng) in
  for gid = 0 to n - 1 do
    let i = Engine.info eng gid in
    let beta = Engine.beta eng gid in
    (* Only partial windows are suspect: a full window always removes
       its RAM traffic, but a partial cut share can cost registers
       without covering the references that dominate the simulation. *)
    if i.Analysis.has_reuse && beta > 1 && beta < i.Analysis.nu then
      freed :=
        !freed + Engine.reclaim ~reason:"partial cut share under repair" eng gid
  done;
  if !freed = 0 then None
  else begin
    respend eng;
    Some (Engine.finalize ~pin_all:true eng ~algorithm:algorithm_name)
  end

let relabel alloc =
  if alloc.Allocation.algorithm = algorithm_name then alloc
  else
    Allocation.make ~analysis:alloc.Allocation.analysis
      ~budget:alloc.Allocation.budget ~algorithm:algorithm_name
      (Array.init
         (Analysis.num_groups alloc.Allocation.analysis)
         (Allocation.entry alloc))

let certify ?(trace = Trace.null) ?(sim_config = Simulator.default_config)
    ?sim_scratch ?simulate candidate =
  let simulate =
    match simulate with
    | Some f -> f
    | None ->
      fun alloc -> Simulator.run ~config:sim_config ?scratch:sim_scratch alloc
  in
  let analysis = candidate.Allocation.analysis in
  let budget = candidate.Allocation.budget in
  Trace.emit trace (fun () ->
      Trace.event "certify.start"
        [
          ("candidate", Trace.String candidate.Allocation.algorithm);
          ("budget", Trace.Int budget);
        ]);
  let fr = Fr_ra.allocate analysis ~budget in
  let pr = Pr_ra.allocate analysis ~budget in
  (* Simulation-free certificates, tried cheapest-first. PR-RA extends
     FR-RA's entries pointwise (one extra partial top-up), so covering
     PR-RA usually covers FR-RA transitively; the explicit FR check only
     matters if that structural extension ever failed to hold. A
     re-spent candidate covers the candidate pointwise too (re-spending
     only adds registers), so passing it loses nothing either. *)
  let dominance =
    let beats_both a =
      if covers pr fr then covers a pr else covers a pr && covers a fr
    in
    if beats_both candidate then Some (candidate, false)
    else
      match repair_respend ~trace candidate with
      | Some a when beats_both a -> Some (a, true)
      | _ -> None
  in
  match dominance with
  | Some (alloc, repaired) ->
    Trace.emit trace (fun () ->
        Trace.event "certify.dominates"
          [
            ("budget", Trace.Int budget);
            ( "stage",
              Trace.String (if repaired then "respend" else "candidate") );
          ]);
    Trace.emit trace (fun () ->
        Trace.event "certify.done"
          [ ("repaired", Trace.Bool repaired); ("adopted", Trace.String "") ]);
    {
      allocation = relabel alloc;
      sim = None;
      comparison = Dominates;
      repaired;
      adopted = None;
    }
  | None -> begin
    let cand_sim = simulate candidate in
    let candidate_cycles = cand_sim.Simulator.total_cycles in
    (* PR-RA extends FR-RA's entries pointwise (one extra partial
       top-up), so PR coverage dominates FR coverage and pr_cycles <=
       fr_cycles by the same residency argument — the FR simulation is
       only needed in the (never yet observed) case the structural
       extension does not hold. *)
    let baselines =
      if covers pr fr then [ ("pr-ra", pr) ]
      else [ ("pr-ra", pr); ("fr-ra", fr) ]
    in
    let baselines =
      List.map (fun (name, alloc) -> (name, alloc, simulate alloc)) baselines
    in
    let bar_name, bar_alloc, bar_sim =
      List.fold_left
        (fun (bn, ba, bs) (n, a, s) ->
          if s.Simulator.total_cycles < bs.Simulator.total_cycles then
            (n, a, s)
          else (bn, ba, bs))
        (List.hd baselines) (List.tl baselines)
    in
    let bar = bar_sim.Simulator.total_cycles in
    Trace.emit trace (fun () ->
        Trace.event "certify.compare"
          [
            ("candidate_cycles", Trace.Int candidate_cycles);
            ("baseline", Trace.String bar_name);
            ("baseline_cycles", Trace.Int bar);
          ]);
    let best = ref (candidate, cand_sim) in
    let adopted = ref None in
    let consider alloc =
      let sim = simulate alloc in
      if sim.Simulator.total_cycles < (snd !best).Simulator.total_cycles then
        best := (alloc, sim);
      sim.Simulator.total_cycles
    in
    if candidate_cycles <= bar then
      Trace.emit trace (fun () ->
          Trace.event "certify.pass"
            [ ("cycles", Trace.Int candidate_cycles) ])
    else begin
      Trace.emit trace (fun () ->
          Trace.event "certify.regression"
            [
              ("candidate_cycles", Trace.Int candidate_cycles);
              ("baseline_cycles", Trace.Int bar);
              ("baseline", Trace.String bar_name);
            ]);
      (* Repair 1: spend what the candidate stranded, benefit/cost-first. *)
      (match repair_respend ~trace candidate with
      | None -> ()
      | Some a ->
        let cycles = consider a in
        Trace.emit trace (fun () ->
            Trace.event "repair.respend" [ ("cycles", Trace.Int cycles) ]));
      (* Repair 2: also take back the partial cut shares before spending. *)
      if (snd !best).Simulator.total_cycles > bar then
        (match repair_reclaim ~trace candidate with
        | None -> ()
        | Some a ->
          let cycles = consider a in
          Trace.emit trace (fun () ->
              Trace.event "repair.respent_reclaimed"
                [ ("cycles", Trace.Int cycles) ]));
      (* Last resort: adopt the winning baseline outright. Certification
         is then never-worse by construction, not by luck. *)
      if (snd !best).Simulator.total_cycles > bar then begin
        best := (bar_alloc, bar_sim);
        adopted := Some bar_name;
        Trace.emit trace (fun () ->
            Trace.event "repair.adopt"
              [
                ("baseline", Trace.String bar_name);
                ("cycles", Trace.Int bar);
              ])
      end
    end;
    let final_alloc, final_sim = !best in
    let final_cycles = final_sim.Simulator.total_cycles in
    let repaired = final_cycles < candidate_cycles in
    Trace.emit trace (fun () ->
        Trace.event "certify.done"
          [
            ("final_cycles", Trace.Int final_cycles);
            ("repaired", Trace.Bool repaired);
            ("adopted", Trace.String (Option.value !adopted ~default:""));
          ]);
    {
      allocation = relabel final_alloc;
      sim = Some final_sim;
      comparison = Simulated { candidate_cycles; bar_cycles = bar };
      repaired;
      adopted = !adopted;
    }
  end
