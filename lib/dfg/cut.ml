open Srfa_reuse
module Bitset = Srfa_util.Bitset

let is_cut cg groups =
  let g = Critical.graph cg in
  let forbidden_gids =
    Bitset.create (Analysis.num_groups (Graph.analysis g))
  in
  List.iter (fun grp -> Bitset.add forbidden_gids grp.Group.id) groups;
  let forbidden u =
    let gid = Graph.group_id g u in
    gid >= 0 && Bitset.mem forbidden_gids gid
  in
  not (Critical.has_path_avoiding cg ~forbidden)

let enumerate_exhaustive ?(max_groups = 16) cg =
  let groups = Array.of_list (Critical.charged_ref_groups cg) in
  let n = Array.length groups in
  if n > max_groups then
    invalid_arg
      (Printf.sprintf
         "Cut.enumerate_exhaustive: %d CG reference groups exceed limit %d"
         n max_groups);
  let subset_of_mask mask =
    let rec go i acc =
      if i < 0 then acc
      else if mask land (1 lsl i) <> 0 then go (i - 1) (groups.(i) :: acc)
      else go (i - 1) acc
    in
    go (n - 1) []
  in
  let covering = ref [] in
  for mask = 1 to (1 lsl n) - 1 do
    if is_cut cg (subset_of_mask mask) then covering := mask :: !covering
  done;
  let strictly_contains big small = big land small = small && big <> small in
  let minimal m = not (List.exists (fun m' -> strictly_contains m m') !covering) in
  let popcount m =
    let rec go m acc = if m = 0 then acc else go (m lsr 1) (acc + (m land 1)) in
    go m 0
  in
  !covering
  |> List.filter minimal
  |> List.sort (fun a b ->
         let c = Int.compare (popcount a) (popcount b) in
         if c <> 0 then c else Int.compare a b)
  |> List.map subset_of_mask

(* ---- polynomial cheapest-cut engine ----------------------------------- *)

(* The cheapest eligible cut is a minimum-weight vertex cut of the CG where
   eligible groups cost their weight and every other vertex is uncuttable.
   The capacities handed to the flow network are scaled to bake in the
   deterministic tie-break the exhaustive path used:

     scaled(g) = weight(g) * (k + 1) + 1

   with [k] candidate groups. The max-flow value then minimises the pair
   (total weight, cut cardinality) lexicographically — the [+1] per member
   counts members, and [k + 1] keeps the count from ever outweighing one
   unit of real weight. The third key, the lexicographically smallest
   candidate-index set (identical to the exhaustive enumerator's ascending
   mask order), is resolved by one more max-flow run per candidate: walking
   indices from most significant to least, a candidate is excluded (its arc
   forced to infinity) whenever a cut of unchanged scaled value still
   exists without it, and is otherwise a member of every remaining optimal
   cut. The candidates never excluded are exactly the cut.

   Groups occupying several CG nodes (an accumulator's loop-carried read
   and its store) get one weighted arc per node. Such groups are virtually
   never candidates — an accumulator's window is a single register, so it
   is register-resident from the initial allocation on — but when one is,
   a cut through several of its nodes is charged once per node rather than
   once per group, i.e. the engine answers the node-cut relaxation of the
   (NP-hard) group-labelled cut. The result is still a valid cut with the
   deterministic tie-break; only its weight can exceed the group-labelled
   optimum, and never on the paper's kernels. *)
exception Work_limit of { phases : int; paths : int; limit : int }

type answer = {
  cut : Group.t list;
  weight : int;
  critical_length : int;
  candidates : int;
  flow_value : int;
  flow : Flownet.stats;
}

let flow_event a =
  let open Srfa_util.Trace in
  event "cut.flow"
    [
      ("candidates", Int a.candidates);
      ("cut", List (List.map (fun g -> String (Group.name g)) a.cut));
      ("weight", Int a.weight);
      ("flow_value", Int a.flow_value);
      ("max_flow_runs", Int a.flow.Flownet.runs);
      ("bfs_phases", Int a.flow.Flownet.phases);
      ("augmenting_paths", Int a.flow.Flownet.augmenting_paths);
    ]

(* The units [Flownet.max_flow]'s guard counts. The network is fresh per
   query and the guard checks after every unit, so a query trips at
   [work_limit] exactly when this total exceeds it. *)
let work a = a.flow.Flownet.phases + a.flow.Flownet.augmenting_paths

let cheapest_answer ?(trace = Srfa_util.Trace.null) ?(work_limit = max_int)
    cg ~eligible ~weight =
  let g = Critical.graph cg in
  let groups = Array.of_list (Critical.charged_ref_groups cg) in
  let k = Array.length groups in
  let num_groups = Analysis.num_groups (Graph.analysis g) in
  let cand_of_gid = Array.make num_groups (-1) in
  let candidates = ref [] in
  for i = k - 1 downto 0 do
    if eligible groups.(i) then begin
      cand_of_gid.(groups.(i).Group.id) <- i;
      candidates := i :: !candidates
    end
  done;
  let candidates = !candidates in
  if candidates = [] then None
  else if not (is_cut cg (List.map (fun i -> groups.(i)) candidates)) then
    None
  else begin
    (* Compact the CG onto 0..m-1 and build the node-split network. *)
    let cg_nodes = Array.of_list (Critical.nodes cg) in
    let m = Array.length cg_nodes in
    let compact = Array.make (Graph.num_nodes g) (-1) in
    Array.iteri (fun i u -> compact.(u) <- i) cg_nodes;
    let succs =
      Array.map
        (fun u -> List.map (fun v -> compact.(v)) (Critical.succs cg u))
        cg_nodes
    in
    let candidate_of_node cu =
      let gid = Graph.group_id g cg_nodes.(cu) in
      if gid >= 0 then cand_of_gid.(gid) else -1
    in
    let scaled i = (weight groups.(i) * (k + 1)) + 1 in
    let cap cu =
      let i = candidate_of_node cu in
      if i >= 0 then scaled i else Flownet.inf
    in
    let split =
      Flownet.split_nodes ~n:m ~succs ~sources:(List.map (fun u -> compact.(u))
          (Critical.sources cg))
        ~sinks:(List.map (fun u -> compact.(u)) (Critical.sinks cg))
        ~cap
    in
    let arcs = Array.make k [] in
    Array.iteri
      (fun cu arc ->
        let i = candidate_of_node cu in
        if i >= 0 then arcs.(i) <- arc :: arcs.(i))
      split.Flownet.node_arc;
    let sum_caps =
      List.fold_left
        (fun acc i -> acc + (List.length arcs.(i) * scaled i))
        0 candidates
    in
    let solve limit =
      Flownet.max_flow ~limit ~work_limit split.Flownet.net
        ~source:split.Flownet.source ~sink:split.Flownet.sink
    in
    let guard_tripped (stats : Flownet.stats) =
      Srfa_util.Trace.emit trace (fun () ->
          let open Srfa_util.Trace in
          event "cut.guard"
            [
              ("work_limit", Int work_limit);
              ("bfs_phases", Int stats.Flownet.phases);
              ("augmenting_paths", Int stats.Flownet.augmenting_paths);
            ]);
      raise
        (Work_limit
           {
             phases = stats.Flownet.phases;
             paths = stats.Flownet.augmenting_paths;
             limit = work_limit;
           })
    in
    (* The all-candidates cut is finite, so the optimum is <= sum_caps and
       the first run can never hit its flow limit (the work limit still
       applies — the network is fresh, so the budget is per query). *)
    let best =
      try solve sum_caps
      with Flownet.Work_limit_exceeded stats -> guard_tripped stats
    in
    let excluded = Bitset.create (max k 1) in
    (try
       List.iter
         (fun i ->
           List.iter (fun e -> Flownet.set_cap split.Flownet.net e Flownet.inf)
             arcs.(i);
           if solve best > best then
             (* Every optimal cut still available contains this candidate. *)
             List.iter
               (fun e -> Flownet.set_cap split.Flownet.net e (scaled i))
               arcs.(i)
           else Bitset.add excluded i)
         (List.rev candidates)
     with Flownet.Work_limit_exceeded stats -> guard_tripped stats);
    let cut =
      List.filter_map
        (fun i -> if Bitset.mem excluded i then None else Some groups.(i))
        candidates
    in
    assert (is_cut cg cut);
    let answer =
      {
        cut;
        weight = List.fold_left (fun acc grp -> acc + weight grp) 0 cut;
        critical_length = Critical.length cg;
        candidates = List.length candidates;
        flow_value = best;
        flow = Flownet.stats split.Flownet.net;
      }
    in
    Srfa_util.Trace.emit trace (fun () -> flow_event answer);
    Some answer
  end
