open Srfa_reuse
module Graph = Srfa_dfg.Graph
module Critical = Srfa_dfg.Critical
module Cut = Srfa_dfg.Cut
module Trace = Srfa_util.Trace

type trace_step = {
  cut : Group.t list;
  required : int;
  granted_full : bool;
  critical_length : int;
}

module States = Hashtbl.Make (struct
  type t = int array

  let equal (a : t) b =
    let n = Array.length a in
    let rec go i = i = n || (a.(i) = b.(i) && go (i + 1)) in
    n = Array.length b && go 0

  let hash a = Array.fold_left (fun h b -> (h * 65599) + b) 0 a land max_int
end)

(* A budget ladder's round answers, keyed on the betas. What one cut
   round asks — the cheapest cut of the critical graph — depends only on
   the allocation state (every group's beta fixes the charged, improvable
   and need sets) and the latency model, never on the budget; [None]
   answers that no memory-bound critical path or no eligible cut is left.
   [latency] is the model the answers hold for, fixed by the first query;
   a query under another model bypasses the memo. *)
type memo = {
  rounds : Cut.answer option States.t;
  mutable latency : Srfa_hw.Latency.t option;
  mutable computed : int;
}

type prepared = {
  dfg : Graph.t;
  scratch : Critical.scratch;
  memo : memo option;
}

let prepare analysis =
  let dfg = Graph.build analysis in
  { dfg; scratch = Critical.scratch dfg; memo = None }

let ladder p =
  let memo = { rounds = States.create 64; latency = None; computed = 0 } in
  { p with memo = Some memo }

let rounds_computed p =
  match p.memo with Some m -> m.computed | None -> 0

let dfg prepared = prepared.dfg

let allocate_traced ?(latency = Srfa_hw.Latency.default)
    ?(spend_leftover = false) ?trace ?cut_work_limit ?prepared analysis
    ~budget =
  let eng = Engine.create ?trace analysis ~budget in
  let sink = Engine.trace eng in
  let { dfg; scratch; memo } =
    match prepared with Some p -> p | None -> prepare analysis
  in
  let memo =
    match memo with
    | Some ({ latency = None; _ } as m) ->
      m.latency <- Some latency;
      Some m
    | Some ({ latency = Some l; _ } as m) when l == latency -> Some m
    | Some _ | None -> None
  in
  let compute () =
    let charged = Engine.charged eng in
    let cg = Critical.make ~scratch dfg ~latency ~charged in
    let mem_len = Graph.memory_path_length dfg ~latency ~charged in
    if mem_len <= 0 then None
    else
      (* One max-flow query replaces enumerating every minimal cut: the
         min-weight vertex cut over improvable groups is exactly the
         cheapest eligible cut, under the same tie-break the enumeration
         order used to impose. *)
      Cut.cheapest_answer ~trace:sink ?work_limit:cut_work_limit cg
        ~eligible:(Engine.improvable eng)
        ~weight:(fun g -> Engine.need eng g.Group.id)
  in
  (* A stored answer stands in for the query only when the query would
     not have tripped the caller's work guard; otherwise the round is
     computed again, so the guard fires exactly as it would without the
     memo. A hit replays the query's cut.flow event unchanged. *)
  let answer_round () =
    match memo with
    | None -> compute ()
    | Some m -> (
      let key = Array.init (Analysis.num_groups analysis) (Engine.beta eng) in
      let work_limit = Option.value cut_work_limit ~default:max_int in
      match States.find_opt m.rounds key with
      | Some (Some answer as r) when Cut.work answer <= work_limit ->
        Trace.emit sink (fun () -> Cut.flow_event answer);
        r
      | Some None -> None
      | Some (Some _) | None ->
        m.computed <- m.computed + 1;
        let r = compute () in
        States.replace m.rounds key r;
        r)
  in
  let steps = ref [] in
  let record ~cut ~required ~granted_full ~critical_length =
    steps := { cut; required; granted_full; critical_length } :: !steps;
    Trace.emit sink (fun () ->
        Trace.event "round"
          [
            ("round", Trace.Int (Engine.round eng));
            ( "cut",
              Trace.List
                (List.map (fun g -> Trace.String (Group.name g)) cut) );
            ("required", Trace.Int required);
            ("granted_full", Trace.Bool granted_full);
            ("critical_length", Trace.Int critical_length);
            ("remaining", Trace.Int (Engine.remaining eng));
          ])
  in
  let rec round () =
    if Engine.remaining eng > 0 then
      match answer_round () with
      | None -> ()
      | Some { Cut.cut; weight = req; critical_length = len; _ } ->
        ignore (Engine.next_round eng);
        if req <= Engine.remaining eng then begin
          List.iter
            (fun (g : Group.t) ->
              ignore
                (Engine.try_assign_full ~reason:"cut fully allocated" eng
                   g.Group.id))
            cut;
          record ~cut ~required:req ~granted_full:true ~critical_length:len;
          round ()
        end
        else begin
          (* Divide what is left evenly across the cut, so the covered
             iterations improve on every critical path. Cut members cap
             at their window size; if some of the budget could not be
             absorbed, the paper's while-loop re-enters with it. *)
          let share = Engine.remaining eng / List.length cut in
          let progressed = ref false in
          if share > 0 then
            List.iter
              (fun (g : Group.t) ->
                if
                  Engine.assign_partial
                    ~reason:"even split across the final cut" eng g.Group.id
                    ~amount:share
                  > 0
                then progressed := true)
              cut;
          record ~cut ~required:req ~granted_full:false ~critical_length:len;
          if !progressed && Engine.remaining eng > 0 then round ()
          else if not !progressed then
            (* Plain CPA-RA declares the rest unspendable. CPA+ must NOT:
               draining here would zero the budget before the
               stranded-register spender below gets to run — the bug
               behind the fuzz campaign's CPA+-worse-than-FR/PR
               counterexamples (cases 1135/1595/3919 at seed 42, pinned
               in test_cpa_plus). *)
            if not spend_leftover then
              Engine.drain eng ~reason:"no cut member can absorb a share"
        end
  in
  round ();
  (* CPA+: hand out anything still stranded in benefit/cost order — full
     windows while they fit, then one partial candidate, like FR/PR do. *)
  if spend_leftover then begin
    let sorted = Ordering.sorted_infos analysis in
    List.iter
      (fun (i : Analysis.info) ->
        let gid = i.Analysis.group.Group.id in
        if i.Analysis.has_reuse && Engine.need eng gid > 0 then
          ignore
            (Engine.try_assign_full ~reason:"cpa+ spends stranded (full)" eng
               gid))
      sorted;
    List.iter
      (fun (i : Analysis.info) ->
        let gid = i.Analysis.group.Group.id in
        if
          Engine.remaining eng > 0 && i.Analysis.has_reuse
          && Engine.beta eng gid < i.Analysis.nu
        then
          ignore
            (Engine.assign_partial ~reason:"cpa+ spends stranded (partial)"
               eng gid ~amount:(Engine.remaining eng)))
      sorted
  end;
  let algorithm = if spend_leftover then "cpa-ra+" else "cpa-ra" in
  let alloc = Engine.finalize ~pin_all:true eng ~algorithm in
  (alloc, List.rev !steps)

let allocate ?latency ?spend_leftover ?trace ?cut_work_limit ?prepared
    analysis ~budget =
  fst
    (allocate_traced ?latency ?spend_leftover ?trace ?cut_work_limit
       ?prepared analysis ~budget)
