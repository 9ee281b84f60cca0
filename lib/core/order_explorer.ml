open Srfa_ir
open Srfa_reuse

type candidate = {
  order : int list;
  loop_vars : string list;
  cycles : int;
  memory_cycles : int;
}

let explore ?(config = Flow.default_config) algorithm nest =
  let orders, skipped = Permute.legal_orders nest in
  let identity = List.init (Nest.depth nest) Fun.id in
  let evaluate order =
    let nest =
      if order = identity then nest else Permute.interchange nest ~order
    in
    let _, report =
      Flow.evaluate_analysis config algorithm (Analysis.analyze nest)
    in
    {
      order;
      loop_vars = Nest.loop_vars nest;
      cycles = report.Srfa_estimate.Report.cycles;
      memory_cycles = report.Srfa_estimate.Report.memory_cycles;
    }
  in
  let candidates = List.map evaluate orders in
  let ranked =
    List.sort
      (fun a b ->
        let c = Int.compare a.cycles b.cycles in
        if c <> 0 then c
        else
          let ida = a.order = identity and idb = b.order = identity in
          if ida && not idb then -1
          else if idb && not ida then 1
          else compare a.order b.order)
      candidates
  in
  let warnings =
    if skipped > 0 then
      [
        Srfa_util.Diag.warning ~code:"W-GUARD-EXPLORE"
          (match Permute.illegality nest with
          | Some why -> why
          | None -> "loop orders were skipped")
          ~context:
            [
              ("kernel", nest.Nest.name);
              ("skipped_orders", string_of_int skipped);
            ];
      ]
    else []
  in
  (ranked, warnings)
