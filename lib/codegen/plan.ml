open Srfa_reuse

type access =
  | Ram_always
  | Window_full of { beta : int; rank_coeffs : int array }
  | Window_partial of { beta : int; rank_coeffs : int array }
  | Window_opaque of { beta : int }

type t = { allocation : Allocation.t; accesses : access array }

let build allocation =
  let analysis = allocation.Allocation.analysis in
  let classify gid =
    let i = Analysis.info analysis gid in
    let e = Allocation.entry allocation gid in
    if (not e.Allocation.pinned) || not i.Analysis.has_reuse then Ram_always
    else
      match Analysis.rank_affine analysis i with
      | Some rank_coeffs ->
        if e.Allocation.beta >= i.Analysis.nu then
          Window_full { beta = i.Analysis.nu; rank_coeffs }
        else Window_partial { beta = e.Allocation.beta; rank_coeffs }
      | None -> Window_opaque { beta = e.Allocation.beta }
  in
  {
    allocation;
    accesses = Array.init (Analysis.num_groups analysis) classify;
  }

let access t gid = t.accesses.(gid)

(* Does the body read the group before first writing it? Such groups need
   their window preloaded at window entry (e.g. accumulators). *)
let read_before_write nest (g : Group.t) =
  let open Srfa_ir in
  let rec scan = function
    | [] -> false
    | Expr.Assign (target, e) :: rest ->
      let reads = Expr.loads e in
      if List.exists (fun r -> Expr.ref_equal r g.Group.ref_) reads then true
      else if Expr.ref_equal target g.Group.ref_ then false
      else scan rest
  in
  scan nest.Srfa_ir.Nest.body

let windowed t gid =
  match t.accesses.(gid) with
  | Window_full _ | Window_partial _ -> true
  | Ram_always | Window_opaque _ -> false

let needs_prologue t gid =
  let analysis = t.allocation.Allocation.analysis in
  let g = (Analysis.info analysis gid).Analysis.group in
  windowed t gid && Group.is_read g
  && ((not (Group.is_write g))
     || read_before_write analysis.Analysis.nest g)

let needs_writeback t gid =
  let analysis = t.allocation.Allocation.analysis in
  let g = (Analysis.info analysis gid).Analysis.group in
  windowed t gid && Group.is_write g
  && ((Group.decl g).Srfa_ir.Decl.storage = Srfa_ir.Decl.Output
     || needs_prologue t gid)

type edge_strategy = Reload_window | Shift_window

(* Windows of a group = iterations of its carrying loop = product of the
   trip counts of levels 1..window_level. *)
let window_count analysis (i : Analysis.info) =
  let counts = Srfa_ir.Nest.trip_counts analysis.Analysis.nest in
  let rec take n = function
    | [] -> []
    | x :: rest -> if n = 0 then [] else x :: take (n - 1) rest
  in
  List.fold_left ( * ) 1 (take i.Analysis.window_level counts)

let edge_transfers t ~strategy =
  let analysis = t.allocation.Allocation.analysis in
  let nest = analysis.Analysis.nest in
  let covered gid =
    match t.accesses.(gid) with
    | Window_full { beta; _ } | Window_partial { beta; _ } -> beta
    | Ram_always | Window_opaque _ -> 0
  in
  match strategy with
  | Reload_window ->
    (* min(beta, nu) slots filled at each window entry, and written back at
       each exit when required. *)
    let per_group gid acc =
      let i = Analysis.info analysis gid in
      let slots = min (covered gid) i.Analysis.nu in
      let windows = window_count analysis i in
      let loads = if needs_prologue t gid then windows * slots else 0 in
      let stores = if needs_writeback t gid then windows * slots else 0 in
      acc + loads + stores
    in
    List.fold_left
      (fun acc gid -> per_group gid acc)
      0
      (List.init (Array.length t.accesses) Fun.id)
  | Shift_window ->
    (* One load per element that ever becomes resident (survivors shift
       between windows), one final store per resident element of written
       windows. *)
    let ngroups = Array.length t.accesses in
    let tracker = Analysis.Tracker.create analysis in
    let seen = Array.init ngroups (fun _ -> Hashtbl.create 64) in
    Srfa_ir.Iterspace.iter nest (fun point ->
        Analysis.Tracker.step tracker point;
        for gid = 0 to ngroups - 1 do
          let beta = covered gid in
          if beta > 0 && Analysis.Tracker.slot_rank tracker gid < beta then begin
            let i = Analysis.info analysis gid in
            let e = Analysis.element_index i point in
            if not (Hashtbl.mem seen.(gid) e) then
              Hashtbl.replace seen.(gid) e ()
          end
        done);
    let per_group gid acc =
      let touched = Hashtbl.length seen.(gid) in
      let loads = if needs_prologue t gid then touched else 0 in
      let stores = if needs_writeback t gid then touched else 0 in
      acc + loads + stores
    in
    List.fold_left
      (fun acc gid -> per_group gid acc)
      0
      (List.init ngroups Fun.id)

let describe t =
  let analysis = t.allocation.Allocation.analysis in
  let line gid =
    let i = Analysis.info analysis gid in
    let text =
      match t.accesses.(gid) with
      | Ram_always -> "RAM"
      | Window_full { beta; _ } ->
        Printf.sprintf "registers (full window, %d)" beta
      | Window_partial { beta; _ } ->
        Printf.sprintf "registers for slots < %d, RAM beyond" beta
      | Window_opaque { beta } ->
        Printf.sprintf "RAM (opaque window, %d registers unused)" beta
    in
    (Group.name i.Analysis.group, text)
  in
  List.map line (List.init (Array.length t.accesses) Fun.id)
