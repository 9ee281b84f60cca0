open Srfa_ir
open Srfa_reuse

type gstate = {
  gp_access : Plan.access;
  info : Analysis.info;
  window : int array;       (* fixed coords of the current window *)
  win : int array;          (* register file contents *)
  prologue : bool;
  writeback : bool;
}

(* Enumerate the window sub-space the generated prologue/epilogue loops
   cover: the in-window levels whose rank coefficient is non-zero sweep
   their ranges, every other in-window level is pinned to 0, the outer
   levels keep the current window coordinates. Calls [f point rank] for
   each visited point. *)
let iter_window_edge ~counts ~rank_coeffs ~window_level ~point f =
  let depth = Array.length counts in
  let p = Array.copy point in
  for l = window_level to depth - 1 do
    p.(l) <- 0
  done;
  let rec walk l =
    if l = depth then begin
      let rank = ref 0 in
      for l' = 0 to depth - 1 do
        rank := !rank + (rank_coeffs.(l') * p.(l'))
      done;
      f p !rank
    end
    else if l < window_level || rank_coeffs.(l) = 0 then walk (l + 1)
    else
      for c = 0 to counts.(l) - 1 do
        p.(l) <- c;
        walk (l + 1)
      done
  in
  walk window_level

(* Executes the plan; [on_ram gid ~iteration] hears each steady-state
   RAM read or write of group [gid], [iteration] counting the body's
   executions from 0 (prologue loads and writebacks are not reported). *)
let execute plan ~init ~on_ram =
  let alloc = plan.Plan.allocation in
  let analysis = alloc.Allocation.analysis in
  let nest = analysis.Analysis.nest in
  let counts = Array.of_list (Nest.trip_counts nest) in
  let store = Interp.store_create nest in
  let init_input (d : Decl.t) =
    match d.Decl.storage with
    | Decl.Input -> Interp.store_init store d.Decl.name (init d.Decl.name)
    | Decl.Output | Decl.Local -> ()
  in
  List.iter init_input nest.Nest.arrays;
  let ram_read (i : Analysis.info) point =
    let r = i.Analysis.group.Group.ref_ in
    let env = Iterspace.env_of_point nest point in
    Interp.read store r.Expr.decl.Decl.name (Expr.eval_index r ~env)
  in
  let ram_write (i : Analysis.info) point v =
    let r = i.Analysis.group.Group.ref_ in
    let env = Iterspace.env_of_point nest point in
    let coords = Expr.eval_index r ~env in
    (* Interp has no write primitive; poke through store_init-free path. *)
    let name = r.Expr.decl.Decl.name in
    Interp.write store name coords v
  in
  let states =
    Array.init (Analysis.num_groups analysis) (fun gid ->
        let info = Analysis.info analysis gid in
        let beta =
          match Plan.access plan gid with
          | Plan.Window_full { beta; _ } | Plan.Window_partial { beta; _ } ->
            beta
          | Plan.Ram_always | Plan.Window_opaque _ -> 0
        in
        {
          gp_access = Plan.access plan gid;
          info;
          window = Array.make (Array.length counts) min_int;
          win = Array.make (max beta 1) 0;
          prologue = Plan.needs_prologue plan gid;
          writeback = Plan.needs_writeback plan gid;
        })
  in
  let edge_params st =
    match st.gp_access with
    | Plan.Window_full { beta; rank_coeffs }
    | Plan.Window_partial { beta; rank_coeffs } ->
      Some (beta, rank_coeffs)
    | Plan.Ram_always | Plan.Window_opaque _ -> None
  in
  let do_writeback st at_point =
    match edge_params st with
    | Some (beta, rank_coeffs) when st.writeback ->
      iter_window_edge ~counts ~rank_coeffs
        ~window_level:st.info.Analysis.window_level ~point:at_point
        (fun p rank -> if rank < beta then ram_write st.info p st.win.(rank))
    | Some _ | None -> ()
  in
  let do_prologue st at_point =
    match edge_params st with
    | Some (beta, rank_coeffs) when st.prologue ->
      iter_window_edge ~counts ~rank_coeffs
        ~window_level:st.info.Analysis.window_level ~point:at_point
        (fun p rank -> if rank < beta then st.win.(rank) <- ram_read st.info p)
    | Some _ | None -> ()
  in
  let rank_at st point =
    match edge_params st with
    | Some (_, rank_coeffs) ->
      let rank = ref 0 in
      for l = 0 to Array.length counts - 1 do
        rank := !rank + (rank_coeffs.(l) * point.(l))
      done;
      !rank
    | None -> max_int
  in
  let iteration = ref (-1) in
  let visit point =
    incr iteration;
    (* Window boundaries: write back the finished window, load the new. *)
    Array.iter
      (fun st ->
        match edge_params st with
        | None -> ()
        | Some _ ->
          let wl = st.info.Analysis.window_level in
          let changed = ref false in
          for l = 0 to wl - 1 do
            if st.window.(l) <> point.(l) then changed := true
          done;
          if !changed then begin
            if st.window.(0) <> min_int then do_writeback st st.window;
            Array.blit point 0 st.window 0 (Array.length point);
            do_prologue st point
          end)
      states;
    let env = Iterspace.env_of_point nest point in
    let load (r : Expr.ref_) coords =
      let g = Group.find analysis.Analysis.groups r in
      let st = states.(g.Group.id) in
      let rank = rank_at st point in
      let beta =
        match edge_params st with Some (b, _) -> b | None -> -1
      in
      if rank < beta then st.win.(rank)
      else begin
        on_ram g.Group.id ~iteration:!iteration;
        Interp.read store r.Expr.decl.Decl.name coords
      end
    in
    let exec (Expr.Assign (target, e)) =
      let v = Expr.eval e ~env ~load in
      let g = Group.find analysis.Analysis.groups target in
      let st = states.(g.Group.id) in
      let rank = rank_at st point in
      let beta =
        match edge_params st with Some (b, _) -> b | None -> -1
      in
      if rank < beta then st.win.(rank) <- v
      else begin
        on_ram g.Group.id ~iteration:!iteration;
        Interp.write store target.Expr.decl.Decl.name
          (Expr.eval_index target ~env) v
      end
    in
    List.iter exec nest.Nest.body
  in
  Iterspace.iter nest visit;
  (* Final windows still hold live data. *)
  Array.iter
    (fun st -> if st.window.(0) <> min_int then do_writeback st st.window)
    states;
  store

let ram_iterations plan =
  let ngroups = Array.length plan.Plan.accesses in
  let count = Array.make ngroups 0 and last = Array.make ngroups (-1) in
  let on_ram gid ~iteration =
    if last.(gid) <> iteration then begin
      last.(gid) <- iteration;
      count.(gid) <- count.(gid) + 1
    end
  in
  ignore (execute plan ~init:(fun _ _ -> 0) ~on_ram);
  count

let equivalent plan ~init =
  let nest = plan.Plan.allocation.Allocation.analysis.Analysis.nest in
  let reference = Interp.run_fresh nest ~init in
  let transformed = execute plan ~init ~on_ram:(fun _ ~iteration:_ -> ()) in
  List.for_all
    (fun (d : Decl.t) ->
      match d.Decl.storage with
      | Decl.Output -> Interp.equal_array reference transformed d.Decl.name
      | Decl.Input | Decl.Local -> true)
    nest.Nest.arrays
