open Srfa_ir

type t = {
  id : int;
  ref_ : Expr.ref_;
  name : string;
  reads : int;
  writes : int;
}

let collect nest =
  let table : t list ref = ref [] in
  let note kind (r : Expr.ref_) =
    match List.find_opt (fun g -> Expr.ref_equal g.ref_ r) !table with
    | Some g ->
      let g' =
        match kind with
        | `Read -> { g with reads = g.reads + 1 }
        | `Write -> { g with writes = g.writes + 1 }
      in
      table := List.map (fun x -> if x.id = g.id then g' else x) !table
    | None ->
      let id = List.length !table in
      let reads, writes =
        match kind with `Read -> (1, 0) | `Write -> (0, 1)
      in
      table :=
        { id; ref_ = r; name = Expr.ref_to_string r; reads; writes }
        :: !table
  in
  let note_stmt (Expr.Assign (target, e)) =
    List.iter (note `Read) (Expr.loads e);
    note `Write target
  in
  List.iter note_stmt nest.Nest.body;
  let groups = List.sort (fun a b -> Int.compare a.id b.id) !table in
  Array.of_list groups

let is_read g = g.reads > 0
let is_write g = g.writes > 0
let name g = g.name
let decl g = g.ref_.Expr.decl

let find groups r =
  match Array.to_list groups |> List.find_opt (fun g -> Expr.ref_equal g.ref_ r) with
  | Some g -> g
  | None ->
    invalid_arg
      (Printf.sprintf
         "Group.find: reference %s belongs to no group of this nest"
         (Expr.ref_to_string r))

let pp ppf g =
  Format.fprintf ppf "group %d: %s (%dr/%dw)" g.id g.name g.reads g.writes
