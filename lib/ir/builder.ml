type rexpr = Expr.t

let input ?bits name dims = Decl.make ?bits ~storage:Decl.Input name dims
let output ?bits name dims = Decl.make ?bits ~storage:Decl.Output name dims
let local ?bits name dims = Decl.make ?bits ~storage:Decl.Local name dims
let scalar ?bits name = Decl.scalar ?bits name

let idx v = Affine.var v
let cidx c = Affine.const c
let ( +: ) = Affine.add
let ( -: ) = Affine.sub
let ( *: ) = Affine.scale

let at decl index = Expr.ref_ decl index
let ( .%[] ) decl index = Expr.Load (at decl index)

let const c = Expr.Const c
let binary op a b = Expr.Binary (op, a, b)
let ( + ) = binary Op.Add
let ( - ) = binary Op.Sub
let ( * ) = binary Op.Mul
let ( / ) = binary Op.Div
let eq = binary Op.Eq
let lt = binary Op.Lt
let neg e = Expr.Unary (Op.Neg, e)

let ( <-- ) r e = Expr.Assign (r, e)

let nest name ~loops body =
  let add acc (r : Expr.ref_) =
    if List.exists (fun d -> Decl.equal d r.Expr.decl) acc then acc
    else r.Expr.decl :: acc
  in
  let arrays =
    List.rev
      (List.fold_left
         (fun acc s -> List.fold_left add acc (Expr.stmt_refs s))
         [] body)
  in
  let loops = List.map (fun (v, c) -> Nest.loop v c) loops in
  Nest.make ~name ~arrays ~loops ~body
