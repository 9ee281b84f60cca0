type ref_ = { decl : Decl.t; index : Affine.t list }

type t =
  | Load of ref_
  | Const of int
  | Unary of Op.unary * t
  | Binary of Op.binary * t * t

type stmt = Assign of ref_ * t

let ref_ decl index =
  if List.length index <> Decl.rank decl then
    invalid_arg
      (Printf.sprintf "Expr.ref_: %s has rank %d, got %d indices"
         decl.Decl.name (Decl.rank decl) (List.length index));
  { decl; index }

let ref_equal a b =
  Decl.equal a.decl b.decl
  && List.length a.index = List.length b.index
  && List.for_all2 Affine.equal a.index b.index

let rec loads = function
  | Load r -> [ r ]
  | Const _ -> []
  | Unary (_, e) -> loads e
  | Binary (_, a, b) -> loads a @ loads b

let stmt_refs (Assign (target, e)) = loads e @ [ target ]

let ref_vars r =
  let vars = List.concat_map Affine.vars r.index in
  List.sort_uniq String.compare vars

let eval_index r ~env =
  Array.of_list (List.map (fun ix -> Affine.eval ix ~lookup:env) r.index)

let rec eval e ~env ~load =
  match e with
  | Const c -> c
  | Load r -> load r (eval_index r ~env)
  | Unary (op, a) -> Op.eval_unary op (eval a ~env ~load)
  | Binary (op, a, b) ->
    Op.eval_binary op (eval a ~env ~load) (eval b ~env ~load)

let ref_to_string r =
  let b = Buffer.create 32 in
  Buffer.add_string b r.decl.Decl.name;
  List.iter
    (fun ix ->
      Buffer.add_char b '[';
      Affine.add_to_buffer b ix;
      Buffer.add_char b ']')
    r.index;
  Buffer.contents b

let pp_ref ppf r = Format.pp_print_string ppf (ref_to_string r)

let rec pp ppf = function
  | Const c -> Format.fprintf ppf "%d" c
  | Load r -> pp_ref ppf r
  | Unary (op, a) -> Format.fprintf ppf "%s(%a)" (Op.unary_name op) pp a
  | Binary (op, a, b) ->
    Format.fprintf ppf "%s(%a, %a)" (Op.binary_name op) pp a pp b

let pp_stmt ppf (Assign (r, e)) =
  Format.fprintf ppf "%a = %a;" pp_ref r pp e
