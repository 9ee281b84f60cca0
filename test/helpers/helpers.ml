(* Shared fixtures and generators for the test suites. *)

open Srfa_ir

(* The Fig. 1 running example with the recovered bounds (DESIGN.md §4). *)
let example () = Srfa_kernels.Kernels.example ()

let analyze = Srfa_reuse.Analysis.analyze

(* Deterministic pseudo-random initial data for semantics checks. *)
let init _name coords =
  (Array.fold_left (fun acc c -> (acc * 31) + c + 7) 3 coords mod 251) - 125

(* Locate a repository file from wherever dune runs the tests. *)
let find_repo_file relative =
  let rec search dir depth =
    let candidate = Filename.concat dir relative in
    if Sys.file_exists candidate then candidate
    else if depth = 0 then relative
    else search (Filename.dirname dir) (depth - 1)
  in
  search (Sys.getcwd ()) 6

let contains_substring haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  n = 0 || go 0

(* Group lookup by rendered name, e.g. "a[k]". *)
let info_named analysis name =
  let found = ref None in
  Array.iter
    (fun (i : Srfa_reuse.Analysis.info) ->
      if Srfa_reuse.Group.name i.Srfa_reuse.Analysis.group = name then
        found := Some i)
    analysis.Srfa_reuse.Analysis.infos;
  match !found with
  | Some i -> i
  | None -> Alcotest.failf "no group named %s" name

let beta_named alloc name =
  let analysis = alloc.Srfa_reuse.Allocation.analysis in
  let i = info_named analysis name in
  Srfa_reuse.Allocation.beta alloc i.Srfa_reuse.Analysis.group.Srfa_reuse.Group.id

(* Small kernels for fast tests. *)
let small_fir () = Srfa_kernels.Kernels.fir ~taps:4 ~samples:16 ()
let small_mat () = Srfa_kernels.Kernels.mat ~size:4 ()
let small_bic () = Srfa_kernels.Kernels.bic ~template:3 ~image:8 ()
let small_pat () = Srfa_kernels.Kernels.pat ~pattern:3 ~text:12 ()
let small_imi () = Srfa_kernels.Kernels.imi ~width:6 ~height:5 ~frames:3 ()

let small_kernels () =
  [
    ("example", example ());
    ("fir", small_fir ());
    ("mat", small_mat ());
    ("bic", small_bic ());
    ("pat", small_pat ());
    ("imi", small_imi ());
    ("dec-fir", Srfa_kernels.Kernels.dec_fir ~taps:6 ~samples:24 ~decimation:2 ());
  ]

let small_extra () =
  let module E = Srfa_kernels.Extra in
  [
    ("conv2d", E.conv2d ~mask:3 ~image:8 ());
    ("moving-average", E.moving_average ~window:4 ~samples:16 ());
    ("corner-turn", E.corner_turn ~size:4 ());
    ("gradient-pair", E.gradient_pair ~size:6 ());
  ]

(* The 11 registry kernels, at the small sizes above. *)
let small_registry () = small_kernels () @ small_extra ()

(* A FIR with reversed operands, y[i] += c[15 - j] * x[i - j + 15]: both
   reads have a negative coefficient on the tap loop. *)
let reversed_fir () =
  Srfa_frontend.Parser.parse
    {|kernel reversed_fir {
  input  int x[79];
  input  int c[16];
  output int y[64];

  for (i = 0; i < 64; i++)
    for (j = 0; j < 16; j++)
      y[i] += c[15 - j] * x[i - j + 15];
}|}

(* The valid fuzz kernels among case ids [0, cases) of campaign [seed],
   with their ids. *)
let gen_valid ~seed ~cases =
  List.filter_map
    (fun id ->
      let case = Srfa_fuzzer.Gen.generate ~seed ~id in
      match case.Srfa_fuzzer.Gen.kind with
      | Srfa_fuzzer.Gen.Valid -> (
        match Srfa_frontend.Parser.parse_result case.Srfa_fuzzer.Gen.source with
        | Ok nest -> Some (id, nest)
        | Error _ -> None)
      | Srfa_fuzzer.Gen.Mask_stress | Srfa_fuzzer.Gen.Broken _ -> None)
    (List.init cases Fun.id)

(* The loop-structure variants the design-space explorer visits, which
   move the reuse windows, named after the kernel: every legal single
   strip-mine with the given factors, and every legal interchange other
   than the identity. *)
let variants ?(factors = [ 2 ]) (name, nest) =
  let tiled =
    List.map
      (fun (level, factor) ->
        ( Printf.sprintf "%s tile %d/%d" name level factor,
          Tile.tile nest ~level ~factor ))
      (Tile.steps nest ~factors)
  in
  let orders, _ = Permute.legal_orders nest in
  let permuted =
    List.filter_map
      (fun order ->
        if order = List.init (Nest.depth nest) Fun.id then None
        else
          Some
            ( Printf.sprintf "%s order %s" name
                (String.concat "," (List.map string_of_int order)),
              Permute.interchange nest ~order ))
      orders
  in
  tiled @ permuted

(* The window-walk oracle for [Analysis.rank_affine]: the same mixed-radix
   candidate over the in-window levels the reference reads, kept only
   if it reproduces the first-touch ranks of one window walk (outer
   levels at 0). Every window has the same first-touch order, so one
   window decides. *)
let rank_affine_walked (analysis : Srfa_reuse.Analysis.t)
    (i : Srfa_reuse.Analysis.info) =
  let open Srfa_reuse.Analysis in
  if not i.has_reuse then None
  else begin
    let counts = Array.of_list (Nest.trip_counts analysis.nest) in
    let depth = Array.length counts in
    let wl = i.window_level in
    let coeffs = Array.make depth 0 and radix = ref 1 in
    for l = depth - 1 downto wl do
      if i.lin_coeffs.(l) <> 0 then begin
        coeffs.(l) <- !radix;
        radix := !radix * counts.(l)
      end
    done;
    let ranks = Hashtbl.create 64 in
    let ok = ref true in
    let point = Array.make depth 0 in
    let rec walk l =
      if l = depth then begin
        let e = element_index i point in
        let rank =
          match Hashtbl.find_opt ranks e with
          | Some r -> r
          | None ->
            let r = Hashtbl.length ranks in
            Hashtbl.add ranks e r;
            r
        in
        let predicted = ref 0 in
        Array.iteri (fun l c -> predicted := !predicted + (c * point.(l))) coeffs;
        if !predicted <> rank then ok := false
      end
      else
        for c = 0 to (if l < wl then 0 else counts.(l) - 1) do
          point.(l) <- c;
          if !ok then walk (l + 1)
        done
    in
    walk 0;
    if !ok then Some coeffs else None
  end

(* [f ()] and the bytes it allocated. The minor heap is emptied before
   both readings: OCaml 5.1's Gc.counters counts the words still in the
   minor heap at an eighth of their size, so an unflushed reading
   under-reads by up to 8x, depending on where the last minor collection
   fell. *)
let allocated_bytes f =
  Gc.minor ();
  let before = Gc.allocated_bytes () in
  let result = f () in
  Gc.minor ();
  (result, Gc.allocated_bytes () -. before)

(* --- Random nest generation for property tests ------------------------- *)

(* Nests are generated so that every reference is in bounds by
   construction: indices are drawn from a small menu of affine shapes over
   the declared loops, and each array's extents are computed from the
   maximum value its index expressions can reach. *)

let gen_nest : Nest.t QCheck.Gen.t =
  let open QCheck.Gen in
  let* depth = int_range 1 3 in
  let vars = List.init depth (fun l -> Printf.sprintf "v%d" l) in
  let* counts = list_repeat depth (int_range 2 5) in
  let loops = List.combine vars counts in
  let var_menu = Array.of_list loops in
  (* An affine index expression, together with its maximum value. *)
  let gen_index =
    let* shape = int_range 0 4 in
    let* a = int_range 0 (Array.length var_menu - 1) in
    let* b = int_range 0 (Array.length var_menu - 1) in
    let va, ca = var_menu.(a) in
    let vb, cb = var_menu.(b) in
    let aff = Srfa_ir.Affine.var in
    match shape with
    | 0 -> return (aff va, ca - 1)
    | 1 -> return (Srfa_ir.Affine.add (aff va) (aff vb), ca + cb - 2)
    | 2 ->
      let* k = int_range 0 2 in
      return (Srfa_ir.Affine.add (aff va) (Srfa_ir.Affine.const k), ca - 1 + k)
    | 3 ->
      let* s = int_range 2 3 in
      return
        ( Srfa_ir.Affine.add (aff ~coeff:s va) (aff vb),
          (s * (ca - 1)) + cb - 1 )
    | _ -> return (Srfa_ir.Affine.const 0, 0)
  in
  let gen_ref prefix idx =
    let* rank = int_range 0 2 in
    let* indices = list_repeat rank gen_index in
    let dims = List.map (fun (_, hi) -> hi + 1) indices in
    let name = Printf.sprintf "%s%d" prefix idx in
    let decl = Srfa_ir.Decl.make name dims in
    return (Srfa_ir.Expr.ref_ decl (List.map fst indices))
  in
  let* nread = int_range 1 3 in
  let* reads = List.init nread (fun k -> gen_ref "r" k) |> flatten_l in
  let* nstmt = int_range 1 2 in
  let gen_stmt k =
    let* target = gen_ref "w" k in
    let* use_acc = bool in
    let* op =
      oneofl Srfa_ir.Op.[ Add; Sub; Mul; Min; Max; Bxor ]
    in
    let* picks = list_repeat 2 (oneofl reads) in
    let leaves = List.map (fun r -> Srfa_ir.Expr.Load r) picks in
    let rhs =
      match leaves with
      | [ x; y ] -> Srfa_ir.Expr.Binary (op, x, y)
      | [ x ] -> x
      | _ -> Srfa_ir.Expr.Const 1
    in
    let rhs =
      if use_acc then
        Srfa_ir.Expr.Binary (Srfa_ir.Op.Add, Srfa_ir.Expr.Load target, rhs)
      else rhs
    in
    return (Srfa_ir.Expr.Assign (target, rhs))
  in
  let* body = List.init nstmt gen_stmt |> flatten_l in
  (* Collect declarations and mark targets as outputs. *)
  let decls = Hashtbl.create 8 in
  let note storage (r : Srfa_ir.Expr.ref_) =
    let d = r.Srfa_ir.Expr.decl in
    let existing = Hashtbl.find_opt decls d.Srfa_ir.Decl.name in
    match (existing, storage) with
    | None, s ->
      Hashtbl.replace decls d.Srfa_ir.Decl.name
        (Srfa_ir.Decl.make ~bits:d.Srfa_ir.Decl.bits ~storage:s
           d.Srfa_ir.Decl.name d.Srfa_ir.Decl.dims)
    | Some _, Srfa_ir.Decl.Output ->
      Hashtbl.replace decls d.Srfa_ir.Decl.name
        (Srfa_ir.Decl.make ~bits:d.Srfa_ir.Decl.bits
           ~storage:Srfa_ir.Decl.Output d.Srfa_ir.Decl.name
           d.Srfa_ir.Decl.dims)
    | Some _, _ -> ()
  in
  List.iter
    (fun (Srfa_ir.Expr.Assign (target, e)) ->
      List.iter (note Srfa_ir.Decl.Input) (Srfa_ir.Expr.loads e);
      note Srfa_ir.Decl.Output target)
    body;
  (* Rebuild the body against the final declarations so ref decls agree. *)
  let rebuild (r : Srfa_ir.Expr.ref_) =
    Srfa_ir.Expr.ref_
      (Hashtbl.find decls r.Srfa_ir.Expr.decl.Srfa_ir.Decl.name)
      r.Srfa_ir.Expr.index
  in
  let rec rebuild_expr (e : Srfa_ir.Expr.t) =
    match e with
    | Srfa_ir.Expr.Const _ -> e
    | Srfa_ir.Expr.Load r -> Srfa_ir.Expr.Load (rebuild r)
    | Srfa_ir.Expr.Unary (op, a) -> Srfa_ir.Expr.Unary (op, rebuild_expr a)
    | Srfa_ir.Expr.Binary (op, a, b) ->
      Srfa_ir.Expr.Binary (op, rebuild_expr a, rebuild_expr b)
  in
  let body =
    List.map
      (fun (Srfa_ir.Expr.Assign (t, e)) ->
        Srfa_ir.Expr.Assign (rebuild t, rebuild_expr e))
      body
  in
  let arrays = Hashtbl.fold (fun _ d acc -> d :: acc) decls [] in
  let arrays = List.sort Srfa_ir.Decl.compare arrays in
  return
    (Srfa_ir.Nest.make ~name:"random" ~arrays
       ~loops:(List.map (fun (v, c) -> Srfa_ir.Nest.loop v c) loops)
       ~body)

let arbitrary_nest =
  QCheck.make gen_nest ~print:(fun n -> Format.asprintf "%a" Nest.pp n)
