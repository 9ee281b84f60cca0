open Srfa_reuse
open Srfa_test_helpers

let analysis () = Helpers.analyze (Helpers.example ())

let check_info name ~nu ~accesses ~distinct ~saved ~level =
  let i = Helpers.info_named (analysis ()) name in
  Alcotest.(check int) (name ^ " nu") nu i.Analysis.nu;
  Alcotest.(check int) (name ^ " accesses") accesses i.Analysis.accesses;
  Alcotest.(check int) (name ^ " distinct") distinct i.Analysis.distinct;
  Alcotest.(check int) (name ^ " saved") saved i.Analysis.saved_full;
  Alcotest.(check int) (name ^ " window level") level i.Analysis.window_level

(* The recovered Fig. 1/Fig. 2 quantities (DESIGN.md §4). *)
let test_example_a () = check_info "a[k]" ~nu:30 ~accesses:600 ~distinct:30 ~saved:570 ~level:1
let test_example_b () = check_info "b[k][j]" ~nu:600 ~accesses:600 ~distinct:600 ~saved:0 ~level:1
let test_example_c () = check_info "c[j]" ~nu:20 ~accesses:600 ~distinct:20 ~saved:580 ~level:1
let test_example_d () = check_info "d[i][k]" ~nu:30 ~accesses:600 ~distinct:30 ~saved:570 ~level:2

let test_example_e () =
  let i = Helpers.info_named (analysis ()) "e[i][j][k]" in
  Alcotest.(check bool) "no reuse" false i.Analysis.has_reuse;
  Alcotest.(check int) "nu 1" 1 i.Analysis.nu;
  Alcotest.(check int) "saved 0" 0 i.Analysis.saved_full

let test_benefit_cost () =
  let an = analysis () in
  let bc name = (Helpers.info_named an name).Analysis.benefit_cost in
  Alcotest.(check (float 0.001)) "c" 29.0 (bc "c[j]");
  Alcotest.(check (float 0.001)) "a" 19.0 (bc "a[k]");
  Alcotest.(check (float 0.001)) "d" 19.0 (bc "d[i][k]");
  Alcotest.(check (float 0.001)) "b" 0.0 (bc "b[k][j]")

let test_total_full () =
  Alcotest.(check int) "sum of nu" (30 + 600 + 20 + 30 + 1)
    (Analysis.total_registers_full (analysis ()))

let test_fir_windows () =
  let an = Helpers.analyze (Srfa_kernels.Kernels.fir ~taps:8 ~samples:32 ()) in
  let x = Helpers.info_named an "x[i+j]" in
  Alcotest.(check int) "x window = taps" 8 x.Analysis.nu;
  Alcotest.(check int) "x carried by i" 1 x.Analysis.window_level;
  let y = Helpers.info_named an "y[i]" in
  Alcotest.(check int) "accumulator nu" 1 y.Analysis.nu;
  Alcotest.(check bool) "accumulator has reuse" true y.Analysis.has_reuse

let test_element_index () =
  let an = analysis () in
  let b = Helpers.info_named an "b[k][j]" in
  (* b[k][j] linearises to 20*k + j. *)
  Alcotest.(check int) "b element" ((20 * 7) + 3)
    (Analysis.element_index b [| 0; 3; 7 |])

let test_rank_affine_simple () =
  let an = analysis () in
  let check name expected =
    match Analysis.rank_affine an (Helpers.info_named an name) with
    | Some coeffs -> Alcotest.(check (array int)) name expected coeffs
    | None -> Alcotest.failf "%s: expected affine rank" name
  in
  check "a[k]" [| 0; 0; 1 |];
  check "c[j]" [| 0; 1; 0 |];
  check "d[i][k]" [| 0; 0; 1 |];
  check "b[k][j]" [| 0; 30; 1 |]

let test_rank_affine_none_for_bic_image () =
  let an = Helpers.analyze (Helpers.small_bic ()) in
  let im = Helpers.info_named an "im[r+u][c+v]" in
  Alcotest.(check bool)
    "coupled 2-D window is not affine-ranked" true
    (Analysis.rank_affine an im = None);
  let t = Helpers.info_named an "t[u][v]" in
  Alcotest.(check bool)
    "template window is affine-ranked" true
    (Analysis.rank_affine an t <> None)

let test_rank_affine_none_has_no_reuse_group () =
  let an = analysis () in
  let e = Helpers.info_named an "e[i][j][k]" in
  Alcotest.(check bool) "no-reuse group has no rank" true
    (Analysis.rank_affine an e = None)

(* Tracker semantics on the example: residency of each group at chosen
   iteration points, matching the Fig. 2 accounting. *)
let test_tracker_residency () =
  let an = analysis () in
  let tr = Analysis.Tracker.create an in
  let a_id = (Helpers.info_named an "a[k]").Analysis.group.Group.id in
  let b_id = (Helpers.info_named an "b[k][j]").Analysis.group.Group.id in
  let c_id = (Helpers.info_named an "c[j]").Analysis.group.Group.id in
  Srfa_ir.Iterspace.iter an.Analysis.nest (fun point ->
      Analysis.Tracker.step tr point;
      let j = point.(1) and k = point.(2) in
      (* a[k]'s slot rank is k. *)
      Alcotest.(check bool) "a resident iff k < 16"
        (k < 16)
        (Analysis.Tracker.resident tr a_id ~beta:16 ~pinned:true);
      (* b's slot rank is 30j + k. *)
      Alcotest.(check bool) "b resident iff 30j+k < 16"
        ((30 * j) + k < 16)
        (Analysis.Tracker.resident tr b_id ~beta:16 ~pinned:true);
      (* c's slot rank is j; a single register covers j = 0. *)
      Alcotest.(check bool) "c resident iff j = 0" (j = 0)
        (Analysis.Tracker.resident tr c_id ~beta:1 ~pinned:true);
      (* unpinned entries never claim residency. *)
      Alcotest.(check bool) "unpinned never resident" false
        (Analysis.Tracker.resident tr a_id ~beta:30 ~pinned:false))

(* rank_affine and the tracker must agree wherever the former exists. *)
let test_rank_affine_matches_tracker () =
  let check_kernel (_, nest) =
    let an = Helpers.analyze nest in
    let ranked =
      Array.to_list an.Analysis.infos
      |> List.filter_map (fun (i : Analysis.info) ->
             match Analysis.rank_affine an i with
             | Some coeffs -> Some (i.Analysis.group.Group.id, coeffs)
             | None -> None)
    in
    let tr = Analysis.Tracker.create an in
    Srfa_ir.Iterspace.iter an.Analysis.nest (fun point ->
        Analysis.Tracker.step tr point;
        List.iter
          (fun (gid, coeffs) ->
            let predicted = ref 0 in
            Array.iteri
              (fun l c -> predicted := !predicted + (c * point.(l)))
              coeffs;
            Alcotest.(check int) "rank agrees" !predicted
              (Analysis.Tracker.slot_rank tr gid))
          ranked)
  in
  List.iter check_kernel (Helpers.small_kernels ())

(* rank_affine decides by a sumset count; the window walk it replaced
   (Helpers.rank_affine_walked) is its oracle. The two must agree on
   every group, [None] included: the tracker case above checks only that
   a [Some] is right, while the simulator's rank-cache fill also relies
   on [Some] whenever the window's ranks are affine. *)
let check_rank_affine (name, nest) =
  let an = Helpers.analyze nest in
  Array.iter
    (fun (i : Analysis.info) ->
      let show = function
        | None -> "None"
        | Some r ->
          "Some [" ^ String.concat ";" (Array.to_list (Array.map string_of_int r))
          ^ "]"
      in
      let got = Analysis.rank_affine an i
      and walked = Helpers.rank_affine_walked an i in
      if got <> walked then
        Alcotest.failf "%s %s: rank_affine %s, walked %s" name
          (Group.name i.Analysis.group) (show got) (show walked))
    an.Analysis.infos

let test_rank_affine_complete () =
  let kernels =
    Srfa_kernels.Kernels.all () @ Srfa_kernels.Extra.all ()
    @ [ ("example", Helpers.example ()) ]
  in
  let cases =
    List.filteri (fun k _ -> k < 500) (Helpers.gen_valid ~seed:42 ~cases:1200)
  in
  Alcotest.(check int) "500 valid cases" 500 (List.length cases);
  List.iter
    (fun kernel ->
      List.iter check_rank_affine
        (kernel :: Helpers.variants ~factors:[ 2; 3; 4 ] kernel))
    (kernels
    @ List.map (fun (id, nest) -> (Printf.sprintf "gen case %d" id, nest)) cases)

(* Per-point reference for the sumset counts: a hash set of the element
   indices over the whole nest ([distinct]) and over one reuse window
   ([nu]: outer levels at 0, the carrying level over [0, delta), inner
   levels over their full ranges) — the walks [analyze] made before the
   counts became sumsets. *)
let walked_counts nest (i : Analysis.info) =
  let counts = Array.of_list (Srfa_ir.Nest.trip_counts nest) in
  let depth = Array.length counts in
  let distinct_over extents =
    let seen = Hashtbl.create 64 in
    let point = Array.make depth 0 in
    let rec walk l =
      if l = depth then Hashtbl.replace seen (Analysis.element_index i point) ()
      else
        for c = 0 to extents.(l) - 1 do
          point.(l) <- c;
          walk (l + 1)
        done
    in
    walk 0;
    Hashtbl.length seen
  in
  let nu =
    if not i.Analysis.has_reuse then 1
    else
      let level = i.Analysis.window_level in
      let delta =
        Option.value ~default:1 (Kernelspace.carry_distance i.Analysis.reuse)
      in
      distinct_over
        (Array.mapi
           (fun l n ->
             if l < level - 1 then 1 else if l = level - 1 then min delta n
             else n)
           counts)
  in
  (distinct_over counts, nu)

let check_counts (name, nest) =
  let an = Helpers.analyze nest in
  Array.iter
    (fun (i : Analysis.info) ->
      let distinct, nu = walked_counts nest i in
      if (distinct, nu) <> (i.Analysis.distinct, i.Analysis.nu) then
        Alcotest.failf "%s %s: distinct %d nu %d, walked %d and %d" name
          (Group.name i.Analysis.group) i.Analysis.distinct i.Analysis.nu
          distinct nu)
    an.Analysis.infos

let with_variants kernels =
  List.concat_map (fun kernel -> kernel :: Helpers.variants kernel) kernels

let test_counts_library () =
  List.iter check_counts
    (with_variants
       (Srfa_kernels.Kernels.all () @ Srfa_kernels.Extra.all ()
       @ [ ("example", Helpers.example ()) ]))

(* x[2*i + 3*j] is carried by i at distance 3 (the kernel vector is
   (3, -2)), so its window spans three iterations of the carrying loop. *)
let strided_pair () =
  Srfa_frontend.Parser.parse
    {|kernel strided_pair {
  input  int x[40];
  input  int c[6];
  output int y[10];

  for (i = 0; i < 10; i++)
    for (j = 0; j < 6; j++)
      y[i] += c[j] * x[2 * i + 3 * j];
}|}

(* The one-run step at its boundary: after j's unit stride the sums are
   one run of 3, so x[3*i + j]'s copies touch (one run of 12), while
   x[4*i + j]'s leave a one-element gap (12 sums over 15 values). *)
let stride_boundary ~stride =
  Srfa_frontend.Parser.parse
    (Printf.sprintf
       {|kernel boundary {
  input  int x[%d];
  output int y[4];

  for (i = 0; i < 4; i++)
    for (j = 0; j < 3; j++)
      y[i] += x[%d * i + j];
}|}
       ((3 * stride) + 3) stride)

(* Non-unit strides (dec-fir's decimation, a carry distance of 3, steps
   at and one past the run's length) and negative coefficients, whose
   doubling shifts the sums down. *)
let test_counts_strides_and_negative () =
  List.iter check_counts
    (List.map
       (fun d ->
         ( Printf.sprintf "dec-fir decimation %d" d,
           Srfa_kernels.Kernels.dec_fir ~taps:12 ~samples:96 ~decimation:d () ))
       [ 2; 3; 4 ]
    @ with_variants
        [
          ("strided pair", strided_pair ());
          ("reversed fir", Helpers.reversed_fir ());
        ]
    @ [
        ("touching copies", stride_boundary ~stride:3);
        ("copies with a gap", stride_boundary ~stride:4);
      ]);
  let x =
    Helpers.info_named (Helpers.analyze (strided_pair ())) "x[2*i+3*j]"
  in
  Alcotest.(check (option int)) "carry distance" (Some 3)
    (Kernelspace.carry_distance x.Analysis.reuse);
  Alcotest.(check (pair int int)) "strided x distinct, nu" (32, 18)
    (x.Analysis.distinct, x.Analysis.nu);
  let x =
    Helpers.info_named (Helpers.analyze (Helpers.reversed_fir ())) "x[i-j+15]"
  in
  Alcotest.(check (pair int int)) "reversed x distinct, nu" (79, 16)
    (x.Analysis.distinct, x.Analysis.nu);
  List.iter
    (fun stride ->
      let name = Printf.sprintf "x[%d*i+j]" stride in
      let an = Helpers.analyze (stride_boundary ~stride) in
      let x = Helpers.info_named an name in
      Alcotest.(check (pair int int)) (name ^ " distinct, nu") (12, 3)
        (x.Analysis.distinct, x.Analysis.nu))
    [ 3; 4 ]

(* A huge declared array read over a tiny nest: x[i][j] linearises to
   1000000000 i + j, but the nest and each window touch four elements.
   The counts cost what the nest costs, not what the declaration spans. *)
let wide_array () =
  Srfa_frontend.Parser.parse
    {|kernel wide {
  input  int x[2][1000000000];
  output int y[2];

  for (k = 0; k < 2; k++)
    for (i = 0; i < 2; i++)
      for (j = 0; j < 2; j++)
        y[i] += x[i][j];
}|}

let test_counts_wide_array () =
  let nest = wide_array () in
  let an, allocated =
    Helpers.allocated_bytes (fun () -> Analysis.analyze nest)
  in
  let x = Helpers.info_named an "x[i][j]" in
  Alcotest.(check (pair int int)) "x distinct, nu" (4, 4)
    (x.Analysis.distinct, x.Analysis.nu);
  check_counts ("wide array", nest);
  if allocated > 65536. then
    Alcotest.failf "analyze allocated %.0f B for an 8-point nest" allocated

let test_counts_gen () =
  let cases = Helpers.gen_valid ~seed:42 ~cases:1200 in
  Alcotest.(check bool) ">= 500 valid cases" true (List.length cases >= 500);
  List.iter
    (fun (id, nest) -> check_counts (Printf.sprintf "gen case %d" id, nest))
    cases

(* Nests beyond the fuzz generator's subscript menu: 1-4 loops of 1-7
   iterations and 1-3 references, each to its own array of rank 1-2.
   Every subscript is sum c v + k over up to three loop variables with c
   in [-4, 4]; its offset k and the array's extent leave a slack of 0-2
   on each side of the range the box reaches, so every index is in
   bounds. The first reference is the statement's target. *)
let gen_strided_nest =
  let open QCheck.Gen in
  let open Srfa_ir in
  let* depth = int_range 1 4 in
  let* counts = list_repeat depth (int_range 1 7) in
  let loops = List.mapi (fun l n -> (Printf.sprintf "v%d" l, n)) counts in
  let subscript =
    let* terms = int_range 0 (min 3 depth) in
    let* vars = shuffle_l loops in
    let* coeffs = list_repeat terms (int_range (-4) 4) in
    let* before = int_range 0 2 in
    let* after = int_range 0 2 in
    let add_term (lo, hi, ix) (v, n) c =
      let reach = c * (n - 1) in
      let ix = Affine.add ix (Affine.var ~coeff:c v) in
      (lo + min 0 reach, hi + max 0 reach, ix)
    in
    let lo, hi, ix =
      List.fold_left2 add_term (0, 0, Affine.const 0)
        (List.filteri (fun k _ -> k < terms) vars)
        coeffs
    in
    return
      (Affine.add ix (Affine.const (before - lo)), hi - lo + 1 + before + after)
  in
  let reference k =
    let* rank = int_range 1 2 in
    let* subscripts = list_repeat rank subscript in
    let storage = if k = 0 then Decl.Output else Decl.Input in
    let name = Printf.sprintf "a%d" k in
    let decl = Decl.make ~storage name (List.map snd subscripts) in
    return (Expr.ref_ decl (List.map fst subscripts))
  in
  let* nrefs = int_range 1 3 in
  let* refs = flatten_l (List.init nrefs reference) in
  let load (r : Expr.ref_) = Expr.Load r in
  let rhs =
    match List.tl refs with
    | [] -> Expr.Const 1
    | r :: rest ->
      List.fold_left
        (fun e r -> Expr.Binary (Op.Add, e, load r))
        (load r) rest
  in
  return
    (Nest.make ~name:"strided"
       ~arrays:(List.map (fun (r : Expr.ref_) -> r.Expr.decl) refs)
       ~loops:(List.map (fun (v, n) -> Nest.loop v n) loops)
       ~body:[ Expr.Assign (List.hd refs, rhs) ])

let distinct_by_name nest =
  let an = Helpers.analyze nest in
  List.sort compare
    (Array.to_list
       (Array.map
          (fun (i : Analysis.info) ->
            (Group.name i.Analysis.group, i.Analysis.distinct))
          an.Analysis.infos))

(* Both counts against the walk, and [distinct] (the elements the whole
   nest touches, in any order) under every legal interchange. *)
let prop_counts_strided =
  QCheck.Test.make ~name:"strided subscripts vs walk and interchange"
    ~count:600
    (QCheck.make gen_strided_nest ~print:(fun n ->
         Format.asprintf "%a" Srfa_ir.Nest.pp n))
    (fun nest ->
      check_counts ("strided", nest);
      let orders, _ = Srfa_ir.Permute.legal_orders nest in
      let expected = distinct_by_name nest in
      List.iter
        (fun order ->
          let permuted = Srfa_ir.Permute.interchange nest ~order in
          if distinct_by_name permuted <> expected then
            Alcotest.failf "order %s moves distinct"
              (String.concat "," (List.map string_of_int order)))
        orders;
      true)

(* The counts' allocation, pinned: a cold [analyze] of each library
   kernel at its default size allocates at most 48 kB. Adding the levels
   outermost first split dense references into one run per row and
   doubled those run lists (imi 188 kB, bic 62 kB); in stride order the
   most any of them takes is 22 kB, the example's. *)
let test_allocation_budget () =
  List.iter
    (fun (name, nest) ->
      let _, spent =
        Helpers.allocated_bytes (fun () -> Analysis.analyze nest)
      in
      if spent > 48_000.0 then
        Alcotest.failf "%s: analyze allocated %.0f bytes (budget 48000)" name
          spent)
    (Srfa_kernels.Kernels.all () @ Srfa_kernels.Extra.all ()
    @ [ ("example", Helpers.example ()) ])

let () =
  Alcotest.run "analysis"
    [
      ( "fig1 quantities",
        [
          Alcotest.test_case "a[k]" `Quick test_example_a;
          Alcotest.test_case "b[k][j]" `Quick test_example_b;
          Alcotest.test_case "c[j]" `Quick test_example_c;
          Alcotest.test_case "d[i][k]" `Quick test_example_d;
          Alcotest.test_case "e[i][j][k]" `Quick test_example_e;
          Alcotest.test_case "benefit/cost" `Quick test_benefit_cost;
          Alcotest.test_case "total full registers" `Quick test_total_full;
        ] );
      ( "windows",
        [
          Alcotest.test_case "fir windows" `Quick test_fir_windows;
          Alcotest.test_case "element index" `Quick test_element_index;
          Alcotest.test_case "rank affine simple" `Quick
            test_rank_affine_simple;
          Alcotest.test_case "rank affine opaque for BIC image" `Quick
            test_rank_affine_none_for_bic_image;
          Alcotest.test_case "rank affine none without reuse" `Quick
            test_rank_affine_none_has_no_reuse_group;
        ] );
      ( "sumset counts",
        [
          Alcotest.test_case "library kernels and variants vs walk" `Quick
            test_counts_library;
          Alcotest.test_case "strides and negative coefficients" `Quick
            test_counts_strides_and_negative;
          Alcotest.test_case "valid fuzz kernels vs walk" `Quick
            test_counts_gen;
          Alcotest.test_case "huge array over a tiny nest" `Quick
            test_counts_wide_array;
          QCheck_alcotest.to_alcotest ~speed_level:`Quick
            ~rand:(Random.State.make [| 26 |])
            prop_counts_strided;
        ] );
      ( "allocation",
        [
          Alcotest.test_case "analysis allocation budget" `Quick
            test_allocation_budget;
        ] );
      ( "tracker",
        [
          Alcotest.test_case "residency on the example" `Quick
            test_tracker_residency;
          Alcotest.test_case "rank affine matches tracker" `Slow
            test_rank_affine_matches_tracker;
          Alcotest.test_case "rank affine equals the window walk" `Quick
            test_rank_affine_complete;
        ] );
    ]
