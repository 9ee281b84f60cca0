(* The polynomial cut engine: Dinic max-flow, the bitset substrate, and
   the flow-vs-exhaustive equivalence CPA-RA now depends on. *)

open Srfa_reuse
open Srfa_test_helpers
module Bitset = Srfa_util.Bitset
module Prng = Srfa_util.Prng
module Graph = Srfa_dfg.Graph
module Critical = Srfa_dfg.Critical
module Cut = Srfa_dfg.Cut
module Flownet = Srfa_dfg.Flownet

let latency = Srfa_hw.Latency.default

(* ---- bitset ----------------------------------------------------------- *)

let test_bitset_basics () =
  let s = Bitset.create 200 in
  Alcotest.(check bool) "empty" true (Bitset.is_empty s);
  List.iter (Bitset.add s) [ 0; 63; 64; 127; 199 ];
  Alcotest.(check int) "cardinal" 5 (Bitset.cardinal s);
  Alcotest.(check bool) "mem 63" true (Bitset.mem s 63);
  Alcotest.(check bool) "mem 62" false (Bitset.mem s 62);
  Bitset.remove s 63;
  Alcotest.(check bool) "removed" false (Bitset.mem s 63);
  Alcotest.(check (list int)) "ascending iteration" [ 0; 64; 127; 199 ]
    (Bitset.to_list s);
  Bitset.clear s;
  Alcotest.(check bool) "cleared" true (Bitset.is_empty s);
  Alcotest.(check bool) "bounds checked" true
    (try
       ignore (Bitset.mem s 200);
       false
     with Invalid_argument _ -> true)

(* ---- raw Dinic -------------------------------------------------------- *)

let test_max_flow_classic () =
  (* The textbook 4-node diamond with a cross edge: max flow 2000 + 1. *)
  let net = Flownet.create 4 in
  ignore (Flownet.add_edge net 0 1 1000);
  ignore (Flownet.add_edge net 0 2 1000);
  ignore (Flownet.add_edge net 1 3 1000);
  ignore (Flownet.add_edge net 2 3 1000);
  ignore (Flownet.add_edge net 1 2 1);
  Alcotest.(check int) "diamond" 2000
    (Flownet.max_flow net ~source:0 ~sink:3);
  (* Runs are idempotent: capacities are restored between runs. *)
  Alcotest.(check int) "idempotent" 2000
    (Flownet.max_flow net ~source:0 ~sink:3)

let test_max_flow_bottleneck_and_setcap () =
  let net = Flownet.create 3 in
  let e = Flownet.add_edge net 0 1 7 in
  ignore (Flownet.add_edge net 1 2 100);
  Alcotest.(check int) "bottleneck" 7 (Flownet.max_flow net ~source:0 ~sink:2);
  Flownet.set_cap net e 3;
  Alcotest.(check int) "after set_cap" 3
    (Flownet.max_flow net ~source:0 ~sink:2);
  Alcotest.(check bool) "limit short-circuits" true
    (Flownet.max_flow ~limit:1 net ~source:0 ~sink:2 > 1)

(* ---- the CPA-RA round-1 state, shared by the equivalence tests -------- *)

let round1 analysis =
  let info gid = Analysis.info analysis gid in
  let charged (g : Group.t) =
    let i = info g.Group.id in
    (not i.Analysis.has_reuse) || 1 < i.Analysis.nu
  in
  let improvable (g : Group.t) =
    let i = info g.Group.id in
    i.Analysis.has_reuse && 1 < i.Analysis.nu
  in
  let weight (g : Group.t) = (info g.Group.id).Analysis.nu - 1 in
  (charged, improvable, weight)

(* Exactly what Cpa_ra.allocate did before the flow engine: every minimal
   cut, keep the all-improvable ones, fold to the first strictly-cheapest
   (the enumeration order is cardinality then lexicographic positions, so
   the fold realises the (weight, cardinality, positions) tie-break). *)
let reference_cheapest cg ~eligible ~weight =
  let cuts = Cut.enumerate_exhaustive cg in
  let eligible_cuts = List.filter (List.for_all eligible) cuts in
  let required = List.fold_left (fun acc g -> acc + weight g) 0 in
  List.fold_left
    (fun acc cut ->
      match acc with
      | None -> Some (cut, required cut)
      | Some (_, b) -> if required cut < b then Some (cut, required cut) else acc)
    None eligible_cuts

let names cut = List.map Group.name cut

(* ---- Fig. 2 mirror ---------------------------------------------------- *)

let test_fig2_round1_cut () =
  let analysis = Helpers.analyze (Helpers.example ()) in
  let dfg = Graph.build analysis in
  let charged, improvable, weight = round1 analysis in
  let cg = Critical.make dfg ~latency ~charged in
  match Cut.cheapest_answer cg ~eligible:improvable ~weight with
  | None -> Alcotest.fail "no cut on the Fig. 2 CG"
  | Some { Cut.cut; weight = w; _ } ->
    Alcotest.(check (list string)) "round 1 picks {d}" [ "d[i][k]" ] (names cut);
    Alcotest.(check int) "29 extra registers" 29 w

let test_fig2_round2_cut () =
  (* After d is fully covered it stops being charged; the engine must fall
     back to the paper's second choice, {a, b}. *)
  let analysis = Helpers.analyze (Helpers.example ()) in
  let dfg = Graph.build analysis in
  let d = (Helpers.info_named analysis "d[i][k]").Analysis.group in
  let info gid = Analysis.info analysis gid in
  let charged (g : Group.t) =
    g.Group.id <> d.Group.id
    &&
    let i = info g.Group.id in
    (not i.Analysis.has_reuse) || 1 < i.Analysis.nu
  in
  let improvable (g : Group.t) =
    g.Group.id <> d.Group.id
    &&
    let i = info g.Group.id in
    i.Analysis.has_reuse && 1 < i.Analysis.nu
  in
  let weight (g : Group.t) = (info g.Group.id).Analysis.nu - 1 in
  let cg = Critical.make dfg ~latency ~charged in
  match Cut.cheapest_answer cg ~eligible:improvable ~weight with
  | None -> Alcotest.fail "no cut on the round-2 CG"
  | Some { Cut.cut; weight = w; _ } ->
    Alcotest.(check (list string)) "round 2 splits {a, b}"
      [ "a[k]"; "b[k][j]" ] (names cut);
    (* nu_a + nu_b - 2: far over the 30 registers left after {d}, which is
       why CPA-RA's final round divides them evenly instead. *)
    Alcotest.(check int) "628 for the pair" 628 w;
    (match reference_cheapest cg ~eligible:improvable ~weight with
    | None -> Alcotest.fail "oracle found no round-2 cut"
    | Some (rcut, rw) ->
      Alcotest.(check (list string)) "oracle agrees on the cut" (names rcut)
        (names cut);
      Alcotest.(check int) "oracle agrees on the weight" rw w)

(* ---- property: flow == exhaustive on random DAGs ---------------------- *)

(* Random two-deep nests whose bodies chain stores into later loads, so the
   DFGs are genuinely DAG-shaped (not just statement-parallel). Targets are
   never read before they are written, which keeps every improvable group
   on a single DFG node — the regime where the labelled vertex cut is
   exactly the node cut and the two engines must agree bit for bit. *)
let random_nest rng seed =
  let outer = 2 + Prng.int rng 3 in
  let inner = 2 + Prng.int rng 5 in
  let npool = 2 + Prng.int rng 4 in
  let nstmt = 1 + Prng.int rng 3 in
  let nleaves = List.init nstmt (fun _ -> 2 + Prng.int rng 3) in
  let open Srfa_ir.Builder in
  let i = idx "i" and j = idx "j" in
  let pool =
    List.init npool (fun p ->
        let shape = Prng.int rng 3 in
        let name = Printf.sprintf "x%d" p in
        match shape with
        | 0 -> (input name [ inner ], [ j ]) (* reuse across i *)
        | 1 -> (input name [ outer ], [ i ]) (* one-slot window *)
        | _ -> (input name [ Stdlib.( + ) outer inner ], [ i +: j ]))
  in
  let written = ref [] in
  let body =
    List.mapi
      (fun k nleaf ->
        let load () =
          (* Mostly pool loads, sometimes a read of an earlier target
             (write-to-read chaining, like d[i][k] in Fig. 1). Targets
             are never read before they are written, so no group ever
             splits into a source node plus a store node. *)
          if !written <> [] && Prng.int rng 4 = 0 then
            let d, ix = Prng.pick rng !written in
            d.%[ix]
          else
            let d, ix = Prng.pick rng pool in
            d.%[ix]
        in
        let rhs =
          List.fold_left
            (fun acc _ ->
              let op = Prng.pick rng [ ( + ); ( - ); ( * ) ] in
              op acc (load ()))
            (load ())
            (List.init (Stdlib.( - ) nleaf 1) Fun.id)
        in
        let target = output (Printf.sprintf "w%d" k) [ outer; inner ] in
        let ix = [ i; j ] in
        written := (target, ix) :: !written;
        at target ix <-- rhs)
      nleaves
  in
  nest
    (Printf.sprintf "random-%d" seed)
    ~loops:[ ("i", outer); ("j", inner) ]
    body

let test_property_flow_matches_exhaustive () =
  let agreements = ref 0 and cuts_found = ref 0 in
  for seed = 1 to 120 do
    let rng = Prng.create ~seed in
    let nest = random_nest rng seed in
    let analysis = Helpers.analyze nest in
    let dfg = Graph.build analysis in
    let charged, improvable, weight = round1 analysis in
    let cg = Critical.make dfg ~latency ~charged in
    let ngroups = List.length (Critical.charged_ref_groups cg) in
    Alcotest.(check bool)
      (Printf.sprintf "seed %d stays under the oracle's wall" seed)
      true (ngroups <= 14);
    let reference = reference_cheapest cg ~eligible:improvable ~weight in
    let flow = Cut.cheapest_answer cg ~eligible:improvable ~weight in
    (match (reference, flow) with
    | None, None -> incr agreements
    | Some (rcut, rw), Some { Cut.cut = fcut; weight = fw; _ } ->
      Alcotest.(check int)
        (Printf.sprintf "seed %d: cheapest weight" seed)
        rw fw;
      Alcotest.(check (list string))
        (Printf.sprintf "seed %d: tie-broken cut" seed)
        (names rcut) (names fcut);
      Alcotest.(check bool)
        (Printf.sprintf "seed %d: flow cut disconnects" seed)
        true (Cut.is_cut cg fcut);
      incr agreements;
      incr cuts_found
    | Some (rcut, _), None ->
      Alcotest.failf "seed %d: flow missed cut {%s}" seed
        (String.concat ", " (names rcut))
    | None, Some { Cut.cut = fcut; _ } ->
      Alcotest.failf "seed %d: flow invented cut {%s}" seed
        (String.concat ", " (names fcut)));
    (* The CG under the all-in-RAM state must also agree (a different,
       usually larger candidate set than the round-1 state). *)
    let cg_all = Critical.make dfg ~latency ~charged:(fun _ -> true) in
    if List.length (Critical.charged_ref_groups cg_all) <= 14 then begin
      let r = reference_cheapest cg_all ~eligible:improvable ~weight in
      let f = Cut.cheapest_answer cg_all ~eligible:improvable ~weight in
      Alcotest.(check (option (pair (list string) int)))
        (Printf.sprintf "seed %d: all-in-RAM state" seed)
        (Option.map (fun (c, w) -> (names c, w)) r)
        (Option.map (fun (a : Cut.answer) -> (names a.Cut.cut, a.Cut.weight)) f)
    end
  done;
  Alcotest.(check int) "all seeds agree" 120 !agreements;
  (* The generator must actually exercise the engine, not vacuously agree
     on None. *)
  Alcotest.(check bool) "cuts were found" true (!cuts_found > 40)

(* ---- past the 16-group wall ------------------------------------------- *)

let test_24_groups_allocates () =
  (* The seed allocator hard-failed here: enumerate_exhaustive still
     refuses, but CPA-RA now goes through the flow engine. *)
  let nest = Srfa_kernels.Extra.synthetic_cut ~groups:24 () in
  let analysis = Helpers.analyze nest in
  let dfg = Graph.build analysis in
  let charged, _, _ = round1 analysis in
  let cg = Critical.make dfg ~latency ~charged in
  Alcotest.(check bool) "oracle still walls at 24 groups" true
    (try
       ignore (Cut.enumerate_exhaustive cg);
       false
     with Invalid_argument _ -> true);
  let budget = 64 in
  let alloc, trace =
    Srfa_core.Cpa_ra.allocate_traced analysis ~budget
  in
  Alcotest.(check bool) "rounds ran" true (trace <> []);
  Alcotest.(check bool) "budget respected" true
    (Allocation.total_registers alloc <= budget);
  (* Every selected cut member received registers beyond its pinned slot. *)
  List.iter
    (fun (step : Srfa_core.Cpa_ra.trace_step) ->
      List.iter
        (fun (g : Group.t) ->
          Alcotest.(check bool) "cut member improved" true
            (Allocation.beta alloc g.Group.id >= 1))
        step.Srfa_core.Cpa_ra.cut)
    trace

let test_48_groups_allocates () =
  let nest = Srfa_kernels.Extra.synthetic_cut ~groups:48 () in
  let analysis = Helpers.analyze nest in
  let alloc = Srfa_core.Cpa_ra.allocate analysis ~budget:128 in
  Alcotest.(check bool) "48-group allocation fits" true
    (Allocation.total_registers alloc <= 128)

let test_synthetic_kernel_shape () =
  List.iter
    (fun g ->
      let nest = Srfa_kernels.Extra.synthetic_cut ~groups:g () in
      let analysis = Helpers.analyze nest in
      Alcotest.(check int)
        (Printf.sprintf "%d groups requested" g)
        g (Analysis.num_groups analysis);
      (* Every copy has the same critical-path latency, so the whole body
         must be on the CG. *)
      let dfg = Graph.build analysis in
      let cg = Critical.make dfg ~latency ~charged:(fun _ -> true) in
      Alcotest.(check int)
        (Printf.sprintf "%d groups all critical" g)
        g
        (List.length (Critical.ref_groups cg)))
    [ 2; 3; 5; 8; 12; 16; 24; 48 ]

let () =
  Alcotest.run "flownet"
    [
      ( "bitset",
        [ Alcotest.test_case "basics" `Quick test_bitset_basics ] );
      ( "dinic",
        [
          Alcotest.test_case "classic diamond" `Quick test_max_flow_classic;
          Alcotest.test_case "bottleneck and set_cap" `Quick
            test_max_flow_bottleneck_and_setcap;
        ] );
      ( "fig2 mirror",
        [
          Alcotest.test_case "round 1 picks {d}" `Quick test_fig2_round1_cut;
          Alcotest.test_case "round 2 picks {a,b}" `Quick test_fig2_round2_cut;
        ] );
      ( "equivalence",
        [
          Alcotest.test_case "flow == exhaustive on random DAGs" `Quick
            test_property_flow_matches_exhaustive;
        ] );
      ( "beyond the wall",
        [
          Alcotest.test_case "24-group kernel allocates" `Quick
            test_24_groups_allocates;
          Alcotest.test_case "48-group kernel allocates" `Quick
            test_48_groups_allocates;
          Alcotest.test_case "synthetic kernel shape" `Quick
            test_synthetic_kernel_shape;
        ] );
    ]
