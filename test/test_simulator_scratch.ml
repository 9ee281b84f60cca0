(* Differential oracle for the allocation-free simulator core: a boxed
   reference walk over every iteration point (fresh model, fresh
   residency, Hashtbl memo, string keys — the shape of the pre-arena
   implementation) re-simulates every library kernel at every sweep
   budget, and the scratch-threaded fast path — which visits only the
   in-window suffix and weights each point — must reproduce its results
   and cost profiles exactly. Further inputs move the suffix: the Extra
   kernels, the Fig. 1 example (the whole nest is one window),
   gradient-pair (no group has reuse: a one-point suffix), tiled and
   permuted variants, negative index coefficients, a coupled group with
   several windows in the suffix and valid fuzz kernels, in both
   execution modes. The cycle floor is held to a whole-nest reference,
   and the bytes-key fallback to the bitmask path for every consumer.
   The last checks pin the allocation of a warm evaluation and of a
   cold scratch build. *)

open Srfa_reuse
open Srfa_test_helpers
module Simulator = Srfa_sched.Simulator
module Residency = Srfa_sched.Residency
module Cycle_model = Srfa_sched.Cycle_model
module Allocator = Srfa_core.Allocator
module Cpa_ra = Srfa_core.Cpa_ra
module Flow = Srfa_core.Flow

let budgets = [ 8; 16; 32; 64; 128 ]
let kernels = Srfa_kernels.Kernels.all ()

(* Boxed reference simulator over the public Cycle_model/Residency APIs:
   no scratch, no arena, string-keyed memo regardless of group count,
   every iteration point visited. Returns the result and the cost
   profile. *)
let reference ?(config = Simulator.default_config) alloc =
  let analysis = alloc.Allocation.analysis in
  let nest = analysis.Analysis.nest in
  let ngroups = Analysis.num_groups analysis in
  let ram_map = Simulator.ram_map_for config alloc in
  let dfg = Srfa_dfg.Graph.build analysis in
  let model =
    Cycle_model.create ~dfg ~latency:config.Simulator.latency ~ram_map ()
  in
  let residency = Residency.create config.Simulator.residency alloc in
  let memo : (string, int) Hashtbl.t = Hashtbl.create 64 in
  let charged_bits = Array.make (max ngroups 1) false in
  let charged (g : Group.t) = charged_bits.(g.Group.id) in
  let total = ref 0 and ram = ref 0 and hits = ref 0 in
  let group_ram = Array.make ngroups 0 in
  let hist : (int, int) Hashtbl.t = Hashtbl.create 16 in
  Srfa_ir.Iterspace.iter nest (fun point ->
      Residency.step residency point;
      let buf = Bytes.make ngroups '0' in
      for gid = 0 to ngroups - 1 do
        let resident = Residency.resident residency gid in
        charged_bits.(gid) <- not resident;
        if resident then incr hits
        else begin
          incr ram;
          group_ram.(gid) <- group_ram.(gid) + 1
        end;
        Bytes.set buf gid (if resident then '0' else '1')
      done;
      let key = Bytes.to_string buf in
      let cost =
        match Hashtbl.find_opt memo key with
        | Some m -> m
        | None ->
          let m =
            match config.Simulator.execution with
            | Simulator.Serial -> Cycle_model.makespan model ~charged
            | Simulator.Pipelined ->
              Cycle_model.initiation_interval model ~charged
          in
          Hashtbl.replace memo key m;
          m
      in
      let c = cost + config.Simulator.control_overhead in
      let seen = Option.value ~default:0 (Hashtbl.find_opt hist c) in
      Hashtbl.replace hist c (seen + 1);
      total := !total + cost);
  let baseline =
    match config.Simulator.execution with
    | Simulator.Serial -> Cycle_model.compute_makespan model
    | Simulator.Pipelined ->
      Cycle_model.initiation_interval model ~charged:(fun _ -> false)
  in
  let iterations = Srfa_ir.Nest.iterations nest in
  let compute_cycles = baseline * iterations in
  let fill =
    match config.Simulator.execution with
    | Simulator.Serial -> 0
    | Simulator.Pipelined -> baseline
  in
  let control_cycles = config.Simulator.control_overhead * iterations in
  ( {
      Simulator.iterations;
      total_cycles = !total + control_cycles + fill;
      memory_cycles = !total - compute_cycles;
      compute_cycles;
      control_cycles;
      ram_accesses = !ram;
      register_hits = !hits;
      group_ram_accesses = group_ram;
    },
    List.sort compare (List.of_seq (Hashtbl.to_seq hist)) )

let reference_run ?config alloc = fst (reference ?config alloc)

let show (r : Simulator.result) =
  Format.asprintf "%a groups=[%s]" Simulator.pp_result r
    (String.concat ";"
       (Array.to_list (Array.map string_of_int r.Simulator.group_ram_accesses)))

let check_same name expected got =
  Alcotest.(check string) name (show expected) (show got);
  Alcotest.(check bool) (name ^ " (structural)") true (expected = got)

let feasible analysis budget =
  budget >= Srfa_core.Ordering.feasibility_minimum analysis

(* All kernels x all sweep budgets, one shared scratch per kernel (the
   Flow.sweep reuse pattern), against the boxed reference. *)
let test_differential_pinned () =
  List.iter
    (fun (name, nest) ->
      let analysis = Flow.analyze nest in
      let prepared = Cpa_ra.prepare analysis in
      let scratch = Simulator.scratch ~dfg:(Cpa_ra.dfg prepared) analysis in
      List.iter
        (fun budget ->
          if feasible analysis budget then begin
            let alloc =
              Allocator.run ~prepared Allocator.Cpa_ra analysis ~budget
            in
            check_same
              (Printf.sprintf "%s budget %d" name budget)
              (reference_run alloc)
              (Simulator.run ~scratch alloc)
          end)
        budgets)
    kernels

(* The weighted suffix walk against the full boxed walk, run and profile,
   serial and pipelined, at the feasibility minimum and two sweep
   budgets; both from the rank cache and, with a scratch built for a
   dynamic policy (no rank cache), through the tracker. *)
let check_weighted (name, nest) =
  let analysis = Flow.analyze nest in
  let prepared = Cpa_ra.prepare analysis in
  let scratch = Simulator.scratch ~dfg:(Cpa_ra.dfg prepared) analysis in
  let uncached =
    Simulator.scratch
      ~config:
        { Simulator.default_config with Simulator.residency = Residency.Lru }
      analysis
  in
  let minimum = Srfa_core.Ordering.feasibility_minimum analysis in
  List.iter
    (fun budget ->
      let alloc = Allocator.run ~prepared Allocator.Cpa_ra analysis ~budget in
      List.iter
        (fun (mode, execution) ->
          let config = { Simulator.default_config with Simulator.execution } in
          let label = Printf.sprintf "%s budget %d %s" name budget mode in
          let expected, expected_profile = reference ~config alloc in
          check_same label expected (Simulator.run ~config ~scratch alloc);
          check_same (label ^ " via tracker") expected
            (Simulator.run ~config ~scratch:uncached alloc);
          Alcotest.(check (list (pair int int)))
            (label ^ " profile") expected_profile
            (Simulator.profile ~config ~scratch alloc))
        [ ("serial", Simulator.Serial); ("pipelined", Simulator.Pipelined) ])
    (List.sort_uniq compare
       (minimum :: List.filter (fun b -> b >= minimum) [ 16; 64 ]))

let small_extra () =
  let module E = Srfa_kernels.Extra in
  [
    ("conv2d", E.conv2d ~mask:3 ~image:8 ());
    ("moving-average", E.moving_average ~window:4 ~samples:16 ());
    ("corner-turn", E.corner_turn ~size:4 ());
    ("gradient-pair", E.gradient_pair ~size:6 ());
  ]

(* x[t][j+k] is carried by i, so the suffix (from i on, since c[k] is
   carried by t) holds four of its windows, and its ranks are not affine
   (j + k revisits elements): the rank-cache fill's first-touch pass must
   restart at each window. *)
let coupled_inner () =
  Srfa_frontend.Parser.parse
    {|kernel coupled_inner {
  input  int x[3][6];
  input  int c[3];
  output int y[3][4];

  for (t = 0; t < 3; t++)
    for (i = 0; i < 4; i++)
      for (j = 0; j < 4; j++)
        for (k = 0; k < 3; k++)
          y[t][i] += c[k] * x[t][j + k];
}|}

let test_weighted_kernels () =
  List.iter check_weighted
    (Srfa_kernels.Extra.all ()
    @ [
        ("example", Helpers.example ());
        ("reversed fir", Helpers.reversed_fir ());
        ("coupled inner", coupled_inner ());
      ])

let test_weighted_variants () =
  List.iter
    (fun kernel -> List.iter check_weighted (Helpers.variants kernel))
    (Helpers.small_kernels ()
    @ small_extra ()
    @ [
        ("reversed fir", Helpers.reversed_fir ());
        ("coupled inner", coupled_inner ());
      ])

let test_weighted_gen () =
  let cases = Helpers.gen_valid ~seed:42 ~cases:500 in
  Alcotest.(check bool) ">= 200 valid cases" true (List.length cases >= 200);
  List.iter
    (fun (id, nest) -> check_weighted (Printf.sprintf "gen case %d" id, nest))
    cases

(* The dynamic residency policies bypass the rank cache; they must agree
   with the reference walk too. *)
let test_differential_dynamic () =
  List.iter
    (fun (name, nest) ->
      let analysis = Flow.analyze nest in
      let scratch = Simulator.scratch analysis in
      let alloc = Allocator.run Allocator.Cpa_ra analysis ~budget:64 in
      List.iter
        (fun policy ->
          let config =
            { Simulator.default_config with Simulator.residency = policy }
          in
          check_same
            (Printf.sprintf "%s %s" name (Residency.policy_name policy))
            (reference_run ~config alloc)
            (Simulator.run ~config ~scratch alloc))
        [ Residency.Lru; Residency.Direct_mapped ])
    kernels

(* Degrading the bitmask keys to the bytes-key fallback must not change a
   single number, for any consumer of the counted sets: run, profile and
   the cycle floor, at the feasibility minimum and at 64. *)
let test_mask_fallback () =
  List.iter
    (fun (name, nest) ->
      let analysis = Flow.analyze nest in
      let scratch = Simulator.scratch analysis in
      let degraded =
        { Simulator.default_config with Simulator.mask_group_cap = 1 }
      in
      let minimum = Srfa_core.Ordering.feasibility_minimum analysis in
      List.iter
        (fun budget ->
          let alloc = Allocator.run Allocator.Cpa_ra analysis ~budget in
          let label = Printf.sprintf "%s budget %d mask fallback" name budget in
          check_same label (Simulator.run alloc)
            (Simulator.run ~config:degraded ~scratch alloc);
          Alcotest.(check (list (pair int int)))
            (label ^ " profile") (Simulator.profile alloc)
            (Simulator.profile ~config:degraded ~scratch alloc);
          let beta_max = budget - (Analysis.num_groups analysis - 1) in
          Alcotest.(check int)
            (label ^ " floor")
            (Simulator.cycles_floor (Simulator.scratch analysis) ~beta_max)
            (Simulator.cycles_floor ~config:degraded scratch ~beta_max))
        (List.sort_uniq compare [ minimum; 64 ]))
    kernels

(* A scratch built for one analysis is ignored for another (fresh state
   built on the fly) instead of corrupting the result. *)
let test_foreign_scratch_ignored () =
  let _, nest_a = List.nth kernels 0 in
  let name_b, nest_b = List.nth kernels 1 in
  let analysis_a = Flow.analyze nest_a in
  let analysis_b = Flow.analyze nest_b in
  let scratch_a = Simulator.scratch analysis_a in
  let alloc_b = Allocator.run Allocator.Cpa_ra analysis_b ~budget:64 in
  check_same
    (Printf.sprintf "%s under foreign scratch" name_b)
    (Simulator.run alloc_b)
    (Simulator.run ~scratch:scratch_a alloc_b)

let test_profile_parity () =
  List.iter
    (fun (name, nest) ->
      let analysis = Flow.analyze nest in
      let scratch = Simulator.scratch analysis in
      let alloc = Allocator.run Allocator.Cpa_ra analysis ~budget:64 in
      let fresh = Simulator.profile alloc in
      let warm = Simulator.profile ~scratch alloc in
      Alcotest.(check (list (pair int int)))
        (Printf.sprintf "%s profile" name)
        fresh warm;
      Alcotest.(check int)
        (Printf.sprintf "%s profile covers all iterations" name)
        (Srfa_ir.Nest.iterations nest)
        (List.fold_left (fun acc (_, n) -> acc + n) 0 warm))
    kernels

(* Whole-nest reference for Simulator.cycles_floor: every point of the
   nest, stepped by a fresh tracker, charges the groups whose slot rank
   is at least [beta_max] and costs the charged-path bound of that set. *)
let reference_floor analysis ~beta_max =
  let prepared =
    Cycle_model.prepare
      ~dfg:(Srfa_dfg.Graph.build analysis)
      ~latency:Simulator.default_config.Simulator.latency
  in
  let tracker = Analysis.Tracker.create analysis in
  let total = ref 0 in
  Srfa_ir.Iterspace.iter analysis.Analysis.nest (fun point ->
      Analysis.Tracker.step tracker point;
      let charged (g : Group.t) =
        Analysis.Tracker.slot_rank tracker g.Group.id >= beta_max
      in
      total := !total + Cycle_model.charged_path_bound prepared ~charged);
  !total

let test_floor_reference () =
  let inputs =
    List.concat_map
      (fun kernel -> kernel :: Helpers.variants kernel)
      (Helpers.small_kernels ())
    @ List.map
        (fun (id, nest) -> (Printf.sprintf "gen case %d" id, nest))
        (Helpers.gen_valid ~seed:42 ~cases:300)
  in
  List.iter
    (fun (name, nest) ->
      let analysis = Flow.analyze nest in
      let scratch = Simulator.scratch analysis in
      List.iter
        (fun beta_max ->
          Alcotest.(check int)
            (Printf.sprintf "%s beta_max %d" name beta_max)
            (reference_floor analysis ~beta_max)
            (Simulator.cycles_floor scratch ~beta_max))
        [ 1; 2; 3; 5; 8; 16; 64; max_int ])
    inputs

(* Warm evaluations must stay off the allocator: after one warming run,
   for every library kernel, both a scratch-threaded simulation and a
   whole warm evaluation (allocation from the prepared CPA-RA state, then
   that simulation) allocate under 100 kB. The boxed path allocated
   megabytes per evaluation. *)
let test_allocation_budget () =
  List.iter
    (fun (name, nest) ->
      let analysis = Flow.analyze nest in
      let prepared = Cpa_ra.prepare analysis in
      let scratch = Simulator.scratch ~dfg:(Cpa_ra.dfg prepared) analysis in
      let allocate () =
        Allocator.run ~prepared Allocator.Cpa_ra analysis ~budget:64
      in
      let alloc = allocate () in
      ignore (Simulator.run ~scratch alloc);
      let check what f =
        let _, spent = Helpers.allocated_bytes f in
        if spent >= 100_000.0 then
          Alcotest.failf "%s: warm %s allocated %.0f bytes (budget 100000)"
            name what spent
      in
      check "simulation" (fun () -> Simulator.run ~scratch alloc);
      check "evaluation" (fun () -> Simulator.run ~scratch (allocate ())))
    kernels

(* The in-window suffix's length: the product of the trip counts inside
   the outermost carrying level of any group with reuse. *)
let suffix_points analysis =
  let counts = Array.of_list (Srfa_ir.Nest.trip_counts analysis.Analysis.nest) in
  let depth = Array.length counts in
  let level =
    Array.fold_left
      (fun acc (i : Analysis.info) ->
        if i.Analysis.has_reuse then min acc i.Analysis.window_level else acc)
      depth analysis.Analysis.infos
  in
  Array.fold_left ( * ) 1 (Array.sub counts level (depth - level))

(* A cold scratch fills its rank cache without stepping the tracker:
   beyond the cache itself (suffix x groups words), a second build of
   each library kernel allocates under 200 kB. The tracked walk it
   replaced allocated 796 kB beyond the cache on imi. *)
let test_scratch_allocation () =
  List.iter
    (fun (name, nest) ->
      let analysis = Flow.analyze nest in
      let dfg = Cpa_ra.dfg (Cpa_ra.prepare analysis) in
      ignore (Simulator.scratch ~dfg analysis);
      let _, spent =
        Helpers.allocated_bytes (fun () -> Simulator.scratch ~dfg analysis)
      in
      let cache =
        suffix_points analysis * Analysis.num_groups analysis
        * (Sys.word_size / 8)
      in
      if spent -. float_of_int cache >= 200_000.0 then
        Alcotest.failf
          "%s: scratch build allocated %.0f bytes beyond its %d-byte rank \
           cache (budget 200000)"
          name (spent -. float_of_int cache) cache)
    kernels

let () =
  Alcotest.run "simulator_scratch"
    [
      ( "differential",
        [
          Alcotest.test_case "pinned: kernels x budgets vs boxed reference"
            `Quick test_differential_pinned;
          Alcotest.test_case "dynamic policies vs boxed reference" `Quick
            test_differential_dynamic;
          Alcotest.test_case "bytes-key memo fallback identical" `Quick
            test_mask_fallback;
          Alcotest.test_case "foreign scratch ignored" `Quick
            test_foreign_scratch_ignored;
          Alcotest.test_case "profile parity and coverage" `Quick
            test_profile_parity;
          Alcotest.test_case "cycle floor vs whole-nest reference" `Quick
            test_floor_reference;
        ] );
      ( "weighted walk",
        [
          Alcotest.test_case "extra kernels, example, reversed fir" `Quick
            test_weighted_kernels;
          Alcotest.test_case "tiled and permuted variants" `Quick
            test_weighted_variants;
          Alcotest.test_case "valid fuzz kernels" `Quick test_weighted_gen;
        ] );
      ( "allocation",
        [
          Alcotest.test_case "warm evaluation allocation budget" `Quick
            test_allocation_budget;
          Alcotest.test_case "cold scratch allocation budget" `Quick
            test_scratch_allocation;
        ] );
    ]
