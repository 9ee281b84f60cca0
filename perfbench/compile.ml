(* The [compile] workload: one-shot cold compiles of distinct kernels, the
   wait of an `srfa alloc` / `srfa check` user. Every kernel arrives as
   source text and nothing is cached between operations, so the
   budget-independent layers (frontend, reuse, dfg, the simulator scratch)
   carry a large share of the work. *)

open Common
open Srfa_core
module K = Srfa_kernels.Kernels
module E = Srfa_kernels.Extra
module Parser = Srfa_frontend.Parser
module Protocol = Srfa_server.Protocol

(* Each family: parameter ranges and the constructor. Ranges keep every
   kernel under ~50k iterations so the untimed equivalence check stays
   cheap; the spread of sizes still runs from sub-millisecond to tens of
   milliseconds per compile. *)
let families =
  let p = List.nth in
  [
    ("fir", [ (4, 40); (128, 768) ], fun v -> K.fir ~taps:(p v 0) ~samples:(p v 1) ());
    ( "dec-fir",
      [ (8, 48); (256, 1024); (2, 4) ],
      fun v -> K.dec_fir ~taps:(p v 0) ~samples:(p v 1) ~decimation:(p v 2) () );
    ("mat", [ (6, 24) ], fun v -> K.mat ~size:(p v 0) ());
    ( "imi",
      [ (12, 40); (12, 40); (2, 6) ],
      fun v -> K.imi ~width:(p v 0) ~height:(p v 1) ~frames:(p v 2) () );
    ("pat", [ (8, 40); (96, 640) ], fun v -> K.pat ~pattern:(p v 0) ~text:(p v 1) ());
    ("bic", [ (3, 7); (12, 32) ], fun v -> K.bic ~template:(p v 0) ~image:(p v 1) ());
    ("conv2d", [ (3, 5); (12, 40) ], fun v -> E.conv2d ~mask:(p v 0) ~image:(p v 1) ());
    ( "moving-average",
      [ (4, 32); (96, 768) ],
      fun v -> E.moving_average ~window:(p v 0) ~samples:(p v 1) () );
    ("corner-turn", [ (6, 20) ], fun v -> E.corner_turn ~size:(p v 0) ());
    ("gradient-pair", [ (6, 32) ], fun v -> E.gradient_pair ~size:(p v 0) ());
  ]

let per_family = 20

(* The seeded input set: [per_family] distinct variants of each family
   plus the Fig. 1 example, rendered to source, deduplicated on the
   canonical-source digest (a collision is redrawn). *)
let inputs seed =
  let rng = Prng.create ~seed in
  let seen = Hashtbl.create 128 in
  let add nest =
    let digest = Stages.canonical_digest nest in
    if Hashtbl.mem seen digest then false
    else begin
      Hashtbl.add seen digest ();
      true
    end
  in
  let example = K.example () in
  ignore (add example);
  let drawn =
    List.concat_map
      (fun (_, ranges, build) ->
        let rec draw acc attempt =
          let fresh = List.filter add (List.map build (stratified rng ~n:per_family ranges)) in
          let acc = acc @ fresh in
          if List.length acc >= per_family || attempt = 5 then
            List.filteri (fun i _ -> i < per_family) acc
          else draw acc (attempt + 1)
        in
        draw [] 0)
      families
  in
  Array.of_list (List.map source (example :: drawn))

let algorithms = [ Allocator.Cpa_ra; Allocator.Portfolio ]

(* One operation through the library's one-call entry points; the
   rendered reports, CPA-RA then portfolio. *)
let compile src =
  match Parser.parse_result src with
  | Error _ -> None
  | Ok nest ->
    let config = Stages.config_at 64 in
    let prepared = Flow.Core.prepare nest in
    let sim_scratch = Flow.Core.scratch ~config prepared in
    let render alg =
      match Flow.Core.checked_prepared ~sim_scratch config alg prepared with
      | Ok (report, _) -> Some (Protocol.json_of_report report)
      | Error _ -> None
    in
    let rendered = List.filter_map render algorithms in
    if List.length rendered = List.length algorithms then Some rendered
    else None

(* The same operation, one layer at a time. *)
let compile_staged src =
  match Stages.parse src with
  | Error _ -> None
  | Ok nest ->
    let config = Stages.config_at 64 in
    let p = Stages.prepare nest in
    let scratch = Stages.scratch config p in
    Some
      (List.map
         (fun alg -> Stages.render (Stages.checked config alg p scratch))
         algorithms)

let init _name coords =
  (Array.fold_left (fun acc c -> (acc * 31) + c + 7) 3 coords mod 251) - 125

(* Untimed, once per distinct kernel: the certified portfolio is never
   slower than FR-RA or PR-RA at the same budget, and the CPA-RA plan's
   scalar-replaced execution equals the reference interpreter. *)
let check_kernel t src =
  match Parser.parse_result src with
  | Error _ -> check t "compile: kernel parses" false
  | Ok nest ->
    let config = Stages.config_at 64 in
    let prepared = Flow.Core.prepare nest in
    let cycles alg =
      match Flow.Core.checked_prepared config alg prepared with
      | Ok (r, _) -> r.Srfa_estimate.Report.cycles
      | Error _ -> -1
    in
    let pf = cycles Allocator.Portfolio in
    let fr = cycles Allocator.Fr_ra and pr = cycles Allocator.Pr_ra in
    check t
      ("compile: portfolio <= min(FR-RA, PR-RA) on " ^ nest.Srfa_ir.Nest.name)
      (pf >= 0 && fr >= 0 && pr >= 0 && pf <= min fr pr);
    let alloc =
      Flow.Core.allocation ~config ~prepared:prepared.Flow.Core.cpa
        Allocator.Cpa_ra prepared.Flow.Core.analysis
    in
    check t
      ("compile: CPA-RA plan equivalent on " ^ nest.Srfa_ir.Nest.name)
      (Srfa_codegen.Exec_check.equivalent (Srfa_codegen.Plan.build alloc) ~init)

(* Set-up: one warm-up pass over each family's smallest member, so heap
   growth and first-touch costs land before the clock starts. *)
let warm_up () =
  let smallest (_, ranges, build) = build (List.map fst ranges) in
  List.iter
    (fun f -> ignore (compile (source (smallest f))))
    families

let run (s : settings) =
  let t = tally () in
  let sources = inputs s.seed in
  let setup_s = setup_time 7 warm_up in
  run_common_checks s t;
  let loop =
    rounds s t ~what:"compile" ~n:(Array.length sources)
      ~run:(fun i -> (compile sources.(i), 1))
      ~staged:(fun i -> compile_staged sources.(i))
  in
  let peak = peak_rss_kb "self" in
  Array.iter (check_kernel t) sources;
  write_spans s ~workload:"compile";
  {
    attempted = t.attempted;
    failed = t.failed;
    metrics = loop_metrics s ~setup_s ~peak loop;
  }
