(* Dump explore frontiers for a fixed input set, so two builds can be
   compared byte for byte:

     dune exec bench/dump/frontier_dump.exe > frontiers.txt

   Inputs: the ten kernels of perfbench's design workload at its sizes,
   and the first 60 valid fuzz kernels of campaign 42. Each input is
   explored serially under five spaces: the design workload's own
   (all orders, strip-mine factors 2 and 4, nine budgets, CPA-RA then
   the certified portfolio), the portfolio alone, every point certified
   (CPA-RA and PR-RA), the portfolio listed before CPA-RA, and the
   design space without pruning. Per run: the frontier JSON
   ([Flow.Core.frontier_json]) and a stats line. At one domain the stats
   are deterministic, so the dump also pins every prune decision and
   memo hit. *)

open Srfa_core
module K = Srfa_kernels.Kernels
module E = Srfa_kernels.Extra
module Helpers = Srfa_test_helpers.Helpers

(* perfbench/design.ml's kernel set and space. *)
let design_kernels =
  [
    ("example", K.example ());
    ("fir", K.fir ~taps:16 ~samples:256 ());
    ("dec-fir", K.dec_fir ~taps:16 ~samples:512 ~decimation:4 ());
    ("imi", K.imi ~width:24 ~height:24 ~frames:4 ());
    ("mat", K.mat ~size:12 ());
    ("pat", K.pat ~pattern:16 ~text:256 ());
    ("bic", K.bic ~template:4 ~image:16 ());
    ("conv2d", E.conv2d ~mask:3 ~image:24 ());
    ("corner-turn", E.corner_turn ~size:12 ());
    ("moving-average", E.moving_average ~window:8 ~samples:256 ());
  ]

let design_space =
  {
    Flow.Core.default_space with
    Flow.Core.tile_factors = [ 2; 4 ];
    space_budgets = [ 8; 12; 16; 24; 32; 48; 64; 96; 128 ];
    space_algorithms = [ Allocator.Cpa_ra; Allocator.Portfolio ];
  }

let spaces =
  [
    ("design", design_space);
    ( "portfolio",
      { design_space with Flow.Core.space_algorithms = [ Allocator.Portfolio ] }
    );
    ( "certify",
      {
        design_space with
        Flow.Core.certify = true;
        space_algorithms = [ Allocator.Cpa_ra; Allocator.Pr_ra ];
      } );
    ( "portfolio-first",
      {
        design_space with
        Flow.Core.space_algorithms = [ Allocator.Portfolio; Allocator.Cpa_ra ];
      } );
    ("exhaustive", { design_space with Flow.Core.prune = false });
  ]

let dump (name, nest) =
  List.iter
    (fun (space_name, space) ->
      let f = Flow.Core.explore ~space Flow.Core.default_config nest in
      let s = f.Flow.Core.frontier_stats in
      Printf.printf "%s\t%s\t%s\n" name space_name
        (Flow.Core.frontier_json f);
      Printf.printf
        "%s\t%s\tstats variants=%d pruned_variants=%d evaluated=%d \
         pruned=%d memo_hits=%d\n"
        name space_name s.Flow.Core.variants_unique s.Flow.Core.variants_pruned
        s.Flow.Core.points_evaluated s.Flow.Core.points_pruned
        s.Flow.Core.sim_memo_hits)
    spaces

let () =
  let gen =
    List.filteri (fun i _ -> i < 60) (Helpers.gen_valid ~seed:42 ~cases:1000)
  in
  List.iter dump
    (design_kernels
    @ List.map (fun (id, nest) -> (Printf.sprintf "gen %d" id, nest)) gen)
