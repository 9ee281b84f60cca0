(* Dump every report the pipeline produces for a fixed input set, one
   line each, so two builds can be compared byte for byte:

     dune exec bench/dump/report_dump.exe > reports.txt

   [--digests] prints one MD5 per input instead, over that input's
   lines, and [--check FILE] compares them with FILE, naming every input
   whose lines moved. report_dump.md5 holds the pinned digests, and
   `dune runtest` checks them. After an intended change to reports,
   diff the full dump against the parent's, then re-pin:

     dune exec bench/dump/report_dump.exe -- --digests \
       > bench/dump/report_dump.md5

   Inputs: the library and Extra kernels and the Fig. 1 example at
   default and smaller sizes, every legal factor-2 strip-mine and every
   legal interchange of each, and the valid fuzz kernels among case ids
   0-999 of campaign 42. Per input: each group's analysis quantities;
   then, for every algorithm at budgets 4/8/16/64/128, the report as the
   daemon renders it ([Protocol.json_of_report], plus warnings) or the
   error diagnostics; and CPA-RA's per-iteration cost profile. *)

open Srfa_core
module K = Srfa_kernels.Kernels
module E = Srfa_kernels.Extra
module Diag = Srfa_util.Diag
module Helpers = Srfa_test_helpers.Helpers

let budgets = [ 4; 8; 16; 64; 128 ]

let defaults = K.all () @ [ ("example", K.example ()) ] @ E.all ()

let smaller =
  [
    ("small fir", K.fir ~taps:8 ~samples:64 ());
    ("small dec-fir", K.dec_fir ~taps:12 ~samples:96 ~decimation:3 ());
    ("small imi", K.imi ~width:12 ~height:10 ~frames:3 ());
    ("small mat", K.mat ~size:8 ());
    ("small pat", K.pat ~pattern:8 ~text:48 ());
    ("small bic", K.bic ~template:4 ~image:12 ());
    ("small conv2d", E.conv2d ~mask:3 ~image:10 ());
    ("small moving-average", E.moving_average ~window:6 ~samples:48 ());
    ("small corner-turn", E.corner_turn ~size:6 ());
    ("small gradient-pair", E.gradient_pair ~size:8 ());
  ]

let diags ds = "[" ^ String.concat ", " (List.map Diag.to_json ds) ^ "]"

(* One input's lines. *)
let dump (name, nest) =
  let b = Buffer.create 4096 in
  let prepared = Flow.Core.prepare nest in
  Array.iter
    (fun i ->
      Printf.bprintf b "%s\tinfo\t%s\n" name
        (Format.asprintf "%a" Srfa_reuse.Analysis.pp_info i))
    prepared.Flow.Core.analysis.Srfa_reuse.Analysis.infos;
  let sim_scratch =
    Flow.Core.scratch ~config:Flow.Core.default_config prepared
  in
  List.iter
    (fun budget ->
      let config = { Flow.Core.default_config with Flow.Core.budget } in
      List.iter
        (fun algorithm ->
          let line =
            match
              Flow.Core.checked_prepared ~sim_scratch config algorithm prepared
            with
            | Ok (report, warnings) ->
              Srfa_server.Protocol.json_of_report report ^ "\t" ^ diags warnings
            | Error ds -> "error\t" ^ diags ds
          in
          Printf.bprintf b "%s\t%s\t%d\t%s\n" name (Allocator.name algorithm)
            budget line)
        Allocator.all;
      if budget >= prepared.Flow.Core.minimum then begin
        let alloc =
          Allocator.run ~prepared:prepared.Flow.Core.cpa Allocator.Cpa_ra
            prepared.Flow.Core.analysis ~budget
        in
        Printf.bprintf b "%s\tprofile\t%d\t%s\n" name budget
          (String.concat " "
             (List.map
                (fun (cost, n) -> Printf.sprintf "%d:%d" cost n)
                (Srfa_sched.Simulator.profile ~scratch:sim_scratch alloc)))
      end)
    budgets;
  Buffer.contents b

let inputs =
  List.concat_map
    (fun kernel -> kernel :: Helpers.variants kernel)
    (defaults @ smaller)
  @ List.map
      (fun (id, nest) -> (Printf.sprintf "gen %d" id, nest))
      (Helpers.gen_valid ~seed:42 ~cases:1000)

(* (input name, MD5 of its lines), in dump order. *)
let digests () =
  List.map
    (fun ((name, _) as input) ->
      (name, Digest.to_hex (Digest.string (dump input))))
    inputs

(* Each line of [file] is "<md5>\t<input name>". *)
let check file =
  let pinned =
    List.map
      (fun line ->
        match String.index_opt line '\t' with
        | Some i ->
          (String.sub line (i + 1) (String.length line - i - 1),
           String.sub line 0 i)
        | None -> failwith (Printf.sprintf "%s: malformed line %S" file line))
      (In_channel.with_open_bin file In_channel.input_lines)
  in
  let current = digests () in
  let moved =
    List.filter_map
      (fun (name, d) ->
        match List.assoc_opt name pinned with
        | Some p when p = d -> None
        | Some _ -> Some name
        | None -> Some (name ^ " (not pinned)"))
      current
    @ List.filter_map
        (fun (name, _) ->
          if List.mem_assoc name current then None
          else Some (name ^ " (no longer dumped)"))
        pinned
  in
  if moved <> [] then begin
    Printf.printf "report dump: %d of %d inputs moved:\n" (List.length moved)
      (List.length current);
    List.iter (Printf.printf "  %s\n") moved;
    print_string
      "Diff the output of `dune exec bench/dump/report_dump.exe` against\n\
       its output at the parent commit. If every moved line is meant to\n\
       move, re-pin with\n\
      \  dune exec bench/dump/report_dump.exe -- --digests \
       > bench/dump/report_dump.md5\n\
       and name the moved inputs in CHANGES.md.\n";
    exit 1
  end

let () =
  match Sys.argv with
  | [| _ |] -> List.iter (fun input -> print_string (dump input)) inputs
  | [| _; "--digests" |] ->
    List.iter (fun (name, d) -> Printf.printf "%s\t%s\n" d name) (digests ())
  | [| _; "--check"; file |] -> check file
  | _ ->
    prerr_endline "usage: report_dump.exe [--digests | --check FILE]";
    exit 2
