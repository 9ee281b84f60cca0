(* perfbench — the repository benchmark. Runs one workload for a fixed
   time and prints, as its last stdout line, one JSON object with the
   end-to-end metrics (--trace 0) or the per-layer metrics of a separate
   traced run (--trace 1). Exits 1 when any output check fails. See
   README.md in this directory. *)

let usage =
  "perfbench --workload compile|design|serve --seed N --seconds S --trace 0|1 \
   [--out DIR] [--daemon PATH] [--commit ID]"

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 in
  let trace = ref 0 and out_dir = ref "." and commit = ref "unknown" in
  let daemon = ref "_build/default/bin/srfa_serve.exe" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME compile, design or serve");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measured time");
      ("--trace", Arg.Set_int trace, "0|1 traced run");
      ("--out", Arg.Set_string out_dir, "DIR span JSONL and socket directory");
      ("--daemon", Arg.Set_string daemon, "PATH srfa_serve.exe");
      ("--commit", Arg.Set_string commit, "ID source revision to stamp");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  let s =
    {
      Common.seed = !seed;
      seconds = !seconds;
      trace = !trace = 1;
      out_dir = !out_dir;
      daemon = !daemon;
      commit = !commit;
    }
  in
  let run =
    match !workload with
    | "compile" -> Compile.run
    | "design" -> Design.run
    | "serve" -> Serve.run
    | w ->
      prerr_endline ("perfbench: unknown workload " ^ w ^ "\n" ^ usage);
      exit 2
  in
  print_endline (Common.stamp s ~workload:!workload);
  let o = run s in
  print_endline (Common.result_line o);
  exit (if o.Common.failed = 0 then 0 else 1)
