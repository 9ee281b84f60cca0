(* The command line both dumps share. With no argument a dump prints
   every input's lines. [--digests] prints one MD5 per input instead,
   over that input's lines, and [--check FILE] compares them with FILE,
   naming every input whose lines moved. [--check FILE --skip A,B]
   leaves the named inputs out: they are neither dumped nor missed. *)

let digests dump inputs =
  List.map
    (fun ((name, _) as input) ->
      (name, Digest.to_hex (Digest.string (dump input))))
    inputs

(* Each line of [file] is "<md5>\t<input name>". *)
let check ~tool ~dump ~skip inputs file =
  let pinned =
    List.filter_map
      (fun line ->
        match String.index_opt line '\t' with
        | Some i ->
          let name = String.sub line (i + 1) (String.length line - i - 1) in
          if List.mem name skip then None
          else Some (name, String.sub line 0 i)
        | None -> failwith (Printf.sprintf "%s: malformed line %S" file line))
      (In_channel.with_open_bin file In_channel.input_lines)
  in
  let current =
    digests dump (List.filter (fun (name, _) -> not (List.mem name skip)) inputs)
  in
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
    Printf.printf "%s: %d of %d inputs moved:\n" tool (List.length moved)
      (List.length current);
    List.iter (Printf.printf "  %s\n") moved;
    Printf.printf
      "Diff the output of `dune exec bench/dump/%s.exe` against\n\
       its output at the parent commit. If every moved line is meant to\n\
       move, re-pin with\n\
      \  dune exec bench/dump/%s.exe -- --digests > bench/dump/%s.md5\n\
       and name the moved inputs in CHANGES.md.\n"
      tool tool tool;
    exit 1
  end

(* [dump input] is that input's lines; [inputs] are (name, input). *)
let main ~tool ~dump inputs =
  match Sys.argv with
  | [| _ |] -> List.iter (fun input -> print_string (dump input)) inputs
  | [| _; "--digests" |] ->
    List.iter
      (fun (name, d) -> Printf.printf "%s\t%s\n" d name)
      (digests dump inputs)
  | [| _; "--check"; file |] -> check ~tool ~dump ~skip:[] inputs file
  | [| _; "--check"; file; "--skip"; names |] ->
    check ~tool ~dump ~skip:(String.split_on_char ',' names) inputs file
  | _ ->
    Printf.eprintf "usage: %s.exe [--digests | --check FILE [--skip A,B]]\n"
      tool;
    exit 2
