(* In-memory span recorder for the traced run.

   A span is one call into a library layer, wrapped by the benchmark's own
   code: name, monotonic start and end in ns, the enclosing span, and the
   operation it belongs to. Self time (duration minus the time covered by
   child spans) is aggregated per name as spans close, so a long traced run
   costs a bounded amount of memory; the first [keep] spans are also kept
   verbatim and written as JSONL at the end. When recording is off, [span]
   is a plain call. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

type span = {
  id : int;
  parent : int;  (** -1 at top level *)
  op : int;
  name : string;
  start_ns : int;
  end_ns : int;
}

type agg = { mutable calls : int; mutable self_ns : int }

type frame = { fid : int; mutable child_ns : int }

let on = ref false
let keep = 100_000
let kept : span list ref = ref []
let kept_count = ref 0
let stack : frame list ref = ref []
let next_id = ref 0
let current_op = ref 0
let aggs : (string, agg) Hashtbl.t = Hashtbl.create 64

let set_op op = current_op := op

let agg name =
  match Hashtbl.find_opt aggs name with
  | Some a -> a
  | None ->
    let a = { calls = 0; self_ns = 0 } in
    Hashtbl.add aggs name a;
    a

let span name f =
  if not !on then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent = match !stack with p :: _ -> p.fid | [] -> -1 in
    let frame = { fid = id; child_ns = 0 } in
    stack := frame :: !stack;
    let start_ns = now_ns () in
    let close () =
      let end_ns = now_ns () in
      let dur = end_ns - start_ns in
      stack := List.tl !stack;
      (match !stack with p :: _ -> p.child_ns <- p.child_ns + dur | [] -> ());
      let a = agg name in
      a.calls <- a.calls + 1;
      a.self_ns <- a.self_ns + (dur - frame.child_ns);
      if !kept_count < keep then begin
        incr kept_count;
        kept := { id; parent; op = !current_op; name; start_ns; end_ns } :: !kept
      end
    in
    match f () with
    | v ->
      close ();
      v
    | exception e ->
      close ();
      raise e
  end

(* Mean self time per call in ns; 0 for a layer the run never entered. *)
let self_per_call name =
  match Hashtbl.find_opt aggs name with
  | Some a when a.calls > 0 -> float_of_int a.self_ns /. float_of_int a.calls
  | _ -> 0.0

let total_self_ns () = Hashtbl.fold (fun _ a acc -> acc + a.self_ns) aggs 0

let write_jsonl path =
  let oc = open_out path in
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"id\": %d, \"parent\": %d, \"op\": %d, \"name\": \"%s\", \
         \"start_ns\": %d, \"end_ns\": %d}\n"
        s.id s.parent s.op s.name s.start_ns s.end_ns)
    (List.rev !kept);
  close_out oc
