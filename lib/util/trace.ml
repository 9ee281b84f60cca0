type value =
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of value list

type event = { name : string; fields : (string * value) list }

type sink = Null | Fn of (event -> unit)

let null = Null
let enabled = function Null -> false | Fn _ -> true
let make f = Fn f
let emit sink thunk = match sink with Null -> () | Fn f -> f (thunk ())
let event name fields = { name; fields }

(* Collectors are shared across domains (a sweep worker and the
   event-model second opinion can emit into the same sink), so the event
   list is mutex-guarded. Uncontended lock/unlock is nanoseconds —
   nothing next to building an event — and the null sink still costs
   zero. *)
let collector () =
  let acc = ref [] in
  let m = Mutex.create () in
  let push e =
    Mutex.lock m;
    acc := e :: !acc;
    Mutex.unlock m
  in
  let events () =
    Mutex.lock m;
    let es = !acc in
    Mutex.unlock m;
    List.rev es
  in
  (Fn push, events)

(* Per-task buffering for deterministic parallel traces: each task owns
   its buffer (single-domain, no lock needed), and the coordinator
   splices the buffers into the real sink in task order once the tasks
   have been joined — the splice order, not the execution order, is what
   the stream shows. *)
let buffered () =
  let acc = ref [] in
  let sink = Fn (fun e -> acc := e :: !acc) in
  let splice target =
    List.iter (fun e -> emit target (fun () -> e)) (List.rev !acc)
  in
  (sink, splice)

(* ---- JSON rendering --------------------------------------------------- *)

let rec json_of_value = function
  | Bool b -> Json.Bool b
  | Int i -> Json.Int i
  | Float f ->
    if Float.is_finite f then Json.Raw (Printf.sprintf "%.6g" f) else Json.Null
  | String s -> Json.Str s
  | List vs -> Json.Arr (List.map json_of_value vs)

let to_json e =
  Json.to_string
    (Json.Obj
       (("event", Json.Str e.name)
       :: List.map (fun (k, v) -> (k, json_of_value v)) e.fields))

let channel oc =
  Fn
    (fun e ->
      output_string oc (to_json e);
      output_char oc '\n')

let summary events =
  match events with
  | [] -> "no events"
  | _ ->
    (* Count by name, preserving first-appearance order. *)
    let order = ref [] in
    let counts = Hashtbl.create 8 in
    List.iter
      (fun e ->
        match Hashtbl.find_opt counts e.name with
        | Some n -> Hashtbl.replace counts e.name (n + 1)
        | None ->
          Hashtbl.add counts e.name 1;
          order := e.name :: !order)
      events;
    let parts =
      List.rev_map
        (fun name -> Printf.sprintf "%d %s" (Hashtbl.find counts name) name)
        !order
    in
    Printf.sprintf "%d events: %s" (List.length events)
      (String.concat ", " parts)
