open Srfa_reuse

type policy = Pinned | Lru | Direct_mapped

let policy_name = function
  | Pinned -> "pinned"
  | Lru -> "lru"
  | Direct_mapped -> "direct"

let policy_of_name = function
  | "pinned" -> Some Pinned
  | "lru" -> Some Lru
  | "direct" | "direct-mapped" -> Some Direct_mapped
  | _ -> None

(* LRU over distinct element ids with capacity [beta]: a timestamped map
   suffices at these sizes (beta <= a few hundred). *)
type lru = {
  mutable clock : int;
  stamps : (int, int) Hashtbl.t; (* element -> last-touch time *)
  capacity : int;
}

let lru_create capacity = { clock = 0; stamps = Hashtbl.create 64; capacity }

let lru_touch l e =
  let hit = Hashtbl.mem l.stamps e in
  l.clock <- l.clock + 1;
  if hit then Hashtbl.replace l.stamps e l.clock
  else begin
    if Hashtbl.length l.stamps >= l.capacity then begin
      (* Evict the stalest entry. *)
      let victim = ref (-1) and oldest = ref max_int in
      Hashtbl.iter
        (fun e' t ->
          if t < !oldest then begin
            oldest := t;
            victim := e'
          end)
        l.stamps;
      if !victim >= 0 then Hashtbl.remove l.stamps !victim
    end;
    Hashtbl.replace l.stamps e l.clock
  end;
  hit

(* Only the pinned discipline reads slot ranks, so only it builds and
   steps a tracker; the dynamic policies key their state on element
   indices. *)
type states =
  | Pinned_states of Analysis.Tracker.tracker
  | Lru_states of lru array
  | Direct_states of int array array
      (* per group: slot -> element id currently held, -1 empty *)

type t = {
  allocation : Allocation.t;
  states : states;
  mutable point : int array;
}

let create policy allocation =
  let analysis = allocation.Allocation.analysis in
  let groups = Analysis.num_groups analysis in
  let slots gid = max (Allocation.beta allocation gid) 1 in
  let states =
    match policy with
    | Pinned -> Pinned_states (Analysis.Tracker.create analysis)
    | Lru -> Lru_states (Array.init groups (fun gid -> lru_create (slots gid)))
    | Direct_mapped ->
      Direct_states
        (Array.init groups (fun gid -> Array.make (slots gid) (-1)))
  in
  { allocation; states; point = [||] }

let step t point =
  (match t.states with
  | Pinned_states tracker -> Analysis.Tracker.step tracker point
  | Lru_states _ | Direct_states _ -> ());
  t.point <- point

let element t gid =
  Analysis.element_index
    (Analysis.info t.allocation.Allocation.analysis gid)
    t.point

let resident t gid =
  match t.states with
  | Pinned_states tracker ->
    let e = Allocation.entry t.allocation gid in
    Analysis.Tracker.resident tracker gid ~beta:e.Allocation.beta
      ~pinned:e.Allocation.pinned
  | Lru_states lrus -> lru_touch lrus.(gid) (element t gid)
  | Direct_states slots ->
    let slots = slots.(gid) and e = element t gid in
    let slot = e mod Array.length slots in
    let hit = slots.(slot) = e in
    slots.(slot) <- e;
    hit
