(* Doubly-linked recency list threaded through a hash table. The list
   head is the most recently used entry, the tail the eviction victim;
   every operation is O(1) apart from eviction cascades, which are paid
   for by the entries they remove. *)

type 'v node = {
  key : string;
  mutable value : 'v;
  mutable cost : int;
  mutable prev : 'v node option;
  mutable next : 'v node option;
}

type 'v t = {
  capacity : int;
  table : (string, 'v node) Hashtbl.t;
  mutable head : 'v node option;
  mutable tail : 'v node option;
  mutable used : int;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
}

let create ~capacity =
  {
    capacity;
    table = Hashtbl.create 64;
    head = None;
    tail = None;
    used = 0;
    hits = 0;
    misses = 0;
    evictions = 0;
  }

let length t = Hashtbl.length t.table
let used t = t.used
let hits t = t.hits
let misses t = t.misses
let evictions t = t.evictions

let unlink t n =
  (match n.prev with Some p -> p.next <- n.next | None -> t.head <- n.next);
  (match n.next with Some s -> s.prev <- n.prev | None -> t.tail <- n.prev);
  n.prev <- None;
  n.next <- None

let push_front t n =
  n.next <- t.head;
  n.prev <- None;
  (match t.head with Some h -> h.prev <- Some n | None -> t.tail <- Some n);
  t.head <- Some n

let find t k =
  match Hashtbl.find_opt t.table k with
  | None ->
    t.misses <- t.misses + 1;
    None
  | Some n ->
    t.hits <- t.hits + 1;
    unlink t n;
    push_front t n;
    Some n.value

let mem t k = Hashtbl.mem t.table k

let drop t n =
  unlink t n;
  Hashtbl.remove t.table n.key;
  t.used <- t.used - n.cost

let remove t k =
  match Hashtbl.find_opt t.table k with None -> () | Some n -> drop t n

(* Evict from the tail until the budget holds again. The newly inserted
   node is not exempt: over-capacity values fall straight out, which is
   what makes the zero-capacity degenerate cache a plain pass-through. *)
let rebalance t =
  let budget = max 0 t.capacity in
  let rec go acc =
    if t.used <= budget then acc
    else
      match t.tail with
      | None -> acc
      | Some n ->
        drop t n;
        t.evictions <- t.evictions + 1;
        go ((n.key, n.value) :: acc)
  in
  (* The tail is dropped first, so reversing yields coldest first. *)
  List.rev (go [])

let add t k ~cost v =
  let cost = max 0 cost in
  (match Hashtbl.find_opt t.table k with
  | Some n ->
    t.used <- t.used - n.cost + cost;
    n.value <- v;
    n.cost <- cost;
    unlink t n;
    push_front t n
  | None ->
    let n = { key = k; value = v; cost; prev = None; next = None } in
    Hashtbl.add t.table k n;
    t.used <- t.used + cost;
    push_front t n);
  rebalance t

let to_alist t =
  let rec go acc = function
    | None -> List.rev acc
    | Some n -> go ((n.key, n.value) :: acc) n.next
  in
  go [] t.head
