(** A string-keyed LRU map with a byte-cost budget.

    Each of the serving cache's four namespaces needs the same policy —
    keep the most recently used entries, bound the total {e cost} (bytes,
    not entry count), evict from the cold end — so the policy lives here
    as a standalone structure instead of being buried in the server. Costs are
    supplied per value at {!add} time and accounted exactly: the sum of
    the costs of the resident entries never exceeds the capacity.

    Not thread-safe: the cache owns one per namespace, and the server
    mutates them from its accept loop only. *)

type 'v t

val create : capacity:int -> 'v t
(** [create ~capacity] holds entries while their summed cost is at most
    [capacity] bytes. A non-positive capacity is the degenerate cache:
    every {!add} is accepted and immediately evicted, {!find} never
    hits — callers get a uniform code path, just with no retention. *)

val length : 'v t -> int
(** Resident entry count. *)

val used : 'v t -> int
(** Summed cost of the resident entries; never more than [max 0 capacity]. *)

val find : 'v t -> string -> 'v option
(** [find t k] returns the resident value and makes [k] the most recently
    used entry; [None] counts as a miss. *)

val mem : 'v t -> string -> bool
(** Like {!find} but without touching recency (a peek). *)

val add : 'v t -> string -> cost:int -> 'v -> (string * 'v) list
(** [add t k ~cost v] inserts (or replaces) [k] as the most recently used
    entry and returns the entries evicted to make room, coldest first.
    Replacing a key re-accounts its cost. A value whose cost exceeds the
    whole capacity is evicted immediately (it is returned in the list and
    is not resident); negative costs clamp to 0. *)

val remove : 'v t -> string -> unit

val hits : 'v t -> int
val misses : 'v t -> int
val evictions : 'v t -> int
(** Lifetime counters: {!find} outcomes and entries evicted by {!add}
    (explicit {!remove}s are not evictions). *)

val to_alist : 'v t -> (string * 'v) list
(** Resident entries, most recently used first (no recency effect). *)
