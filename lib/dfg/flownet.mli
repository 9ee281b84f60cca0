(** Dinic's max-flow, and the node-split construction that turns a
    minimum-weight vertex cut of a DAG into a max-flow instance.

    This is the polynomial engine behind {!Cut.cheapest_answer}: every
    vertex [u] becomes an arc [in(u) -> out(u)] carrying the vertex's
    weight (or {!inf} for vertices that may not be cut), every DAG edge
    [u -> v] becomes an infinite arc [out(u) -> in(v)], and a
    super-source/sink pair is wired to the given source and sink
    vertices. By max-flow/min-cut
    duality, the value of the maximum flow equals the weight of the
    cheapest vertex set whose removal disconnects every source-to-sink
    path — in O(V^2 E) instead of the exponential subset enumeration. *)

type t

val inf : int
(** Capacity standing in for "this arc may never be cut". Large enough
    that no sum of real cut weights reaches it, small enough that a few
    additions cannot overflow. *)

val create : int -> t
(** A flow network over nodes [0 .. n-1] with no edges.
    @raise Invalid_argument when [n <= 0]. *)

val add_edge : t -> int -> int -> int -> int
(** [add_edge t u v cap] adds a directed edge and returns its id (the
    reverse residual edge is implicit). @raise Invalid_argument on bad
    endpoints or negative capacity. *)

val set_cap : t -> int -> int -> unit
(** Reassign the capacity of an edge by id. Takes effect on the next
    {!max_flow} run (runs always restart from the configured capacities,
    so a network can be re-solved under many assignments). *)

type stats = {
  runs : int;           (** {!max_flow} invocations *)
  phases : int;         (** BFS level-graph constructions across all runs *)
  augmenting_paths : int;  (** successful blocking-flow pushes *)
}

val stats : t -> stats
(** Cumulative work counters since {!create}. {!Cut.cheapest_answer}
    reads them before and after a query to report how much max-flow
    effort the cut decision cost (the delta goes into the decision
    trace). *)

exception Work_limit_exceeded of stats
(** Raised by {!max_flow} when [work_limit] is exhausted; carries the
    counters at the moment the guard tripped. *)

val max_flow : ?limit:int -> ?work_limit:int -> t -> source:int -> sink:int -> int
(** Maximum [source]-to-[sink] flow value. When [limit] is given the run
    stops as soon as the accumulated flow exceeds it and returns that
    partial value — callers that only need to know whether the min cut is
    still [limit] use this to keep intermediate values bounded (no
    overflow from {!inf} arcs) and to skip useless work.

    [work_limit] is a resource guard: a budget of work units (one per BFS
    phase plus one per augmenting path, measured cumulatively on this
    network's {!stats} counters) beyond which the run abandons the
    computation with {!Work_limit_exceeded} instead of running away on a
    pathological instance. Default: unlimited.
    @raise Work_limit_exceeded when the budget runs out. *)

(** A vertex-cut instance built by {!split_nodes}. [node_arc.(u)] is the
    edge id of the [in(u) -> out(u)] arc, whose capacity is the vertex
    weight — reassign it with {!set_cap} to force a vertex in or out of
    the cut. *)
type split = { net : t; source : int; sink : int; node_arc : int array }

val split_nodes :
  n:int ->
  succs:int list array ->
  sources:int list ->
  sinks:int list ->
  cap:(int -> int) ->
  split
(** Node-split network of a DAG on vertices [0 .. n-1]. [cap u] is the
    cost of cutting vertex [u] ({!inf} for uncuttable vertices). *)
