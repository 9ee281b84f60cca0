(** The daemon's content-addressed cache: one store of four typed
    namespaces ({!ns}), each a byte-bounded {!Srfa_util.Lru} with its own
    key material and trace tier number.

    - Tier 1, {!Analyses}: hash(canonical kernel source, device) to
      every budget-independent product of the kernel — the parsed IR,
      the {!Srfa_reuse.Analysis}, the DFG and the prepared cycle model,
      bundled as a {!Srfa_core.Flow.Core.prepared} plus a warm simulator
      scratch.
    - Tier 2, {!Reports}: hash(tier-1 key, algorithm, budget, guard
      override) to a finished report and its rendered response body.
    - Tier 3, {!Sessions}: hash(tier-1 key, "rebudget", stream name) to
      a live, mutable {!Srfa_core.Flow.Core.rebudget_session}
      (DESIGN.md §16).
    - Tier 4, {!Frontiers}: hash(tier-1 key, "explore", canonical space
      spec) to a finished design-space frontier (DESIGN.md §17).

    Tiers 1 and 2 split along the paper's observation that the reuse
    analysis is budget-independent: a budget ladder over a cached kernel
    pays for analysis once and then only for allocation + simulation,
    and a repeated request pays for neither.

    {!find} and {!insert} trace [cache.hit] / [cache.miss] /
    [cache.evict] / [fault.cache.insert] events with fields [tier] (the
    number above) and [key]. The cache is single-owner: the server
    mutates it from the accept loop only and hands tier-1 entries to at
    most one worker domain at a time (see {!Server}). Rebudget steps run
    on the accept thread itself, which lets a session share its tier-1
    entry's scratch without racing the pooled compute. Key scheme:
    DESIGN.md §14. *)

module Flow = Srfa_core.Flow
module Allocator = Srfa_core.Allocator
module Diag = Srfa_util.Diag

val scheme_version : string
(** Folded into every digest; bump on any key-material change. The
    test_serve goldens pin the resulting kernel digests. *)

val tier1_key : device:Srfa_hw.Device.t -> string -> string
(** [tier1_key ~device canonical_source] — hex MD5 of the scheme
    version, device name and canonical source. *)

val tier2_key :
  tier1:string -> algorithm:Allocator.algorithm -> budget:int ->
  cut_work_limit:int option -> string

(** A protocol request resolved against the kernel registry, the device
    table and the algorithm names — everything hashable. *)
type resolved = {
  nest : Srfa_ir.Nest.t;
  source : string;  (** {!Srfa_frontend.Parser.canonical_source} of [nest] *)
  device : Srfa_hw.Device.t;
  t1 : string;  (** [tier1_key ~device source] *)
  algorithm : Allocator.algorithm;
  budget : int;
  cut_work_limit : int option;
}

val resolve : Protocol.request -> (resolved, Diag.t list) result
(** Look up a named kernel or parse an inline source (diagnostics come
    back with their [E-LEX-*]/[E-PARSE-*]/[E-SEM-*] codes), validate
    device and algorithm names, default budget 64.

    Kernels are memoized per process, both ways of naming one: a
    registry name under its lowercased spelling, an inline source under
    its raw text. The first request for a spelling builds or parses the
    nest, renders its canonical source and hashes its tier-1 key for
    every device; later requests share all three, so a repeated inline
    text is not parsed again. The content address is still the
    canonical source's. Only a spelling that resolves gains an entry;
    a failed parse or an unknown name is rebuilt on every request. The
    memo is one byte-bounded LRU (4 MB, each entry charged its heap
    size plus its key's), so it evicts its coldest spellings instead of
    growing. It is guarded by a mutex, so any domain may call
    [resolve]. *)

val config_for : resolved -> Flow.config
(** The pure-core config a resolved request runs under: its budget, its
    device in the simulator config, and its guard override (if any). *)

type entry = {
  t1 : string;
  prepared : Flow.Core.prepared;
  scratch : Srfa_sched.Simulator.scratch;
  device : Srfa_hw.Device.t;
}

type report_value = {
  report : Srfa_estimate.Report.t;
  warnings : Diag.t list;
  body : Protocol.body;
      (** [Protocol.ok_body ~warnings report], rendered by {!compute}: a
          tier-2 hit wraps it in {!Protocol.ok_envelope} and renders
          nothing else *)
}

type explore_value = {
  frontier : string;
      (** {!Flow.Core.frontier_json} [~compact:true] of the answer *)
  explore_stats : (string * int) list;
      (** the explore counters (variants, cuts, memo hits) as rendered
          into the response's ["explore"] sub-object *)
  explore_warnings : Diag.t list;
}

(** The four namespaces, in tier order (see above), typed by the values
    they hold. *)
type _ ns =
  | Analyses : entry ns
  | Reports : report_value ns
  | Sessions : Flow.Core.rebudget_session ns
  | Frontiers : explore_value ns

type t

val create :
  ?tier1_bytes:int -> ?tier2_bytes:int ->
  ?trace:Srfa_util.Trace.sink -> ?faults:Srfa_util.Fault.t -> unit -> t
(** [tier1_bytes] and [tier2_bytes] bound {!Analyses} and {!Reports}
    (defaults 48 MB and 16 MB); {!Sessions} and {!Frontiers} hold 16 MB
    each. *)

val find : t -> 'v ns -> string -> 'v option
(** [find t ns key] looks [key] up in [ns], making it the most recently
    used entry there, and traces [cache.hit] or [cache.miss]. *)

val insert : t -> 'v ns -> string -> 'v -> unit
(** [insert t ns key v] stores [v] under [key] in [ns], charged its real
    heap size ([Obj.reachable_words]), and traces a [cache.evict] per
    entry evicted to make room. When the [cache.insert] fault site
    fires, the insert silently does not happen: the value is recomputed
    on the next miss (a session cold-starts on its next event). *)

type status = [ `Hit | `Analysis | `Miss ]

val respond :
  t -> resolved ->
  (Srfa_estimate.Report.t * Diag.t list * status, Diag.t list) result
(** The single-threaded serving path for in-process callers (tests and
    benchmarks; {!Server} drives the store itself, see below): tier-2
    lookup, then tier-1, then a cold build; computed values are
    inserted, errors are returned inline and never cached. A tier-2 hit
    returns the {e physically} same report value as the request that
    populated it. The tier-2 value also stores the response body
    rendered when the report was computed, which is what the daemon
    splices into a hit's response; this path hands back the report and
    leaves rendering to the caller. Reports and bodies are immutable,
    safe to serve any number of times. *)

(* The batched server drives the store itself: {!find} and {!insert} on
   the accept loop, these two on worker domains. *)

val build_entry : resolved -> entry

val compute : resolved -> entry -> (report_value, Diag.t list) result
(** {!Flow.Core.checked_prepared} against the entry's prepared kernel and
    scratch, with the response body rendered once for both the answer
    and the tier-2 insert. Mutates the entry's scratch: the caller must
    own the entry exclusively while it runs. *)

val rebudget :
  t -> resolved -> stream:string ->
  (Flow.Core.rebudget_step * status, Diag.t list) result
(** One budget event ([resolved.budget]) against the stream's live
    session, creating it on first touch. [`Hit] = the session existed
    and the event was answered incrementally; [`Analysis] = fresh
    session over a resident tier-1 entry (only the bootstrap portfolio
    point was paid); [`Miss] = fully cold. Accept-thread only: the
    session mutates in place and shares the tier-1 scratch. Results
    are never inserted into the allocate tiers. *)

val space_of_request :
  Protocol.request ->
  (Flow.Core.space * string, Diag.t list) result
(** Parse and canonicalise the request's space fields (orders, tiles,
    budgets, algorithms, certify) into an explorer space plus the
    canonical spec string the frontier tier is keyed on — parsed values
    are re-rendered, so request formatting never fragments the tier.
    Orders go through {!Flow.Core.order_spec_of_string}. Defaults: all
    legal orders, no tiling, {!Flow.default_budgets}, CPA-RA. Bad fields
    are [E-PROTO-002]. *)

val explore :
  t -> resolved -> space:Flow.Core.space -> spec:string ->
  (explore_value * [ `Hit | `Miss ], Diag.t list) result
(** One kernel's frontier under a space spec, from the frontier tier or
    freshly explored (and inserted). Accept-thread only, like
    {!rebudget}; the explorer runs serially there. Never touches the
    allocate tiers. *)

val stats : t -> (string * int) list
(** [served] (tier-2 hits plus misses: every allocate request that
    resolves looks tier 2 up once; rebudget, explore and stats requests
    are not counted), then one row per namespace in tier order:
    [<p>_entries], [<p>_bytes], [<p>_hits], [<p>_misses] and
    [<p>_evictions] for [p] = [tier1], [tier2], [session] and [explore].
    {!Protocol.response_stats} renders them in this order. *)
