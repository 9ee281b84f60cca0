module Flow = Srfa_core.Flow
module Allocator = Srfa_core.Allocator
module Diag = Srfa_util.Diag
module Trace = Srfa_util.Trace
module Lru = Srfa_util.Lru
module Fault = Srfa_util.Fault

let ( let* ) = Result.bind

(* Bump on any change to the key material layout or to the canonical
   source rendering's meaning; the test_serve goldens pin the resulting
   digests so an accidental change fails loudly instead of silently
   cold-starting every deployed cache. *)
let scheme_version = "srfa-cache-v1"

(* Every key is the hex MD5 of the scheme version and its parts, one
   per line. Each namespace has its own LRU, so a key need only be
   unique within one. *)
let digest parts =
  Digest.to_hex (Digest.string (String.concat "\n" (scheme_version :: parts)))

let tier1_key ~(device : Srfa_hw.Device.t) source =
  digest [ device.Srfa_hw.Device.name; source ]

let tier2_key ~tier1 ~algorithm ~budget ~cut_work_limit =
  digest
    [
      tier1;
      Allocator.name algorithm;
      string_of_int budget;
      (match cut_work_limit with
      | None -> "guard-default"
      | Some n -> string_of_int n);
    ]

(* ---- resolved requests ------------------------------------------------- *)

type resolved = {
  nest : Srfa_ir.Nest.t;
  source : string;
  device : Srfa_hw.Device.t;
  t1 : string;
  algorithm : Allocator.algorithm;
  budget : int;
  cut_work_limit : int option;
}

(* The device table under its request spellings. *)
let devices =
  [ ("xcv1000", Srfa_hw.Device.xcv1000); ("xc2v6000", Srfa_hw.Device.xc2v6000) ]

let device_of_name name = List.assoc_opt name devices

(* Each way of naming a kernel resolves once per process: a registry
   spelling, lowercased ([Kernels.find] ignores case), or an inline
   source's raw text. The nest, its canonical source and its tier-1 key
   on each device depend on nothing but that spelling, so a repeated
   inline text costs one hash lookup instead of a parse, a print and
   two MD5s, and its content address is still the canonical source's.
   IR values are immutable, so every request may share the nest.

   The memo is one byte-bounded LRU, each entry charged like [insert]
   charges a store value, plus its key. Only a spelling that resolves
   is stored. An entry remembers which way it was named, so a source
   text that spells a registry name, or a name that spells a stored
   text, never hits the other's entry. The memo is not a namespace of
   the store: [resolve] runs before any store is consulted and takes
   none. It runs on whichever domain calls it, hence the lock. *)
type known = {
  from_text : bool;  (* keyed on a raw source text, not a registry name *)
  known_nest : Srfa_ir.Nest.t;
  known_source : string;
  known_keys : (Srfa_hw.Device.t * string) list;  (* tier-1 key per device *)
}

let word_bytes = Sys.word_size / 8

let memo : known Lru.t = Lru.create ~capacity:(4 * 1024 * 1024)

let memo_lock = Mutex.create ()

(* The memoized resolution of [key], or [build key]'s, stored when it
   succeeds. The build runs outside the lock: two domains racing on one
   new spelling both build it, and the later store wins. *)
let memoized ~from_text key build =
  match Mutex.protect memo_lock (fun () -> Lru.find memo key) with
  | Some k when k.from_text = from_text -> Ok k
  | _ ->
    Result.map
      (fun nest ->
        (* The content address hashes the canonical rendering, never
           the raw request text, so formatting and comments never
           fragment the cache. *)
        let source = Srfa_frontend.Parser.canonical_source nest in
        let k =
          {
            from_text;
            known_nest = nest;
            known_source = source;
            known_keys =
              List.map
                (fun (_, device) -> (device, tier1_key ~device source))
                devices;
          }
        in
        let cost = (1 + Obj.reachable_words (Obj.repr (key, k))) * word_bytes in
        Mutex.protect memo_lock (fun () -> ignore (Lru.add memo key ~cost k));
        k)
      (build key)

let resolve (r : Protocol.request) =
  let* k =
    match r.Protocol.kernel with
    | None -> Error [ Protocol.field_error "allocate request without a kernel" ]
    | Some (Protocol.Named name) ->
      memoized ~from_text:false (String.lowercase_ascii name) (fun spelling ->
          Option.to_result (Srfa_kernels.Kernels.find spelling)
            ~none:
              [
                Protocol.field_error
                  (Printf.sprintf "unknown kernel %S (try: %s)" name
                     (String.concat ", " Srfa_kernels.Kernels.names));
              ])
    | Some (Protocol.Source text) ->
      memoized ~from_text:true text Srfa_frontend.Parser.parse_result
  in
  let* device =
    match r.Protocol.device with
    | None -> Ok Srfa_hw.Device.xcv1000
    | Some name -> (
      match device_of_name name with
      | Some d -> Ok d
      | None ->
        Error
          [
            Protocol.field_error
              (Printf.sprintf "unknown device %S (xcv1000, xc2v6000)" name);
          ])
  in
  let* algorithm =
    match r.Protocol.algorithm with
    | None -> Ok Allocator.Cpa_ra
    | Some name -> (
      match Allocator.of_name name with
      | Some a -> Ok a
      | None ->
        Error
          [
            Protocol.field_error
              (Printf.sprintf "unknown algorithm %S" name);
          ])
  in
  Ok
    {
      nest = k.known_nest;
      source = k.known_source;
      device;
      t1 = List.assq device k.known_keys;
      algorithm;
      budget = Option.value r.Protocol.budget ~default:64;
      cut_work_limit = r.Protocol.cut_work_limit;
    }

let config_for r =
  {
    Flow.default_config with
    Flow.budget = r.budget;
    sim = { Flow.default_config.Flow.sim with device = r.device };
    guards =
      (match r.cut_work_limit with
      | None -> Flow.default_guards
      | Some n -> { Flow.default_guards with cut_work_limit = Some n });
  }

(* ---- the store --------------------------------------------------------- *)

type entry = {
  t1 : string;
  prepared : Flow.Core.prepared;
  scratch : Srfa_sched.Simulator.scratch;
  device : Srfa_hw.Device.t;
}
(** One tier-1 resident: every budget-independent product of one
    (kernel, device) pair. The scratch rides along so warm requests are
    allocation-free, which makes the entry single-owner at any instant —
    the server guarantees that by batching same-key requests onto one
    domain. *)

type report_value = {
  report : Srfa_estimate.Report.t;
  warnings : Diag.t list;
  body : Protocol.body;  (* rendered once, when the report is computed *)
}

type explore_value = {
  frontier : string;  (* Flow.Core.frontier_json ~compact:true *)
  explore_stats : (string * int) list;
  explore_warnings : Diag.t list;
}

type _ ns =
  | Analyses : entry ns
  | Reports : report_value ns
  | Sessions : Flow.Core.rebudget_session ns
  | Frontiers : explore_value ns

(* One namespace's LRU, with the tier number its trace events carry and
   the prefix of its stats keys. *)
type 'v tier = { lru : 'v Lru.t; number : int; prefix : string }

type t = {
  analyses : entry tier;
  reports : report_value tier;
  sessions : Flow.Core.rebudget_session tier;
  frontiers : explore_value tier;
  trace : Trace.sink;
  faults : Fault.t;
}

let create ?(tier1_bytes = 48 * 1024 * 1024) ?(tier2_bytes = 16 * 1024 * 1024)
    ?(trace = Trace.null) ?(faults = Fault.off) () =
  let tier number prefix capacity =
    { lru = Lru.create ~capacity; number; prefix }
  in
  {
    analyses = tier 1 "tier1" tier1_bytes;
    reports = tier 2 "tier2" tier2_bytes;
    sessions = tier 3 "session" (16 * 1024 * 1024);
    frontiers = tier 4 "explore" (16 * 1024 * 1024);
    trace;
    faults;
  }

let tier : type v. t -> v ns -> v tier =
 fun t -> function
  | Analyses -> t.analyses
  | Reports -> t.reports
  | Sessions -> t.sessions
  | Frontiers -> t.frontiers

let emit t s name key =
  Trace.emit t.trace (fun () ->
      Trace.event name
        [ ("tier", Trace.Int s.number); ("key", Trace.String key) ])

let find t ns key =
  let s = tier t ns in
  let hit = Lru.find s.lru key in
  emit t s (if Option.is_some hit then "cache.hit" else "cache.miss") key;
  hit

(* The cache.insert fault site: an injected failure means the store did
   not happen (a full disk, an allocation failure). Whatever the action,
   the contract is "skip the insert and stay correct" — the value is
   recomputed on the next miss; the daemon must never die here because
   inserts run on the accept thread. *)
let insert t ns key v =
  let s = tier t ns in
  match Fault.check t.faults "cache.insert" with
  | Some _ -> emit t s "fault.cache.insert" key
  | None ->
    let cost = (1 + Obj.reachable_words (Obj.repr v)) * word_bytes in
    List.iter
      (fun (evicted, _) -> emit t s "cache.evict" evicted)
      (Lru.add s.lru key ~cost v)

(* Everything below may fail on user input; failures become
   diagnostics, never exceptions out of the cache. *)
let guarded f =
  match f () with v -> Ok v | exception exn -> Error [ Diag.of_exn exn ]

let build_entry r =
  let prepared = Flow.Core.prepare r.nest in
  {
    t1 = r.t1;
    prepared;
    scratch = Flow.Core.scratch ~config:(config_for r) prepared;
    device = r.device;
  }

type status = [ `Hit | `Analysis | `Miss ]

(* The resident tier-1 entry, or a fresh one, built and inserted.
   Preparation can fail too (semantic validation, dependency cycles);
   the boundary matches Flow.Core.checked's. *)
let analysis t (r : resolved) =
  match find t Analyses r.t1 with
  | Some e -> Ok (e, `Analysis)
  | None ->
    let* e = guarded (fun () -> build_entry r) in
    insert t Analyses r.t1 e;
    Ok (e, `Miss)

(* Allocate-and-report against a tier-1 entry, rendering the response
   body once for both the answer and the tier-2 insert. Pure apart from
   the entry's scratch: callers on worker domains must own the entry
   exclusively for the duration. *)
let compute r (entry : entry) =
  Result.map
    (fun (report, warnings) ->
      { report; warnings; body = Protocol.ok_body ~warnings report })
    (Flow.Core.checked_prepared ~sim_scratch:entry.scratch (config_for r)
       r.algorithm entry.prepared)

(* ---- rebudget sessions (DESIGN.md §16) --------------------------------

   One budget event against a live stream. [`Hit] = the session existed
   and the event was answered incrementally; [`Analysis] = no session
   yet but the tier-1 entry was resident, so only the bootstrap
   portfolio point was paid; [`Miss] = fully cold. Accept-thread only:
   sessions mutate in place and share the tier-1 scratch. *)

let rebudget t (r : resolved) ~stream =
  let key = digest [ r.t1; "rebudget"; stream ] in
  match find t Sessions key with
  | Some session ->
    let* step =
      guarded (fun () -> Flow.Core.rebudget_step session ~budget:r.budget)
    in
    Ok (step, `Hit)
  | None ->
    let* entry, status = analysis t r in
    let* session, step =
      guarded (fun () ->
          Flow.Core.rebudget_start ~sim_scratch:entry.scratch (config_for r)
            entry.prepared ~budget:r.budget)
    in
    insert t Sessions key session;
    Ok (step, status)

(* ---- design-space frontiers (DESIGN.md §17) ---------------------------

   One kernel's whole frontier under a canonical space spec. The explorer
   prepares per variant internally, so no tier-1 entry is borrowed; the
   tier-1 key only anchors the namespace. Accept-thread only (like
   rebudget): the explorer's own per-variant scratch is private, but the
   store mutates. *)

(* Canonicalise the request's space fields: the parsed values are
   re-rendered, so formatting differences ("8, 16" vs "8,16") never
   fragment the frontier store. *)
let space_of_request (req : Protocol.request) =
  let ints what s =
    match
      List.map
        (fun x -> int_of_string (String.trim x))
        (String.split_on_char ',' s)
    with
    | ns -> Ok ns
    | exception Failure _ ->
      Error
        [
          Protocol.field_error
            (Printf.sprintf "field %S must be a comma-separated integer list"
               what);
        ]
  in
  let* orders =
    match req.Protocol.orders with
    | None -> Ok Flow.Core.All_orders
    | Some s ->
      Option.to_result (Flow.Core.order_spec_of_string s)
        ~none:
          [
            Protocol.field_error
              "field \"orders\" must be \"all\", \"identity\" or \
               semicolon-separated permutations like \"0,2,1;2,0,1\"";
          ]
  in
  let* tile_factors =
    match req.Protocol.tiles with None -> Ok [] | Some s -> ints "tiles" s
  in
  let* space_budgets =
    match req.Protocol.budgets with
    | None -> Ok Flow.Core.default_budgets
    | Some s -> ints "budgets" s
  in
  let* space_algorithms =
    match req.Protocol.algorithms with
    | None -> Ok [ Allocator.Cpa_ra ]
    | Some s ->
      List.fold_right
        (fun name acc ->
          let* acc = acc in
          match Allocator.of_name (String.trim name) with
          | Some a -> Ok (a :: acc)
          | None ->
            Error
              [
                Protocol.field_error
                  (Printf.sprintf "unknown algorithm %S" (String.trim name));
              ])
        (String.split_on_char ',' s)
        (Ok [])
  in
  let space =
    {
      Flow.Core.orders;
      tile_factors;
      space_budgets;
      space_algorithms;
      certify = req.Protocol.certify;
      prune = true;
    }
  in
  let join ns = String.concat "," (List.map string_of_int ns) in
  let spec =
    Printf.sprintf "orders=%s;tiles=%s;budgets=%s;algorithms=%s;certify=%b"
      (Flow.Core.order_spec_to_string orders)
      (join tile_factors) (join space_budgets)
      (String.concat "," (List.map Allocator.name space_algorithms))
      req.Protocol.certify
  in
  Ok (space, spec)

let explore t (r : resolved) ~space ~spec =
  let key = digest [ r.t1; "explore"; spec ] in
  match find t Frontiers key with
  | Some v -> Ok (v, `Hit)
  | None ->
    let* f =
      guarded (fun () -> Flow.Core.explore ~space (config_for r) r.nest)
    in
    let s = f.Flow.Core.frontier_stats in
    let v =
      {
        frontier = Flow.Core.frontier_json ~compact:true f;
        explore_stats =
          [
            ("variants_enumerated", s.Flow.Core.variants_enumerated);
            ("variants_unique", s.Flow.Core.variants_unique);
            ("variants_pruned", s.Flow.Core.variants_pruned);
            ("points_pruned", s.Flow.Core.points_pruned);
            ("points_evaluated", s.Flow.Core.points_evaluated);
            ("sim_memo_hits", s.Flow.Core.sim_memo_hits);
            ("duplicate_variants", s.Flow.Core.duplicate_variants);
            ("orders_skipped", s.Flow.Core.orders_skipped);
            ("budgets_skipped", s.Flow.Core.budgets_skipped);
          ];
        explore_warnings = f.Flow.Core.frontier_warnings;
      }
    in
    insert t Frontiers key v;
    Ok (v, `Miss)

(* The single-threaded serving path for in-process callers (tests and
   benchmarks; the daemon drives the store itself at every jobs count):
   look up, build what is missing, cache what was computed. Errors are
   never cached — they are cheap to recompute and usually the caller's
   fault. *)
let respond t (r : resolved) =
  let key =
    tier2_key ~tier1:r.t1 ~algorithm:r.algorithm ~budget:r.budget
      ~cut_work_limit:r.cut_work_limit
  in
  match find t Reports key with
  | Some v -> Ok (v.report, v.warnings, `Hit)
  | None ->
    let* entry, status = analysis t r in
    let* v = compute r entry in
    insert t Reports key v;
    Ok (v.report, v.warnings, status)

(* Every allocate request that resolves looks tier 2 up exactly once, so
   the tier-2 hit + miss total counts served allocate requests; rebudget,
   explore and stats requests never look tier 2 up and are not counted. *)
let stats t =
  let row s =
    List.map
      (fun (what, count) -> (s.prefix ^ what, count s.lru))
      [
        ("_entries", Lru.length);
        ("_bytes", Lru.used);
        ("_hits", Lru.hits);
        ("_misses", Lru.misses);
        ("_evictions", Lru.evictions);
      ]
  in
  (("served", Lru.hits t.reports.lru + Lru.misses t.reports.lru)
  :: row t.analyses)
  @ row t.reports @ row t.sessions @ row t.frontiers
