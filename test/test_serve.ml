(* The serving layer: content-address goldens, the wire protocol, the
   cache's behavioural contract, and live daemons.

   The digest goldens are the canary for the whole key scheme — they
   pin hash(scheme version, device name, canonical source) for every
   built-in kernel, so any drift in Parser.canonical_source, in the
   scheme version, or in device naming fails here by name instead of
   silently cold-starting every deployed cache. When a change to the
   canonical rendering is *intentional*, bump Cache.scheme_version and
   re-pin. *)

module Protocol = Srfa_server.Protocol
module Cache = Srfa_server.Cache
module Kernels = Srfa_kernels.Kernels
module Parser = Srfa_frontend.Parser
module Device = Srfa_hw.Device
module Trace = Srfa_util.Trace
module Diag = Srfa_util.Diag

(* ---- golden digests ---------------------------------------------------- *)

let golden_digests =
  [
    ("example", "6416c81cf187f60ec66c3438e7b2b827");
    ("fir", "58ae9f54c0f9e1d0ef29c8421f286934");
    ("dec-fir", "9080bf02051a2f97e9df5d6976ed5d74");
    ("imi", "bc5fffca83a4f77feb66bdd70753b3b7");
    ("mat", "13c783479aaa3759f70a49855f75a7de");
    ("pat", "c7ea5f6dee49929081e86f3e325ba9db");
    ("bic", "6723dee16facf5c14ddc200d9b992397");
    ("conv2d", "5dbdc196a53ee0cc633a3550480a414b");
    ("moving-average", "fd2336fe5d342732d69f78c5fc1f1c8e");
    ("corner-turn", "35f97e3e2ec7c320826049974410d19c");
    ("gradient-pair", "2d0d6b5e356d2e50d159697472730040");
  ]

(* Every registry name, so a kernel added to the registry fails the
   count until its digest is pinned. *)
let test_golden_digests () =
  Alcotest.(check int)
    "every registry kernel has a pinned digest" (List.length Kernels.names)
    (List.length golden_digests);
  List.iter
    (fun name ->
      let source = Parser.canonical_source (Option.get (Kernels.find name)) in
      let key = Cache.tier1_key ~device:Device.xcv1000 source in
      Alcotest.(check string)
        (Printf.sprintf "tier-1 digest of %s" name)
        (List.assoc name golden_digests)
        key)
    Kernels.names

let test_key_sensitivity () =
  let source = Parser.canonical_source (Kernels.example ()) in
  let k1 = Cache.tier1_key ~device:Device.xcv1000 source in
  let k2 = Cache.tier1_key ~device:Device.xc2v6000 source in
  Alcotest.(check bool) "device is key material" false (k1 = k2);
  let t2 a b cwl =
    Cache.tier2_key ~tier1:k1 ~algorithm:a ~budget:b ~cut_work_limit:cwl
  in
  let base = t2 Srfa_core.Allocator.Cpa_ra 64 None in
  Alcotest.(check bool)
    "algorithm is key material" false
    (base = t2 Srfa_core.Allocator.Fr_ra 64 None);
  Alcotest.(check bool)
    "budget is key material" false
    (base = t2 Srfa_core.Allocator.Cpa_ra 32 None);
  Alcotest.(check bool)
    "guard override is key material" false
    (base = t2 Srfa_core.Allocator.Cpa_ra 64 (Some 1));
  Alcotest.(check string)
    "keys are deterministic" base
    (t2 Srfa_core.Allocator.Cpa_ra 64 None)

(* Formatting must never fragment the cache: a re-rendered kernel hashes
   to the same address as the original. *)
let test_canonical_stability () =
  List.iter
    (fun (name, nest) ->
      let once = Parser.canonical_source nest in
      match Parser.parse_result once with
      | Error _ -> Alcotest.failf "%s: canonical source does not re-parse" name
      | Ok reparsed ->
        Alcotest.(check string)
          (Printf.sprintf "%s round-trips" name)
          once
          (Parser.canonical_source reparsed))
    (("example", Kernels.example ()) :: Kernels.all ())

(* ---- protocol ---------------------------------------------------------- *)

let test_parse_request () =
  (match
     Protocol.parse_request
       {|{"id": "r1", "kernel": "fir", "budget": 32, "algorithm": "cpa-ra+", "device": "xc2v6000", "cut_work_limit": 9}|}
   with
  | Ok r ->
    Alcotest.(check (option string)) "id" (Some "r1") r.Protocol.id;
    Alcotest.(check bool) "op" true (r.Protocol.op = Protocol.Allocate);
    Alcotest.(check bool)
      "kernel" true
      (r.Protocol.kernel = Some (Protocol.Named "fir"));
    Alcotest.(check (option int)) "budget" (Some 32) r.Protocol.budget;
    Alcotest.(check (option string))
      "algorithm" (Some "cpa-ra+") r.Protocol.algorithm;
    Alcotest.(check (option int)) "cwl" (Some 9) r.Protocol.cut_work_limit
  | Error d -> Alcotest.failf "unexpected error: %s" (Diag.to_json d));
  let code line =
    match Protocol.parse_request line with
    | Error d -> d.Diag.code
    | Ok _ -> "(ok)"
  in
  Alcotest.(check string) "malformed JSON" "E-PROTO-001" (code "{nope");
  Alcotest.(check string) "non-object" "E-PROTO-001" (code "[1, 2]");
  Alcotest.(check string)
    "bad field type" "E-PROTO-002"
    (code {|{"kernel": 3}|});
  Alcotest.(check string)
    "unknown op" "E-PROTO-002"
    (code {|{"op": "dance"}|});
  Alcotest.(check string)
    "kernel and source" "E-PROTO-002"
    (code {|{"kernel": "fir", "source": "x"}|});
  Alcotest.(check string)
    "allocate without kernel" "E-PROTO-002"
    (code {|{"budget": 8}|});
  (* A negative work guard is refused where the line is read, before any
     tier-1 entry is built for it. *)
  Alcotest.(check string)
    "negative cut_work_limit" "E-PROTO-002"
    (code {|{"kernel": "fir", "cut_work_limit": -1}|});
  Alcotest.(check string)
    "negative cut_work_limit on explore" "E-PROTO-002"
    (code {|{"op": "explore", "kernel": "fir", "cut_work_limit": -1}|});
  Alcotest.(check string)
    "zero cut_work_limit" "(ok)"
    (code {|{"kernel": "fir", "cut_work_limit": 0}|});
  (* So is a negative deadline, which would otherwise trip at once. *)
  (match Protocol.parse_request {|{"kernel": "fir", "deadline_ms": -1}|} with
  | Error d ->
    Alcotest.(check string) "negative deadline_ms" "E-PROTO-002" d.Diag.code;
    Alcotest.(check string)
      "negative deadline_ms message"
      {|field "deadline_ms" must be a non-negative integer|} d.Diag.message
  | Ok _ -> Alcotest.fail "negative deadline_ms accepted");
  Alcotest.(check string)
    "zero deadline_ms" "(ok)"
    (code {|{"kernel": "fir", "deadline_ms": 0}|});
  (match Protocol.parse_request {|{"op": "stats"}|} with
  | Ok r -> Alcotest.(check bool) "stats op" true (r.Protocol.op = Protocol.Stats)
  | Error _ -> Alcotest.fail "stats request rejected");
  (match
     Protocol.parse_request
       {|{"op": "rebudget", "kernel": "fir", "budget": 24, "stream": "s1"}|}
   with
  | Ok r ->
    Alcotest.(check bool) "rebudget op" true (r.Protocol.op = Protocol.Rebudget);
    Alcotest.(check (option int)) "rebudget target" (Some 24) r.Protocol.budget;
    Alcotest.(check (option string)) "stream" (Some "s1") r.Protocol.stream
  | Error d -> Alcotest.failf "rebudget request rejected: %s" (Diag.to_json d));
  (* A rebudget request is an event against a live stream: both the
     kernel identity and the budget target are mandatory at parse time. *)
  Alcotest.(check string)
    "rebudget without budget" "E-PROTO-002"
    (code {|{"op": "rebudget", "kernel": "fir"}|});
  Alcotest.(check string)
    "rebudget without kernel" "E-PROTO-002"
    (code {|{"op": "rebudget", "budget": 8}|})

let test_recover_id () =
  let rid = Protocol.recover_id in
  Alcotest.(check (option string))
    "well-formed line" (Some "r1")
    (rid {|{"id": "r1", "kernel": "fir"}|});
  Alcotest.(check (option string))
    "truncated after id" (Some "r2")
    (rid {|{"id": "r2", "kernel": "fi|});
  Alcotest.(check (option string))
    "malformed value field" (Some "r3")
    (rid {|{"id": "r3", "budget": }|});
  Alcotest.(check (option string))
    "id later in the line" (Some "r4")
    (rid {|{"kernel": "fir", "id": "r4"|});
  Alcotest.(check (option string))
    "escaped quote inside id" (Some {|a"b|})
    (rid {|{"id": "a\"b", ...|});
  Alcotest.(check (option string)) "no id" None (rid {|{"kernel": "fir"}|});
  Alcotest.(check (option string)) "not json at all" None (rid "hello world");
  Alcotest.(check (option string))
    "id cut before the value" None (rid {|{"id": |});
  (* The scanner reads complete string tokens, so a string *value*
     spelling "id" cannot shadow the real key later in the line... *)
  Alcotest.(check (option string))
    "value spelling id does not shadow the key" (Some "r5")
    (rid {|{"note": "id", "id": "r5", "budget": }|});
  (* ...and neither can an escaped-quote value that merely contains a
     quoted "id" in its decoded spelling. *)
  Alcotest.(check (option string))
    "escaped fake key inside a value" (Some "r6")
    (rid {|{"x": "\"id\":", "id": "r6", oops|});
  (* Full escape decoding, \u included (U+00E9 as UTF-8). *)
  Alcotest.(check (option string))
    "unicode escapes decode" (Some "caf\xc3\xa9")
    (rid {|{"id": "caf\u00e9", "budget": }|});
  Alcotest.(check (option string))
    "non-string id value" None
    (rid {|{"id": 7, "kernel": "fir"|});
  Alcotest.(check (option string))
    "id truncated mid-value" None (rid {|{"id": "ab|});
  (* Surrogates decode as the reader decodes them: a pair is one
     four-byte code point, a lone half is no id at all. *)
  Alcotest.(check (option string))
    "surrogate pair" (Some "\xf0\x9f\x98\x80")
    (rid {|{"id": "\ud83d\ude00", "budget": }|});
  Alcotest.(check (option string))
    "lone high surrogate" None
    (rid {|{"id": "\ud83d", "budget": }|});
  Alcotest.(check (option string))
    "lone low surrogate" None
    (rid {|{"id": "\ude00", "budget": }|});
  (* Either way the echoed id keeps the response line valid UTF-8. *)
  let broken = {|{"id": "\ud83d\ude00", "budget": }|} in
  Alcotest.(check bool)
    "recovered id echoes as UTF-8" true
    (String.is_valid_utf_8
       (Protocol.response_error ?id:(rid broken)
          [ Protocol.proto_error "malformed" ]));
  match Protocol.parse_request {|{"id": "\ud83d\ude00", "op": "stats"}|} with
  | Ok r ->
    Alcotest.(check bool)
      "parsed id echoes as UTF-8" true
      (String.is_valid_utf_8 (Protocol.response_stats ?id:r.Protocol.id []))
  | Error d -> Alcotest.failf "stats request rejected: %s" (Diag.to_json d)

let test_deadline_field () =
  (match Protocol.parse_request {|{"kernel": "fir", "deadline_ms": 250}|} with
  | Ok r -> Alcotest.(check (option int)) "deadline" (Some 250) r.Protocol.deadline_ms
  | Error _ -> Alcotest.fail "deadline_ms rejected");
  match Protocol.parse_request {|{"kernel": "fir", "deadline_ms": "soon"}|} with
  | Error d -> Alcotest.(check string) "typed" "E-PROTO-002" d.Diag.code
  | Ok _ -> Alcotest.fail "non-integer deadline accepted"

let test_resilience_diags () =
  Alcotest.(check string)
    "abuse code" "E-PROTO-003"
    (Protocol.abuse_error "too big").Diag.code;
  let d = Protocol.deadline_error ~deadline_ms:10 ~elapsed_ms:25 in
  Alcotest.(check string) "deadline code" "E-DEADLINE" d.Diag.code;
  Alcotest.(check (option string))
    "deadline context" (Some "10")
    (List.assoc_opt "deadline_ms" d.Diag.context);
  let o = Protocol.overload_error ~retry_after_ms:50 in
  Alcotest.(check string) "overload code" "E-OVERLOAD" o.Diag.code;
  Alcotest.(check (option string))
    "retry hint" (Some "50")
    (List.assoc_opt "retry_after_ms" o.Diag.context)

(* ---- fault registry ----------------------------------------------------- *)

module Fault = Srfa_util.Fault

let test_fault_registry () =
  Alcotest.(check bool) "off is disabled" false (Fault.enabled Fault.off);
  Alcotest.(check bool) "off never fires" true
    (Fault.check Fault.off "io.read" = None);
  Alcotest.(check bool) "empty plan is off" true
    (match Fault.parse "" with Ok f -> not (Fault.enabled f) | Error _ -> false);
  (match Fault.parse ~seed:7 "io.read:short-read@0.5,pool.job:delay:3@1" with
  | Error msg -> Alcotest.failf "plan rejected: %s" msg
  | Ok f ->
    Alcotest.(check bool) "plan enables" true (Fault.enabled f);
    Alcotest.(check bool)
      "delay fires every time" true
      (Fault.check f "pool.job" = Some (Fault.Delay 3));
    Alcotest.(check bool)
      "unknown site never fires" true
      (Fault.check f "cache.insert" = None);
    (* Determinism: the same plan + seed replays the same fire/skip
       sequence, whatever happened on other sites in between. *)
    let draw g = List.init 64 (fun _ -> Fault.check g "io.read" <> None) in
    let a = draw f in
    let same =
      match Fault.parse ~seed:7 "io.read:short-read@0.5,pool.job:delay:3@1" with
      | Ok g -> draw g
      | Error _ -> []
    in
    Alcotest.(check bool) "seeded stream replays" true (a = same);
    Alcotest.(check bool) "some draws fire" true (List.mem true a);
    Alcotest.(check bool) "some draws skip" true (List.mem false a);
    Alcotest.(check bool) "fires were counted" true (Fault.injected f > 0));
  let rejected plan =
    match Fault.parse plan with Error _ -> true | Ok _ -> false
  in
  Alcotest.(check bool) "unknown site rejected" true (rejected "disk.spin:error@0.5");
  Alcotest.(check bool) "bad rate rejected" true (rejected "io.read:error@1.5");
  Alcotest.(check bool) "missing rate rejected" true (rejected "io.read:error");
  Alcotest.(check bool) "bad action rejected" true (rejected "io.read:explode@0.5")

let test_json_reader () =
  let open Protocol in
  Alcotest.(check bool)
    "nested values" true
    (parse_json {|{"a": [1, -2.5, true, null], "b": {"c": "d\ne"}}|}
    = Obj
        [
          ("a", Arr [ Int 1; Raw "-2.5"; Bool true; Null ]);
          ("b", Obj [ ("c", Str "d\ne") ]);
        ]);
  Alcotest.(check bool)
    "unicode escape" true
    (parse_json "\"\\u00e9\"" = Str "\xc3\xa9");
  let malformed s =
    match parse_json s with exception Malformed _ -> true | _ -> false
  in
  Alcotest.(check bool) "trailing garbage" true (malformed {|{} {}|});
  Alcotest.(check bool) "bare word" true (malformed "hello");
  Alcotest.(check bool) "unterminated" true (malformed {|{"a": "b|});
  (* A surrogate pair is one code point, U+1F600, four UTF-8 bytes — not
     two three-byte halves, which would not be UTF-8 at all. *)
  Alcotest.(check bool)
    "surrogate pair" true
    (parse_json {|"\ud83d\ude00"|} = Str "\xf0\x9f\x98\x80");
  Alcotest.(check bool) "lone high surrogate" true (malformed {|"\ud83d"|});
  Alcotest.(check bool) "lone low surrogate" true (malformed {|"\ude00"|});
  Alcotest.(check bool)
    "high surrogate before a non-surrogate" true
    (malformed {|"\ud83d\u0041"|});
  (* Nesting is bounded: the bound itself parses, one level more does
     not, and a 100,000-deep line is rejected as malformed request JSON
     without walking it. *)
  let nest depth = String.make depth '[' ^ String.make depth ']' in
  Alcotest.(check bool)
    "max_depth parses" false
    (malformed (nest Srfa_util.Json.max_depth));
  Alcotest.(check bool)
    "max_depth + 1 is malformed" true
    (malformed (nest (Srfa_util.Json.max_depth + 1)));
  match parse_request (String.make 100_000 '[') with
  | Error d ->
    Alcotest.(check string) "deep line code" "E-PROTO-001" d.Diag.code;
    Alcotest.(check bool)
      "rejected for its depth" true
      (Srfa_test_helpers.Helpers.contains_substring d.Diag.message "nesting")
  | Ok _ -> Alcotest.fail "100,000-deep line accepted"

(* ---- cache ------------------------------------------------------------- *)

let resolve_exn line =
  match Protocol.parse_request line with
  | Error d -> Alcotest.failf "request: %s" (Diag.to_json d)
  | Ok req -> (
    match Cache.resolve req with
    | Ok r -> r
    | Error ds ->
      Alcotest.failf "resolve: %s" (String.concat "; " (List.map Diag.to_json ds)))

let respond_exn cache r =
  match Cache.respond cache r with
  | Ok v -> v
  | Error ds ->
    Alcotest.failf "respond: %s" (String.concat "; " (List.map Diag.to_json ds))

let diags ds = String.concat "; " (List.map Diag.to_json ds)

let rebudget_request kernel budget =
  resolve_exn
    (Printf.sprintf {|{"op": "rebudget", "kernel": "%s", "budget": %d}|}
       kernel budget)

let explore_request = {|{"op": "explore", "kernel": "fir", "budgets": "8,16"}|}

(* One explore request against [cache]: the frontier bytes and the
   cache status. *)
let explore_exn cache line =
  let req = Result.get_ok (Protocol.parse_request line) in
  match Cache.space_of_request req with
  | Error ds -> Alcotest.failf "space: %s" (diags ds)
  | Ok (space, spec) -> (
    match Cache.explore cache (resolve_exn line) ~space ~spec with
    | Ok (v, status) -> (v.Cache.frontier, status)
    | Error ds -> Alcotest.failf "explore: %s" (diags ds))

(* A cache whose every insert is faulted still answers correctly — it
   just recomputes. Injection must never change an answer, only cost. *)
let test_fault_cache_insert () =
  let faults =
    match Fault.parse "cache.insert:error@1" with
    | Ok f -> f
    | Error msg -> Alcotest.failf "plan: %s" msg
  in
  let cache = Cache.create ~faults () in
  let r = resolve_exn {|{"kernel": "fir", "budget": 64}|} in
  let report1, _, s1 = respond_exn cache r in
  let report2, _, s2 = respond_exn cache r in
  Alcotest.(check bool) "inserts all fail" true (s1 = `Miss && s2 = `Miss);
  Alcotest.(check string)
    "recomputed report identical"
    (Protocol.json_of_report report1)
    (Protocol.json_of_report report2);
  let rebudget () =
    match Cache.rebudget cache (rebudget_request "fir" 32) ~stream:"s" with
    | Ok (step, status) -> (step.Srfa_core.Flow.Core.report, status)
    | Error ds -> Alcotest.failf "rebudget: %s" (diags ds)
  in
  let report3, s3 = rebudget () in
  let report4, s4 = rebudget () in
  Alcotest.(check bool) "no session survives" true (s3 = `Miss && s4 = `Miss);
  Alcotest.(check string)
    "restarted session's report identical"
    (Protocol.json_of_report report3)
    (Protocol.json_of_report report4);
  let frontier1, s5 = explore_exn cache explore_request in
  let frontier2, s6 = explore_exn cache explore_request in
  Alcotest.(check bool) "no frontier stored" true (s5 = `Miss && s6 = `Miss);
  Alcotest.(check string) "re-explored frontier identical" frontier1 frontier2;
  let stats = Cache.stats cache in
  Alcotest.(check int) "nothing resident" 0
    (List.assoc "tier1_entries" stats + List.assoc "tier2_entries" stats);
  List.iter
    (fun (key, n) ->
      if String.ends_with ~suffix:"_entries" key then
        Alcotest.(check int) key 0 n)
    stats

(* One stats row per namespace, in tier order, each with the same five
   counters; one allocate, one rebudget and one explore leave every
   namespace holding something it is charged for. *)
let test_stats_row () =
  let cache = Cache.create () in
  Alcotest.(check (list string))
    "stats keys"
    ("served"
    :: List.concat_map
         (fun ns ->
           List.map (fun c -> ns ^ "_" ^ c)
             [ "entries"; "bytes"; "hits"; "misses"; "evictions" ])
         [ "tier1"; "tier2"; "session"; "explore" ])
    (List.map fst (Cache.stats cache));
  ignore (respond_exn cache (resolve_exn {|{"kernel": "fir", "budget": 64}|}));
  (match Cache.rebudget cache (rebudget_request "mat" 32) ~stream:"s" with
  | Ok _ -> ()
  | Error ds -> Alcotest.failf "rebudget: %s" (diags ds));
  ignore (explore_exn cache explore_request);
  List.iter
    (fun (key, n) ->
      if
        String.ends_with ~suffix:"_entries" key
        || String.ends_with ~suffix:"_bytes" key
      then Alcotest.(check bool) (key ^ " is positive") true (n > 0))
    (Cache.stats cache)

(* The IO-shell seam: reports are plain values the shell renders without
   mutating, so a repeated request is answered with the physically same
   report — no copy, no re-render, no per-request state. *)
let test_physical_hit () =
  let cache = Cache.create () in
  let r = resolve_exn {|{"kernel": "fir", "budget": 64}|} in
  let report1, _, status1 = respond_exn cache r in
  let report2, _, status2 = respond_exn cache r in
  Alcotest.(check bool) "first is a miss" true (status1 = `Miss);
  Alcotest.(check bool) "second is a hit" true (status2 = `Hit);
  Alcotest.(check bool)
    "hit is physically the cached report" true (report1 == report2)

let test_analysis_reuse () =
  let cache = Cache.create () in
  let point budget =
    resolve_exn (Printf.sprintf {|{"kernel": "mat", "budget": %d}|} budget)
  in
  let _, _, s1 = respond_exn cache (point 64) in
  let _, _, s2 = respond_exn cache (point 32) in
  let _, _, s3 = respond_exn cache (point 16) in
  Alcotest.(check bool) "first budget is cold" true (s1 = `Miss);
  Alcotest.(check bool)
    "budget ladder reuses the analysis" true
    (s2 = `Analysis && s3 = `Analysis);
  let stats = Cache.stats cache in
  Alcotest.(check int) "one tier-1 build" 1 (List.assoc "tier1_entries" stats);
  Alcotest.(check int) "three reports" 3 (List.assoc "tier2_entries" stats)

let test_guard_warning_passthrough () =
  let cache = Cache.create () in
  let r = resolve_exn {|{"kernel": "bic", "cut_work_limit": 1}|} in
  let _, warnings, _ = respond_exn cache r in
  Alcotest.(check bool)
    "starved cut guard surfaces W-GUARD-CUT" true
    (List.exists (fun (d : Diag.t) -> d.Diag.code = "W-GUARD-CUT") warnings);
  (* ... and the warnings ride the cache with the report. *)
  let _, warnings2, status2 = respond_exn cache r in
  Alcotest.(check bool) "warned report still cached" true (status2 = `Hit);
  Alcotest.(check bool)
    "warnings physically cached too" true (warnings == warnings2)

let test_errors_not_cached () =
  let cache = Cache.create () in
  let r = resolve_exn {|{"kernel": "fir", "budget": 1}|} in
  (match Cache.respond cache r with
  | Ok _ -> Alcotest.fail "budget 1 should be infeasible"
  | Error ds ->
    Alcotest.(check bool)
      "coded E-BUDGET-001" true
      (List.exists (fun (d : Diag.t) -> d.Diag.code = "E-BUDGET-001") ds));
  let stats = Cache.stats cache in
  Alcotest.(check int) "no report cached" 0 (List.assoc "tier2_entries" stats);
  (* The analysis *is* budget-independent, so tier 1 keeps its entry and
     a feasible retry pays only for allocation. *)
  let _, _, status = respond_exn cache (resolve_exn {|{"kernel": "fir"}|}) in
  Alcotest.(check bool) "analysis survives the error" true (status = `Analysis)

let test_eviction_events () =
  let point budget =
    resolve_exn (Printf.sprintf {|{"kernel": "fir", "budget": %d}|} budget)
  in
  (* Calibrate: measure what one cached report actually costs, then
     budget tier 2 for one and a half of them — every further insert
     must evict its predecessor. *)
  let probe = Cache.create () in
  ignore (respond_exn probe (point 64));
  let one_report = List.assoc "tier2_bytes" (Cache.stats probe) in
  Alcotest.(check bool) "probe cost is positive" true (one_report > 0);
  let sink, events = Trace.collector () in
  let cache = Cache.create ~tier2_bytes:(one_report * 3 / 2) ~trace:sink () in
  List.iter (fun b -> ignore (respond_exn cache (point b))) [ 8; 16; 32; 64 ];
  let named name =
    List.filter (fun (e : Trace.event) -> e.Trace.name = name) (events ())
  in
  Alcotest.(check bool)
    "evictions were announced" true
    (List.length (named "cache.evict") >= 3);
  Alcotest.(check int) "four tier-2 misses" 4
    (List.length
       (List.filter
          (fun (e : Trace.event) ->
            List.assoc_opt "tier" e.Trace.fields = Some (Trace.Int 2))
          (named "cache.miss")));
  Alcotest.(check bool)
    "evict events carry tier and key" true
    (List.for_all
       (fun (e : Trace.event) ->
         List.mem_assoc "tier" e.Trace.fields
         && List.mem_assoc "key" e.Trace.fields)
       (named "cache.evict"));
  Alcotest.(check int)
    "tier 2 stayed within budget, keeping at most the newest" 1
    (List.assoc "tier2_entries" (Cache.stats cache))

let test_resolve_errors () =
  let code line =
    match Cache.resolve (Result.get_ok (Protocol.parse_request line)) with
    | Error ((d : Diag.t) :: _) -> d.Diag.code
    | Error [] -> "(empty)"
    | Ok _ -> "(ok)"
  in
  Alcotest.(check string)
    "unknown kernel" "E-PROTO-002"
    (code {|{"kernel": "quux"}|});
  Alcotest.(check string)
    "unknown device" "E-PROTO-002"
    (code {|{"kernel": "fir", "device": "asic"}|});
  Alcotest.(check string)
    "unknown algorithm" "E-PROTO-002"
    (code {|{"kernel": "fir", "algorithm": "magic"}|});
  Alcotest.(check string)
    "source parse error" "E-PARSE-001"
    (code {|{"source": "kernel oops {"}|});
  (* Inline source and the named kernel content-address identically. *)
  let named = resolve_exn {|{"kernel": "example"}|} in
  let inline =
    resolve_exn
      (Printf.sprintf {|{"source": "%s"}|}
         (String.concat "\\n"
            (String.split_on_char '\n'
               (Parser.canonical_source (Kernels.example ())))))
  in
  Alcotest.(check string)
    "inline source hashes like the named kernel"
    (Cache.tier1_key ~device:named.Cache.device named.Cache.source)
    (Cache.tier1_key ~device:inline.Cache.device inline.Cache.source);
  Alcotest.(check string)
    "and carries the same tier-1 key" named.Cache.t1 inline.Cache.t1

(* Named kernels resolve through a per-process memo. Every name, alias
   and mixed-case spelling must give, on its first and every later
   call, the bytes a fresh build renders and the tier-1 key they hash
   to on each device; the later calls share the memoized nest. Unknown
   names are never memoized and keep their diagnostic. *)
let test_named_memo () =
  let spellings =
    Kernels.names
    @ [ "decfir"; "dec_fir"; "matmul"; "movavg"; "cornerturn"; "gradient";
        "synthetic-cut"; "synthetic"; "MATMUL"; "Dec_Fir"; "FIR";
        "Moving-Average"; "GRADIENT-pair" ]
  in
  List.iter
    (fun spelling ->
      let source =
        Parser.canonical_source (Option.get (Kernels.find spelling))
      in
      List.iter
        (fun (device_name, device) ->
          let resolve () =
            resolve_exn
              (Printf.sprintf {|{"kernel": "%s", "device": "%s"}|} spelling
                 device_name)
          in
          let first = resolve () in
          let second = resolve () in
          List.iter
            (fun (call, (r : Cache.resolved)) ->
              let what =
                Printf.sprintf "%s on %s, %s call" spelling device_name call
              in
              Alcotest.(check string) (what ^ ": source") source r.Cache.source;
              Alcotest.(check string)
                (what ^ ": tier-1 key")
                (Cache.tier1_key ~device source)
                r.Cache.t1)
            [ ("first", first); ("second", second) ];
          Alcotest.(check bool)
            (spelling ^ ": the second call shares the memoized nest")
            true (first.Cache.nest == second.Cache.nest))
        [ ("xcv1000", Device.xcv1000); ("xc2v6000", Device.xc2v6000) ])
    spellings;
  let unknown () =
    let req = Result.get_ok (Protocol.parse_request {|{"kernel": "quux"}|}) in
    match Cache.resolve req with
    | Error [ d ] -> (d.Diag.code, d.Diag.message)
    | Error _ -> Alcotest.fail "unknown kernel: expected one diagnostic"
    | Ok _ -> Alcotest.fail "unknown kernel resolved"
  in
  List.iter
    (fun call ->
      Alcotest.(check (pair string string))
        ("unknown kernel, " ^ call ^ " call")
        ( "E-PROTO-002",
          "unknown kernel \"quux\" (try: fir, dec-fir, imi, mat, pat, bic, \
           example, conv2d, moving-average, corner-turn, gradient-pair)" )
        (unknown ()))
    [ "first"; "second" ]

(* A tier-1 entry is charged what it holds. The simulator scratch fills
   its rank cache when it is built, so the size measured at insert (right
   after the build, before any simulation) is the size the entry keeps
   after a cold allocate or a cold rebudget has run on it. *)
let test_tier1_bytes () =
  let within_5pct what cache (r : Cache.resolved) =
    let t1 = Cache.tier1_key ~device:r.device r.source in
    match Cache.find cache Cache.Analyses t1 with
    | None -> Alcotest.failf "%s: no tier-1 entry" what
    | Some e ->
      let reachable =
        (1 + Obj.reachable_words (Obj.repr e)) * (Sys.word_size / 8)
      in
      let charged = List.assoc "tier1_bytes" (Cache.stats cache) in
      if abs (charged - reachable) * 20 > reachable then
        Alcotest.failf "%s: charged %d B, reachable %d B" what charged
          reachable
  in
  List.iter
    (fun kernel ->
      let r =
        resolve_exn (Printf.sprintf {|{"kernel": "%s", "budget": 64}|} kernel)
      in
      let cache = Cache.create () in
      ignore (respond_exn cache r);
      within_5pct (kernel ^ " after respond") cache r;
      let cache = Cache.create () in
      (match Cache.rebudget cache r ~stream:"s" with
      | Ok _ -> ()
      | Error ds ->
        Alcotest.failf "rebudget: %s"
          (String.concat "; " (List.map Diag.to_json ds)));
      within_5pct (kernel ^ " after rebudget") cache r)
    [ "bic"; "fir"; "mat"; "imi" ]

(* Later requests at other algorithms and budgets reuse the tier-1 entry
   without growing it, so what was charged at insert stays what it
   holds. A CPA-RA round memo in the cached scratch would grow with every
   new allocation state; budget ladders keep theirs to themselves
   (Cpa_ra.ladder). *)
let test_tier1_bytes_across_requests () =
  List.iter
    (fun kernel ->
      let cache = Cache.create () in
      let request (alg, budget) =
        resolve_exn
          (Printf.sprintf {|{"kernel": "%s", "algorithm": "%s", "budget": %d}|}
             kernel alg budget)
      in
      let pairs =
        [ ("cpa-ra", 64); ("cpa-ra", 8); ("cpa-ra+", 16); ("portfolio", 32);
          ("cpa-ra", 128) ]
      in
      List.iter (fun p -> ignore (respond_exn cache (request p))) pairs;
      let r = request (List.hd pairs) in
      match
        Cache.find cache Cache.Analyses
          (Cache.tier1_key ~device:r.device r.source)
      with
      | None -> Alcotest.failf "%s: no tier-1 entry" kernel
      | Some e ->
        let reachable =
          (1 + Obj.reachable_words (Obj.repr e)) * (Sys.word_size / 8)
        in
        let charged = List.assoc "tier1_bytes" (Cache.stats cache) in
        if abs (charged - reachable) * 20 > reachable then
          Alcotest.failf "%s: charged %d B, reachable %d B" kernel charged
            reachable)
    [ "bic"; "fir"; "mat"; "imi" ]

(* An inline source may declare arrays far larger than the loops read.
   A cold request costs what its nest costs: x[2][1000000000] read over a
   2x2 nest answers without touching memory in proportion to the
   declaration. *)
let test_inline_wide_array () =
  let r =
    resolve_exn
      {|{"source": "kernel wide { input int x[2][1000000000]; output int y[2]; for (i = 0; i < 2; i++) for (j = 0; j < 2; j++) y[i] += x[i][j]; }", "algorithm": "cpa-ra", "budget": 8}|}
  in
  let (report, _, _), allocated =
    Srfa_test_helpers.Helpers.allocated_bytes (fun () ->
        respond_exn (Cache.create ()) r)
  in
  Alcotest.(check (pair int int)) "cycles, memory cycles" (8, 4)
    (report.Srfa_estimate.Report.cycles,
     report.Srfa_estimate.Report.memory_cycles);
  if allocated > 1_048_576. then
    Alcotest.failf "a 4-point cold request allocated %.0f B" allocated

(* The session store's behavioural contract (DESIGN.md §16): first touch
   is a cold bootstrap, later events hit the live session, a revisited
   budget is served from the session memo, and distinct streams get
   distinct sessions over the shared tier-1 analysis. *)
let test_rebudget_sessions () =
  let module F = Srfa_core.Flow.Core in
  let cache = Cache.create () in
  let step ?(stream = "s") budget =
    let r =
      resolve_exn
        (Printf.sprintf {|{"op": "rebudget", "kernel": "fir", "budget": %d}|}
           budget)
    in
    match Cache.rebudget cache r ~stream with
    | Ok (step, status) -> (step, status)
    | Error ds ->
      Alcotest.failf "rebudget: %s" (String.concat "; " (List.map Diag.to_json ds))
  in
  let s1, st1 = step 32 in
  Alcotest.(check bool) "cold bootstrap is a miss" true (st1 = `Miss);
  Alcotest.(check bool) "bootstrap is not memoized" false s1.F.memoized;
  let s2, st2 = step 8 in
  Alcotest.(check bool) "second event hits the session" true (st2 = `Hit);
  Alcotest.(check bool) "shrink reclaims registers" true (s2.F.freed > 0);
  let s3, st3 = step 32 in
  Alcotest.(check bool) "revisit still hits" true (st3 = `Hit);
  Alcotest.(check bool) "revisit is memoized" true s3.F.memoized;
  Alcotest.(check bool)
    "memo serves the physically same report" true (s1.F.report == s3.F.report);
  let _, st4 = step ~stream:"other" 16 in
  Alcotest.(check bool)
    "a new stream reuses only the analysis" true (st4 = `Analysis);
  let stats = Cache.stats cache in
  Alcotest.(check int)
    "two live sessions" 2
    (List.assoc "session_entries" stats);
  Alcotest.(check bool)
    "session hits counted" true (List.assoc "session_hits" stats >= 2);
  (* Sessions never leak into the allocate report tier. *)
  Alcotest.(check int) "tier 2 untouched" 0 (List.assoc "tier2_entries" stats)

(* ---- live daemon ------------------------------------------------------- *)

(* Each case runs its own daemon on a private socket: the scripted
   request mix, the limits, worker isolation and SIGTERM drain; a client
   that vanishes mid-batch and an oversized line, each with the daemon
   provably alive afterwards; the client's failed connects; and the
   shipped binary. *)

module Server = Srfa_server.Server
module Client = Srfa_server.Server.Client

let with_daemon ?max_buffer ?read_timeout_ms ?max_inflight ?faults ?signals
    ?log tag k =
  let socket =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "srfa-test-%s-%d.sock" tag (Unix.getpid ()))
  in
  (try Sys.remove socket with Sys_error _ -> ());
  let d =
    Domain.spawn (fun () ->
        Server.run ?max_buffer ?read_timeout_ms ?max_inflight ?faults ?signals
          ?log ~jobs:2 ~socket ())
  in
  Fun.protect
    ~finally:(fun () ->
      (match Client.connect ~retries:5 socket with
      | c ->
        Client.send c {|{"op": "shutdown"}|};
        (try ignore (Client.recv_opt c) with Sys_error _ -> ());
        Client.close c
      | exception Unix.Unix_error _ -> ());
      Domain.join d)
    (fun () -> k socket)

(* [member ["a"; "b"] line] is the response's a.b member. *)
let member path line =
  List.fold_left
    (fun json key -> Option.bind json (Protocol.member key))
    (Some (Protocol.parse_json line))
    path

let str_member key line =
  match member [ key ] line with Some (Protocol.Str s) -> Some s | _ -> None

let has_code ?(field = "diagnostics") code line =
  match member [ field ] line with
  | Some (Protocol.Arr ds) ->
    List.exists
      (fun d -> Protocol.member "code" d = Some (Protocol.Str code))
      ds
  | _ -> false

let check name ok = Alcotest.(check bool) name true ok

let write_raw c s = ignore (Unix.write_substring c.Client.fd s 0 (String.length s))

(* The daemon's response bytes, pinned. Every registry kernel plus three
   other spellings, on both devices, under every algorithm, at budgets 16
   and 64, then one guard-tripping request whose response carries a
   warnings member: 337 lines, sent one at a time, twice. The first pass
   takes the cold, analysis-reuse and hit paths (the extra spellings hit
   their kernel's entries); the second pass is all hits, so it pins the
   bytes tier 2 splices. Each digest is the MD5 of one pass's response
   lines as they arrive, each followed by '\n'. The digests were taken
   from a daemon that rendered every hit afresh from its report, so they
   hold the stored bodies to that renderer's bytes. *)
let response_corpus =
  List.concat_map
    (fun kernel ->
      List.concat_map
        (fun device ->
          List.concat_map
            (fun algorithm ->
              List.map
                (fun budget ->
                  Printf.sprintf
                    {|{"id": "g", "kernel": "%s", "device": "%s", "algorithm": "%s", "budget": %d}|}
                    kernel device
                    (Srfa_core.Allocator.name algorithm)
                    budget)
                [ 16; 64 ])
            Srfa_core.Allocator.all)
        [ "xcv1000"; "xc2v6000" ])
    (Kernels.names @ [ "MATMUL"; "Dec_Fir"; "movavg" ])
  @ [ {|{"id": "w", "kernel": "bic", "cut_work_limit": 1}|} ]

let response_digests =
  ("2206c9b54d1b3ce1c09b5f309fbc9fc2", "1524ee369c985ddb012f06a7ff2e8e62")

(* [line] with its cache member's value replaced by "hit". *)
let as_hit line =
  let key = {|"cache": "|} in
  let n = String.length key in
  let rec find i =
    if i + n > String.length line then None
    else if String.sub line i n = key then Some (i + n)
    else find (i + 1)
  in
  match find 0 with
  | None -> line
  | Some start ->
    let stop = String.index_from line start '"' in
    String.sub line 0 start ^ "hit"
    ^ String.sub line stop (String.length line - stop)

(* Send [corpus] one line at a time, twice, to one fresh daemon and
   return both passes with the MD5 of each: its response lines as they
   arrive, each followed by '\n'. When the digests are not [pinned],
   both passes go to a temp file named on stderr, to diff against the
   file the same case writes at the parent commit when its pins are
   perturbed. *)
let two_passes name corpus pinned =
  with_daemon name (fun socket ->
      let client = Client.connect socket in
      let pass () = List.map (Client.rpc client) corpus in
      let first = pass () in
      let second = pass () in
      Client.close client;
      let bytes lines = String.concat "" (List.map (fun l -> l ^ "\n") lines) in
      let digests =
        ( Digest.to_hex (Digest.string (bytes first)),
          Digest.to_hex (Digest.string (bytes second)) )
      in
      if digests <> pinned then begin
        let file = Filename.temp_file ("srfa-" ^ name ^ "-golden") ".jsonl" in
        Out_channel.with_open_bin file (fun oc ->
            output_string oc (bytes (first @ second)));
        Printf.eprintf "%s golden: both passes written to %s\n" name file
      end;
      (first, second, digests))

let test_response_golden () =
  let first, second, digests =
    two_passes "response" response_corpus response_digests
  in
  Alcotest.(check int) "corpus lines" 337 (List.length response_corpus);
  Alcotest.(check (pair string string))
    "MD5 of the first and the second pass" response_digests digests;
  List.iteri
    (fun i (a, b) ->
      if as_hit a <> b then
        Alcotest.failf
          "line %d: the second pass differs from the first beyond its \
           cache member:\n%s\n%s"
          (i + 1) a b)
    (List.combine first second);
  check "the guard line carries warnings"
    (member [ "warnings" ] (List.nth second 336) <> None)

(* The session and frontier stores' bytes, pinned the same way. The
   rebudget lines take a cold bootstrap, incremental hits, a memoized
   revisit, a clamp, a second stream, a second device and a second
   spelling of one kernel; the explore lines take a canonically equal
   spec twice, tiling, two spellings, certification, explicit orders
   and a bad orders field. The second pass finds every session live and
   every frontier stored. The digests were recorded before the cache's
   stores became namespaces of one store. *)
let stateful_corpus =
  [
    {|{"id": "r", "op": "rebudget", "kernel": "fir", "budget": 32}|};
    {|{"id": "r", "op": "rebudget", "kernel": "fir", "budget": 8}|};
    {|{"id": "r", "op": "rebudget", "kernel": "fir", "budget": 32}|};
    {|{"id": "r", "op": "rebudget", "kernel": "fir", "budget": 1}|};
    {|{"id": "r", "op": "rebudget", "kernel": "fir", "budget": 16, "stream": "b"}|};
    {|{"id": "r", "op": "rebudget", "kernel": "mat", "device": "xc2v6000", "budget": 64}|};
    {|{"id": "r", "op": "rebudget", "kernel": "MATMUL", "device": "xc2v6000", "budget": 16}|};
    {|{"id": "r", "op": "rebudget", "kernel": "bic", "budget": 24, "stream": "c"}|};
    {|{"id": "r", "op": "rebudget", "kernel": "bic", "budget": 64, "stream": "c"}|};
    {|{"id": "x", "op": "explore", "kernel": "fir", "budgets": "8,16"}|};
    {|{"id": "x", "op": "explore", "kernel": "fir", "budgets": " 8 , 16 "}|};
    {|{"id": "x", "op": "explore", "kernel": "mat", "tiles": "2", "budgets": "16,64", "algorithms": "cpa-ra,portfolio"}|};
    {|{"id": "x", "op": "explore", "kernel": "MATMUL", "tiles": "2", "budgets": "16,64", "algorithms": "cpa-ra,portfolio"}|};
    {|{"id": "x", "op": "explore", "kernel": "example", "certify": true, "budgets": "16,64", "algorithms": "cpa-ra,pr-ra"}|};
    {|{"id": "x", "op": "explore", "kernel": "imi", "orders": "identity", "budgets": "32", "device": "xc2v6000"}|};
    {|{"id": "x", "op": "explore", "kernel": "pat", "orders": "1,0;0,1", "budgets": "16"}|};
    {|{"id": "x", "op": "explore", "kernel": "fir", "orders": "bogus"}|};
  ]

let stateful_digests =
  ("a883939cca1bf2d6a88137ad778424c5", "4c325f1f316243535541a6476a6df9ed")

let test_stateful_golden () =
  let _, _, digests =
    two_passes "rebudget-explore" stateful_corpus stateful_digests
  in
  Alcotest.(check int) "corpus lines" 17 (List.length stateful_corpus);
  Alcotest.(check (pair string string))
    "MD5 of the first and the second pass" stateful_digests digests

(* One daemon, one stateful sequence: the cold / analysis-reuse / hit
   paths, an inline source and a parse error, the protocol error codes,
   a guard trip, an infeasible budget, a rebudget stream, explore, a
   pipelined batch, stats and shutdown. *)
let test_request_mix () =
  with_daemon "mix" (fun socket ->
      let client = Client.connect socket in
      let rpc = Client.rpc client in
      (* 1. cold allocate of a named kernel *)
      let r1 = rpc {|{"id": "c1", "kernel": "fir", "budget": 64}|} in
      check "fir cold is a miss"
        (str_member "status" r1 = Some "ok"
        && str_member "cache" r1 = Some "miss"
        && str_member "id" r1 = Some "c1");
      (* 2. identical request: tier-2 hit with the identical report *)
      let r2 = rpc {|{"id": "c2", "kernel": "fir", "budget": 64}|} in
      check "fir repeat is a hit" (str_member "cache" r2 = Some "hit");
      check "hit serves the same report"
        (member [ "report" ] r1 = member [ "report" ] r2);
      (* 3. same kernel, new budget: analysis tier reused *)
      let r3 = rpc {|{"kernel": "fir", "budget": 32}|} in
      check "budget ladder reuses analysis"
        (str_member "cache" r3 = Some "analysis");
      (* 4. inline source allocates like the named kernel *)
      let source = Parser.canonical_source (Kernels.example ()) in
      let r4 =
        rpc
          (Srfa_util.Json.to_string
             (Protocol.Obj
                [
                  ("source", Protocol.Str source);
                  ("algorithm", Protocol.Str "cpa-ra+");
                ]))
      in
      check "inline source allocates" (str_member "status" r4 = Some "ok");
      (* 5. a parse error comes back as an inline coded diagnostic *)
      let r5 = rpc {|{"id": "bad", "source": "kernel oops {"}|} in
      check "parse error is E-PARSE-001"
        (str_member "status" r5 = Some "error" && has_code "E-PARSE-001" r5);
      (* 6. unknown kernel name: protocol field error *)
      let r6 = rpc {|{"kernel": "no-such-kernel"}|} in
      check "unknown kernel is E-PROTO-002" (has_code "E-PROTO-002" r6);
      (* 7. malformed JSON: protocol error, id recovered from the wreckage *)
      let r7 = rpc "this is not json" in
      check "malformed line is E-PROTO-001" (has_code "E-PROTO-001" r7);
      let r7b = rpc {|{"id": "e1", "budget": }|} in
      check "recovered id is echoed"
        (has_code "E-PROTO-001" r7b && str_member "id" r7b = Some "e1");
      (* 8. guard trip: a starved cut budget degrades CPA-RA with
         W-GUARD-CUT *)
      let r8 = rpc {|{"kernel": "bic", "cut_work_limit": 1}|} in
      check "starved cut guard warns W-GUARD-CUT"
        (str_member "status" r8 = Some "ok"
        && has_code ~field:"warnings" "W-GUARD-CUT" r8);
      (* 9. infeasible budget: coded error, not a crash *)
      let r9 = rpc {|{"kernel": "fir", "budget": 1}|} in
      check "infeasible budget is E-BUDGET-001" (has_code "E-BUDGET-001" r9);
      (* 9b. rebudget: a live budget-event stream over the resident
         kernel. The bootstrap rides the tier-1 entry allocate already
         cached (analysis), later events answer incrementally from the
         session (hit), revisited budgets come from the session memo,
         and a starved target clamps with W-GUARD-REBUDGET instead of
         the E-BUDGET-001 an allocate gets. *)
      let r20 =
        rpc {|{"id": "rb1", "op": "rebudget", "kernel": "fir", "budget": 32}|}
      in
      check "rebudget bootstrap reuses the analysis"
        (str_member "status" r20 = Some "ok"
        && str_member "cache" r20 = Some "analysis"
        && str_member "id" r20 = Some "rb1"
        && member [ "rebudget"; "memoized" ] r20 = Some (Protocol.Bool false));
      let r21 = rpc {|{"op": "rebudget", "kernel": "fir", "budget": 8}|} in
      check "rebudget shrink answers incrementally"
        (str_member "cache" r21 = Some "hit"
        &&
        match member [ "rebudget"; "freed" ] r21 with
        | Some (Protocol.Int n) -> n > 0
        | _ -> false);
      let r22 = rpc {|{"op": "rebudget", "kernel": "fir", "budget": 32}|} in
      check "rebudget revisit is memoized"
        (str_member "cache" r22 = Some "hit"
        && member [ "rebudget"; "memoized" ] r22 = Some (Protocol.Bool true));
      let r23 = rpc {|{"op": "rebudget", "kernel": "fir", "budget": 1}|} in
      check "starved rebudget clamps with W-GUARD-REBUDGET"
        (str_member "status" r23 = Some "ok"
        && member [ "rebudget"; "clamped" ] r23 = Some (Protocol.Bool true)
        && has_code ~field:"warnings" "W-GUARD-REBUDGET" r23);
      let r24 =
        rpc {|{"op": "rebudget", "kernel": "fir", "budget": 16, "stream": "b"}|}
      in
      check "distinct stream opens its own session"
        (str_member "cache" r24 = Some "analysis");
      let r25 = rpc {|{"op": "rebudget", "kernel": "fir"}|} in
      check "rebudget without budget is E-PROTO-002"
        (has_code "E-PROTO-002" r25);
      (* 9c. explore: a design-space frontier, cold then from the
         frontier tier. The frontier member embeds real points; a repeat
         with differently formatted but canonically equal space fields
         must hit the same key. *)
      let frontier_points line =
        match member [ "frontier"; "points" ] line with
        | Some (Protocol.Arr ps) -> List.length ps
        | _ -> -1
      in
      let r26 =
        rpc {|{"id": "x1", "op": "explore", "kernel": "fir", "budgets": "8,16"}|}
      in
      check "explore cold is a miss with a frontier"
        (str_member "status" r26 = Some "ok"
        && str_member "cache" r26 = Some "miss"
        && str_member "id" r26 = Some "x1"
        && frontier_points r26 > 0);
      let r27 =
        rpc {|{"op": "explore", "kernel": "fir", "budgets": " 8 , 16 "}|}
      in
      check "canonically equal explore spec hits the frontier tier"
        (str_member "cache" r27 = Some "hit" && frontier_points r27 > 0);
      let r28 =
        rpc {|{"op": "explore", "kernel": "fir", "budgets": "8,16,32"}|}
      in
      check "different explore spec is its own entry"
        (str_member "cache" r28 = Some "miss");
      let r29 = rpc {|{"op": "explore", "kernel": "fir", "orders": "bogus"}|} in
      check "bad explore orders is E-PROTO-002" (has_code "E-PROTO-002" r29);
      (* 10. pipelined batch: two requests before either answer is read,
         answered in order *)
      Client.send client {|{"id": "b1", "kernel": "mat", "budget": 16}|};
      Client.send client
        {|{"id": "b2", "kernel": "mat", "budget": 16, "algorithm": "fr-ra"}|};
      let rb1 = Client.recv client in
      let rb2 = Client.recv client in
      check "batched responses keep order"
        (str_member "id" rb1 = Some "b1" && str_member "id" rb2 = Some "b2");
      check "batched same-kernel requests share the analysis"
        (str_member "cache" rb1 = Some "miss"
        && str_member "cache" rb2 = Some "analysis");
      (* 11. stats reflect the mix *)
      let rs = rpc {|{"op": "stats"}|} in
      let stat key =
        match member [ "stats"; key ] rs with Some (Protocol.Int i) -> i | _ -> -1
      in
      check "stats count the hits" (stat "tier2_hits" >= 1 && stat "served" >= 8);
      check "stats expose the session store"
        (stat "session_entries" >= 2 && stat "session_hits" >= 2);
      (* 12. shutdown *)
      let bye = rpc {|{"op": "shutdown"}|} in
      check "shutdown answers bye" (member [ "bye" ] bye = Some (Protocol.Bool true));
      Client.close client)

(* Tight limits: a half-written line times out, a pipelined flood beyond
   the in-flight bound is shed, and an impossible deadline trips. *)
let test_limits () =
  with_daemon ~max_inflight:2 ~read_timeout_ms:300 "limits" (fun socket ->
      let c2 = Client.connect socket in
      let c4 = Client.connect socket in
      write_raw c4 {|{"id": "slow"|};
      let r14 = Client.recv c4 in
      check "half-written line is E-PROTO-003"
        (has_code "E-PROTO-003" r14 && str_member "id" r14 = Some "slow");
      Client.close c4;
      (* A flood of cold requests beyond the in-flight bound is shed with
         E-OVERLOAD, in order, one response per request. One write
         syscall so the whole flood lands in one select round. *)
      let flood = [ 17; 18; 19; 20; 21; 22 ] in
      write_raw c2
        (String.concat ""
           (List.map
              (fun b ->
                Printf.sprintf {|{"id": "f%d", "kernel": "fir", "budget": %d}|}
                  b b
                ^ "\n")
              flood));
      let flood_rs = List.map (fun _ -> Client.recv c2) flood in
      let oks, sheds =
        List.partition (fun r -> str_member "status" r = Some "ok") flood_rs
      in
      check "flood answers every request"
        (List.length flood_rs = 6
        && List.map (fun r -> str_member "id" r) flood_rs
           = List.map (fun b -> Some (Printf.sprintf "f%d" b)) flood);
      check "overload sheds beyond the bound"
        (List.length oks = 2
        && List.length sheds = 4
        && List.for_all (fun r -> has_code "E-OVERLOAD" r) sheds);
      let retry_hint r =
        match member [ "diagnostics" ] r with
        | Some (Protocol.Arr (d :: _)) -> (
          match Option.bind (Protocol.member "context" d) (Protocol.member "retry_after_ms") with
          | Some (Protocol.Str _) -> true
          | _ -> false)
        | _ -> false
      in
      check "shed responses carry retry_after_ms" (List.for_all retry_hint sheds);
      (* An impossible deadline trips E-DEADLINE and is never cached. *)
      let r15 = Client.rpc c2 {|{"kernel": "pat", "budget": 48, "deadline_ms": 0}|} in
      check "deadline trip is E-DEADLINE" (has_code "E-DEADLINE" r15);
      let r16 = Client.rpc c2 {|{"kernel": "pat", "budget": 48}|} in
      check "tripped requests are never cached"
        (str_member "status" r16 = Some "ok"
        && str_member "cache" r16 <> Some "hit");
      Client.close c2)

(* Under a 100% pool.job fault plan every cold compute fails as
   E-INTERNAL-* but the daemon and its stats stay live. *)
let test_worker_isolation () =
  let faults =
    match Fault.parse ~seed:42 "pool.job:raise@1,cache.insert:error@1" with
    | Ok f -> f
    | Error msg -> Alcotest.fail msg
  in
  with_daemon ~faults "faults" (fun socket ->
      let c = Client.connect socket in
      let r17 = Client.rpc c {|{"id": "w1", "kernel": "fir"}|} in
      check "raising worker is E-INTERNAL"
        (str_member "status" r17 = Some "error"
        && has_code "E-INTERNAL-002" r17
        && str_member "id" r17 = Some "w1");
      let r18 = Client.rpc c {|{"op": "stats"}|} in
      check "daemon survives worker faults" (str_member "status" r18 = Some "ok");
      Client.close c)

(* An injected short write sends exactly the first half of the response
   line (its newline counted) and then drops the connection. *)
let test_short_write () =
  let faults =
    match Fault.parse ~seed:42 "io.write:short-read@1" with
    | Ok f -> f
    | Error msg -> Alcotest.fail msg
  in
  with_daemon ~faults "short" (fun socket ->
      let c = Client.connect socket in
      Client.send c {|{"id": "s", "kernel": 7}|};
      let line =
        Protocol.response_error ~id:"s"
          [ Protocol.field_error {|field "kernel" must be a string|} ]
        ^ "\n"
      in
      Alcotest.(check string)
        "half the line, then EOF"
        (String.sub line 0 (String.length line / 2))
        (In_channel.input_all c.Client.ic);
      Client.close c)

(* SIGTERM stops the daemon after the in-flight work is answered, flushes
   the stats through [log] and removes the socket file. *)
let test_sigterm_drain () =
  let drained = ref None in
  let socket =
    with_daemon ~signals:true ~log:(fun m -> drained := Some m) "drain"
      (fun socket ->
        let c = Client.connect socket in
        let r19 = Client.rpc c {|{"kernel": "fir"}|} in
        check "pre-drain request is served" (str_member "status" r19 = Some "ok");
        Unix.kill (Unix.getpid ()) Sys.sigterm;
        (* The drained daemon closes every client on its way out. *)
        ignore (Client.recv_opt c);
        Client.close c;
        socket)
  in
  check "SIGTERM drains and exits" (not (Sys.file_exists socket));
  check "drain flushes the stats"
    (match !drained with
    | Some m -> Srfa_test_helpers.Helpers.contains_substring m "served="
    | None -> false)

let test_disconnect_mid_batch () =
  with_daemon "disc" (fun socket ->
      (* A sends a cold request and hangs up before the answer exists. *)
      let a = Client.connect socket in
      Client.send a {|{"id": "gone", "kernel": "mat", "budget": 24}|};
      Client.close a;
      (* B, on its own connection, is served normally regardless. *)
      let b = Client.connect socket in
      let rb = Client.rpc b {|{"id": "b1", "kernel": "fir", "budget": 64}|} in
      Alcotest.(check (option string))
        "b answered ok" (Some "ok") (str_member "status" rb);
      Alcotest.(check (option string))
        "b correlated" (Some "b1") (str_member "id" rb);
      Client.close b;
      (* Replaying the abandoned request still yields a full answer —
         the daemon neither crashed on the dead fd nor poisoned the
         cache entry A never read. *)
      let c = Client.connect socket in
      let rc = Client.rpc c {|{"id": "r", "kernel": "mat", "budget": 24}|} in
      Alcotest.(check (option string))
        "abandoned request replays clean" (Some "ok") (str_member "status" rc);
      Client.close c)

let test_oversized_request () =
  with_daemon ~max_buffer:256 ~read_timeout_ms:5_000 "big" (fun socket ->
      let c = Client.connect socket in
      let junk = {|{"id": "big", "pad": "|} ^ String.make 1024 'x' in
      let n = Unix.write_substring c.Client.fd junk 0 (String.length junk) in
      Alcotest.(check int) "junk fully written" (String.length junk) n;
      (match Client.recv_opt c with
      | Some line ->
        Alcotest.(check (option string))
          "abuse is an error response" (Some "error") (str_member "status" line);
        Alcotest.(check bool) "coded E-PROTO-003" true
          (has_code "E-PROTO-003" line);
        Alcotest.(check (option string))
          "id recovered from the junk" (Some "big") (str_member "id" line)
      | None -> Alcotest.fail "dropped without the E-PROTO-003 response");
      Alcotest.(check (option string))
        "then the connection is dropped" None (Client.recv_opt c);
      Client.close c;
      (* The daemon is unharmed: a well-formed client still gets served. *)
      let d = Client.connect socket in
      let rd = Client.rpc d {|{"kernel": "fir", "budget": 64}|} in
      Alcotest.(check (option string))
        "daemon survives the abuse" (Some "ok") (str_member "status" rd);
      Client.close d)

(* A connect that gives up closes every socket it opened, the last
   attempt's too. *)
let test_connect_closes_failed_sockets () =
  let open_fds () = Array.length (Sys.readdir "/proc/self/fd") in
  let missing =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "srfa-test-missing-%d.sock" (Unix.getpid ()))
  in
  let before = open_fds () in
  for _ = 1 to 64 do
    match Client.connect ~retries:0 missing with
    | c ->
      Client.close c;
      Alcotest.fail "connected to a missing socket"
    | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  done;
  Alcotest.(check int) "open descriptors unchanged" before (open_fds ())

(* The shipped binary, started the way perfbench starts it. *)
let test_binary () =
  let exe =
    Filename.concat (Filename.dirname Sys.executable_name) "../bin/srfa_serve.exe"
  in
  let socket =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "srfa-test-bin-%d.sock" (Unix.getpid ()))
  in
  let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY; Unix.O_CLOEXEC ] 0 in
  let spawn extra stderr =
    Unix.create_process exe
      (Array.of_list ([ exe; "--socket"; socket; "--jobs"; "1" ] @ extra))
      Unix.stdin null stderr
  in
  let exit_code pid =
    match Unix.waitpid [] pid with
    | _, Unix.WEXITED n -> n
    | _ -> -1
  in
  let pid = spawn [] null in
  let c = Client.connect socket in
  check "stats answered ok"
    (str_member "status" (Client.rpc c {|{"op": "stats"}|}) = Some "ok");
  ignore (Client.rpc c {|{"op": "shutdown"}|});
  Client.close c;
  Alcotest.(check int) "exit 0 after shutdown" 0 (exit_code pid);
  let pid = spawn [ "--deadline-ms=-5" ] null in
  Alcotest.(check int) "negative deadline is a usage error" 124 (exit_code pid);
  let err_r, err_w = Unix.pipe ~cloexec:true () in
  let pid = spawn [ "--faults"; "disk.spin:error@0.5" ] err_w in
  Unix.close err_w;
  Unix.close null;
  let message = In_channel.input_all (Unix.in_channel_of_descr err_r) in
  Unix.close err_r;
  Alcotest.(check int) "bad fault plan exits 2" 2 (exit_code pid);
  check "with a parse message"
    (Srfa_test_helpers.Helpers.contains_substring message
       {|unknown site "disk.spin"|})

let () =
  Alcotest.run "serve"
    [
      ( "goldens",
        [
          Alcotest.test_case "kernel digests" `Quick test_golden_digests;
          Alcotest.test_case "key sensitivity" `Quick test_key_sensitivity;
          Alcotest.test_case "canonical stability" `Quick
            test_canonical_stability;
        ] );
      ( "protocol",
        [
          Alcotest.test_case "parse_request" `Quick test_parse_request;
          Alcotest.test_case "json reader" `Quick test_json_reader;
          Alcotest.test_case "recover_id" `Quick test_recover_id;
          Alcotest.test_case "deadline field" `Quick test_deadline_field;
          Alcotest.test_case "resilience diags" `Quick test_resilience_diags;
        ] );
      ( "faults",
        [
          Alcotest.test_case "registry" `Quick test_fault_registry;
          Alcotest.test_case "cache insert faulted" `Quick
            test_fault_cache_insert;
        ] );
      ( "cache",
        [
          Alcotest.test_case "physical hit" `Quick test_physical_hit;
          Alcotest.test_case "analysis reuse" `Quick test_analysis_reuse;
          Alcotest.test_case "guard warning passthrough" `Quick
            test_guard_warning_passthrough;
          Alcotest.test_case "errors not cached" `Quick test_errors_not_cached;
          Alcotest.test_case "eviction events" `Quick test_eviction_events;
          Alcotest.test_case "resolve errors" `Quick test_resolve_errors;
          Alcotest.test_case "named-kernel memo" `Quick test_named_memo;
          Alcotest.test_case "rebudget sessions" `Quick test_rebudget_sessions;
          Alcotest.test_case "tier-1 bytes charged at insert" `Quick
            test_tier1_bytes;
          Alcotest.test_case "tier-1 bytes hold across requests" `Quick
            test_tier1_bytes_across_requests;
          Alcotest.test_case "inline source with a huge array" `Quick
            test_inline_wide_array;
          Alcotest.test_case "stats row" `Quick test_stats_row;
        ] );
      ( "daemon",
        [
          Alcotest.test_case "disconnect mid-batch" `Quick
            test_disconnect_mid_batch;
          Alcotest.test_case "oversized request" `Quick test_oversized_request;
          Alcotest.test_case "scripted request mix" `Quick test_request_mix;
          Alcotest.test_case "response golden" `Quick test_response_golden;
          Alcotest.test_case "rebudget and explore golden" `Quick
            test_stateful_golden;
          Alcotest.test_case "limits" `Quick test_limits;
          Alcotest.test_case "worker isolation" `Quick test_worker_isolation;
          Alcotest.test_case "short write" `Quick test_short_write;
          Alcotest.test_case "SIGTERM drain" `Quick test_sigterm_drain;
          Alcotest.test_case "connect closes failed sockets" `Quick
            test_connect_closes_failed_sockets;
          Alcotest.test_case "srfa_serve binary" `Quick test_binary;
        ] );
    ]
