(* The [serve] workload: srfa_serve.exe as a separate process (--jobs 1,
   default tiers) and one client connection in a closed loop: each request
   is sent when the previous response has arrived. The seeded mix is
   mostly tier-2 hits, so protocol decoding, cache-key hashing, lookup,
   insert, report rendering and the select loop carry the load; the
   allocator layers run only for the misses.

   Per block of 200 requests: 150 tier-2 hits by kernel name, 30 tier-2
   hits by inline source text that canonicalises to a cached kernel, 6
   tier-1 hits with a fresh (algorithm, budget) pair, 1 cold inline
   source, 8 rebudget events on named streams and 5 malformed lines or
   bad fields. *)

open Common
open Srfa_core
module Client = Srfa_server.Server.Client
module Gen = Srfa_fuzzer.Gen
module K = Srfa_kernels.Kernels

type kind = Hit_named | Hit_inline | Fresh | Cold | Rebudget | Bad

let block =
  List.concat_map
    (fun (k, n) -> List.init n (fun _ -> k))
    [ (Hit_named, 150); (Hit_inline, 30); (Fresh, 6); (Cold, 1); (Rebudget, 8); (Bad, 5) ]

type payload =
  | Allocate of { key : string; algorithm : Allocator.algorithm; eval : string }
      (** [eval]: the line the in-process evaluation resolves — the named
          form for an inline copy, whose tier-2 entry the named warm-up
          request filled (the two canonicalise to one key, so the cached
          report carries the named kernel's name) *)
  | Event of { stream : string; budget : int }
  | Malformed of string  (** the expected diagnostic-code prefix *)

type request = { id : string; line : string; payload : payload }

let json_string s =
  let b = Buffer.create (String.length s + 16) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let hit_kernels =
  [ "example"; "fir"; "dec-fir"; "mat"; "imi"; "pat"; "conv2d";
    "moving-average"; "corner-turn"; "gradient-pair" ]

let small_kernels = [| "example"; "gradient-pair"; "moving-average"; "corner-turn" |]
let stream_kernels = [ "example"; "dec-fir"; "mat" ]

let allocate_line ~id ~spec ~algorithm ~budget =
  Printf.sprintf "{\"id\": \"%s\", %s, \"algorithm\": \"%s\", \"budget\": %d}"
    id spec (Allocator.name algorithm) budget

let named name = Printf.sprintf "\"kernel\": \"%s\"" name
let inline text = Printf.sprintf "\"source\": %s" (json_string text)

let inline_source name =
  "/* inline copy */\n" ^ source (Option.get (K.find name))

let bad_lines =
  [|
    ("{\"kernel\": \"fir\", \"budget\": ", "E-PROTO-001");
    ("{\"kernel\": \"fir\", \"algorithm\": \"no-such-ra\"}", "E-PROTO-002");
    ("{\"kernel\": \"no-such-kernel\"}", "E-PROTO-002");
    ("{\"kernel\": \"fir\", \"budget\": \"lots\"}", "E-PROTO-002");
    ( "{\"source\": \"kernel broken { input int x[4]; output int y[4]; for (i = 0; i < 4; i++) y[i] = ; }\"}",
      "E-PARSE" );
  |]

(* The seeded request stream. Hit pairs are fixed per seed; fresh pairs,
   cold sources and rebudget streams are drawn from counters so each is
   new; every block of 200 is shuffled with its own split generator. *)
type gen = {
  rng : Prng.t;
  pairs : (string * Allocator.algorithm * int) array;
  mutable queue : kind list;
  mutable blocks : int;
  mutable issued : int;
  mutable fresh : int;
  mutable cold : int;
  mutable bad : int;
  mutable stream_id : int;
  mutable events : (string * string * int) list;  (** stream, kernel, budget *)
}

let hit_pairs seed =
  let rng = Prng.create ~seed in
  Array.of_list
    (List.concat_map
       (fun name ->
         let minimum =
           (Flow.Core.prepare (Option.get (K.find name))).Flow.Core.minimum
         in
         let budgets = List.filter (fun b -> b >= minimum) [ 16; 32; 64; 128 ] in
         let options =
           Array.of_list
             (List.concat_map
                (fun a -> List.map (fun b -> (name, a, b)) budgets)
                Allocator.all)
         in
         Prng.shuffle rng options;
         Array.to_list (Array.sub options 0 3))
       hit_kernels)

let make_gen seed =
  {
    rng = Prng.create ~seed:(seed + 7);
    pairs = hit_pairs seed;
    queue = [];
    blocks = 0;
    issued = 0;
    fresh = 0;
    cold = 0;
    bad = 0;
    stream_id = 0;
    events = [];
  }

let rec next_event g =
  match g.events with
  | e :: rest ->
    g.events <- rest;
    e
  | [] ->
    let st = Gen.generate_stream ~seed:(Prng.int g.rng 1_000_000) ~id:g.stream_id in
    g.stream_id <- g.stream_id + 1;
    if List.mem st.Gen.kernel stream_kernels then begin
      let name = Printf.sprintf "s%d" st.Gen.stream_id in
      g.events <-
        List.map (fun b -> (name, st.Gen.kernel, b)) (st.Gen.initial :: st.Gen.events)
    end;
    next_event g

let next g =
  (match g.queue with
  | [] ->
    let a = Array.of_list block in
    Prng.shuffle (Prng.split g.rng g.blocks) a;
    g.blocks <- g.blocks + 1;
    g.queue <- Array.to_list a
  | _ -> ());
  let kind = List.hd g.queue in
  g.queue <- List.tl g.queue;
  let id = Printf.sprintf "r%d" g.issued in
  g.issued <- g.issued + 1;
  let alloc ?eval ~spec ~key algorithm budget =
    let line = allocate_line ~id ~spec ~algorithm ~budget in
    let eval =
      match eval with
      | Some spec -> allocate_line ~id ~spec ~algorithm ~budget
      | None -> line
    in
    {
      id;
      line;
      payload =
        Allocate
          { key = Printf.sprintf "%s|%s|%d" key (Allocator.name algorithm) budget;
            algorithm;
            eval };
    }
  in
  match kind with
  | Hit_named ->
    let name, a, b = g.pairs.(Prng.int g.rng (Array.length g.pairs)) in
    alloc ~spec:(named name) ~key:name a b
  | Hit_inline ->
    let name, a, b = g.pairs.(Prng.int g.rng (Array.length g.pairs)) in
    alloc ~eval:(named name) ~spec:(inline (inline_source name)) ~key:name a b
  | Fresh ->
    let c = g.fresh in
    g.fresh <- c + 1;
    let name = small_kernels.(c mod Array.length small_kernels) in
    let a = List.nth Allocator.all (c / 4 mod 6) in
    alloc ~spec:(named name) ~key:name a (100 + (c / 24))
  | Cold ->
    let c = g.cold in
    g.cold <- c + 1;
    let text =
      source (Srfa_kernels.Extra.moving_average ~window:(4 + (c mod 13)) ~samples:(128 + c) ())
    in
    alloc ~spec:(inline text) ~key:(Printf.sprintf "cold%d" c) Allocator.Cpa_ra 64
  | Rebudget ->
    let stream, kernel, budget = next_event g in
    {
      id;
      line =
        Printf.sprintf
          "{\"id\": \"%s\", \"op\": \"rebudget\", \"kernel\": \"%s\", \"stream\": \"%s\", \"budget\": %d}"
          id kernel stream budget;
      payload = Event { stream; budget };
    }
  | Bad ->
    let text, code = bad_lines.(g.bad mod Array.length bad_lines) in
    g.bad <- g.bad + 1;
    let line = "{\"id\": \"" ^ id ^ "\", " ^ String.sub text 1 (String.length text - 1) in
    { id; line; payload = Malformed code }

(* ---- the daemon ------------------------------------------------------ *)

type daemon = { pid : int; client : Client.t }

let connect sock =
  let deadline = now_s () +. 10.0 in
  let rec attempt () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX sock) with
    | () -> { Client.fd; ic = Unix.in_channel_of_descr fd }
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _)
      when now_s () < deadline ->
      Unix.close fd;
      Unix.sleepf 0.001;
      attempt ()
  in
  attempt ()

let spawn (s : settings) =
  let sock = Filename.concat s.out_dir (Printf.sprintf "serve-%d.sock" (Unix.getpid ())) in
  let log =
    Unix.openfile (Filename.concat s.out_dir "serve-daemon.log")
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644
  in
  let pid =
    Unix.create_process s.daemon
      [| s.daemon; "--socket"; sock; "--jobs"; "1" |]
      Unix.stdin log log
  in
  Unix.close log;
  match connect sock with
  | client -> { pid; client }
  | exception e ->
    Unix.kill pid Sys.sigkill;
    ignore (Unix.waitpid [] pid);
    raise e

let stop d =
  (try
     Client.send d.client "{\"op\": \"shutdown\"}";
     ignore (Client.recv_opt d.client)
   with Unix.Unix_error _ | Sys_error _ -> ());
  Client.close d.client;
  let deadline = now_s () +. 10.0 in
  let rec reap () =
    match Unix.waitpid [ Unix.WNOHANG ] d.pid with
    | 0, _ when now_s () < deadline ->
      Unix.sleepf 0.01;
      reap ()
    | 0, _ ->
      Unix.kill d.pid Sys.sigkill;
      ignore (Unix.waitpid [] d.pid)
    | _ -> ()
  in
  reap ()

let rpc d line =
  Client.send d.client line;
  Client.recv_opt d.client

(* ---- response checks ------------------------------------------------- *)

(* The offset just past the first occurrence of [pat] in [line]. *)
let find line pat =
  let n = String.length pat and len = String.length line in
  let rec go i =
    if i + n > len then None
    else if String.sub line i n = pat then Some (i + n)
    else go (i + 1)
  in
  go 0

let contains line pat = find line pat <> None

(* The value of the first ["field": "..."] string in a response line. *)
let field_value line field =
  Option.map
    (fun i -> String.sub line i (String.index_from line i '"' - i))
    (find line (Printf.sprintf "\"%s\": \"" field))

let status_of = function
  | Some "hit" -> Some `Hit
  | Some "analysis" -> Some `Analysis
  | Some "miss" -> Some `Miss
  | _ -> None

(* The in-process evaluation every response is compared with: allocate
   requests through Flow.Core.checked_prepared, rebudget events through
   a private Flow.Core rebudget session per stream. *)
type oracle = {
  reports : (string, Srfa_estimate.Report.t * Srfa_util.Diag.t list) Hashtbl.t;
  prepared : (string, Flow.Core.prepared) Hashtbl.t;
  sessions : (string, Flow.Core.rebudget_session) Hashtbl.t;
}

let oracle () =
  { reports = Hashtbl.create 256; prepared = Hashtbl.create 64; sessions = Hashtbl.create 64 }

let resolve line =
  match Protocol.parse_request line with
  | Error _ -> None
  | Ok req -> (
    match Cache.resolve req with Ok r -> Some r | Error _ -> None)

let prepared o (r : Cache.resolved) =
  match Hashtbl.find_opt o.prepared r.Cache.source with
  | Some p -> p
  | None ->
    let p = Flow.Core.prepare r.Cache.nest in
    Hashtbl.add o.prepared r.Cache.source p;
    p

let expected o req status =
  match req.payload with
  | Malformed _ -> None
  | Allocate { key; algorithm; eval } ->
    let report, warnings =
      match Hashtbl.find_opt o.reports key with
      | Some v -> v
      | None ->
        let r = Option.get (resolve eval) in
        let v =
          match
            Flow.Core.checked_prepared (Cache.config_for r) algorithm (prepared o r)
          with
          | Ok v -> v
          | Error diags -> failwith (String.concat "; " (List.map Srfa_util.Diag.to_string diags))
        in
        Hashtbl.add o.reports key v;
        v
    in
    Some (Protocol.response_ok ~id:req.id ~cache:status ~warnings report)
  | Event { stream; budget } ->
    let step =
      match Hashtbl.find_opt o.sessions stream with
      | Some session -> Stages.rebudget_step session ~budget
      | None ->
        let r = Option.get (resolve req.line) in
        let config = Cache.config_for r in
        let p = prepared o r in
        let session, step =
          Stages.rebudget_start ~sim_scratch:(Flow.Core.scratch ~config p) config p ~budget
        in
        Hashtbl.add o.sessions stream session;
        step
    in
    let rb =
      {
        Protocol.rb_requested = step.Flow.Core.requested;
        rb_effective = step.Flow.Core.effective;
        rb_clamped = step.Flow.Core.clamped;
        rb_freed = step.Flow.Core.freed;
        rb_respent = step.Flow.Core.respent;
        rb_memoized = step.Flow.Core.memoized;
      }
    in
    Some
      (Protocol.response_ok ~id:req.id ~rebudget:rb ~cache:status
         ~warnings:step.Flow.Core.warnings step.Flow.Core.report)

(* A malformed line must get its expected code; anything else must be an
   ok response byte-equal to the in-process evaluation. E-INTERNAL,
   E-OVERLOAD, E-DEADLINE and missing responses all fail here. *)
let check_response t o req response =
  match response with
  | None -> check t ("serve: response to " ^ req.id) false
  | Some line -> (
    match req.payload with
    | Malformed code ->
      check t ("serve: " ^ code ^ " for " ^ req.id)
        (field_value line "status" = Some "error"
        && match field_value line "code" with
           | Some c -> String.starts_with ~prefix:code c
           | None -> false)
    | _ -> (
      match status_of (field_value line "cache") with
      | None -> check t ("serve: ok response to " ^ req.id ^ ": " ^ line) false
      | Some status ->
        check t ("serve: response to " ^ req.id ^ " matches in-process evaluation")
          (expected o req status = Some line)))

(* Fig. 2 through the daemon, and one explore frontier that must equal
   the exhaustive (unpruned) in-process search. *)
let check_daemon t d =
  List.iter
    (fun (alg, mem) ->
      let line =
        allocate_line ~id:"fig2" ~spec:(named "example") ~algorithm:alg ~budget:64
      in
      check t
        (Printf.sprintf "serve: fig2 %s T_mem %d" (Allocator.name alg) mem)
        (match rpc d line with
        | Some resp -> contains resp (Printf.sprintf "\"memory_cycles\": %d," mem)
        | None -> false))
    [ (Allocator.Fr_ra, 1800); (Allocator.Pr_ra, 1560); (Allocator.Cpa_ra, 1184) ];
  let line =
    "{\"op\": \"explore\", \"kernel\": \"example\", \"orders\": \"all\", \
     \"tiles\": \"2\", \"budgets\": \"8,12,16,24,32,48,64\", \
     \"algorithms\": \"cpa-ra,portfolio\"}"
  in
  let exhaustive =
    Flow.Core.frontier_json ~compact:true
      (Flow.Core.explore ~space:(explore_space ~prune:false) Flow.default_config
         (K.example ()))
  in
  check t "serve: daemon explore frontier equals exhaustive search"
    (match rpc d line with
    | Some resp -> contains resp ("\"frontier\": " ^ exhaustive ^ ", \"explore\"")
    | None -> false)

(* ---- the run --------------------------------------------------------- *)

let stats_of d =
  match rpc d "{\"op\": \"stats\"}" with
  | None -> []
  | Some line -> (
    match Protocol.member "stats" (Protocol.parse_json line) with
    | Some (Protocol.Obj kvs) ->
      List.filter_map
        (fun (k, v) -> match v with Protocol.Int n -> Some (k, n) | _ -> None)
        kvs
    | _ -> [])

let warm_lines g =
  Array.to_list
    (Array.map
       (fun (name, algorithm, budget) ->
         allocate_line ~id:"warm" ~spec:(named name) ~algorithm ~budget)
       g.pairs)

(* Set-up: spawn the daemon, connect, and fill tier 2 with the hit set. *)
let setup s g =
  let d = spawn s in
  List.iter (fun line -> ignore (rpc d line)) (warm_lines g);
  d

(* The in-process serving path for one line: request decoding,
   resolution, the two-tier cache (or the rebudget store) and rendering,
   on a private cache that has seen the same lines as the daemon. *)
let replay cache req =
  match Stages.span "serve.parse_request" (fun () -> Protocol.parse_request req.line) with
  | Error _ -> ()
  | Ok preq -> (
    match Stages.span "serve.resolve" (fun () -> Cache.resolve preq) with
    | Error _ -> ()
    | Ok r -> (
      match req.payload with
      | Event { stream; _ } ->
        ignore (Stages.span "serve.rebudget" (fun () -> Cache.rebudget cache r ~stream))
      | _ -> (
        match Stages.span "serve.respond" (fun () -> Cache.respond cache r) with
        | Ok (report, warnings, status) ->
          ignore
            (Stages.span "render.report" (fun () ->
                 Protocol.response_ok ~id:req.id ~cache:status ~warnings report))
        | Error _ -> ())))

(* Requests after which the deterministic work counts are read, and after
   which the daemon's VmHWM is read: the daemon's caches grow with every
   fresh or cold request, so a peak read at the end of a timed run would
   measure how fast the host was. *)
let count_horizon = 2000
let rss_horizon = 60_000
let window_size = 1000
let probe_every = 50

let run (s : settings) =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let t = tally () in
  let g = make_gen s.seed in
  let o = oracle () in
  run_common_checks s t;
  (* Set up five times (each daemon is stopped before the next binds the
     socket, outside the clock) and keep the last. *)
  let rec setups n acc =
    let k = slowdown () in
    let t0 = now_s () in
    let d = setup s g in
    let acc = ((now_s () -. t0) /. k) :: acc in
    if n = 1 then (d, acc)
    else begin
      stop d;
      setups (n - 1) acc
    end
  in
  let d, times = setups 5 [] in
  let setup_s = median times in
  Fun.protect ~finally:(fun () -> stop d) @@ fun () ->
  let cache = Cache.create () in
  if s.trace then
    List.iter
      (fun line -> Option.iter (fun r -> ignore (Cache.respond cache r)) (resolve line))
      (warm_lines g);
  (* Windows of [window_size] requests; a probe slice every
     [probe_every] requests, and each window's timings divided by the
     median probe slowdown of the window (see {!Probe}). *)
  let latencies = ref [] and window = ref [] and probes = ref [] in
  let rates = ref [] and slowdowns = ref [] in
  let by_cache = Hashtbl.create 4 and socket = ref [] in
  let counts = ref None and cache_counts = ref [] in
  let minor_words = ref 0.0 and majors = ref 0 in
  let plain = ref (0.0, 0) and traced = ref (0.0, 0) and stage_sum = ref 0.0 in
  let peak = ref 0.0 in
  let deadline = now_s () +. s.seconds in
  let alive = ref true in
  while
    !alive
    && (g.issued < rss_horizon || g.issued mod window_size <> 0 || now_s () < deadline)
  do
    let req = next g in
    let t0 = now_s () in
    Client.send d.client req.line;
    let response = Client.recv_opt d.client in
    let dt = now_s () -. t0 in
    if response = None then alive := false;
    window := dt :: !window;
    if g.issued mod probe_every = 0 then probes := Probe.sample () :: !probes;
    if g.issued mod window_size = 0 then begin
      let k = median !probes /. Probe.nominal in
      let scaled = List.map (fun dt -> dt /. k) !window in
      latencies := scaled @ !latencies;
      rates := (float_of_int window_size /. List.fold_left ( +. ) 0.0 scaled) :: !rates;
      slowdowns := k :: !slowdowns;
      window := [];
      probes := []
    end;
    if s.trace then begin
      (* Every other line replays with spans on; the rest give the
         untraced cost of the same path for the overhead figure. *)
      let spanned = g.issued mod 2 = 0 in
      Span.set_op g.issued;
      Span.on := spanned;
      let before = Span.total_self_ns () in
      let minor0, major0 = gc_words () in
      let t1 = now_s () in
      replay cache req;
      let inproc = now_s () -. t1 in
      let minor1, major1 = gc_words () in
      Span.on := false;
      minor_words := !minor_words +. (minor1 -. minor0);
      majors := !majors + (major1 - major0);
      let acc r = r := (fst !r +. inproc, snd !r + 1) in
      if spanned then begin
        acc traced;
        stage_sum := !stage_sum +. (float_of_int (Span.total_self_ns () - before) /. 1e9)
      end
      else acc plain;
      socket := (dt -. inproc) :: !socket;
      match Option.bind response (fun l -> field_value l "cache") with
      | Some c ->
        Hashtbl.replace by_cache c
          (dt :: Option.value (Hashtbl.find_opt by_cache c) ~default:[])
      | None -> ()
    end;
    Span.on := s.trace;
    check_response t o req response;
    Span.on := false;
    if g.issued = count_horizon then begin
      counts := Some (Stages.snapshot ());
      cache_counts := Cache.stats cache
    end;
    if g.issued = rss_horizon then peak := peak_rss_kb (string_of_int d.pid)
  done;
  check_daemon t d;
  let stats = stats_of d in
  write_spans s ~workload:"serve";
  let us x = x *. 1e6 in
  let stat k = Option.value (List.assoc_opt k stats) ~default:0 in
  let metrics =
    if not s.trace then
      end_to_end ~setup_s ~rates:!rates ~latencies:!latencies ~tail:99.0 ~peak:!peak
    else
      let p50_of c =
        match Hashtbl.find_opt by_cache c with Some xs -> us (median xs) | None -> 0.0
      in
      let in_process k = Option.value (List.assoc_opt k !cache_counts) ~default:0 in
      let mean_ms (sum, n) = sum *. 1e3 /. float_of_int (max 1 n) in
      per_layer
        ~counts:(Option.get !counts)
        ~serve:
          {
            socket_us = us (median !socket);
            hit_us = p50_of "hit";
            analysis_us = p50_of "analysis";
            miss_us = p50_of "miss";
            tier2_hit_share =
              float_of_int (stat "tier2_hits")
              /. float_of_int (max 1 (stat "tier2_hits" + stat "tier2_misses"));
            tier2_hits = in_process "tier2_hits";
            tier2_misses = in_process "tier2_misses";
            evictions_tier1 = in_process "tier1_evictions";
            evictions_tier2 = in_process "tier2_evictions";
          }
        ~overhead:
          {
            untraced_ms = mean_ms !plain;
            staged_ms = mean_ms !traced;
            stage_sum_ms = !stage_sum *. 1e3 /. float_of_int (max 1 (snd !traced));
          }
        ~minor_words_per_op:(!minor_words /. float_of_int (max 1 (g.issued)))
        ~major_collections:(float_of_int !majors)
        ~slowdown:(median !slowdowns)
  in
  { attempted = t.attempted; failed = t.failed; metrics }
