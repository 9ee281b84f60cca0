module Diag = Srfa_util.Diag
module Trace = Srfa_util.Trace
module Pool = Srfa_util.Pool
module Fault = Srfa_util.Fault
module Prng = Srfa_util.Prng

(* ---- accept loop -------------------------------------------------------

   Single-threaded IO, pooled compute. The accept loop owns every file
   descriptor and every cache mutation; each select round drains all
   complete request lines into one batch, answers what the cache can
   answer, groups the rest by tier-1 key and fans the groups out through
   Srfa_util.Pool — so concurrent requests for the same kernel share one
   analysis build and one simulator scratch (single domain per group,
   exactly the ownership rule Flow.sweep uses), while distinct kernels
   run on distinct domains. Responses go out in arrival order.

   Resilience posture (DESIGN.md §15): the loop assumes clients lie and
   workers fail. Per-connection input buffers are capped and partial
   lines time out (E-PROTO-003, connection dropped); cold compute beyond
   the in-flight bound is shed with E-OVERLOAD instead of queued; every
   request carries an effective deadline and trips E-DEADLINE (never
   cached) when it is missed; a raising worker job is isolated to
   E-INTERNAL-* for its own requests; SIGPIPE is ignored process-wide
   and any failed write drops only that connection; SIGTERM/SIGINT
   (when [signals] is on) drain: stop accepting, finish the in-flight
   round, flush stats, return. The Fault registry injects failure at
   io.read / io.write / pool.job / cache.insert so all of the above is
   testable deterministically. *)

type client = {
  fd : Unix.file_descr;
  buf : Buffer.t;  (* bytes read but not yet terminated by '\n' *)
  mutable last : float;  (* last byte received; drives the read timeout *)
}

type item = {
  slot : int;
  rid : string option;
  resolved : Cache.resolved;
  t2 : string;
  arrival : float;
  deadline_ms : int option;
      (* effective deadline: the request field, else the server default *)
}

(* One per-batch unit of pooled work: every cold request that resolved
   to the same tier-1 key. [entry] is the resident tier-1 value when the
   accept loop found one; otherwise the worker builds it and the accept
   loop inserts it afterwards. *)
type job = {
  t1 : string;
  entry : Cache.entry option;
  items : item list;  (* arrival order *)
}

type item_result = {
  it : item;
  outcome : (Srfa_estimate.Report.t * Diag.t list, Diag.t list) result;
  status : Cache.status;
  fresh : bool;  (* computed this batch: insert into tier 2 *)
}

let expired ~now it =
  match it.deadline_ms with
  | Some ms when now >= it.arrival +. (float_of_int ms /. 1000.) ->
    Some
      (Protocol.deadline_error ~deadline_ms:ms
         ~elapsed_ms:(int_of_float ((now -. it.arrival) *. 1000.)))
  | _ -> None

let run_job job =
  let entry =
    match job.entry with
    | Some e -> Ok e
    | None -> (
      match job.items with
      | it :: _ -> (
        match Cache.build_entry it.resolved ~t1:job.t1 with
        | e -> Ok e
        | exception exn -> Error [ Diag.of_exn exn ])
      | [] -> assert false)
  in
  match entry with
  | Error diags ->
    ( None,
      List.map
        (fun it -> { it; outcome = Error diags; status = `Miss; fresh = false })
        job.items )
  | Ok entry ->
    let resident = Option.is_some job.entry in
    let memo = Hashtbl.create 4 in
    let results =
      List.mapi
        (fun i it ->
          match expired ~now:(Unix.gettimeofday ()) it with
          | Some diag ->
            (* Already past its deadline: answer without computing. The
               accept loop re-checks after the batch, so late-but-
               computed results trip there too. *)
            { it; outcome = Error [ diag ]; status = `Miss; fresh = false }
          | None -> (
            match Hashtbl.find_opt memo it.t2 with
            | Some (report, warnings) ->
              (* A within-batch duplicate: served from the report computed
                 a moment ago, physically the same value — a hit. *)
              {
                it;
                outcome = Ok (report, warnings);
                status = `Hit;
                fresh = false;
              }
            | None ->
              let status = if resident || i > 0 then `Analysis else `Miss in
              let outcome = Cache.compute it.resolved entry in
              (match outcome with
              | Ok (report, warnings) -> Hashtbl.add memo it.t2 (report, warnings)
              | Error _ -> ());
              { it; outcome; status; fresh = true }))
        job.items
    in
    ((if resident then None else Some entry), results)

(* The pool.job fault site plus the isolation boundary: whatever a job
   raises — injected or real — becomes E-INTERNAL-* for that job's own
   requests; the pool, the daemon and the cache stay live. Pool.map
   never sees an exception because this wrapper is the function it
   runs. *)
let isolated_job ~faults job =
  try
    (match Fault.check faults "pool.job" with
    | None -> ()
    | Some (Fault.Delay ms) -> Unix.sleepf (float_of_int ms /. 1000.)
    | Some Fault.Raise -> raise (Fault.Injected "pool.job")
    | Some (Fault.Error | Fault.Short_read) ->
      failwith "fault injection: pool.job");
    run_job job
  with exn ->
    let diag = Diag.of_exn exn in
    ( None,
      List.map
        (fun it -> { it; outcome = Error [ diag ]; status = `Miss; fresh = false })
        job.items )

(* Write the whole string; false on any failure (EPIPE, ECONNRESET,
   EBADF, an injected io.write fault, ...) so the caller can drop just
   that connection. An injected Short_read here writes a prefix and then
   "fails" — the client observes a response truncated mid-line followed
   by EOF, the disconnect-mid-response shape the chaos campaign needs. *)
let write_all ?(faults = Fault.off) fd s =
  let raw s =
    let b = Bytes.of_string s in
    let n = Bytes.length b in
    let rec go off =
      if off >= n then true
      else
        match Unix.write fd b off (n - off) with
        | written -> go (off + written)
        | exception Unix.Unix_error _ -> false
    in
    go 0
  in
  match Fault.check faults "io.write" with
  | None -> raw s
  | Some (Fault.Delay ms) ->
    Unix.sleepf (float_of_int ms /. 1000.);
    raw s
  | Some (Fault.Error | Fault.Raise) -> false
  | Some Fault.Short_read ->
    ignore (raw (String.sub s 0 (String.length s / 2)));
    false

type counters = {
  mutable shed : int;  (* E-OVERLOAD responses *)
  mutable deadline_trips : int;  (* E-DEADLINE responses *)
  mutable worker_faults : int;  (* jobs isolated to E-INTERNAL-* *)
  mutable abuse_drops : int;  (* E-PROTO-003 connection drops *)
}

(* Process one batch of complete request lines. Returns the responses in
   arrival order plus whether a shutdown was requested. *)
let process_batch ~cache ~pool ~faults ~counters ~stats ~default_deadline_ms
    ~max_inflight (lines : (client * string * float) list) =
  let stop = ref false in
  let slots = Array.make (List.length lines) "" in
  let jobs : (string, job) Hashtbl.t = Hashtbl.create 8 in
  let order = ref [] in
  let inflight = ref 0 in
  List.iteri
    (fun slot (_, line, arrival) ->
      match Protocol.parse_request line with
      | Error diag ->
        (* Echo the id when the malformed line still reveals one, so a
           pipelining client can correlate the failure. *)
        slots.(slot) <-
          Protocol.response_error ?id:(Protocol.recover_id line) [ diag ]
      | Ok req -> (
        let rid = req.Protocol.id in
        match req.Protocol.op with
        | Protocol.Stats ->
          slots.(slot) <- Protocol.response_stats ?id:rid (stats ())
        | Protocol.Shutdown ->
          stop := true;
          slots.(slot) <- Protocol.response_bye ?id:rid ()
        | Protocol.Rebudget -> (
          (* Answered inline on the accept thread: a step against a warm
             session is engine work on a handful of entries, far cheaper
             than a pooled cold compute, and inline execution is what
             makes the mutable session single-owner by construction. *)
          match Cache.resolve req with
          | Error diags -> slots.(slot) <- Protocol.response_error ?id:rid diags
          | Ok r -> (
            let stream = Option.value req.Protocol.stream ~default:"default" in
            match Cache.rebudget cache r ~stream with
            | Error diags -> slots.(slot) <- Protocol.response_error ?id:rid diags
            | Ok (step, status) ->
              let rb =
                {
                  Protocol.rb_requested = step.Srfa_core.Flow.Core.requested;
                  rb_effective = step.Srfa_core.Flow.Core.effective;
                  rb_clamped = step.Srfa_core.Flow.Core.clamped;
                  rb_freed = step.Srfa_core.Flow.Core.freed;
                  rb_respent = step.Srfa_core.Flow.Core.respent;
                  rb_memoized = step.Srfa_core.Flow.Core.memoized;
                }
              in
              slots.(slot) <-
                Protocol.response_ok ?id:rid ~rebudget:rb ~cache:status
                  ~warnings:step.Srfa_core.Flow.Core.warnings
                  step.Srfa_core.Flow.Core.report))
        | Protocol.Explore -> (
          (* Also inline on the accept thread: one frontier is a bounded
             batch of small allocations, and the frontier tier (like the
             session store) is accept-thread-owned. A warm space spec is
             a pure string lookup. *)
          match Cache.resolve req with
          | Error diags -> slots.(slot) <- Protocol.response_error ?id:rid diags
          | Ok r -> (
            match Cache.space_of_request req with
            | Error diags ->
              slots.(slot) <- Protocol.response_error ?id:rid diags
            | Ok (space, spec) -> (
              match Cache.explore cache r ~space ~spec with
              | Error diags ->
                slots.(slot) <- Protocol.response_error ?id:rid diags
              | Ok (v, status) ->
                slots.(slot) <-
                  Protocol.response_explore ?id:rid
                    ~cache:(status :> [ `Hit | `Analysis | `Miss ])
                    ~warnings:v.Cache.explore_warnings
                    ~stats:v.Cache.explore_stats v.Cache.frontier)))
        | Protocol.Allocate -> (
          match Cache.resolve req with
          | Error diags -> slots.(slot) <- Protocol.response_error ?id:rid diags
          | Ok r -> (
            let t1 = Cache.tier1_key ~device:r.Cache.device r.Cache.source in
            let t2 =
              Cache.tier2_key ~tier1:t1 ~algorithm:r.Cache.algorithm
                ~budget:r.Cache.budget ~cut_work_limit:r.Cache.cut_work_limit
            in
            match Cache.find_report cache t2 with
            | Some v ->
              slots.(slot) <-
                Protocol.response_ok ?id:rid ~cache:`Hit
                  ~warnings:v.Cache.warnings v.Cache.report
            | None ->
              (* The in-flight bound counts cold compute only — hits,
                 stats and shutdown stay cheap and always answered. *)
              if !inflight >= max_inflight then begin
                counters.shed <- counters.shed + 1;
                let retry_after_ms = 25 * (1 + (!inflight / max_inflight)) in
                slots.(slot) <-
                  Protocol.response_error ?id:rid
                    [ Protocol.overload_error ~retry_after_ms ]
              end
              else begin
                incr inflight;
                let deadline_ms =
                  match req.Protocol.deadline_ms with
                  | Some _ as d -> d
                  | None -> default_deadline_ms
                in
                let item =
                  { slot; rid; resolved = r; t2; arrival; deadline_ms }
                in
                match Hashtbl.find_opt jobs t1 with
                | Some job ->
                  Hashtbl.replace jobs t1
                    { job with items = job.items @ [ item ] }
                | None ->
                  order := t1 :: !order;
                  Hashtbl.replace jobs t1
                    { t1; entry = Cache.find_entry cache t1; items = [ item ] }
              end))))
    lines;
  let jobs_arr =
    Array.of_list (List.rev_map (fun t1 -> Hashtbl.find jobs t1) !order)
  in
  let outputs = Pool.map pool (isolated_job ~faults) jobs_arr in
  Array.iter
    (fun (built, results) ->
      Option.iter (Cache.insert_entry cache) built;
      List.iter
        (fun { it; outcome; status; fresh } ->
          match expired ~now:(Unix.gettimeofday ()) it with
          | Some diag ->
            (* Tripped before or during compute: E-DEADLINE, and the
               late result is never cached. *)
            counters.deadline_trips <- counters.deadline_trips + 1;
            slots.(it.slot) <- Protocol.response_error ?id:it.rid [ diag ]
          | None -> (
            match outcome with
            | Ok (report, warnings) ->
              if fresh then
                Cache.insert_report cache it.t2 { Cache.report; warnings };
              slots.(it.slot) <-
                Protocol.response_ok ?id:it.rid ~cache:status ~warnings report
            | Error diags ->
              if List.exists (fun d -> d.Diag.severity = Diag.Fatal) diags then
                counters.worker_faults <- counters.worker_faults + 1;
              slots.(it.slot) <- Protocol.response_error ?id:it.rid diags))
        results)
    outputs;
  (slots, !stop)

let ignore_sigpipe () =
  try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
  with Invalid_argument _ | Sys_error _ -> ()

let run ?(jobs = 1) ?tier1_bytes ?tier2_bytes ?(trace = Trace.null)
    ?(faults = Fault.off) ?deadline_ms ?(max_inflight = 256)
    ?(max_buffer = 1 lsl 20) ?(read_timeout_ms = 10_000) ?(signals = false)
    ?(log = ignore) ~socket () =
  (* Satellite of the resilience layer: one unguarded write to a closed
     socket must never kill the daemon, so SIGPIPE is off process-wide
     (every write failure is then a Unix_error the write site handles). *)
  ignore_sigpipe ();
  let draining = ref false in
  let restore_signals =
    if signals then begin
      let drain = Sys.Signal_handle (fun _ -> draining := true) in
      let old_term = Sys.signal Sys.sigterm drain in
      let old_int = Sys.signal Sys.sigint drain in
      fun () ->
        Sys.set_signal Sys.sigterm old_term;
        Sys.set_signal Sys.sigint old_int
    end
    else Fun.id
  in
  (try Unix.unlink socket with Unix.Unix_error _ -> ());
  let listen_fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind listen_fd (Unix.ADDR_UNIX socket);
  Unix.listen listen_fd 64;
  let cache = Cache.create ?tier1_bytes ?tier2_bytes ~trace ~faults () in
  let counters =
    { shed = 0; deadline_trips = 0; worker_faults = 0; abuse_drops = 0 }
  in
  let full_stats () =
    Cache.stats cache
    @ [
        ("shed", counters.shed);
        ("deadline_trips", counters.deadline_trips);
        ("worker_faults", counters.worker_faults);
        ("abuse_drops", counters.abuse_drops);
      ]
    @ Fault.stats faults
  in
  let clients = ref [] in
  (* A dropped connection is detached from the select set now but its fd
     is closed only after the round's write phase: closing immediately
     would let a concurrent connect() reuse the fd number and receive
     another client's responses. *)
  let doomed = ref [] in
  let doom c =
    clients := List.filter (fun c' -> c'.fd != c.fd) !clients;
    if not (List.memq c !doomed) then doomed := c :: !doomed
  in
  let reap () =
    List.iter (fun c -> try Unix.close c.fd with Unix.Unix_error _ -> ())
      !doomed;
    doomed := []
  in
  let finally () =
    reap ();
    List.iter (fun c -> try Unix.close c.fd with Unix.Unix_error _ -> ())
      !clients;
    (try Unix.close listen_fd with Unix.Unix_error _ -> ());
    (try Unix.unlink socket with Unix.Unix_error _ -> ());
    restore_signals ()
  in
  let chunk = Bytes.create 65536 in
  Pool.with_pool ~jobs (fun pool ->
      let stop = ref false in
      while not !stop do
        let fds =
          if !draining then List.map (fun c -> c.fd) !clients
          else listen_fd :: List.map (fun c -> c.fd) !clients
        in
        (* Block forever only when nothing needs a periodic look: no
           drain signal to notice, no partial line to time out. *)
        let timeout =
          if !draining then 0.0
          else if
            signals || Fault.enabled faults
            || List.exists (fun c -> Buffer.length c.buf > 0) !clients
          then 0.25
          else -1.0
        in
        match Unix.select fds [] [] timeout with
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
        | readable, _, _ ->
          let now = Unix.gettimeofday () in
          if (not !draining) && List.memq listen_fd readable then begin
            match Unix.accept listen_fd with
            | fd, _ ->
              clients :=
                !clients @ [ { fd; buf = Buffer.create 256; last = now } ]
            | exception Unix.Unix_error _ -> ()
          end;
          let batch = ref [] in
          let respond_abuse c diag =
            counters.abuse_drops <- counters.abuse_drops + 1;
            let id = Protocol.recover_id (Buffer.contents c.buf) in
            ignore
              (write_all ~faults c.fd (Protocol.response_error ?id [ diag ] ^ "\n"));
            doom c
          in
          (* Drain every readable client, splitting complete lines off
             its buffer; partial lines wait for the next round. *)
          List.iter
            (fun c ->
              if List.memq c.fd readable then
                match Fault.check faults "io.read" with
                | Some (Fault.Delay _) -> ()  (* the bytes arrive late *)
                | Some (Fault.Error | Fault.Raise) -> doom c  (* read error *)
                | (None | Some Fault.Short_read) as injected -> (
                  let cap =
                    match injected with
                    | Some Fault.Short_read -> 7
                    | _ -> Bytes.length chunk
                  in
                  match Unix.read c.fd chunk 0 cap with
                  | exception
                      Unix.Unix_error
                        ((Unix.EINTR | Unix.EAGAIN | Unix.EWOULDBLOCK), _, _)
                    ->
                    ()
                  | exception Unix.Unix_error _ -> doom c
                  | 0 -> doom c
                  | n ->
                    c.last <- now;
                    Buffer.add_subbytes c.buf chunk 0 n;
                    let data = Buffer.contents c.buf in
                    Buffer.clear c.buf;
                    let parts = String.split_on_char '\n' data in
                    let rec split_last = function
                      | [ last ] -> ([], last)
                      | x :: rest ->
                        let done_, last = split_last rest in
                        (x :: done_, last)
                      | [] -> ([], "")
                    in
                    let complete, partial = split_last parts in
                    Buffer.add_string c.buf partial;
                    List.iter
                      (fun line ->
                        if String.trim line <> "" then
                          batch := (c, line, now) :: !batch)
                      complete;
                    if Buffer.length c.buf > max_buffer then
                      respond_abuse c
                        (Protocol.abuse_error
                           (Printf.sprintf
                              "request line exceeds the %d-byte buffer cap"
                              max_buffer))))
            !clients;
          (* A connection holding a partial line for too long is a slow
             or half-writing client: answer E-PROTO-003 and drop it so
             it cannot pin buffer space or linger forever. *)
          List.iter
            (fun c ->
              if
                Buffer.length c.buf > 0
                && now -. c.last > float_of_int read_timeout_ms /. 1000.
              then
                respond_abuse c
                  (Protocol.abuse_error
                     (Printf.sprintf
                        "no newline within %d ms; dropping the connection"
                        read_timeout_ms)))
            !clients;
          let lines = List.rev !batch in
          if lines <> [] then begin
            let slots, shutdown =
              process_batch ~cache ~pool ~faults ~counters ~stats:full_stats
                ~default_deadline_ms:deadline_ms ~max_inflight lines
            in
            List.iteri
              (fun i (c, _, _) ->
                if not (List.memq c !doomed) then
                  if not (write_all ~faults c.fd (slots.(i) ^ "\n")) then
                    doom c)
              lines;
            if shutdown then stop := true
          end;
          reap ();
          if !draining then begin
            (* The in-flight round is finished and nothing new is being
               accepted: flush the stats and leave. *)
            log
              (Printf.sprintf "srfa-serve: drained (%s)"
                 (String.concat ", "
                    (List.map
                       (fun (k, v) -> Printf.sprintf "%s=%d" k v)
                       (full_stats ()))));
            stop := true
          end
      done);
  finally ()

(* ---- client ------------------------------------------------------------ *)

module Client = struct
  type t = { fd : Unix.file_descr; ic : in_channel }

  let connect ?(retries = 200) path =
    let rec go attempt =
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      match Unix.connect fd (Unix.ADDR_UNIX path) with
      | () -> { fd; ic = Unix.in_channel_of_descr fd }
      | exception
          Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _)
        when attempt < retries ->
        (try Unix.close fd with Unix.Unix_error _ -> ());
        Unix.sleepf 0.01;
        go (attempt + 1)
    in
    go 0

  let send t line = ignore (write_all t.fd (line ^ "\n"))

  let recv t = input_line t.ic

  let recv_opt t = match input_line t.ic with
    | line -> Some line
    | exception End_of_file -> None

  let rpc t line =
    send t line;
    recv t

  let close t = try Unix.close t.fd with Unix.Unix_error _ -> ()
end

(* ---- self-test ---------------------------------------------------------

   Spawn the daemon (own domain, private socket), fire a scripted
   request mix covering the cold / analysis-reuse / hit paths, an inline
   parse error, a guard trip (W-GUARD-CUT via a cut_work_limit override),
   an infeasible budget and the protocol error codes, check every
   response, and shut the daemon down. Three further private daemons
   check the resilience layer: abuse caps / overload / deadlines, worker
   isolation under a 100% pool.job fault plan, and SIGTERM drain. *)

let private_socket tag =
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "srfa-%s-%d.sock" tag (Unix.getpid ()))

let self_test ?(jobs = 2) ?(log = ignore) () =
  let socket = private_socket "serve" in
  let daemon = Domain.spawn (fun () -> run ~jobs ~socket ()) in
  let client = Client.connect socket in
  let failures = ref [] in
  let check name ok =
    log (Printf.sprintf "self-test: %-32s %s" name (if ok then "ok" else "FAIL"));
    if not ok then failures := name :: !failures
  in
  let str_member key json =
    match Protocol.member key json with
    | Some (Protocol.Str s) -> Some s
    | _ -> None
  in
  let response line = Protocol.parse_json (Client.rpc client line) in
  let has_code code json =
    match Protocol.member "diagnostics" json with
    | Some (Protocol.Arr ds) ->
      List.exists (fun d -> str_member "code" d = Some code) ds
    | _ -> false
  in
  let warning_code code json =
    match Protocol.member "warnings" json with
    | Some (Protocol.Arr ws) ->
      List.exists (fun w -> str_member "code" w = Some code) ws
    | _ -> false
  in
  (* 1. cold allocate of a named kernel *)
  let r1 = response {|{"id": "c1", "kernel": "fir", "budget": 64}|} in
  check "fir cold is a miss"
    (str_member "status" r1 = Some "ok"
    && str_member "cache" r1 = Some "miss"
    && str_member "id" r1 = Some "c1");
  (* 2. identical request: tier-2 hit with the identical report *)
  let raw2 = Client.rpc client {|{"id": "c2", "kernel": "fir", "budget": 64}|} in
  let r2 = Protocol.parse_json raw2 in
  check "fir repeat is a hit" (str_member "cache" r2 = Some "hit");
  check "hit serves the same report"
    (Protocol.member "report" r1 = Protocol.member "report" r2);
  (* 3. same kernel, new budget: analysis tier reused *)
  let r3 = response {|{"kernel": "fir", "budget": 32}|} in
  check "budget ladder reuses analysis"
    (str_member "cache" r3 = Some "analysis");
  (* 4. inline source allocates like the named kernel *)
  let source =
    Srfa_frontend.Parser.canonical_source (Srfa_kernels.Kernels.example ())
  in
  let r4 =
    response
      (Srfa_util.Json.to_string
         (Protocol.Obj
            [
              ("source", Protocol.Str source);
              ("algorithm", Protocol.Str "cpa-ra+");
            ]))
  in
  check "inline source allocates" (str_member "status" r4 = Some "ok");
  (* 5. a parse error comes back as an inline coded diagnostic *)
  let r5 = response {|{"id": "bad", "source": "kernel oops {"}|} in
  check "parse error is E-PARSE-001"
    (str_member "status" r5 = Some "error" && has_code "E-PARSE-001" r5);
  (* 6. unknown kernel name: protocol field error *)
  let r6 = response {|{"kernel": "no-such-kernel"}|} in
  check "unknown kernel is E-PROTO-002" (has_code "E-PROTO-002" r6);
  (* 7. malformed JSON: protocol error, id recovered from the wreckage *)
  let r7 = response "this is not json" in
  check "malformed line is E-PROTO-001" (has_code "E-PROTO-001" r7);
  let r7b = response {|{"id": "e1", "budget": }|} in
  check "recovered id is echoed"
    (has_code "E-PROTO-001" r7b && str_member "id" r7b = Some "e1");
  (* 8. guard trip: a starved cut budget degrades CPA-RA with W-GUARD-CUT *)
  let r8 = response {|{"kernel": "bic", "cut_work_limit": 1}|} in
  check "starved cut guard warns W-GUARD-CUT"
    (str_member "status" r8 = Some "ok" && warning_code "W-GUARD-CUT" r8);
  (* 9. infeasible budget: coded error, not a crash *)
  let r9 = response {|{"kernel": "fir", "budget": 1}|} in
  check "infeasible budget is E-BUDGET-001" (has_code "E-BUDGET-001" r9);
  (* 9b. rebudget: a live budget-event stream over the resident kernel.
     The bootstrap rides the tier-1 entry allocate already cached
     (analysis), later events answer incrementally from the session
     (hit), revisited budgets come from the session memo, and a starved
     target clamps with W-GUARD-REBUDGET instead of the E-BUDGET-001 an
     allocate gets. *)
  let rb_member key json =
    match Protocol.member "rebudget" json with
    | Some rb -> Protocol.member key rb
    | None -> None
  in
  let r20 =
    response {|{"id": "rb1", "op": "rebudget", "kernel": "fir", "budget": 32}|}
  in
  check "rebudget bootstrap reuses the analysis"
    (str_member "status" r20 = Some "ok"
    && str_member "cache" r20 = Some "analysis"
    && str_member "id" r20 = Some "rb1"
    && rb_member "memoized" r20 = Some (Protocol.Bool false));
  let r21 = response {|{"op": "rebudget", "kernel": "fir", "budget": 8}|} in
  check "rebudget shrink answers incrementally"
    (str_member "cache" r21 = Some "hit"
    &&
    match rb_member "freed" r21 with
    | Some (Protocol.Int n) -> n > 0
    | _ -> false);
  let r22 = response {|{"op": "rebudget", "kernel": "fir", "budget": 32}|} in
  check "rebudget revisit is memoized"
    (str_member "cache" r22 = Some "hit"
    && rb_member "memoized" r22 = Some (Protocol.Bool true));
  let r23 = response {|{"op": "rebudget", "kernel": "fir", "budget": 1}|} in
  check "starved rebudget clamps with W-GUARD-REBUDGET"
    (str_member "status" r23 = Some "ok"
    && rb_member "clamped" r23 = Some (Protocol.Bool true)
    && warning_code "W-GUARD-REBUDGET" r23);
  let r24 =
    response {|{"op": "rebudget", "kernel": "fir", "budget": 16, "stream": "b"}|}
  in
  check "distinct stream opens its own session"
    (str_member "cache" r24 = Some "analysis");
  let r25 = response {|{"op": "rebudget", "kernel": "fir"}|} in
  check "rebudget without budget is E-PROTO-002" (has_code "E-PROTO-002" r25);
  (* 9c. explore: a design-space frontier, cold then from the frontier
     tier. The frontier member embeds real points; a repeat with
     differently formatted but canonically equal space fields must hit
     the same key. *)
  let frontier_points json =
    match Protocol.member "frontier" json with
    | Some f -> (
      match Protocol.member "points" f with
      | Some (Protocol.Arr ps) -> List.length ps
      | _ -> -1)
    | None -> -1
  in
  let r26 =
    response
      {|{"id": "x1", "op": "explore", "kernel": "fir", "budgets": "8,16"}|}
  in
  check "explore cold is a miss with a frontier"
    (str_member "status" r26 = Some "ok"
    && str_member "cache" r26 = Some "miss"
    && str_member "id" r26 = Some "x1"
    && frontier_points r26 > 0);
  let r27 =
    response
      {|{"op": "explore", "kernel": "fir", "budgets": " 8 , 16 "}|}
  in
  check "canonically equal explore spec hits the frontier tier"
    (str_member "cache" r27 = Some "hit" && frontier_points r27 > 0);
  let r28 =
    response {|{"op": "explore", "kernel": "fir", "budgets": "8,16,32"}|}
  in
  check "different explore spec is its own entry"
    (str_member "cache" r28 = Some "miss");
  let r29 = response {|{"op": "explore", "kernel": "fir", "orders": "bogus"}|} in
  check "bad explore orders is E-PROTO-002" (has_code "E-PROTO-002" r29);
  (* 10. pipelined batch: two requests in one write, answered in order *)
  Client.send client
    {|{"id": "b1", "kernel": "mat", "budget": 16}|};
  Client.send client
    {|{"id": "b2", "kernel": "mat", "budget": 16, "algorithm": "fr-ra"}|};
  let rb1 = Protocol.parse_json (Client.recv client) in
  let rb2 = Protocol.parse_json (Client.recv client) in
  check "batched responses keep order"
    (str_member "id" rb1 = Some "b1" && str_member "id" rb2 = Some "b2");
  check "batched same-kernel requests share the analysis"
    (str_member "cache" rb1 = Some "miss"
    && str_member "cache" rb2 = Some "analysis");
  (* 11. stats reflect the mix *)
  let rs = response {|{"op": "stats"}|} in
  let stat key =
    match Protocol.member "stats" rs with
    | Some s -> (
      match Protocol.member key s with Some (Protocol.Int i) -> i | _ -> -1)
    | None -> -1
  in
  check "stats count the hits" (stat "tier2_hits" >= 1 && stat "served" >= 8);
  check "stats expose the session store"
    (stat "sessions" >= 2 && stat "session_hits" >= 2);
  (* 12. shutdown *)
  let bye = response {|{"op": "shutdown"}|} in
  check "shutdown answers bye" (Protocol.member "bye" bye = Some (Protocol.Bool true));
  Client.close client;
  Domain.join daemon;
  (* 13. abuse caps, overload shedding and deadlines, on a daemon with
     tight limits. *)
  let socket2 = private_socket "serve-limits" in
  let daemon2 =
    Domain.spawn (fun () ->
        run ~jobs ~max_buffer:4096 ~max_inflight:2 ~read_timeout_ms:300
          ~socket:socket2 ())
  in
  let c2 = Client.connect socket2 in
  (* 13a. an endless unterminated line trips the buffer cap (written
     raw: no newline must ever arrive) *)
  let c3 = Client.connect socket2 in
  ignore
    (write_all c3.Client.fd ({|{"id": "big", "source": "|} ^ String.make 8192 'x'));
  let r13 = Protocol.parse_json (Client.recv c3) in
  check "oversized line is E-PROTO-003"
    (has_code "E-PROTO-003" r13 && str_member "id" r13 = Some "big");
  check "abused connection is dropped" (Client.recv_opt c3 = None);
  Client.close c3;
  (* 13b. a half-written line times out *)
  let c4 = Client.connect socket2 in
  ignore (write_all c4.Client.fd {|{"id": "slow"|});
  let r14 = Protocol.parse_json (Client.recv c4) in
  check "half-written line is E-PROTO-003"
    (has_code "E-PROTO-003" r14 && str_member "id" r14 = Some "slow");
  Client.close c4;
  (* 13c. a pipelined flood of cold requests beyond the in-flight bound
     is shed with E-OVERLOAD, in order, one response per request. One
     write syscall so the whole flood lands in one select round. *)
  let flood = [ 17; 18; 19; 20; 21; 22 ] in
  ignore
    (write_all c2.Client.fd
       (String.concat ""
          (List.map
             (fun b ->
               Printf.sprintf {|{"id": "f%d", "kernel": "fir", "budget": %d}|} b b
               ^ "\n")
             flood)));
  let flood_rs = List.map (fun _ -> Protocol.parse_json (Client.recv c2)) flood in
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
    match Protocol.member "diagnostics" r with
    | Some (Protocol.Arr (d :: _)) -> (
      match Protocol.member "context" d with
      | Some ctx -> str_member "retry_after_ms" ctx <> None
      | None -> false)
    | _ -> false
  in
  check "shed responses carry retry_after_ms"
    (List.for_all retry_hint sheds);
  (* 13d. an impossible deadline trips E-DEADLINE and is never cached *)
  let rpc2 line = Protocol.parse_json (Client.rpc c2 line) in
  let r15 = rpc2 {|{"kernel": "pat", "budget": 48, "deadline_ms": 0}|} in
  check "deadline trip is E-DEADLINE" (has_code "E-DEADLINE" r15);
  let r16 = rpc2 {|{"kernel": "pat", "budget": 48}|} in
  check "tripped requests are never cached"
    (str_member "status" r16 = Some "ok"
    && str_member "cache" r16 <> Some "hit");
  ignore (rpc2 {|{"op": "shutdown"}|});
  Client.close c2;
  Domain.join daemon2;
  (* 14. worker isolation: with a 100% pool.job fault plan every cold
     compute fails as E-INTERNAL-* but the daemon and its stats stay
     live. *)
  let faults =
    match Fault.parse ~seed:42 "pool.job:raise@1,cache.insert:error@1" with
    | Ok f -> f
    | Error msg -> failwith msg
  in
  let socket3 = private_socket "serve-faults" in
  let daemon3 = Domain.spawn (fun () -> run ~jobs ~faults ~socket:socket3 ()) in
  let c5 = Client.connect socket3 in
  let rpc3 line = Protocol.parse_json (Client.rpc c5 line) in
  let r17 = rpc3 {|{"id": "w1", "kernel": "fir"}|} in
  check "raising worker is E-INTERNAL"
    (str_member "status" r17 = Some "error"
    && has_code "E-INTERNAL-002" r17
    && str_member "id" r17 = Some "w1");
  let r18 = rpc3 {|{"op": "stats"}|} in
  check "daemon survives worker faults"
    (str_member "status" r18 = Some "ok");
  ignore (rpc3 {|{"op": "shutdown"}|});
  Client.close c5;
  Domain.join daemon3;
  (* 15. graceful drain: SIGTERM stops the daemon after the in-flight
     work is answered, the socket file is removed, the domain joins. *)
  let socket4 = private_socket "serve-drain" in
  let drained = ref None in
  let daemon4 =
    Domain.spawn (fun () ->
        run ~jobs ~signals:true ~log:(fun m -> drained := Some m)
          ~socket:socket4 ())
  in
  let c6 = Client.connect socket4 in
  let r19 = Protocol.parse_json (Client.rpc c6 {|{"kernel": "fir"}|}) in
  check "pre-drain request is served" (str_member "status" r19 = Some "ok");
  Unix.kill (Unix.getpid ()) Sys.sigterm;
  Domain.join daemon4;
  check "SIGTERM drains and exits" (not (Sys.file_exists socket4));
  let contains ~sub s =
    let n = String.length sub and m = String.length s in
    let rec at i = i + n <= m && (String.sub s i n = sub || at (i + 1)) in
    at 0
  in
  check "drain flushes the stats"
    (match !drained with
    | Some m -> contains ~sub:"served=" m
    | None -> false);
  Client.close c6;
  match !failures with
  | [] ->
    log "self-test: ok";
    true
  | names ->
    log
      (Printf.sprintf "self-test: FAILED (%s)"
         (String.concat ", " (List.rev names)));
    false

(* ---- chaos campaign ----------------------------------------------------

   Two-phase, fully seeded. Phase one runs a deterministic request mix
   against a clean daemon and records every distinct request's exact
   outcome (report for successes, diagnostics for deterministic
   errors). Phase two replays the mix against a daemon under an
   injected fault plan through hostile clients, and phase three
   re-verifies every distinct request against the baseline while the
   faults stay armed — so a fault that poisoned the cache cannot hide.

   The campaign's own client is deliberately paranoid: raw fds, its own
   line reassembly, and a select-based receive timeout, because the
   daemon under test is being encouraged to cut connections mid-line. *)

type chaos_conn = {
  cfd : Unix.file_descr;
  cbuf : Buffer.t;
  mutable pending : string list;
}

let chaos_connect path =
  let rec go attempt =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX path) with
    | () -> Some { cfd = fd; cbuf = Buffer.create 256; pending = [] }
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _) ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      if attempt < 200 then (
        Unix.sleepf 0.01;
        go (attempt + 1))
      else None
    | exception Unix.Unix_error _ ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      None
  in
  go 0

let chaos_close conn = try Unix.close conn.cfd with Unix.Unix_error _ -> ()

let chaos_send conn line = ignore (write_all conn.cfd line)

(* [`Line l] next complete response; [`Eof] the daemon dropped us (a
   half-received line is discarded — disconnect mid-response);
   [`Timeout] nothing arrived in [timeout] seconds (a swallowed request:
   always a violation). *)
let chaos_recv conn ~timeout =
  let deadline = Unix.gettimeofday () +. timeout in
  let b = Bytes.create 4096 in
  let rec go () =
    match conn.pending with
    | line :: rest ->
      conn.pending <- rest;
      `Line line
    | [] -> (
      let remain = deadline -. Unix.gettimeofday () in
      if remain <= 0.0 then `Timeout
      else
        match Unix.select [ conn.cfd ] [] [] remain with
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
        | [], _, _ -> `Timeout
        | _ -> (
          match Unix.read conn.cfd b 0 (Bytes.length b) with
          | exception Unix.Unix_error _ -> `Eof
          | 0 -> `Eof
          | n ->
            Buffer.add_subbytes conn.cbuf b 0 n;
            let data = Buffer.contents conn.cbuf in
            Buffer.clear conn.cbuf;
            let parts = String.split_on_char '\n' data in
            let rec split_last = function
              | [ last ] -> ([], last)
              | x :: rest ->
                let done_, last = split_last rest in
                (x :: done_, last)
              | [] -> ([], "")
            in
            let complete, partial = split_last parts in
            Buffer.add_string conn.cbuf partial;
            conn.pending <-
              conn.pending
              @ List.filter (fun l -> String.trim l <> "") complete;
            go ()))
  in
  go ()

let chaos ?(seed = 42) ?(requests = 600) ?(jobs = 2) ?(log = ignore) () =
  ignore_sigpipe ();
  let kernels = [ "example"; "fir"; "dec-fir"; "imi"; "mat"; "pat"; "bic" ] in
  let algorithms = [ "cpa-ra"; "fr-ra"; "pr-ra"; "cpa-ra+" ] in
  let budgets = [ 8; 16; 32; 64; 128 ] in
  let root = Prng.create ~seed in
  let combos =
    Array.init requests (fun i ->
        let g = Prng.split root i in
        (Prng.pick g kernels, Prng.pick g algorithms, Prng.pick g budgets))
  in
  let request_line ?deadline_ms ~id (k, a, b) =
    Printf.sprintf {|{"id": "%s", "kernel": "%s", "algorithm": "%s", "budget": %d%s}|}
      id k a b
      (match deadline_ms with
      | None -> ""
      | Some d -> Printf.sprintf {|, "deadline_ms": %d|} d)
  in
  let violations = ref [] in
  let violate fmt =
    Printf.ksprintf
      (fun msg ->
        if List.length !violations < 20 then violations := msg :: !violations)
      fmt
  in
  let str_member key json =
    match Protocol.member key json with
    | Some (Protocol.Str s) -> Some s
    | _ -> None
  in
  let diag_codes json =
    match Protocol.member "diagnostics" json with
    | Some (Protocol.Arr ds) ->
      List.filter_map (fun d -> str_member "code" d) ds
    | _ -> []
  in
  (* ---- phase one: fault-free baseline --------------------------------- *)
  let socket_a = private_socket "chaos-base" in
  let daemon_a = Domain.spawn (fun () -> run ~jobs ~socket:socket_a ()) in
  let baseline = Hashtbl.create 64 in
  (match chaos_connect socket_a with
  | None -> violate "baseline daemon unreachable"
  | Some ca ->
    Array.iter
      (fun combo ->
        if not (Hashtbl.mem baseline combo) then begin
          chaos_send ca (request_line ~id:"base" combo ^ "\n");
          match chaos_recv ca ~timeout:30.0 with
          | `Line l -> (
            match Protocol.parse_json l with
            | resp -> Hashtbl.add baseline combo resp
            | exception _ -> violate "baseline response unparseable")
          | `Eof | `Timeout -> violate "baseline request unanswered"
        end)
      combos;
    chaos_send ca "{\"op\": \"shutdown\"}\n";
    ignore (chaos_recv ca ~timeout:10.0);
    chaos_close ca);
  (try Domain.join daemon_a
   with exn -> violate "baseline daemon died: %s" (Printexc.to_string exn));
  let baseline_report combo =
    Option.bind (Hashtbl.find_opt baseline combo) (fun resp ->
        if str_member "status" resp = Some "ok" then
          Protocol.member "report" resp
        else None)
  in
  let baseline_diags combo =
    Option.bind (Hashtbl.find_opt baseline combo) (fun resp ->
        Protocol.member "diagnostics" resp)
  in
  log
    (Printf.sprintf "chaos: baseline recorded (%d distinct requests)"
       (Hashtbl.length baseline));
  (* ---- phase two: the same mix under faults, via hostile clients ------ *)
  let plan =
    "io.read:short-read@0.08,io.read:delay:1@0.04,io.write:error@0.03,\
     pool.job:raise@0.05,pool.job:delay:2@0.05,cache.insert:error@0.25"
  in
  let faults =
    match Fault.parse ~seed plan with
    | Ok f -> f
    | Error msg -> failwith ("chaos: bad fault plan: " ^ msg)
  in
  let socket_b = private_socket "chaos" in
  let daemon_b =
    Domain.spawn (fun () ->
        run ~jobs ~faults ~max_inflight:8 ~max_buffer:65536
          ~read_timeout_ms:2000 ~socket:socket_b ())
  in
  let sent = ref 0 in
  let ok_matched = ref 0 in
  let allowed_errors = ref 0 in
  let disconnects = ref 0 in
  let hostile = ref 0 in
  let injected_codes = [ "E-INTERNAL-002"; "E-INTERNAL-003"; "E-DEADLINE"; "E-OVERLOAD" ] in
  let validate combo line =
    match Protocol.parse_json line with
    | exception _ -> violate "unparseable chaos response: %s" line
    | resp -> (
      match str_member "status" resp with
      | Some "ok" -> (
        match baseline_report combo with
        | Some report when Protocol.member "report" resp = Some report ->
          incr ok_matched
        | Some _ -> violate "report mismatch vs fault-free baseline"
        | None -> violate "ok response for a combo the baseline rejected")
      | Some "error" ->
        let codes = diag_codes resp in
        if codes <> [] && List.for_all (fun c -> List.mem c injected_codes) codes
        then incr allowed_errors
        else if
          (match baseline_diags combo with
          | Some d -> Protocol.member "diagnostics" resp = Some d
          | None -> false)
        then incr allowed_errors
        else violate "unexpected error codes: %s" (String.concat "," codes)
      | _ -> violate "response without a status")
  in
  let behaviour = Prng.split root (requests + 7919) in
  let i = ref 0 in
  while !i < requests do
    let style = Prng.int behaviour 100 in
    let remaining = requests - !i in
    if style < 55 || remaining < 4 then begin
      (* well-behaved client: 1-4 sequential request/response rounds *)
      match chaos_connect socket_b with
      | None -> violate "daemon unreachable (normal client)"; i := requests
      | Some c ->
        let k = min remaining (1 + Prng.int behaviour 4) in
        let rec go j =
          if j < k then begin
            let combo = combos.(!i) in
            chaos_send c (request_line ~id:(Printf.sprintf "n%d" !i) combo ^ "\n");
            incr i;
            incr sent;
            match chaos_recv c ~timeout:15.0 with
            | `Line l ->
              validate combo l;
              go (j + 1)
            | `Eof -> incr disconnects  (* dropped mid-conversation: clean *)
            | `Timeout -> violate "request %d swallowed (timeout)" (!i - 1)
          end
        in
        go 0;
        chaos_close c
    end
    else if style < 75 then begin
      (* pipelined flood: one write, many requests; sheds expected *)
      match chaos_connect socket_b with
      | None -> violate "daemon unreachable (flood client)"; i := requests
      | Some c ->
        let k = min remaining (10 + Prng.int behaviour 21) in
        let batch = Array.init k (fun j -> combos.(!i + j)) in
        let payload =
          String.concat ""
            (Array.to_list
               (Array.mapi
                  (fun j combo ->
                    request_line ~id:(Printf.sprintf "p%d" (!i + j)) combo ^ "\n")
                  batch))
        in
        chaos_send c payload;
        sent := !sent + k;
        i := !i + k;
        let rec collect j =
          if j < k then
            match chaos_recv c ~timeout:15.0 with
            | `Line l ->
              validate batch.(j) l;
              collect (j + 1)
            | `Eof ->
              (* dropped mid-flood: the rest are clean disconnects *)
              disconnects := !disconnects + (k - j)
            | `Timeout -> violate "flood response %d swallowed" j
        in
        collect 0;
        chaos_close c
    end
    else if style < 85 then begin
      (* deaf client: sends, never reads, hangs up immediately *)
      (match chaos_connect socket_b with
      | None -> violate "daemon unreachable (deaf client)"; i := requests
      | Some c ->
        chaos_send c (request_line ~id:"deaf" combos.(!i) ^ "\n");
        incr i;
        incr sent;
        incr disconnects;
        incr hostile;
        chaos_close c)
    end
    else if style < 93 then begin
      (* truncated JSON then disconnect, plus one real request so the
         loop always consumes a combo *)
      (match chaos_connect socket_b with
      | None -> ()
      | Some c ->
        chaos_send c {|{"id": "trunc", "kernel": "fi|};
        incr hostile;
        chaos_close c);
      match chaos_connect socket_b with
      | None -> violate "daemon unreachable (after truncation)"; i := requests
      | Some c ->
        let combo = combos.(!i) in
        chaos_send c (request_line ~id:"t" combo ^ "\n");
        incr i;
        incr sent;
        (match chaos_recv c ~timeout:15.0 with
        | `Line l -> validate combo l
        | `Eof -> incr disconnects
        | `Timeout -> violate "post-truncation request swallowed");
        chaos_close c
    end
    else begin
      (* deadline race: a 1 ms deadline may trip or may be met *)
      match chaos_connect socket_b with
      | None -> violate "daemon unreachable (deadline client)"; i := requests
      | Some c ->
        let combo = combos.(!i) in
        chaos_send c
          (request_line ~deadline_ms:1 ~id:(Printf.sprintf "d%d" !i) combo ^ "\n");
        incr i;
        incr sent;
        incr hostile;
        (match chaos_recv c ~timeout:15.0 with
        | `Line l -> validate combo l
        | `Eof -> incr disconnects
        | `Timeout -> violate "deadline request swallowed");
        chaos_close c
    end
  done;
  (* ---- phase three: cache integrity re-verified under live faults ----- *)
  let reverified = ref 0 in
  let reverify combo =
    let rec attempt n =
      if n >= 10 then violate "re-verification exhausted retries"
      else
        match chaos_connect socket_b with
        | None -> violate "daemon unreachable (re-verify)"
        | Some c -> (
          chaos_send c (request_line ~id:"v" combo ^ "\n");
          let outcome = chaos_recv c ~timeout:15.0 in
          chaos_close c;
          match outcome with
          | `Eof -> attempt (n + 1)
          | `Timeout -> violate "re-verification request swallowed"
          | `Line l -> (
            match Protocol.parse_json l with
            | exception _ -> violate "unparseable re-verification response"
            | resp -> (
              match (str_member "status" resp, baseline_report combo) with
              | Some "ok", Some report
                when Protocol.member "report" resp = Some report ->
                incr reverified
              | Some "ok", Some _ ->
                violate "re-verified report differs from fault-free baseline"
              | Some "error", None
                when Protocol.member "diagnostics" resp = baseline_diags combo
                ->
                incr reverified
              | Some "error", _
                when List.for_all
                       (fun c -> List.mem c injected_codes)
                       (diag_codes resp)
                     && diag_codes resp <> [] ->
                attempt (n + 1)  (* an injected fault hit the probe; retry *)
              | _ -> violate "re-verification outcome diverged")))
    in
    attempt 0
  in
  Hashtbl.iter (fun combo _ -> reverify combo) baseline;
  (* ---- stats, injection rate, shutdown -------------------------------- *)
  let injected = Fault.injected faults in
  let stats_resp =
    let rec attempt n =
      if n >= 10 then None
      else
        match chaos_connect socket_b with
        | None -> None
        | Some c -> (
          chaos_send c "{\"op\": \"stats\"}\n";
          let outcome = chaos_recv c ~timeout:15.0 in
          chaos_close c;
          match outcome with
          | `Line l -> (
            match Protocol.parse_json l with
            | resp -> Some resp
            | exception _ -> None)
          | `Eof -> attempt (n + 1)
          | `Timeout -> None)
    in
    attempt 0
  in
  (match stats_resp with
  | None -> violate "daemon stats unreachable after campaign"
  | Some resp ->
    if str_member "status" resp <> Some "ok" then
      violate "stats rpc failed after campaign");
  let rate = float_of_int injected /. float_of_int (max 1 !sent) in
  if rate < 0.10 then
    violate "injected fault rate %.1f%% below the 10%% floor" (100. *. rate);
  (match chaos_connect socket_b with
  | None -> violate "daemon unreachable for shutdown"
  | Some c ->
    chaos_send c "{\"op\": \"shutdown\"}\n";
    ignore (chaos_recv c ~timeout:10.0);
    chaos_close c);
  (try Domain.join daemon_b
   with exn -> violate "chaos daemon died: %s" (Printexc.to_string exn));
  log
    (Printf.sprintf
       "chaos: %d requests sent (%d hostile actions): %d ok+matched, %d \
        allowed errors, %d clean disconnects; %d faults injected (%.1f%%); \
        %d/%d distinct requests re-verified byte-identical"
       !sent !hostile !ok_matched !allowed_errors !disconnects injected
       (100. *. rate) !reverified (Hashtbl.length baseline));
  match !violations with
  | [] ->
    log
      (Printf.sprintf "chaos: ok (%d requests, 0 crashes, 0 violations)" !sent);
    true
  | vs ->
    List.iter (fun v -> log ("chaos: VIOLATION " ^ v)) (List.rev vs);
    log (Printf.sprintf "chaos: FAILED (%d violations)" (List.length vs));
    false
