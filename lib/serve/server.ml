module Diag = Srfa_util.Diag
module Trace = Srfa_util.Trace
module Pool = Srfa_util.Pool
module Fault = Srfa_util.Fault

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
  entry : Cache.entry option;
  items : item list;  (* arrival order *)
}

type item_result = {
  it : item;
  outcome : (Cache.report_value, Diag.t list) result;
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
        match Cache.build_entry it.resolved with
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
            | Some v ->
              (* A within-batch duplicate: served from the value computed
                 (and rendered) a moment ago, physically the same — a
                 hit. *)
              { it; outcome = Ok v; status = `Hit; fresh = false }
            | None ->
              let status = if resident || i > 0 then `Analysis else `Miss in
              let outcome = Cache.compute it.resolved entry in
              Result.iter (Hashtbl.add memo it.t2) outcome;
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
  (* The first [n] bytes of [s], straight from the string. *)
  let raw n =
    let rec go off =
      if off >= n then true
      else
        match Unix.write_substring fd s off (n - off) with
        | written -> go (off + written)
        | exception Unix.Unix_error _ -> false
    in
    go 0
  in
  let n = String.length s in
  match Fault.check faults "io.write" with
  | None -> raw n
  | Some (Fault.Delay ms) ->
    Unix.sleepf (float_of_int ms /. 1000.);
    raw n
  | Some (Fault.Error | Fault.Raise) -> false
  | Some Fault.Short_read ->
    ignore (raw (n / 2));
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
            let t1 = r.Cache.t1 in
            let t2 =
              Cache.tier2_key ~tier1:t1 ~algorithm:r.Cache.algorithm
                ~budget:r.Cache.budget ~cut_work_limit:r.Cache.cut_work_limit
            in
            match Cache.find cache Cache.Reports t2 with
            | Some v ->
              (* A hit renders only its envelope around the stored body. *)
              slots.(slot) <-
                Protocol.ok_envelope ?id:rid ~cache:`Hit v.Cache.body
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
                    {
                      entry = Cache.find cache Cache.Analyses t1;
                      items = [ item ];
                    }
              end))))
    lines;
  let jobs_arr =
    Array.of_list (List.rev_map (fun t1 -> Hashtbl.find jobs t1) !order)
  in
  let outputs = Pool.map pool (isolated_job ~faults) jobs_arr in
  Array.iter
    (fun (built, results) ->
      Option.iter
        (fun (e : Cache.entry) -> Cache.insert cache Cache.Analyses e.t1 e)
        built;
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
            | Ok v ->
              if fresh then Cache.insert cache Cache.Reports it.t2 v;
              slots.(it.slot) <-
                Protocol.ok_envelope ?id:it.rid ~cache:status v.Cache.body
            | Error diags ->
              if List.exists (fun d -> d.Diag.severity = Diag.Fatal) diags then
                counters.worker_faults <- counters.worker_faults + 1;
              slots.(it.slot) <- Protocol.response_error ?id:it.rid diags))
        results)
    outputs;
  (slots, !stop)

let run ?(jobs = 1) ?tier1_bytes ?tier2_bytes ?(trace = Trace.null)
    ?(faults = Fault.off) ?deadline_ms ?(max_inflight = 256)
    ?(max_buffer = 1 lsl 20) ?(read_timeout_ms = 10_000) ?(signals = false)
    ?(log = ignore) ~socket () =
  (* Satellite of the resilience layer: one unguarded write to a closed
     socket must never kill the daemon, so SIGPIPE is off process-wide
     (every write failure is then a Unix_error the write site handles). *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ | Sys_error _ -> ());
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
      | exception (Unix.Unix_error (err, _, _) as exn) ->
        (* Every failed attempt closes its socket, the last one too. *)
        (try Unix.close fd with Unix.Unix_error _ -> ());
        if (err = Unix.ENOENT || err = Unix.ECONNREFUSED) && attempt < retries
        then begin
          Unix.sleepf 0.01;
          go (attempt + 1)
        end
        else raise exn
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
