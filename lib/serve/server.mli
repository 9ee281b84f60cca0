(** The allocation daemon: a Unix-domain-socket accept loop speaking the
    JSONL {!Protocol}, backed by a two-tier {!Cache}.

    Concurrency model — single-threaded IO, pooled compute. The accept
    loop owns every file descriptor and every cache mutation. Each
    [select] round drains all complete request lines into one batch:
    tier-2 hits (and rebudget events, stats, shutdown and protocol
    errors) are answered immediately from the loop — rebudget sessions
    are mutable and share their tier-1 entry's scratch, so running
    their steps on the accept thread is what keeps them single-owner
    (DESIGN.md §16); the remaining cold requests are grouped
    by tier-1 key and the groups fanned out through {!Srfa_util.Pool},
    one group per worker call, so concurrent requests for the same
    kernel share one analysis build and one simulator scratch — the
    scratch is not thread-safe, and grouping is what makes each tier-1
    entry single-owner for the duration of a batch. Workers only
    compute; the loop inserts the built entries and reports afterwards
    and writes responses in arrival order.

    Resilience model (DESIGN.md §15) — the loop assumes clients lie and
    workers fail: per-connection buffer caps and read timeouts
    ([E-PROTO-003], connection dropped), cold-compute bound with
    overload shedding ([E-OVERLOAD] + [retry_after_ms]), per-request
    deadlines ([E-DEADLINE], never cached), worker-exception isolation
    ([E-INTERNAL-*] for the one affected request), SIGPIPE ignored
    process-wide, and graceful drain on SIGTERM/SIGINT. All of it is
    drivable deterministically through {!Srfa_util.Fault}. *)

val run :
  ?jobs:int ->
  ?tier1_bytes:int ->
  ?tier2_bytes:int ->
  ?trace:Srfa_util.Trace.sink ->
  ?faults:Srfa_util.Fault.t ->
  ?deadline_ms:int ->
  ?max_inflight:int ->
  ?max_buffer:int ->
  ?read_timeout_ms:int ->
  ?signals:bool ->
  ?log:(string -> unit) ->
  socket:string ->
  unit ->
  unit
(** Bind [socket] (unlinking any stale file), serve until a [shutdown]
    request arrives or — with [signals] on — SIGTERM/SIGINT triggers a
    drain (stop accepting, finish the in-flight round, flush stats via
    [log], return), then close every client and remove the socket.
    [jobs] sizes the worker pool (default 1). [faults] arms the
    io.read / io.write / pool.job / cache.insert injection sites
    (default off). [deadline_ms] is the server-wide default deadline
    applied when a request carries none (default: no deadline).
    [max_inflight] bounds cold compute per batch; excess requests are
    shed with [E-OVERLOAD] (default 256). [max_buffer] caps one
    connection's unterminated input (default 1 MiB) and
    [read_timeout_ms] bounds how long a partial line may sit (default
    10 s); either trips [E-PROTO-003] and drops the connection.
    SIGPIPE is ignored process-wide on entry regardless of [signals]. *)

(** A small blocking client, used by the self-test and the bench. *)
module Client : sig
  type t = { fd : Unix.file_descr; ic : in_channel }

  val connect : ?retries:int -> string -> t
  (** Retry while the socket does not exist / refuses connections
      (20 ms apart, default 200 attempts) so callers can connect
      immediately after spawning the daemon. *)

  val send : t -> string -> unit
  val recv : t -> string
  val recv_opt : t -> string option
  (** [None] on EOF (the daemon dropped the connection). *)

  val rpc : t -> string -> string
  val close : t -> unit
end

val self_test : ?jobs:int -> ?log:(string -> unit) -> unit -> bool
(** Spawn a private daemon, run the scripted request mix (cold miss /
    tier-2 hit / analysis reuse / inline source / parse error / unknown
    kernel / malformed JSON with id recovery / guard trip / infeasible
    budget / rebudget event stream with memoized revisits and the
    starved-budget clamp / pipelined batch / stats / shutdown), then
    three more
    private daemons covering the resilience layer: buffer cap + read
    timeout + overload shedding + deadlines, worker isolation under a
    100% pool.job fault plan, and SIGTERM drain. Prints via [log] and
    ends with ["self-test: ok"] iff all checks passed. *)

val chaos :
  ?seed:int -> ?requests:int -> ?jobs:int -> ?log:(string -> unit) ->
  unit -> bool
(** The seeded chaos campaign. Phase one records fault-free reports for
    a deterministic request mix; phase two replays the mix against a
    daemon under an injected fault plan (short reads, dropped writes,
    raising and stalling workers, failing cache inserts) through
    hostile clients (pipelined floods, truncated JSON then disconnect,
    disconnect before reading the response), asserting: the daemon
    never dies, every request gets exactly one response or a clean
    disconnect, every [ok] response is byte-identical to the fault-free
    report, and the injected-fault rate is at least 10% of requests;
    phase three re-verifies every distinct request against the baseline
    while faults stay armed. Prints via [log]; ends with
    ["chaos: ok (...)"] iff clean. Defaults: seed 42, 600 requests. *)
