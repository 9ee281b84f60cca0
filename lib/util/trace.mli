(** Structured decision tracing.

    Every stage of the allocation engine (and the DFG cut machinery under
    it) can narrate what it decided and why as a stream of structured
    {!event}s. A sink consumes the stream; the default {!null} sink is a
    physical-equality test away from free, and {!emit} takes a thunk, so a
    disabled trace never even builds its events — the allocators stay
    allocation-free on the hot path.

    Sinks are deliberately dumb: no buffering policy, no schema registry.
    An event is a name plus a flat field list; {!to_json} renders one event
    as one JSON object, which is what the CLI's [--trace out.jsonl] and the
    bench harness write line by line (JSON-lines). *)

type value =
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of value list

type event = {
  name : string;                    (** e.g. ["assign.full"], ["round"] *)
  fields : (string * value) list;
}

type sink

val null : sink
(** The no-op sink: {!emit} on it returns without forcing its thunk. *)

val enabled : sink -> bool
(** [false] exactly for {!null}. Strategies use this to skip building
    expensive field values (group-name lists, flow statistics). *)

val make : (event -> unit) -> sink
(** A sink from an event consumer. *)

val emit : sink -> (unit -> event) -> unit
(** Deliver one event; the thunk is forced only when the sink is enabled. *)

val event : string -> (string * value) list -> event

val collector : unit -> sink * (unit -> event list)
(** An in-memory sink and the accessor returning everything emitted so
    far, in emission order. Thread-safe: concurrent emits from several
    domains are serialised by a mutex and none is lost (their relative
    order is the arrival order). *)

val buffered : unit -> sink * (sink -> unit)
(** [buffered ()] is a private in-memory sink plus a splice function:
    [splice target] replays everything buffered so far into [target], in
    emission order. This is the deterministic-trace building block for
    parallel drivers — give each task its own buffered sink, then splice
    the buffers in {e task} order after the join, so the merged stream
    is byte-identical to the sequential run regardless of how execution
    interleaved. The buffer itself is single-owner and unsynchronised;
    emit into it from one task only. *)

val channel : out_channel -> sink
(** A JSON-lines sink: each event becomes one [to_json] line on the
    channel (not flushed per event; close or flush the channel yourself). *)

val to_json : event -> string
(** One event as a single-line JSON object
    [{"event": name, field: value, ...}], written by {!Json.to_string}.
    Floats print as ["%.6g"]; non-finite floats render as [null]. *)

val summary : event list -> string
(** Compact human summary, e.g. ["5 events: 3 assign.full, 2 round"] —
    event names counted in first-appearance order. Empty list: ["no
    events"]. *)
