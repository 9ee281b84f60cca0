(** Cuts of the Critical Graph.

    A cut is a minimal set of RAM-hitting reference groups whose removal
    disconnects every critical path (paper §3); register-resident
    references contribute no latency, so they are not cut candidates.

    Two engines answer cut queries. {!cheapest_answer} — what CPA-RA
    asks every round — reduces the minimum-weight vertex cut to max-flow
    over the node-split CG ({!Flownet}) and runs in polynomial time, so
    allocation scales to unrolled and fused bodies with hundreds of
    reference groups.
    {!enumerate_exhaustive} is the original subset enumeration, kept as the
    reference oracle and for printing the complete minimal-cut set; it is
    exponential in the number of CG reference groups (the paper makes the
    same worst-case remark) and guarded against absurd inputs. Both break
    ties identically — ascending cut weight, then cardinality, then the
    lexicographically smallest set of group positions — so they name the
    same cut whenever both can run. *)

open Srfa_reuse

exception Work_limit of { phases : int; paths : int; limit : int }
(** Raised by {!cheapest_answer} when its max-flow work budget runs out; carries
    the BFS-phase and augmenting-path counts at the trip point and the
    budget that was exceeded. The caller is expected to degrade (CPA-RA
    falls back to PR-RA) rather than abort. *)

(** One answered {!cheapest_answer} query: the cut and its weight, the
    {!Critical.length} of the CG it cuts, and what its ["cut.flow"] event
    reports besides — the eligible candidate count, the max-flow value
    under the tie-break scaling, and the {!Flownet.stats} the query cost
    (its network is fresh, so these are the query's own totals). *)
type answer = {
  cut : Group.t list;
  weight : int;
  critical_length : int;
  candidates : int;
  flow_value : int;
  flow : Flownet.stats;
}

val cheapest_answer :
  ?trace:Srfa_util.Trace.sink ->
  ?work_limit:int ->
  Critical.t ->
  eligible:(Group.t -> bool) ->
  weight:(Group.t -> int) ->
  answer option
(** The cheapest cut of the CG made only of [eligible] charged reference
    groups, with its total [weight]; [None] when no such cut exists (some
    critical path carries no eligible group). The cut is minimal, listed in
    CG reference-group order, and deterministic under the tie-break above.
    Weights must be non-negative. Runs in O(V^2 E) per max-flow, with one
    extra max-flow per candidate group for the tie-break.

    [trace] (default the no-op sink) receives one ["cut.flow"] event per
    answered query: candidate count, chosen cut (group names) and weight,
    and the {!Flownet.stats} delta the answer cost (max-flow runs, BFS
    phases, augmenting paths).

    [work_limit] (default unlimited) bounds the max-flow effort spent on
    this query, counted as BFS phases plus augmenting paths across every
    run the query needs (first solve plus the per-candidate tie-break).
    When it trips, a ["cut.guard"] trace event is emitted and
    {!Work_limit} is raised.
    @raise Work_limit when the work budget is exhausted. *)

val flow_event : answer -> Srfa_util.Trace.event
(** The ["cut.flow"] event {!cheapest_answer} emitted for this answer,
    field for field — a caller that stores answers replays it on reuse. *)

val work : answer -> int
(** BFS phases plus augmenting paths: the units [work_limit] counts. The
    query that produced the answer raises {!Work_limit} under a
    [work_limit] exactly when it is below this total. *)

val enumerate_exhaustive :
  ?max_groups:int -> Critical.t -> Group.t list list
(** All minimal cuts, each sorted by group position; the list is ordered by
    ascending cut size then lexicographic positions. [max_groups] (default
    16) bounds the subset enumeration.
    @raise Invalid_argument if the CG carries more reference groups. *)

val is_cut : Critical.t -> Group.t list -> bool
(** Whether removing these groups disconnects every critical path (not
    necessarily minimal). *)
