(** Whole-nest execution simulation.

    Accumulates the cycle cost of every iteration under the given
    allocation, from each reference group's register residency (see
    {!Srfa_reuse.Analysis.Tracker}). A walk counts the points at which
    each distinct set of groups hits RAM, then costs each set once and
    weights it by its count, so it is linear in the number of points it
    visits with one table update per run of equal sets, plus one
    makespan per distinct set.

    Under {!Residency.Pinned} that is the {e in-window suffix}, not the
    nest. Inside a reuse window a group's element index is a per-window
    constant plus an affine function of the in-window coordinates, so its
    first-touch rank is the same function of those coordinates in every
    window, and every group's residency is a function of the coordinates
    from [w*] on — the outermost window level of any group with reuse
    (the depth when none has reuse). The first [iterations / outer]
    points in execution order, [outer] the product of the trip counts
    above [w*], enumerate that suffix once, and each suffix value recurs
    [outer] times over the nest. {!run} and {!profile} only add up
    per-iteration values (cycles, RAM accesses, register hits, per-group
    RAM counts, the cost histogram), so visiting the suffix with weight
    [outer] gives exactly the whole-nest sums; [result.iterations] stays
    {!Srfa_ir.Nest.iterations}. The dynamic policies ({!Residency.Lru},
    {!Residency.Direct_mapped}) carry replacement state across windows
    and walk the whole nest. *)

open Srfa_reuse

type ram_policy =
  | Private_banks  (** one bank per array: the paper's concurrency model *)
  | Single_bank    (** ablation: all accesses serialise on one port *)

type execution =
  | Serial     (** the paper's model: one body evaluation at a time *)
  | Pipelined  (** ablation: fully pipelined body, cost = initiation
                   interval (see {!Cycle_model.initiation_interval}) *)

type config = {
  latency : Srfa_hw.Latency.t;
  device : Srfa_hw.Device.t;
  control_overhead : int;
      (** extra cycles of loop control per body iteration *)
  ram_policy : ram_policy;
  residency : Residency.policy;
      (** register-file management discipline; the paper's is {!Residency.Pinned} *)
  execution : execution;
}

val default_config : config
(** {!Srfa_hw.Latency.default}, XCV1000, no separate control cycles (the
    FSM overlaps next-state computation with the datapath). *)

type result = {
  iterations : int;
  total_cycles : int;       (** makespans + control overhead *)
  memory_cycles : int;      (** cycles attributable to RAM accesses *)
  compute_cycles : int;     (** pure-compute makespan times iterations *)
  control_cycles : int;
  ram_accesses : int;       (** charged group-accesses over the run *)
  register_hits : int;      (** accesses served by pinned registers *)
  group_ram_accesses : int array; (** per group id *)
}

type scratch
(** Reusable simulation state for one (analysis, latency) pair: the DFG,
    the prepared {!Cycle_model} half, the suffix's slot-rank source (a
    rank cache or a residency tracker, see {!val-scratch}), the
    charged-set count tables and the per-iteration bit buffers.
    Passing one to {!run} makes repeated simulations of the same nest (a
    budget ladder, a portfolio, a sweep) allocation-free apart from the
    result record itself. Not thread-safe: keep one scratch per domain. *)

val scratch :
  ?config:config -> ?dfg:Srfa_dfg.Graph.t -> Analysis.t -> scratch
(** [config] supplies the latency table the scratch is specialised to
    (default {!default_config}); [dfg] donates an already-built graph for
    the same analysis (checked by identity, else rebuilt). For a
    {!Residency.Pinned} config the scratch records every group's slot
    rank over the in-window suffix here, so its size is fixed when it is
    built. It fills them group by group without stepping the tracker: a
    group without reuse ranks [max_int]; where
    {!Srfa_reuse.Analysis.rank_affine} gives the ranks' affine form, an
    odometer over the suffix adds one coefficient per point; any other
    group's element indices get one first-touch pass, restarted at each
    of its windows. Any other scratch (a dynamic-policy config, or past
    [2^23] ranks, suffix points times groups) holds an
    {!Srfa_reuse.Analysis.Tracker} instead, and Pinned walks and
    {!cycles_floor} step it through the suffix. The scratch holds one
    source or the other, built here, so its size is fixed when it is
    built: no walk grows it ({!Residency.Lru} and
    {!Residency.Direct_mapped} walks read element indices, never a
    rank). *)

val mask_cap : int
(** 60: the most reference groups a walk counts charged sets for on an
    int bitmask. Past it the walk keys them by a bytes string instead
    (the same counts, slightly slower lookups). *)

val run :
  ?trace:Srfa_util.Trace.sink ->
  ?config:config ->
  ?scratch:scratch ->
  Allocation.t ->
  result
(** Simulates the allocation's nest. Past {!mask_cap} groups a traced
    walk announces the bytes-key fallback as a ["guard.mask"] event on
    [trace]; an untraced one says nothing (Flow raises [W-GUARD-MASK]
    from the group count). A [scratch] built from a different analysis
    or latency table is ignored (a fresh one is made), so threading one
    through heterogeneous call sites is always safe. *)

val profile :
  ?trace:Srfa_util.Trace.sink ->
  ?config:config ->
  ?scratch:scratch ->
  Allocation.t ->
  (int * int) list
(** Histogram of per-iteration cycle costs: [(cost, iterations)] pairs,
    ascending by cost. The paper narrates designs this way ("iterations
    have either 1 or 2 memory accesses"); the profile makes the claim
    checkable for any design. *)

val cycles_floor : ?config:config -> scratch -> beta_max:int -> int
(** A floor on the Serial [total_cycles] of every allocation of the
    scratch's analysis that gives no group more than [beta_max]
    registers. Under {!Residency.Pinned} an access whose slot rank is at
    least [beta_max] goes to RAM whatever the allocation, and a group
    without reuse goes to RAM under every policy, so each iteration costs
    at least the {!Cycle_model.charged_path_bound} of those groups; the
    floor sums it over the weighted suffix, one bound per distinct
    charged set. At budget [b] over [n]
    groups every group holds at most [b - (n - 1)] registers. The
    design-space explorer prunes with this bound. *)

val ram_map_for : config -> Allocation.t -> Srfa_hw.Ram_map.t
(** The array-to-block mapping the simulation uses: every array backed by
    RAM in steady state, plus input/output arrays (their data must be
    staged in RAM before/after the computation). *)

val pp_result : Format.formatter -> result -> unit
