(** Design reports: one Table 1 row.

    Gathers the allocation, the simulated cycle counts, and the analytic
    area/clock estimates into the record the benches print. *)

open Srfa_reuse

type t = {
  kernel : string;
  version : string;            (** v1 / v2 / v3 / ks *)
  algorithm : string;
  required : (string * int) list; (** per group: nu for full replacement *)
  allocated : (string * int) list;
  total_registers : int;
  cycles : int;
  memory_cycles : int;
  ram_accesses : int;
  clock_ns : float;
  exec_time_us : float;
  slices : int;
  slice_utilization : float;
  rams : int;
  trace_summary : string option;
      (** compact digest of the allocator's decision trace (event counts
          per kind, {!Srfa_util.Trace.summary}); [None] when the
          allocation was not traced *)
}

val of_result :
  ?clock_params:Clock.params ->
  ?trace_summary:string ->
  sim_config:Srfa_sched.Simulator.config ->
  version:string ->
  Allocation.t ->
  Srfa_sched.Simulator.result ->
  t
(** The report on one allocation from its simulation: the cycle counts
    come from [sim], the area and clock from the estimators. Every
    design point reports through here ([Flow]'s design-point step,
    explore's memoised points); give it the simulation under the same
    [sim_config]. *)

val speedup : base:t -> t -> float
(** Wall-clock speedup of a design over the base version. *)

val cycle_reduction_pct : base:t -> t -> float
(** Percentage reduction in cycle count relative to the base version
    (positive = fewer cycles). *)

val clock_degradation_pct : base:t -> t -> float
(** Percentage increase in clock period relative to the base version. *)

val pp : Format.formatter -> t -> unit
