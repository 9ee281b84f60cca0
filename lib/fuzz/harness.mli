(** The never-crash oracle for generated kernels.

    Each case goes through the total pipeline
    ({!Srfa_frontend.Parser.parse_result}, then
    {!Srfa_core.Flow.checked}) and the outcome is judged against the
    robustness contract:

    - no input may escape as an uncaught exception ({!Crash});
    - a rejection must carry coded diagnostics;
    - a kernel the generator knows to be valid must be accepted;
    - accepted reports satisfy the hard invariants — registers within
      budget, RAM accesses within [\[0, baseline\]] (saved accesses never
      negative), cycle accounting consistent;
    - mask-stress kernels must show the [W-GUARD-MASK] degradation, and
      every guard warning must be mirrored by its trace event
      ([fallback.pr_ra], [guard.mask], [fallback.cycle_model]).

    Comparative invariants come in two strengths. CPA-RA cycles vs FR-RA
    (and CPA+ vs the best greedy baseline) are {e statistical}: the
    paper's claim, not a theorem — on a small fraction of random kernels
    the critical-path model strands or misdirects registers that the
    greedy order spends. Individual counterexamples are counted; a
    campaign only fails when more than 5% of accepted kernels regress.
    The certified {!Srfa_core.Allocator.Portfolio} path, by contrast, is
    never-worse {e by construction} ({!Srfa_core.Certify}), so its
    tolerance is exactly zero: one counterexample is a hard {!Violation}.

    Hard contract breaches are {!Violation}s; crashes are minimised
    before reporting. *)

type outcome =
  | Accepted of {
      warnings : Srfa_util.Diag.t list;
      events : Srfa_util.Trace.event list;
      regression : string option;
          (** [Some _] when CPA-RA simulated worse than FR-RA here *)
      plus_regression : string option;
          (** [Some _] when CPA+ simulated worse than the best greedy
              baseline here *)
    }
  | Rejected of Srfa_util.Diag.t list  (** coded rejection — expected *)
  | Violation of string                (** contract breach, no exception *)
  | Crash of string                    (** uncaught exception — a bug *)

val run_case : Gen.case -> outcome
(** Never raises. *)

val minimize : (string -> bool) -> string -> string
(** [minimize keeps source] greedily deletes source lines while [keeps]
    stays true (ddmin restricted to single-line removal, iterated to a
    fixed point). Returns [source] unchanged when [keeps source] is
    already false. *)

type summary = {
  cases : int;
  accepted : int;
  degraded : int;  (** accepted with at least one guard warning *)
  rejected : int;
  crashes : (Gen.case * string * string) list;
      (** case, exception, minimised reproducer *)
  violations : (Gen.case * string) list;
  regressions : (Gen.case * string) list;
      (** accepted kernels where CPA-RA simulated worse than FR-RA *)
  plus_regressions : (Gen.case * string) list;
      (** accepted kernels where CPA+ simulated worse than the best
          greedy baseline (tracked separately: the stranded-budget fix
          drove this to zero at the pinned seed, and it should stay
          there) *)
}

val run :
  ?cases:int -> ?seed:int -> ?log:(Gen.case -> outcome -> unit) ->
  ?pool:Srfa_util.Pool.t -> unit -> summary
(** [run ~cases ~seed ()] fuzzes [cases] generated kernels (default 200,
    seed 42). [log] observes every case as it completes.

    [pool] fans the case ids out across domains —
    {!Gen.generate}[ ~seed ~id] makes every case an independent,
    order-free function of its id — and merges the per-case outcomes
    back in id order, so the summary (stats, counterexample lists,
    minimised reproducers) is equal to the sequential campaign's. Under
    a pool, [log] observes every case in id order after the campaign
    completes, rather than interleaved with execution. *)

val ok : summary -> bool
(** No crashes, no violations (which covers the certified portfolio's
    exactly-zero invariant), and both statistical regression lists within
    the 5% tolerance. *)

val pp_summary : Format.formatter -> summary -> unit
(** One line, e.g. ["200 cases: 118 accepted (12 degraded), 82 rejected,
    0 crashes, 0 invariant violations, 1 comparative regressions, 0 cpa+
    regressions (within 5% tolerance; certified portfolio tolerance is
    zero)"]. *)
