(** Deterministic, seeded fault injection for the serving stack.

    A {e plan} attaches misbehaviour to named {e sites} — points in the
    server where reality can fail: [io.read], [io.write], [pool.job],
    [cache.insert]. Each call site asks {!check} whether to misbehave
    this time; the disabled registry ({!off}) answers [None] from a
    single branch, so production code threads a [t] everywhere at zero
    cost, the same way {!Trace} threads its null sink.

    Plans are strings — [site:action[:param]@rate] clauses separated by
    commas, rates in [\[0, 1\]]:

    {[ io.read:short-read@0.1,pool.job:raise@0.05,cache.insert:error@1 ]}

    Every rule draws from its own {!Prng} stream derived from the plan
    seed and the rule's position, so a campaign replays exactly from
    (plan, seed) regardless of scheduling; the draw is mutex-guarded
    because [pool.job] is checked from worker domains. What each action
    {e means} is the call site's contract (documented in DESIGN.md §15):
    the registry only decides whether and what to inject. *)

type action =
  | Error  (** the site reports a failure (dropped write, failed insert) *)
  | Delay of int  (** the site stalls for this many milliseconds *)
  | Short_read  (** an IO read delivers only a prefix of the bytes *)
  | Raise  (** the site raises {!Injected} *)

exception Injected of string
(** Raised by call sites honouring a [Raise] action; carries the site
    name. The server's worker-isolation boundary turns it into an
    [E-INTERNAL-*] diagnostic for the one affected request. *)

type t

val off : t
(** The disabled registry: {!check} is one branch returning [None]. *)

val enabled : t -> bool

val parse : ?seed:int -> string -> (t, string) result
(** [parse ~seed plan] compiles a plan string. The empty (or all-blank)
    plan is {!off}. [seed] defaults to 42. *)

val from_env : ?plan_var:string -> ?seed_var:string -> unit -> (t, string) result
(** Read the plan from [SRFA_FAULTS] and the seed from [SRFA_FAULT_SEED]
    (defaults; both overridable); an unset or empty plan is {!off}. *)

val check : t -> string -> action option
(** [check t site] — [Some action] when a rule for [site] fires on this
    draw. With several rules on one site the first firing rule wins. *)

val injected : t -> int
(** Total actions fired so far (all rules). *)

val stats : t -> (string * int) list
(** Per-rule fire counts, keyed ["fault.<site>.<action>"] — merged into
    the server's [stats] response so campaigns can assert injection
    actually happened. *)

val to_string : t -> string
(** Render the plan back to (normalised) plan syntax; [""] for {!off}. *)
