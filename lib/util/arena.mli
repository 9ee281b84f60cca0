(** Reusable flat-array scratch for the allocation-free hot core.

    The simulator, tracker, and analysis hot loops need int-keyed memo
    tables that are cleared millions of times per evaluation. [Hashtbl]
    pays a boxed bucket per insert and an [option] per probe; these
    tables are open-addressed over plain int arrays with an O(1)
    generation-stamp {!Table.reset} (clearing bumps a counter, it does
    not touch the arrays). They grow on demand by doubling and never
    shrink — the intended discipline is one table per owner, [reset]
    between uses, so a warmed-up evaluation touches the allocator zero
    times here.

    Thread-safety: none. Give each domain its own tables (the simulator
    scratch does: one scratch per kernel, kernels are the parallel axis —
    see DESIGN.md §13). *)

module Table : sig
  type t
  (** An int -> int map. Keys may be any int, including negatives. *)

  val create : ?capacity:int -> unit -> t
  (** [capacity] is rounded up to a power of two (default 16). *)

  val reset : t -> unit
  (** Empty the table in O(1). Capacity (and therefore the warmed-up
      allocation-free property) is retained. *)

  val find : t -> int -> default:int -> int
  (** The binding of the key, or [default] when absent. Allocation-free;
      pick a [default] outside the value range to distinguish absence. *)

  val set : t -> int -> int -> unit
  (** Bind (or rebind) a key. Allocates only when the table grows. *)

  val iter : t -> (int -> int -> unit) -> unit
end
