(* Flat-array scratch structures for the allocation-free hot core.

   The table is open-addressed (linear probing, power-of-two capacity)
   over plain int arrays, with an O(1) generation-stamp [reset]: a slot is
   live only when its stamp equals the current generation, so clearing a
   table between uses touches one counter instead of the arrays. After
   warm-up (once the arrays have grown to their high-water mark) every
   operation is allocation-free — no options, no boxed buckets, no
   rehash-on-reset. *)

let initial_capacity = 16

(* Fibonacci hashing; keys may be any int (negative included) because
   liveness is carried by the stamp, not by a reserved key value. *)
let hash k = (k * 0x2545F4914F6CDD1D) lsr 12

module Table = struct
  type t = {
    mutable keys : int array;
    mutable vals : int array;
    mutable stamp : int array;
    mutable mask : int; (* capacity - 1, capacity a power of two *)
    mutable live : int;
    mutable gen : int;
  }

  let create ?(capacity = initial_capacity) () =
    let rec pow2 c = if c >= capacity then c else pow2 (c * 2) in
    let cap = pow2 initial_capacity in
    {
      keys = Array.make cap 0;
      vals = Array.make cap 0;
      stamp = Array.make cap 0;
      mask = cap - 1;
      live = 0;
      gen = 1;
    }

  let reset t =
    t.gen <- t.gen + 1;
    t.live <- 0

  (* The probe loops are written with [while] and an index cell rather
     than a local recursive function: a [let rec] closure would be a heap
     allocation per call — exactly the traffic this module exists to
     remove. The index refs compile to registers (non-escaping refs are
     unboxed by the middle end). *)
  let find t k ~default =
    let mask = t.mask in
    let i = ref (hash k land mask) in
    let result = ref default in
    let continue_ = ref true in
    while !continue_ do
      if t.stamp.(!i) <> t.gen then continue_ := false
      else if t.keys.(!i) = k then begin
        result := t.vals.(!i);
        continue_ := false
      end
      else i := (!i + 1) land mask
    done;
    !result

  let rec set t k v =
    let mask = t.mask in
    let i = ref (hash k land mask) in
    let continue_ = ref true in
    while !continue_ do
      if t.stamp.(!i) <> t.gen then begin
        if 2 * (t.live + 1) > mask + 1 then begin
          grow t;
          set t k v
        end
        else begin
          t.keys.(!i) <- k;
          t.vals.(!i) <- v;
          t.stamp.(!i) <- t.gen;
          t.live <- t.live + 1
        end;
        continue_ := false
      end
      else if t.keys.(!i) = k then begin
        t.vals.(!i) <- v;
        continue_ := false
      end
      else i := (!i + 1) land mask
    done

  and grow t =
    let old_keys = t.keys
    and old_vals = t.vals
    and old_stamp = t.stamp
    and old_gen = t.gen in
    let cap = 2 * (t.mask + 1) in
    t.keys <- Array.make cap 0;
    t.vals <- Array.make cap 0;
    t.stamp <- Array.make cap 0;
    t.mask <- cap - 1;
    t.live <- 0;
    t.gen <- 1;
    Array.iteri
      (fun i s -> if s = old_gen then set t old_keys.(i) old_vals.(i))
      old_stamp

  let iter t f =
    Array.iteri (fun i s -> if s = t.gen then f t.keys.(i) t.vals.(i)) t.stamp
end
