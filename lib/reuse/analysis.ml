open Srfa_ir
module Arena = Srfa_util.Arena

type info = {
  group : Group.t;
  reuse : Kernelspace.t;
  has_reuse : bool;
  window_level : int;
  nu : int;
  accesses : int;
  distinct : int;
  saved_full : int;
  benefit_cost : float;
  lin_coeffs : int array;
  lin_const : int;
}

type t = { nest : Nest.t; groups : Group.t array; infos : info array }

(* The element index of an affine reference linearises (row-major) into a
   single affine function of the iteration point; precomputing its
   coefficients makes the per-iteration analyses cheap. *)
let linearise nest (r : Expr.ref_) =
  let vars = Array.of_list (Nest.loop_vars nest) in
  let depth = Array.length vars in
  let coeffs = Array.make depth 0 in
  let const = ref 0 in
  let dims = Array.of_list r.Expr.decl.Decl.dims in
  let stride = Array.make (Array.length dims) 1 in
  for d = Array.length dims - 2 downto 0 do
    stride.(d) <- stride.(d + 1) * dims.(d + 1)
  done;
  let add_dim d ix =
    const := !const + (stride.(d) * Affine.constant ix);
    for l = 0 to depth - 1 do
      coeffs.(l) <- coeffs.(l) + (stride.(d) * Affine.coeff ix vars.(l))
    done
  in
  List.iteri add_dim r.Expr.index;
  (coeffs, !const)

let element_of coeffs const point =
  let acc = ref const in
  for l = 0 to Array.length coeffs - 1 do
    acc := !acc + (coeffs.(l) * point.(l))
  done;
  !acc

(* |{sum_l coeffs.(l) * p_l : 0 <= p_l < extents.(l)}| without visiting
   the box. The sums are kept as sorted, disjoint, non-adjacent runs
   [lo, hi] of consecutive integers, and the levels are added by
   doubling: with A_m the sums for p_l < m, A_(m+d) = A_m ∪ (A_m + d c_l)
   for d <= m, one merge of the two run lists per doubling (a negative
   c_l shifts the copy down; it stays sorted). There are never more runs
   than sums, and never more sums than box points or values in the
   reference's index range, so a huge declared array read over a small
   nest costs no more than the nest; a dense reference is a single run. *)
let sumset_size coeffs extents =
  let lo = ref [| 0 |] and hi = ref [| 0 |] and runs = ref 1 in
  for l = 0 to Array.length coeffs - 1 do
    let c = coeffs.(l) and n = extents.(l) in
    let m = ref (if c = 0 then n else 1) in
    while !m < n do
      let d = min !m (n - !m) in
      let shift = d * c and k = !runs and alo = !lo and ahi = !hi in
      let olo = Array.make (2 * k) 0 and ohi = Array.make (2 * k) 0 in
      let i = ref 0 and j = ref 0 and o = ref 0 in
      while !i < k || !j < k do
        (* The next run by [lo], from A_m or from its shifted copy. *)
        let from_a = !j >= k || (!i < k && alo.(!i) <= alo.(!j) + shift) in
        let r = if from_a then !i else !j
        and s = if from_a then 0 else shift in
        if from_a then incr i else incr j;
        let rlo = alo.(r) + s and rhi = ahi.(r) + s in
        if !o > 0 && rlo <= ohi.(!o - 1) + 1 then
          ohi.(!o - 1) <- max ohi.(!o - 1) rhi
        else begin
          olo.(!o) <- rlo;
          ohi.(!o) <- rhi;
          incr o
        end
      done;
      lo := olo;
      hi := ohi;
      runs := !o;
      m := !m + d
    done
  done;
  let size = ref 0 in
  for r = 0 to !runs - 1 do
    size := !size + !hi.(r) - !lo.(r) + 1
  done;
  !size

let analyze nest =
  let groups = Group.collect nest in
  let loop_vars = Nest.loop_vars nest in
  let counts = Array.of_list (Nest.trip_counts nest) in
  let depth = Array.length counts in
  let iterations = Nest.iterations nest in
  let info_of (g : Group.t) =
    let coeffs, const = linearise nest g.Group.ref_ in
    let reuse = Kernelspace.of_index ~loop_vars g.Group.ref_.Expr.index in
    let has_reuse = Kernelspace.has_reuse reuse in
    let window_level, delta =
      match (Kernelspace.carry_level reuse, Kernelspace.carry_distance reuse) with
      | Some l, Some d -> (l, d)
      | _ -> (depth + 1, 1)
    in
    (* nu: distinct elements during one reuse window. The window is one
       iteration of the carrying loop's body, scaled by the carry distance
       (delta consecutive iterations for coupled indices with non-unit
       steps): outer levels at 0, the carrying level over [0, delta),
       inner levels over their full ranges. *)
    let nu =
      if not has_reuse then 1
      else
        sumset_size coeffs
          (Array.mapi
             (fun l n ->
               if l < window_level - 1 then 1
               else if l = window_level - 1 then min delta n
               else n)
             counts)
    in
    (* Every group is touched each iteration (straight-line body). *)
    let accesses = iterations in
    let distinct = sumset_size coeffs counts in
    let saved_full = if has_reuse then accesses - distinct else 0 in
    {
      group = g;
      reuse;
      has_reuse;
      window_level;
      nu;
      accesses;
      distinct;
      saved_full;
      benefit_cost = float_of_int saved_full /. float_of_int nu;
      lin_coeffs = coeffs;
      lin_const = const;
    }
  in
  { nest; groups; infos = Array.map info_of groups }

let info t gid =
  if gid < 0 || gid >= Array.length t.infos then
    invalid_arg "Analysis.info: group id out of range";
  t.infos.(gid)

let element_index i point = element_of i.lin_coeffs i.lin_const point
let num_groups t = Array.length t.infos

let total_registers_full t =
  Array.fold_left (fun acc i -> acc + i.nu) 0 t.infos

(* Candidate slot-rank expression: a mixed-radix index over the in-window
   levels the reference reads. Inside a window those levels are visited
   in lexicographic order, and the first visit of each of their
   coordinate tuples comes in that order, so the candidate is the
   first-touch rank of the tuple. It is the rank of the element iff no
   two tuples touch the same element, i.e. iff the sumset of the
   levels' coefficients over their trip counts has as many sums as the
   box has tuples; otherwise the window touches fewer elements than the
   candidate's largest value. *)
let rank_affine t (i : info) =
  if not i.has_reuse then None
  else begin
    let counts = Array.of_list (Nest.trip_counts t.nest) in
    let depth = Array.length counts in
    let read =
      List.filter
        (fun l -> i.lin_coeffs.(l) <> 0)
        (List.init (depth - i.window_level) (fun n -> i.window_level + n))
    in
    let coeffs = Array.make depth 0 in
    let tuples =
      List.fold_right
        (fun l radix ->
          coeffs.(l) <- radix;
          radix * counts.(l))
        read 1
    in
    let sums =
      sumset_size
        (Array.of_list (List.map (fun l -> i.lin_coeffs.(l)) read))
        (Array.of_list (List.map (fun l -> counts.(l)) read))
    in
    if sums = tuples then Some coeffs else None
  end

module Tracker = struct
  (* Per-group first-touch ranks within the current reuse window. The
     rank table is an Arena.Table so the per-window clear (every time an
     outer coordinate changes — the inner hot loop of the simulator) is a
     generation bump, not a bucket-array wipe, and rank lookups allocate
     nothing. *)
  type gstate = {
    ranks : Arena.Table.t;
    mutable next_rank : int;
    window : int array; (* coords of levels 1..window_level *)
    mutable current_rank : int;
  }

  type tracker = { analysis : t; states : gstate array }

  let create analysis =
    let depth = List.length (Nest.trip_counts analysis.nest) in
    let mk (i : info) =
      let wl = min i.window_level depth in
      {
        ranks = Arena.Table.create ~capacity:64 ();
        next_rank = 0;
        window = Array.make (max wl 0) (-1);
        current_rank = max_int;
      }
    in
    { analysis; states = Array.map mk analysis.infos }

  let reset tr =
    Array.iter
      (fun st ->
        Arena.Table.reset st.ranks;
        st.next_rank <- 0;
        Array.fill st.window 0 (Array.length st.window) (-1);
        st.current_rank <- max_int)
      tr.states

  let step tr point =
    let infos = tr.analysis.infos in
    for gi = 0 to Array.length infos - 1 do
      let i = infos.(gi) in
      if i.has_reuse then begin
        let st = tr.states.(gi) in
        let wl = Array.length st.window in
        let changed = ref false in
        for l = 0 to wl - 1 do
          if st.window.(l) <> point.(l) then changed := true
        done;
        if !changed then begin
          Array.blit point 0 st.window 0 wl;
          Arena.Table.reset st.ranks;
          st.next_rank <- 0
        end;
        let e = element_index i point in
        let rank =
          match Arena.Table.find st.ranks e ~default:(-1) with
          | -1 ->
            let r = st.next_rank in
            Arena.Table.set st.ranks e r;
            st.next_rank <- r + 1;
            r
          | r -> r
        in
        st.current_rank <- rank
      end
    done

  let analysis tr = tr.analysis

  let slot_rank tr gid =
    let i = tr.analysis.infos.(gid) in
    if i.has_reuse then tr.states.(gid).current_rank else max_int

  let resident tr gid ~beta ~pinned =
    pinned && slot_rank tr gid < beta
end

let pp_info ppf i =
  Format.fprintf ppf
    "%s: reuse=%b level=%d nu=%d accesses=%d distinct=%d saved=%d b/c=%.2f"
    (Group.name i.group) i.has_reuse i.window_level i.nu i.accesses
    i.distinct i.saved_full i.benefit_cost
