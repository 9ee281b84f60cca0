open Srfa_ir
open Srfa_reuse
module Arena = Srfa_util.Arena

type ram_policy = Private_banks | Single_bank
type execution = Serial | Pipelined

type config = {
  latency : Srfa_hw.Latency.t;
  device : Srfa_hw.Device.t;
  control_overhead : int;
  ram_policy : ram_policy;
  residency : Residency.policy;
  execution : execution;
}

let default_config =
  {
    latency = Srfa_hw.Latency.default;
    device = Srfa_hw.Device.xcv1000;
    control_overhead = 0;
    ram_policy = Private_banks;
    residency = Residency.Pinned;
    execution = Serial;
  }

type result = {
  iterations : int;
  total_cycles : int;
  memory_cycles : int;
  compute_cycles : int;
  control_cycles : int;
  ram_accesses : int;
  register_hits : int;
  group_ram_accesses : int array;
}

(* Arrays that need RAM backing: anything with steady-state traffic, plus
   input/output arrays whose data must be staged regardless of how well the
   registers cover the loop itself. *)
let ram_backed_arrays alloc =
  let analysis = alloc.Allocation.analysis in
  let residual = Allocation.residual_ram_groups alloc in
  let needs (d : Decl.t) =
    match d.Decl.storage with
    | Decl.Input | Decl.Output -> true
    | Decl.Local ->
      let in_residual gid =
        Decl.equal (Group.decl (Analysis.info analysis gid).Analysis.group) d
      in
      List.exists in_residual residual
  in
  List.filter needs analysis.Analysis.nest.Nest.arrays

let ram_map_for config alloc =
  let arrays = ram_backed_arrays alloc in
  match config.ram_policy with
  | Private_banks -> Srfa_hw.Ram_map.build config.device arrays
  | Single_bank -> Srfa_hw.Ram_map.build_single_bank config.device arrays

(* The in-window suffix [(w*, outer)]: the outermost window level of any
   group with reuse (the depth when none has reuse) and the product of
   the trip counts above it. Every group's slot rank is a function of the
   coordinates from [w*] on (the exactness argument is in the
   interface), so the first [iterations / outer] points in execution
   order stand for the whole nest, each [outer] times. *)
let window_suffix analysis =
  let counts = Array.of_list (Nest.trip_counts analysis.Analysis.nest) in
  let depth = Array.length counts in
  let level =
    Array.fold_left
      (fun acc (i : Analysis.info) ->
        if i.Analysis.has_reuse then min acc i.Analysis.window_level else acc)
      depth analysis.Analysis.infos
  in
  (level, Array.fold_left ( * ) 1 (Array.sub counts 0 level))

(* Rank caches above this many entries (~64 MB) are not worth their
   memory; such nests walk the suffix through the tracker instead. *)
let rank_cache_cap = 1 lsl 23

(* Where a walk reads the suffix's slot ranks from. Ranks are a pure
   function of (analysis, suffix point) — the allocation only thresholds
   them (resident = pinned && rank < beta) — so a Pinned scratch under
   [rank_cache_cap] entries computes them once, [suffix * ngroups] ints
   from [fill_ranks], and every evaluation reads flat arrays. Any other
   scratch (a dynamic policy's, or past the cap) holds the tracker its
   walks step instead. Either is built with the scratch, so its size is
   fixed then (the serving cache charges an entry once, at insert). *)
type suffix = Ranks of int array | Tracker of Analysis.Tracker.tracker

(* Everything reusable across simulations of the same nest under the same
   latency table: the DFG, the flattened cycle-model half, the suffix's
   rank source, the charged-set count tables and the per-iteration bit
   buffers. One scratch per (analysis, latency); Flow
   threads one through a whole budget ladder the way Cpa_ra.prepare's
   scratch already travels, so a warmed-up evaluation touches the
   allocator only for the result record. Not thread-safe — one scratch
   per domain (Flow.sweep parallelises across kernels, and each kernel's
   scratch lives inside its task). *)
type scratch = {
  s_analysis : Analysis.t;
  s_latency : Srfa_hw.Latency.t;
  s_dfg : Srfa_dfg.Graph.t;
  s_prepared : Cycle_model.prepared;
  s_suffix : suffix;
  s_counts : Arena.Table.t; (* charged-set bitmask -> points (mask_cap) *)
  s_counts_str : (string, int ref) Hashtbl.t; (* past the mask cap *)
  s_charged : bool array;
  s_resident : bool array;
  s_key : Bytes.t;
  s_hist : Arena.Table.t; (* profile: cost -> iteration count *)
  s_level : int; (* first in-window level of the suffix (see window_suffix) *)
  s_outer : int; (* weight of one suffix point *)
  s_limit : int array; (* per-walk rank limits (see count_suffix) *)
}

(* Steps the tracker through the suffix from [level] on, calling [f] with
   every group's slot rank at each point (the array is reused). *)
let track_suffix tracker ~level f =
  let analysis = Analysis.Tracker.analysis tracker in
  let ranks = Array.make (Analysis.num_groups analysis) 0 in
  Analysis.Tracker.reset tracker;
  Iterspace.iter_from analysis.Analysis.nest ~level (fun point ->
      Analysis.Tracker.step tracker point;
      for gid = 0 to Array.length ranks - 1 do
        ranks.(gid) <- Analysis.Tracker.slot_rank tracker gid
      done;
      f ranks)

(* Writes [sum_l coeffs.(l) * p_l] at every suffix point [p], in
   execution order, into column [gid] of [ranks] (cell [i * ngroups +
   gid] for the [i]-th point). An odometer over the levels from [level]
   on: each step adds the coefficient of the level it advances, less
   what the levels inside it had accumulated before they wrap to 0. *)
let fill_affine ranks ~ngroups ~gid counts ~level coeffs =
  let depth = Array.length counts in
  let step = Array.make depth 0 and inside = ref 0 in
  for l = depth - 1 downto level do
    step.(l) <- coeffs.(l) - !inside;
    inside := !inside + (coeffs.(l) * (counts.(l) - 1))
  done;
  let digits = Array.make depth 0 and value = ref 0 and cell = ref gid in
  while !cell < Array.length ranks do
    Array.unsafe_set ranks !cell !value;
    cell := !cell + ngroups;
    let l = ref (depth - 1) in
    while !l >= level && digits.(!l) = counts.(!l) - 1 do
      digits.(!l) <- 0;
      decr l
    done;
    if !l >= level then begin
      digits.(!l) <- digits.(!l) + 1;
      value := !value + step.(!l)
    end
  done

(* Replaces the element indices in column [gid] of [ranks] by their
   first-touch ranks, restarting every [window] points. *)
let rank_first_touch ranks ~ngroups ~gid ~window =
  let first = Arena.Table.create ~capacity:64 () in
  let next = ref 0 and seen = ref 0 and cell = ref gid in
  while !cell < Array.length ranks do
    if !seen = window then begin
      Arena.Table.reset first;
      next := 0;
      seen := 0
    end;
    let e = ranks.(!cell) in
    (match Arena.Table.find first e ~default:(-1) with
    | -1 ->
      Arena.Table.set first e !next;
      ranks.(!cell) <- !next;
      incr next
    | r -> ranks.(!cell) <- r);
    incr seen;
    cell := !cell + ngroups
  done

(* The rank cache without the tracker, one group at a time. A group
   without reuse ranks [max_int]. Where the window's ranks are affine
   ({!Analysis.rank_affine}) the odometer writes them directly;
   otherwise (a coupled index such as BIC's image reference) it writes
   the element index, which one first-touch pass of that column turns
   into ranks: the group's window restarts every [window] suffix points,
   the product of the trip counts inside its carrying level. Each equals
   what the tracker reports at that point (see the interface). *)
let fill_ranks analysis ~level ranks =
  let counts = Array.of_list (Nest.trip_counts analysis.Analysis.nest) in
  let depth = Array.length counts in
  let ngroups = Analysis.num_groups analysis in
  Array.iteri
    (fun gid (i : Analysis.info) ->
      if not i.Analysis.has_reuse then
        for p = 0 to (Array.length ranks / ngroups) - 1 do
          ranks.((p * ngroups) + gid) <- max_int
        done
      else
        match Analysis.rank_affine analysis i with
        | Some coeffs -> fill_affine ranks ~ngroups ~gid counts ~level coeffs
        | None ->
          fill_affine ranks ~ngroups ~gid counts ~level i.Analysis.lin_coeffs;
          let window = ref 1 in
          for l = i.Analysis.window_level to depth - 1 do
            window := !window * counts.(l)
          done;
          rank_first_touch ranks ~ngroups ~gid ~window:!window)
    analysis.Analysis.infos

let scratch ?(config = default_config) ?dfg analysis =
  let dfg =
    match dfg with
    | Some d when Srfa_dfg.Graph.analysis d == analysis -> d
    | Some _ | None -> Srfa_dfg.Graph.build analysis
  in
  let ngroups = Analysis.num_groups analysis in
  let level, outer = window_suffix analysis in
  let suffix = Nest.iterations analysis.Analysis.nest / outer in
  let suffix_source =
    if
      config.residency = Residency.Pinned
      && ngroups > 0
      && suffix <= rank_cache_cap / ngroups
    then begin
      let ranks = Array.make (suffix * ngroups) 0 in
      fill_ranks analysis ~level ranks;
      Ranks ranks
    end
    else Tracker (Analysis.Tracker.create analysis)
  in
  {
    s_analysis = analysis;
    s_latency = config.latency;
    s_dfg = dfg;
    s_prepared = Cycle_model.prepare ~dfg ~latency:config.latency;
    s_suffix = suffix_source;
    s_counts = Arena.Table.create ();
    s_counts_str = Hashtbl.create 64;
    s_charged = Array.make (max ngroups 1) false;
    s_resident = Array.make (max ngroups 1) false;
    s_key = Bytes.make (max ngroups 1) '0';
    s_hist = Arena.Table.create ~capacity:64 ();
    s_level = level;
    s_outer = outer;
    s_limit = Array.make (max ngroups 1) 0;
  }

(* Calls [replay ranks points], where [ranks.(i * ngroups + gid)] is group
   [gid]'s slot rank at the [i]-th of [points] suffix points: once over
   the whole rank cache, or once per point stepped through the tracker.
   [replay] loops over the points itself, which keeps the warm path a
   plain loop (a call per point costs bic's warm evaluation ~15%). *)
let replay_suffix sc replay =
  match sc.s_suffix with
  | Ranks ranks ->
    replay ranks (Array.length ranks / Analysis.num_groups sc.s_analysis)
  | Tracker tracker ->
    track_suffix tracker ~level:sc.s_level (fun ranks -> replay ranks 1)

(* Points per charged set. A walk counts how many points charge each
   distinct set of groups, then evaluates the set's cost once and hands
   it on with that count: {!run}, {!profile} and {!cycles_floor} only add
   up per-point values, and a set's cost depends on nothing else. Loop
   bodies have few groups, so there are few sets even though the suffix
   is long. The key is an int bitmask; bodies with more groups than
   [mask_cap] fall back to a bytes key — the same counts, a little
   slower per point, never an abort. *)
let mask_cap = min 60 (Sys.int_size - 2)

let count_reset sc =
  Arena.Table.reset sc.s_counts;
  Hashtbl.reset sc.s_counts_str

let count_mask sc mask points =
  Arena.Table.set sc.s_counts mask
    (points + Arena.Table.find sc.s_counts mask ~default:0)

(* Adds one point to the count of the set in [sc.s_charged]. *)
let count_charged sc ~use_mask ~ngroups =
  let charged = sc.s_charged in
  if use_mask then begin
    let mask = ref 0 in
    for gid = 0 to ngroups - 1 do
      if charged.(gid) then mask := !mask lor (1 lsl gid)
    done;
    count_mask sc !mask 1
  end
  else begin
    let key = sc.s_key in
    for gid = 0 to ngroups - 1 do
      Bytes.unsafe_set key gid (if charged.(gid) then '1' else '0')
    done;
    (* Probe with the shared buffer (find does not retain its key); pay
       for a fresh immutable copy only for a new set. *)
    match Hashtbl.find_opt sc.s_counts_str (Bytes.unsafe_to_string key) with
    | Some points -> incr points
    | None -> Hashtbl.add sc.s_counts_str (Bytes.sub_string key 0 ngroups) (ref 1)
  end

(* Counts the suffix points per charged set under the limits in
   [sc.s_limit]: a group is served by a register at a point when its
   slot rank is below its limit — its beta when pinned, 0 when not. On
   the mask path a run of points with one set, the common case, costs
   one table update. *)
let count_suffix sc ~use_mask ~ngroups =
  let limit = sc.s_limit and charged = sc.s_charged in
  let run = ref 0 and run_mask = ref 0 in
  replay_suffix sc (fun ranks points ->
      for i = 0 to points - 1 do
        let base = i * ngroups in
        if use_mask then begin
          let mask = ref 0 in
          for gid = 0 to ngroups - 1 do
            if Array.unsafe_get ranks (base + gid) >= Array.unsafe_get limit gid
            then mask := !mask lor (1 lsl gid)
          done;
          if !mask = !run_mask then incr run
          else begin
            if !run > 0 then count_mask sc !run_mask !run;
            run_mask := !mask;
            run := 1
          end
        end
        else begin
          for gid = 0 to ngroups - 1 do
            charged.(gid) <- ranks.(base + gid) >= limit.(gid)
          done;
          count_charged sc ~use_mask ~ngroups
        end
      done);
  if !run > 0 then count_mask sc !run_mask !run

(* Calls [f points] once per counted set, with the set loaded into
   [sc.s_charged] and its complement into [sc.s_resident]. *)
let iter_sets sc ~use_mask ~ngroups f =
  let charged = sc.s_charged and resident = sc.s_resident in
  let load gid c =
    charged.(gid) <- c;
    resident.(gid) <- not c
  in
  if use_mask then
    Arena.Table.iter sc.s_counts (fun mask points ->
        for gid = 0 to ngroups - 1 do
          load gid (mask land (1 lsl gid) <> 0)
        done;
        f points)
  else
    Hashtbl.iter
      (fun key points ->
        for gid = 0 to ngroups - 1 do
          load gid (key.[gid] = '1')
        done;
        f !points)
      sc.s_counts_str

(* Shared walking core: calls [on_iteration cost resident_bits weight]
   once per distinct charged set, [weight] being the number of
   iterations that charge it; the weights add up to the iteration count.
   Pinned counts the in-window suffix, each point standing for [outer]
   iterations; Lru and Direct_mapped carry replacement state across
   windows, so they count every point once. *)
let walk ?(trace = Srfa_util.Trace.null) ?scratch:sc config alloc
    ~on_iteration =
  let analysis = alloc.Allocation.analysis in
  let nest = analysis.Analysis.nest in
  let ngroups = Analysis.num_groups analysis in
  let sc =
    match sc with
    | Some s when s.s_analysis == analysis && s.s_latency == config.latency ->
      s
    | Some _ | None -> scratch ~config analysis
  in
  let ram_map = ram_map_for config alloc in
  let model =
    Cycle_model.create ~prepared:sc.s_prepared ~dfg:sc.s_dfg
      ~latency:config.latency ~ram_map ()
  in
  let use_mask = ngroups <= mask_cap in
  if not use_mask then
    Srfa_util.Trace.emit trace (fun () ->
        let open Srfa_util.Trace in
        event "guard.mask"
          [
            ("groups", Int ngroups);
            ("cap", Int mask_cap);
            ("fallback", String "bytes-key memo");
          ]);
  count_reset sc;
  let charged_bits = sc.s_charged in
  let weight =
    match config.residency with
    | Residency.Lru | Residency.Direct_mapped ->
      let residency = Residency.create config.residency alloc in
      Iterspace.iter nest (fun point ->
          Residency.step residency point;
          for gid = 0 to ngroups - 1 do
            charged_bits.(gid) <- not (Residency.resident residency gid)
          done;
          count_charged sc ~use_mask ~ngroups);
      1
    | Residency.Pinned ->
      for gid = 0 to ngroups - 1 do
        let e = Allocation.entry alloc gid in
        sc.s_limit.(gid) <- (if e.Allocation.pinned then e.Allocation.beta else 0)
      done;
      count_suffix sc ~use_mask ~ngroups;
      sc.s_outer
  in
  let charged (g : Group.t) = charged_bits.(g.Group.id) in
  iter_sets sc ~use_mask ~ngroups (fun points ->
      let cost =
        match config.execution with
        | Serial -> Cycle_model.makespan model ~charged
        | Pipelined -> Cycle_model.initiation_interval model ~charged
      in
      on_iteration cost sc.s_resident (points * weight));
  match config.execution with
  | Serial -> Cycle_model.compute_makespan model
  | Pipelined ->
    Cycle_model.initiation_interval model ~charged:(fun _ -> false)

let run ?trace ?(config = default_config) ?scratch alloc =
  let analysis = alloc.Allocation.analysis in
  let ngroups = Analysis.num_groups analysis in
  let total = ref 0 in
  let ram_accesses = ref 0 in
  let register_hits = ref 0 in
  let group_ram = Array.make ngroups 0 in
  let on_iteration cost resident_bits weight =
    total := !total + (cost * weight);
    for gid = 0 to ngroups - 1 do
      if resident_bits.(gid) then register_hits := !register_hits + weight
      else begin
        ram_accesses := !ram_accesses + weight;
        group_ram.(gid) <- group_ram.(gid) + weight
      end
    done
  in
  let model_baseline = walk ?trace ?scratch config alloc ~on_iteration in
  let iterations = Nest.iterations analysis.Analysis.nest in
  (* Serial: the baseline per-iteration cost is the pure-compute makespan.
     Pipelined: it is the recurrence-limited II, plus a one-time pipeline
     fill of one body depth. *)
  let compute_cycles, fill =
    match config.execution with
    | Serial -> (model_baseline * iterations, 0)
    | Pipelined -> (model_baseline * iterations, model_baseline)
  in
  let control_cycles = config.control_overhead * iterations in
  {
    iterations;
    total_cycles = !total + control_cycles + fill;
    memory_cycles = !total - compute_cycles;
    compute_cycles;
    control_cycles;
    ram_accesses = !ram_accesses;
    register_hits = !register_hits;
    group_ram_accesses = group_ram;
  }

let profile ?trace ?(config = default_config) ?scratch:sc alloc =
  let hist =
    match sc with
    | Some s -> s.s_hist
    | None -> Arena.Table.create ~capacity:64 ()
  in
  Arena.Table.reset hist;
  let on_iteration cost _ weight =
    let cost = cost + config.control_overhead in
    Arena.Table.set hist cost (weight + Arena.Table.find hist cost ~default:0)
  in
  let _ = walk ?trace ?scratch:sc config alloc ~on_iteration in
  let acc = ref [] in
  Arena.Table.iter hist (fun cost count -> acc := (cost, count) :: !acc);
  List.sort (fun (a, _) (b, _) -> Int.compare a b) !acc

let cycles_floor ?(config = default_config) sc ~beta_max =
  let sc =
    if sc.s_latency == config.latency then sc
    else scratch ~config sc.s_analysis
  in
  let ngroups = Analysis.num_groups sc.s_analysis in
  (* Dynamic policies can serve any access of a group with reuse; only
     the groups without reuse (rank max_int) are charged whatever
     happens. *)
  let beta_max =
    if config.residency = Residency.Pinned then beta_max else max_int
  in
  let use_mask = ngroups <= mask_cap in
  Array.fill sc.s_limit 0 ngroups beta_max;
  count_reset sc;
  count_suffix sc ~use_mask ~ngroups;
  let charged (g : Group.t) = sc.s_charged.(g.Group.id) in
  let total = ref 0 in
  iter_sets sc ~use_mask ~ngroups (fun points ->
      total :=
        !total
        + Cycle_model.charged_path_bound sc.s_prepared ~charged
          * points * sc.s_outer);
  !total

let pp_result ppf r =
  Format.fprintf ppf
    "@[<v>iterations      %d@,total cycles    %d@,memory cycles   %d@,\
     compute cycles  %d@,control cycles  %d@,ram accesses    %d@,\
     register hits   %d@]"
    r.iterations r.total_cycles r.memory_cycles r.compute_cycles
    r.control_cycles r.ram_accesses r.register_hits
