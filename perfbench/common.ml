(* Shared pieces of the three workloads: run settings, statistics, host
   stamping, the result line, and the output checks every workload runs. *)

open Srfa_core
module Prng = Srfa_util.Prng
module Protocol = Srfa_server.Protocol
module Cache = Srfa_server.Cache

type settings = {
  seed : int;
  seconds : float;
  trace : bool;
  out_dir : string;  (** where span JSONL and the daemon socket go *)
  daemon : string;  (** path of srfa_serve.exe *)
  commit : string;
}

let now_s () = float_of_int (Span.now_ns ()) /. 1e9

(* ---- statistics ------------------------------------------------------ *)

(* Linear interpolation between closest ranks, like numpy's default. *)
let percentile p xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then nan
  else
    let r = p /. 100.0 *. float_of_int (n - 1) in
    let lo = int_of_float r in
    let hi = min (n - 1) (lo + 1) in
    a.(lo) +. ((r -. float_of_int lo) *. (a.(hi) -. a.(lo)))

let median xs = percentile 50.0 xs

(* ---- host ------------------------------------------------------------ *)

(* VmHWM of a process ("self" or a pid), in kB. *)
let peak_rss_kb pid =
  let ic = open_in (Printf.sprintf "/proc/%s/status" pid) in
  let rec scan () =
    match input_line ic with
    | exception End_of_file -> 0.0
    | line when String.starts_with ~prefix:"VmHWM:" line ->
      Scanf.sscanf line "VmHWM: %f" Fun.id
    | _ -> scan ()
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan

let nproc () =
  match Unix.open_process_in "nproc" with
  | exception Unix.Unix_error _ -> 0
  | ic ->
    let n = try int_of_string (String.trim (input_line ic)) with _ -> 0 in
    ignore (Unix.close_process_in ic);
    n

let stamp s ~workload =
  Printf.sprintf
    "{\"stamp\": {\"workload\": \"%s\", \"seed\": %d, \"seconds\": %g, \
     \"trace\": %b, \"nproc\": %d, \"recommended_domains\": %d, \
     \"ocaml\": \"%s\", \"commit\": \"%s\"}}"
    workload s.seed s.seconds s.trace (nproc ())
    (Domain.recommended_domain_count ())
    Sys.ocaml_version s.commit

(* ---- results --------------------------------------------------------- *)

type metric = { name : string; value : float; unit_ : string }

let metric name unit_ value = { name; value; unit_ }

type outcome = { attempted : int; failed : int; metrics : metric list }

(* The last stdout line: the one JSON object the benchmark contract asks
   for. Values keep every digit ("%.17g"); integral values print as
   integers. *)
let result_line o =
  let value v =
    if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
    else Printf.sprintf "%.17g" v
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    (o.failed = 0) o.attempted o.failed
    (String.concat ", "
       (List.map
          (fun m ->
            Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" m.name
              (value m.value) m.unit_)
          o.metrics))

(* Tally of operations and output checks; a check that fails, or an
   operation that errors, counts toward [failed]. *)
type tally = { mutable attempted : int; mutable failed : int }

let tally () = { attempted = 0; failed = 0 }

let check t what ok =
  t.attempted <- t.attempted + 1;
  if not ok then begin
    t.failed <- t.failed + 1;
    Printf.eprintf "perfbench: check failed: %s\n%!" what
  end

(* ---- input generation ----------------------------------------------- *)

(* Stratified draw: [n] parameter vectors over integer ranges. Each range
   is cut into [n] strata; vector [i] takes a value from the middle half of
   stratum [i] of every range, so sizes grow together and every seed gets
   nearly the same spread of kernel sizes, and so of work. *)
let stratified rng ~n ranges =
  List.init n (fun i ->
      List.map
        (fun (lo, hi) ->
          let width = float_of_int (hi - lo + 1) /. float_of_int n in
          lo
          + min (hi - lo)
              (int_of_float ((float_of_int i +. 0.25 +. Prng.float rng 0.5) *. width)))
        ranges)

let source nest = Srfa_frontend.Parser.print nest

(* ---- output checks every workload runs ------------------------------ *)

(* Fig. 2: at the paper's budget the example kernel's memory cycles are
   1800 (FR-RA), 1560 (PR-RA) and 1184 (CPA-RA), and the certified
   portfolio is never slower than FR-RA or PR-RA. Every algorithm runs
   twice — stage by stage, and through the in-process serving path
   (request decoding, resolution, the two-tier cache) — and the two
   renderings must agree byte for byte. *)
let check_fig2 t =
  let src = source (Srfa_kernels.Kernels.example ()) in
  match Stages.parse src with
  | Error _ -> check t "fig2: example parses" false
  | Ok nest ->
    ignore (Stages.canonical_digest nest);
    let config = Stages.config_at 64 in
    let p = Stages.prepare nest in
    let scratch = Stages.scratch config p in
    let cache = Cache.create () in
    let reports =
      List.map
        (fun alg ->
          let report = Stages.checked config alg p scratch in
          let line =
            Printf.sprintf
              "{\"kernel\": \"example\", \"algorithm\": \"%s\", \"budget\": 64}"
              (Allocator.name alg)
          in
          let served =
            match Stages.span "serve.parse_request" (fun () ->
                      Protocol.parse_request line)
            with
            | Error _ -> None
            | Ok req -> (
              match Stages.span "serve.resolve" (fun () -> Cache.resolve req) with
              | Error _ -> None
              | Ok r -> (
                match Stages.span "serve.respond" (fun () -> Cache.respond cache r) with
                | Ok (rep, _, _) -> Some rep
                | Error _ -> None))
          in
          check t
            ("fig2: serve path agrees for " ^ Allocator.name alg)
            (match served with
            | Some rep -> Stages.render rep = Stages.render report
            | None -> false);
          (alg, report))
        Allocator.all
    in
    let mem alg = (List.assoc alg reports).Srfa_estimate.Report.memory_cycles in
    let cycles alg = (List.assoc alg reports).Srfa_estimate.Report.cycles in
    check t "fig2: FR-RA T_mem 1800" (mem Allocator.Fr_ra = 1800);
    check t "fig2: PR-RA T_mem 1560" (mem Allocator.Pr_ra = 1560);
    check t "fig2: CPA-RA T_mem 1184" (mem Allocator.Cpa_ra = 1184);
    check t "fig2: portfolio <= min(FR-RA, PR-RA)"
      (cycles Allocator.Portfolio
      <= min (cycles Allocator.Fr_ra) (cycles Allocator.Pr_ra))

(* Pruned search equals exhaustive search on one frontier. *)
let explore_space ~prune =
  {
    Flow.Core.default_space with
    Flow.Core.tile_factors = [ 2 ];
    space_budgets = [ 8; 12; 16; 24; 32; 48; 64 ];
    space_algorithms = [ Allocator.Cpa_ra; Allocator.Portfolio ];
    prune;
  }

let check_explore t nest =
  let config = Flow.default_config in
  let on = Stages.explore ~space:(explore_space ~prune:true) config nest in
  let off = Flow.Core.explore ~space:(explore_space ~prune:false) config nest in
  check t "explore: pruned frontier equals exhaustive frontier"
    (Flow.Core.frontier_json on = Flow.Core.frontier_json off)

(* Spans on in the traced run, so the checks' layer calls are measured
   on every workload. *)
let run_common_checks (s : settings) t =
  Span.on := s.trace;
  check_fig2 t;
  check_explore t (Srfa_kernels.Kernels.example ());
  Span.on := false

(* ---- per-layer metrics ---------------------------------------------- *)

let gc_words () =
  let s = Gc.quick_stat () in
  (s.Gc.minor_words, s.Gc.major_collections)

(* What only the serve workload measures: daemon round trips split by the
   response's cache field, the socket share of a round trip, and the
   daemon's own cache counters. *)
type serve_side = {
  socket_us : float;
  hit_us : float;
  analysis_us : float;
  miss_us : float;
  tier2_hit_share : float;
  tier2_hits : int;
  tier2_misses : int;
  evictions_tier1 : int;
  evictions_tier2 : int;
}

let no_serve =
  {
    socket_us = 0.0;
    hit_us = 0.0;
    analysis_us = 0.0;
    miss_us = 0.0;
    tier2_hit_share = 0.0;
    tier2_hits = 0;
    tier2_misses = 0;
    evictions_tier1 = 0;
    evictions_tier2 = 0;
  }

(* How the traced run compares with the untraced path, per operation. *)
type overhead = {
  untraced_ms : float;  (** the one-call path, no spans *)
  staged_ms : float;  (** the stage-by-stage replay, spans on *)
  stage_sum_ms : float;  (** the spans' self times, summed *)
}

(* Every per-layer metric, for every workload: a layer the workload does
   not enter reads 0. Self times are means per call. *)
let per_layer ~(counts : Stages.counts) ~serve ~overhead ~minor_words_per_op
    ~major_collections ~slowdown =
  let ms name = Span.self_per_call name /. 1e6 in
  let us name = Span.self_per_call name /. 1e3 in
  let share a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b in
  let c = counts in
  [
    metric "frontend.parse_ms" "ms" (ms "frontend.parse");
    metric "frontend.canonical_us" "us" (us "frontend.canonical");
    metric "reuse.analyze_ms" "ms" (ms "reuse.analyze");
    metric "dfg.prepare_ms" "ms" (ms "dfg.prepare");
    metric "dfg.cut_queries" "count" (float_of_int c.cut_queries);
    metric "dfg.augmenting_paths" "count" (float_of_int c.augmenting_paths);
  ]
  @ List.map
      (fun alg ->
        let k = Stages.alg_key alg in
        metric ("core.alloc_ms." ^ k) "ms" (ms ("core.alloc." ^ k)))
      Allocator.all
  @ [
      metric "core.certify_fast_share" "share"
        (share c.certify_dominates c.certify_starts);
      metric "core.repairs" "count" (float_of_int c.repairs);
      metric "sched.scratch_ms" "ms" (ms "sched.scratch");
      metric "sched.simulate_ms" "ms" (ms "sched.simulate");
      metric "sched.simulations" "count" (float_of_int c.simulations);
      metric "sched.iterations" "count" (float_of_int c.iterations);
      metric "sched.event_model_ms" "ms" (ms "sched.event_model");
      metric "estimate.report_ms" "ms" (ms "estimate.report");
      metric "render.report_us" "us" (us "render.report");
      metric "explore.ms" "ms" (ms "explore");
      metric "explore.points_evaluated" "count"
        (float_of_int c.explore_evaluated);
      metric "explore.points_pruned" "count" (float_of_int c.explore_pruned);
      metric "explore.prune_rate" "share"
        (share c.explore_pruned (c.explore_pruned + c.explore_evaluated));
      metric "explore.memo_hit_rate" "share"
        (share c.explore_memo_hits c.explore_evaluated);
      metric "explore.variants" "count" (float_of_int c.explore_variants);
      metric "rebudget.step_us" "us" (us "rebudget.step");
      metric "rebudget.memo_hits" "count" (float_of_int c.rebudget_memo_hits);
      metric "serve.parse_request_us" "us" (us "serve.parse_request");
      metric "serve.resolve_us" "us" (us "serve.resolve");
      metric "serve.respond_us" "us" (us "serve.respond");
      metric "serve.socket_us" "us" serve.socket_us;
      metric "serve.hit_us" "us" serve.hit_us;
      metric "serve.analysis_us" "us" serve.analysis_us;
      metric "serve.miss_us" "us" serve.miss_us;
      metric "cache.tier2_hit_share" "share" serve.tier2_hit_share;
      metric "cache.tier2_hits" "count" (float_of_int serve.tier2_hits);
      metric "cache.tier2_misses" "count" (float_of_int serve.tier2_misses);
      metric "cache.evictions.tier1" "count" (float_of_int serve.evictions_tier1);
      metric "cache.evictions.tier2" "count" (float_of_int serve.evictions_tier2);
      metric "gc.minor_words_per_op" "words" minor_words_per_op;
      metric "gc.major_collections" "count" major_collections;
      metric "host.slowdown" "ratio" slowdown;
      metric "trace.untraced_op_ms" "ms" overhead.untraced_ms;
      metric "trace.staged_op_ms" "ms" overhead.staged_ms;
      metric "trace.stage_sum_ms" "ms" overhead.stage_sum_ms;
      metric "trace.overhead_share" "share"
        (if overhead.untraced_ms > 0.0 then
           (overhead.staged_ms -. overhead.untraced_ms) /. overhead.untraced_ms
         else 0.0);
    ]

(* ---- the measured loop of the in-process workloads ------------------ *)

(* How much slower than nominal the host runs now: the median of a few
   probe slices over {!Probe.nominal}. *)
let slowdown ?(samples = 5) () =
  median (List.init samples (fun _ -> Probe.sample ())) /. Probe.nominal

(* Set-up time: [n] repetitions of [f], each rescaled by a probe taken
   just before it, and their median. *)
let setup_time n f =
  median
    (List.init n (fun _ ->
         let k = slowdown () in
         let t0 = now_s () in
         f ();
         (now_s () -. t0) /. k))

type loop = {
  latencies : float list;  (** seconds at nominal host speed, one per operation *)
  round_rates : float list;  (** work units per second at nominal speed, per round *)
  slowdowns : float list;  (** one per round *)
  counts : Stages.counts;  (** work counts of the checks and round 0 *)
  overhead : overhead;
  minor_words_per_op : float;
  major_collections : int;
}

(* Rounds over [n] operations, each round in a fresh seeded order, until
   [s.seconds] have passed (at least three rounds). [run i] is operation
   [i] through the one-call path: its output ([None] on failure) and the
   work units it answered. Each operation is followed by one probe slice;
   the round's timings are divided by the median probe slowdown of the
   round (see {!Probe}). The end-to-end figures are the median of the
   round rates and percentiles over all operations, so what is left of a
   slow phase moves a few rounds rather than the whole run. In the traced
   run, [staged i] replays the operation stage by stage under spans right
   after, and the two outputs must be equal. *)
let rounds (s : settings) t ~what ~n ~run ~staged =
  let order = Array.init n Fun.id in
  let rng = Prng.create ~seed:(s.seed + 1) in
  let latencies = ref [] and round_rates = ref [] and slowdowns = ref [] in
  let untraced = ref 0.0 and traced = ref 0.0 and stage_sum = ref 0.0 in
  let ops = ref 0 and counts = ref None in
  let minor_words = ref 0.0 and majors = ref 0 in
  let deadline = now_s () +. s.seconds in
  let round = ref 0 in
  while !round < 3 || now_s () < deadline do
    Prng.shuffle rng order;
    let times = ref [] and probes = ref [] and work = ref 0 in
    Array.iter
      (fun i ->
        let minor0, major0 = gc_words () in
        let t0 = now_s () in
        let out, units = run i in
        let dt = now_s () -. t0 in
        let minor1, major1 = gc_words () in
        minor_words := !minor_words +. (minor1 -. minor0);
        majors := !majors + (major1 - major0);
        incr ops;
        times := dt :: !times;
        probes := Probe.sample () :: !probes;
        untraced := !untraced +. dt;
        work := !work + units;
        check t (what ^ ": operation succeeds") (out <> None);
        if s.trace then begin
          Span.set_op ((!round * n) + i);
          Span.on := true;
          let before = Span.total_self_ns () in
          let t1 = now_s () in
          let replay = staged i in
          traced := !traced +. (now_s () -. t1);
          Span.on := false;
          stage_sum :=
            !stage_sum +. (float_of_int (Span.total_self_ns () - before) /. 1e9);
          check t (what ^ ": staged replay is byte-identical") (replay = out)
        end)
      order;
    if !round = 0 then counts := Some (Stages.snapshot ());
    let k = median !probes /. Probe.nominal in
    let scaled = List.map (fun dt -> dt /. k) !times in
    latencies := scaled @ !latencies;
    round_rates :=
      (float_of_int !work /. List.fold_left ( +. ) 0.0 scaled) :: !round_rates;
    slowdowns := k :: !slowdowns;
    incr round
  done;
  let per_op x = x *. 1e3 /. float_of_int !ops in
  {
    latencies = !latencies;
    round_rates = !round_rates;
    slowdowns = !slowdowns;
    counts = Option.get !counts;
    overhead =
      {
        untraced_ms = per_op !untraced;
        staged_ms = (if s.trace then per_op !traced else 0.0);
        stage_sum_ms = (if s.trace then per_op !stage_sum else 0.0);
      };
    minor_words_per_op = !minor_words /. float_of_int !ops;
    major_collections = !majors;
  }

(* The end-to-end metrics (untraced run). [tail] is the highest
   percentile with at least ten samples beyond it in a normal run. *)
let end_to_end ~setup_s ~rates ~latencies ~tail ~peak =
  let us x = x *. 1e6 in
  [
    metric "setup_s" "s" setup_s;
    metric "ops_per_s" "1/s" (median rates);
    metric "op_p50_us" "us" (us (percentile 50.0 latencies));
    metric "op_tail_us" "us" (us (percentile tail latencies));
    metric "peak_rss_kb" "kB" peak;
  ]

(* The metrics line of an in-process workload: end-to-end figures from
   the untraced run, per-layer figures from the traced one. *)
let loop_metrics (s : settings) ~setup_s ~peak (l : loop) =
  if not s.trace then
    end_to_end ~setup_s ~rates:l.round_rates ~latencies:l.latencies ~tail:90.0
      ~peak
  else
    per_layer ~counts:l.counts ~serve:no_serve ~overhead:l.overhead
      ~minor_words_per_op:l.minor_words_per_op
      ~major_collections:(float_of_int l.major_collections)
      ~slowdown:(median l.slowdowns)

let write_spans (s : settings) ~workload =
  if s.trace then
    Span.write_jsonl
      (Filename.concat s.out_dir
         (Printf.sprintf "trace-%s-%d.jsonl" workload s.seed))
