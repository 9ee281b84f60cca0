open Srfa_reuse

type t = {
  kernel : string;
  version : string;
  algorithm : string;
  required : (string * int) list;
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
}

let of_result ?clock_params ?trace_summary ~sim_config ~version alloc
    (sim : Srfa_sched.Simulator.result) =
  let analysis = alloc.Allocation.analysis in
  let device = sim_config.Srfa_sched.Simulator.device in
  let ram_map = Srfa_sched.Simulator.ram_map_for sim_config alloc in
  let per_group f =
    List.map
      (fun gid ->
        let i = Analysis.info analysis gid in
        (Group.name i.Analysis.group, f i gid))
      (List.init (Analysis.num_groups analysis) Fun.id)
  in
  let required = per_group (fun i _ -> i.Analysis.nu) in
  let allocated = per_group (fun _ gid -> Allocation.beta alloc gid) in
  let ram_arrays =
    List.length
      (List.filter
         (fun (d : Srfa_ir.Decl.t) ->
           Srfa_hw.Ram_map.is_mapped ram_map d.Srfa_ir.Decl.name)
         analysis.Analysis.nest.Srfa_ir.Nest.arrays)
  in
  let area = Area.estimate ~device ~ram_arrays alloc in
  let clock_ns = Clock.period_ns ?params:clock_params alloc in
  {
    kernel = analysis.Analysis.nest.Srfa_ir.Nest.name;
    version;
    algorithm = alloc.Allocation.algorithm;
    required;
    allocated;
    total_registers = Allocation.total_registers alloc;
    cycles = sim.Srfa_sched.Simulator.total_cycles;
    memory_cycles = sim.Srfa_sched.Simulator.memory_cycles;
    ram_accesses = sim.Srfa_sched.Simulator.ram_accesses;
    clock_ns;
    exec_time_us =
      float_of_int sim.Srfa_sched.Simulator.total_cycles *. clock_ns /. 1000.0;
    slices = area.Area.total;
    slice_utilization = Area.utilization ~device area;
    rams = Srfa_hw.Ram_map.blocks_used ram_map;
    trace_summary;
  }

let speedup ~base t = base.exec_time_us /. t.exec_time_us

let cycle_reduction_pct ~base t =
  100.0 *. (1.0 -. (float_of_int t.cycles /. float_of_int base.cycles))

let clock_degradation_pct ~base t =
  100.0 *. ((t.clock_ns /. base.clock_ns) -. 1.0)

let pp ppf t =
  Format.fprintf ppf
    "@[<v>%s %s (%s):@,  registers %d  cycles %d (mem %d)  clock %.1f ns  \
     time %.1f us  slices %d (%.1f%%)  rams %d@]"
    t.kernel t.version t.algorithm t.total_registers t.cycles t.memory_cycles
    t.clock_ns t.exec_time_us t.slices
    (100.0 *. t.slice_utilization)
    t.rams;
  match t.trace_summary with
  | Some s -> Format.fprintf ppf "@,  trace: %s" s
  | None -> ()
