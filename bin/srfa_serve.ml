(* srfa-serve — the allocation daemon. Binds a Unix-domain socket and
   answers JSONL requests from the content-addressed cache until a
   shutdown request or SIGTERM/SIGINT. Exits 2 on a bad --faults plan.
   The scripted request mix and the chaos campaign that drive it live in
   test/test_serve.ml and test/test_chaos.ml (@serve-smoke,
   @chaos-smoke). *)

open Cmdliner

let socket_arg =
  let doc = "Unix-domain socket path to bind." in
  Arg.(
    value
    & opt string "/tmp/srfa-serve.sock"
    & info [ "s"; "socket" ] ~docv:"PATH" ~doc)

let jobs_arg =
  let doc =
    "Worker domains for cold requests (0 = one per recommended core)."
  in
  Arg.(value & opt int 2 & info [ "j"; "jobs" ] ~docv:"N" ~doc)

let mb_arg names default doc =
  Arg.(value & opt int default & info names ~docv:"MB" ~doc)

let tier1_mb_arg =
  mb_arg [ "tier1-mb" ] 48 "Tier-1 (analysis) cache budget in megabytes."

let tier2_mb_arg =
  mb_arg [ "tier2-mb" ] 16 "Tier-2 (report) cache budget in megabytes."

let trace_arg =
  let doc = "Write cache trace events (JSON lines) to $(docv)." in
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)

let seed_arg =
  let doc = "Seed for the fault plan." in
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"N" ~doc)

let faults_arg =
  let doc =
    "Fault-injection plan: comma-separated site:action[:param]@rate \
     clauses over io.read, io.write, pool.job, cache.insert (actions: \
     error, delay:MS, short-read, raise). Also read from $(b,SRFA_FAULTS) \
     / $(b,SRFA_FAULT_SEED) when the flag is absent."
  in
  Arg.(value & opt (some string) None & info [ "faults" ] ~docv:"PLAN" ~doc)

let deadline_arg =
  let doc =
    "Default per-request deadline in milliseconds (requests may override \
     with their own deadline_ms field); tripping it answers E-DEADLINE."
  in
  Arg.(value & opt (some int) None & info [ "deadline-ms" ] ~docv:"MS" ~doc)

let max_inflight_arg =
  let doc =
    "Cold-compute bound per batch; requests beyond it are shed with \
     E-OVERLOAD."
  in
  Arg.(value & opt int 256 & info [ "max-inflight" ] ~docv:"N" ~doc)

let max_buffer_arg =
  let doc =
    "Per-connection cap in bytes on an unterminated request line \
     (E-PROTO-003 and a drop beyond it)."
  in
  Arg.(value & opt int (1 lsl 20) & info [ "max-buffer" ] ~docv:"BYTES" ~doc)

let read_timeout_arg =
  let doc =
    "How long a partial request line may sit before the connection is \
     dropped with E-PROTO-003, in milliseconds."
  in
  Arg.(
    value & opt int 10_000 & info [ "read-timeout-ms" ] ~docv:"MS" ~doc)

let main socket jobs tier1_mb tier2_mb trace seed faults_plan deadline_ms
    max_inflight max_buffer read_timeout_ms =
  let module Trace = Srfa_util.Trace in
  let module Fault = Srfa_util.Fault in
  let jobs = if jobs <= 0 then Srfa_util.Pool.recommended () else jobs in
  let faults =
    match
      match faults_plan with
      | Some plan -> Fault.parse ~seed plan
      | None -> Fault.from_env ()
    with
    | Ok f -> f
    | Error msg ->
      prerr_endline ("srfa-serve: " ^ msg);
      exit 2
  in
  let with_trace k =
    match trace with
    | None -> k Trace.null
    | Some path ->
      let oc = open_out path in
      Fun.protect
        ~finally:(fun () -> close_out oc)
        (fun () -> k (Trace.channel oc))
  in
  with_trace (fun sink ->
      Printf.printf "srfa-serve: listening on %s (jobs=%d%s)\n%!" socket jobs
        (if Fault.enabled faults then "; faults: " ^ Fault.to_string faults
         else "");
      Srfa_server.Server.run ~jobs
        ~tier1_bytes:(tier1_mb * 1024 * 1024)
        ~tier2_bytes:(tier2_mb * 1024 * 1024)
        ~trace:sink ~faults ?deadline_ms ~max_inflight ~max_buffer
        ~read_timeout_ms ~signals:true ~log:print_endline ~socket ();
      0)

let cmd =
  let doc = "Serve register-allocation reports over a Unix-domain socket." in
  Cmd.v
    (Cmd.info "srfa-serve" ~doc)
    Term.(
      const main $ socket_arg $ jobs_arg $ tier1_mb_arg $ tier2_mb_arg
      $ trace_arg $ seed_arg $ faults_arg $ deadline_arg $ max_inflight_arg
      $ max_buffer_arg $ read_timeout_arg)

let () = exit (Cmd.eval' cmd)
