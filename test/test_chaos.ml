(* The seeded chaos campaign against the daemon (DESIGN.md §15).

   Two-phase, fully seeded. Phase one runs a deterministic request mix
   against a clean daemon and records every distinct request's exact
   outcome (report for successes, diagnostics for deterministic
   errors). Phase two replays the mix against a daemon under an
   injected fault plan through hostile clients, and phase three
   re-verifies every distinct request against the baseline while the
   faults stay armed — so a fault that poisoned the cache cannot hide.

   The campaign's own client is deliberately paranoid: raw fds, its own
   line reassembly, and a select-based receive timeout, because the
   daemon under test is being encouraged to cut connections mid-line.
   `test_chaos.exe --verbose` shows the summary line. *)

module Server = Srfa_server.Server
module Protocol = Srfa_server.Protocol
module Fault = Srfa_util.Fault
module Prng = Srfa_util.Prng

let seed = 42
let requests = 600
let jobs = 2

type conn = {
  fd : Unix.file_descr;
  buf : Buffer.t;
  mutable pending : string list;
}

(* Client.connect's retries (200, 10 ms apart); only its fd is used. *)
let connect path =
  match Server.Client.connect path with
  | c -> Some { fd = c.Server.Client.fd; buf = Buffer.create 256; pending = [] }
  | exception Unix.Unix_error _ -> None

let close conn = try Unix.close conn.fd with Unix.Unix_error _ -> ()

(* Unix.write loops until everything is written or a write fails; a
   failed write (the daemon dropped us) is the receive side's to notice. *)
let send conn s =
  try ignore (Unix.write_substring conn.fd s 0 (String.length s))
  with Unix.Unix_error _ -> ()

(* [`Line l] next complete response; [`Eof] the daemon dropped us (a
   half-received line is discarded — disconnect mid-response);
   [`Timeout] nothing arrived in [timeout] seconds (a swallowed request:
   always a violation). *)
let recv conn ~timeout =
  let deadline = Unix.gettimeofday () +. timeout in
  let b = Bytes.create 4096 in
  let rec go () =
    match conn.pending with
    | line :: rest ->
      conn.pending <- rest;
      `Line line
    | [] -> (
      let remain = deadline -. Unix.gettimeofday () in
      if remain <= 0.0 then `Timeout
      else
        match Unix.select [ conn.fd ] [] [] remain with
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
        | [], _, _ -> `Timeout
        | _ -> (
          match Unix.read conn.fd b 0 (Bytes.length b) with
          | exception Unix.Unix_error _ -> `Eof
          | 0 -> `Eof
          | n -> (
            Buffer.add_subbytes conn.buf b 0 n;
            let data = Buffer.contents conn.buf in
            match String.rindex_opt data '\n' with
            | None -> go ()
            | Some last ->
              Buffer.clear conn.buf;
              Buffer.add_string conn.buf
                (String.sub data (last + 1) (String.length data - last - 1));
              conn.pending <-
                conn.pending
                @ List.filter
                    (fun l -> String.trim l <> "")
                    (String.split_on_char '\n' (String.sub data 0 last));
              go ())))
  in
  go ()

let socket_path tag =
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "srfa-%s-%d.sock" tag (Unix.getpid ()))

let test_campaign () =
  let kernels = [ "example"; "fir"; "dec-fir"; "imi"; "mat"; "pat"; "bic" ] in
  let algorithms = [ "cpa-ra"; "fr-ra"; "pr-ra"; "cpa-ra+" ] in
  let budgets = [ 8; 16; 32; 64; 128 ] in
  let root = Prng.create ~seed in
  let combos =
    Array.init requests (fun i ->
        let g = Prng.split root i in
        (Prng.pick g kernels, Prng.pick g algorithms, Prng.pick g budgets))
  in
  let request_line ?deadline_ms ~id (k, a, b) =
    Printf.sprintf {|{"id": "%s", "kernel": "%s", "algorithm": "%s", "budget": %d%s}|}
      id k a b
      (match deadline_ms with
      | None -> ""
      | Some d -> Printf.sprintf {|, "deadline_ms": %d|} d)
  in
  let violations = ref [] in
  let violate fmt =
    Printf.ksprintf
      (fun msg ->
        if List.length !violations < 20 then violations := msg :: !violations)
      fmt
  in
  let str_member key json =
    match Protocol.member key json with
    | Some (Protocol.Str s) -> Some s
    | _ -> None
  in
  let diag_codes json =
    match Protocol.member "diagnostics" json with
    | Some (Protocol.Arr ds) ->
      List.filter_map (fun d -> str_member "code" d) ds
    | _ -> []
  in
  (* ---- phase one: fault-free baseline --------------------------------- *)
  let socket_a = socket_path "chaos-base" in
  let daemon_a = Domain.spawn (fun () -> Server.run ~jobs ~socket:socket_a ()) in
  let baseline = Hashtbl.create 64 in
  (match connect socket_a with
  | None -> violate "baseline daemon unreachable"
  | Some ca ->
    Array.iter
      (fun combo ->
        if not (Hashtbl.mem baseline combo) then begin
          send ca (request_line ~id:"base" combo ^ "\n");
          match recv ca ~timeout:30.0 with
          | `Line l -> (
            match Protocol.parse_json l with
            | resp ->
              (* A fault-free daemon never answers E-INTERNAL; one here is
                 a defect, not a baseline that phase two may match. *)
              if
                List.exists
                  (String.starts_with ~prefix:"E-INTERNAL")
                  (diag_codes resp)
              then violate "fault-free daemon answered: %s" l;
              Hashtbl.add baseline combo resp
            | exception _ -> violate "baseline response unparseable")
          | `Eof | `Timeout -> violate "baseline request unanswered"
        end)
      combos;
    send ca "{\"op\": \"shutdown\"}\n";
    ignore (recv ca ~timeout:10.0);
    close ca);
  (try Domain.join daemon_a
   with exn -> violate "baseline daemon died: %s" (Printexc.to_string exn));
  let baseline_report combo =
    Option.bind (Hashtbl.find_opt baseline combo) (fun resp ->
        if str_member "status" resp = Some "ok" then
          Protocol.member "report" resp
        else None)
  in
  let baseline_diags combo =
    Option.bind (Hashtbl.find_opt baseline combo) (fun resp ->
        Protocol.member "diagnostics" resp)
  in
  Printf.printf "chaos: baseline recorded (%d distinct requests)\n%!"
    (Hashtbl.length baseline);
  (* ---- phase two: the same mix under faults, via hostile clients ------ *)
  let plan =
    "io.read:short-read@0.08,io.read:delay:1@0.04,io.write:error@0.03,\
     pool.job:raise@0.05,pool.job:delay:2@0.05,cache.insert:error@0.25"
  in
  let faults =
    match Fault.parse ~seed plan with
    | Ok f -> f
    | Error msg -> Alcotest.failf "chaos: bad fault plan: %s" msg
  in
  let socket_b = socket_path "chaos" in
  let daemon_b =
    Domain.spawn (fun () ->
        Server.run ~jobs ~faults ~max_inflight:8 ~max_buffer:65536
          ~read_timeout_ms:2000 ~socket:socket_b ())
  in
  let sent = ref 0 in
  let ok_matched = ref 0 in
  let allowed_errors = ref 0 in
  let disconnects = ref 0 in
  let hostile = ref 0 in
  let injected_codes = [ "E-INTERNAL-002"; "E-INTERNAL-003"; "E-DEADLINE"; "E-OVERLOAD" ] in
  let validate combo line =
    match Protocol.parse_json line with
    | exception _ -> violate "unparseable chaos response: %s" line
    | resp -> (
      match str_member "status" resp with
      | Some "ok" -> (
        match baseline_report combo with
        | Some report when Protocol.member "report" resp = Some report ->
          incr ok_matched
        | Some _ -> violate "report mismatch vs fault-free baseline"
        | None -> violate "ok response for a combo the baseline rejected")
      | Some "error" ->
        let codes = diag_codes resp in
        if codes <> [] && List.for_all (fun c -> List.mem c injected_codes) codes
        then incr allowed_errors
        else if
          (match baseline_diags combo with
          | Some d -> Protocol.member "diagnostics" resp = Some d
          | None -> false)
        then incr allowed_errors
        else violate "unexpected error codes: %s" (String.concat "," codes)
      | _ -> violate "response without a status")
  in
  let behaviour = Prng.split root (requests + 7919) in
  let i = ref 0 in
  while !i < requests do
    let style = Prng.int behaviour 100 in
    let remaining = requests - !i in
    if style < 55 || remaining < 4 then begin
      (* well-behaved client: 1-4 sequential request/response rounds *)
      match connect socket_b with
      | None -> violate "daemon unreachable (normal client)"; i := requests
      | Some c ->
        let k = min remaining (1 + Prng.int behaviour 4) in
        let rec go j =
          if j < k then begin
            let combo = combos.(!i) in
            send c (request_line ~id:(Printf.sprintf "n%d" !i) combo ^ "\n");
            incr i;
            incr sent;
            match recv c ~timeout:15.0 with
            | `Line l ->
              validate combo l;
              go (j + 1)
            | `Eof -> incr disconnects  (* dropped mid-conversation: clean *)
            | `Timeout -> violate "request %d swallowed (timeout)" (!i - 1)
          end
        in
        go 0;
        close c
    end
    else if style < 75 then begin
      (* pipelined flood: one write, many requests; sheds expected *)
      match connect socket_b with
      | None -> violate "daemon unreachable (flood client)"; i := requests
      | Some c ->
        let k = min remaining (10 + Prng.int behaviour 21) in
        let batch = Array.init k (fun j -> combos.(!i + j)) in
        let payload =
          String.concat ""
            (Array.to_list
               (Array.mapi
                  (fun j combo ->
                    request_line ~id:(Printf.sprintf "p%d" (!i + j)) combo ^ "\n")
                  batch))
        in
        send c payload;
        sent := !sent + k;
        i := !i + k;
        let rec collect j =
          if j < k then
            match recv c ~timeout:15.0 with
            | `Line l ->
              validate batch.(j) l;
              collect (j + 1)
            | `Eof ->
              (* dropped mid-flood: the rest are clean disconnects *)
              disconnects := !disconnects + (k - j)
            | `Timeout -> violate "flood response %d swallowed" j
        in
        collect 0;
        close c
    end
    else if style < 85 then begin
      (* deaf client: sends, never reads, hangs up immediately *)
      (match connect socket_b with
      | None -> violate "daemon unreachable (deaf client)"; i := requests
      | Some c ->
        send c (request_line ~id:"deaf" combos.(!i) ^ "\n");
        incr i;
        incr sent;
        incr disconnects;
        incr hostile;
        close c)
    end
    else if style < 93 then begin
      (* truncated JSON then disconnect, plus one real request so the
         loop always consumes a combo *)
      (match connect socket_b with
      | None -> ()
      | Some c ->
        send c {|{"id": "trunc", "kernel": "fi|};
        incr hostile;
        close c);
      match connect socket_b with
      | None -> violate "daemon unreachable (after truncation)"; i := requests
      | Some c ->
        let combo = combos.(!i) in
        send c (request_line ~id:"t" combo ^ "\n");
        incr i;
        incr sent;
        (match recv c ~timeout:15.0 with
        | `Line l -> validate combo l
        | `Eof -> incr disconnects
        | `Timeout -> violate "post-truncation request swallowed");
        close c
    end
    else begin
      (* deadline race: a 1 ms deadline may trip or may be met *)
      match connect socket_b with
      | None -> violate "daemon unreachable (deadline client)"; i := requests
      | Some c ->
        let combo = combos.(!i) in
        send c
          (request_line ~deadline_ms:1 ~id:(Printf.sprintf "d%d" !i) combo ^ "\n");
        incr i;
        incr sent;
        incr hostile;
        (match recv c ~timeout:15.0 with
        | `Line l -> validate combo l
        | `Eof -> incr disconnects
        | `Timeout -> violate "deadline request swallowed");
        close c
    end
  done;
  (* ---- phase three: cache integrity re-verified under live faults ----- *)
  let reverified = ref 0 in
  let reverify combo =
    let rec attempt n =
      if n >= 10 then violate "re-verification exhausted retries"
      else
        match connect socket_b with
        | None -> violate "daemon unreachable (re-verify)"
        | Some c -> (
          send c (request_line ~id:"v" combo ^ "\n");
          let outcome = recv c ~timeout:15.0 in
          close c;
          match outcome with
          | `Eof -> attempt (n + 1)
          | `Timeout -> violate "re-verification request swallowed"
          | `Line l -> (
            match Protocol.parse_json l with
            | exception _ -> violate "unparseable re-verification response"
            | resp -> (
              match (str_member "status" resp, baseline_report combo) with
              | Some "ok", Some report
                when Protocol.member "report" resp = Some report ->
                incr reverified
              | Some "ok", Some _ ->
                violate "re-verified report differs from fault-free baseline"
              | Some "error", None
                when Protocol.member "diagnostics" resp = baseline_diags combo
                ->
                incr reverified
              | Some "error", _
                when List.for_all
                       (fun c -> List.mem c injected_codes)
                       (diag_codes resp)
                     && diag_codes resp <> [] ->
                attempt (n + 1)  (* an injected fault hit the probe; retry *)
              | _ -> violate "re-verification outcome diverged")))
    in
    attempt 0
  in
  Hashtbl.iter (fun combo _ -> reverify combo) baseline;
  (* ---- stats, injection rate, shutdown -------------------------------- *)
  let injected = Fault.injected faults in
  let stats_resp =
    let rec attempt n =
      if n >= 10 then None
      else
        match connect socket_b with
        | None -> None
        | Some c -> (
          send c "{\"op\": \"stats\"}\n";
          let outcome = recv c ~timeout:15.0 in
          close c;
          match outcome with
          | `Line l -> (
            match Protocol.parse_json l with
            | resp -> Some resp
            | exception _ -> None)
          | `Eof -> attempt (n + 1)
          | `Timeout -> None)
    in
    attempt 0
  in
  (match stats_resp with
  | None -> violate "daemon stats unreachable after campaign"
  | Some resp ->
    if str_member "status" resp <> Some "ok" then
      violate "stats rpc failed after campaign");
  let rate = float_of_int injected /. float_of_int (max 1 !sent) in
  (match connect socket_b with
  | None -> violate "daemon unreachable for shutdown"
  | Some c ->
    send c "{\"op\": \"shutdown\"}\n";
    ignore (recv c ~timeout:10.0);
    close c);
  (try Domain.join daemon_b
   with exn -> violate "chaos daemon died: %s" (Printexc.to_string exn));
  Printf.printf
    "chaos: %d requests sent (%d hostile actions): %d ok+matched, %d allowed \
     errors, %d clean disconnects; %d faults injected (%.1f%%); %d/%d \
     distinct requests re-verified byte-identical\n%!"
    !sent !hostile !ok_matched !allowed_errors !disconnects injected
    (100. *. rate) !reverified (Hashtbl.length baseline);
  Alcotest.(check (list string)) "no violations" [] (List.rev !violations);
  Alcotest.(check bool) "injected-fault rate >= 10%" true (rate >= 0.10);
  Alcotest.(check int)
    "every distinct request re-verified" (Hashtbl.length baseline) !reverified

let () =
  Alcotest.run "chaos"
    [
      ( "campaign",
        [ Alcotest.test_case "seed 42, 600 requests" `Quick test_campaign ] );
    ]
