(* The one JSON format: the writer and the reader agree on every value
   (a qcheck round trip over hostile strings and nested values), and
   every emitter in the tree writes JSON the reader accepts. *)

open Srfa_test_helpers
module Json = Srfa_util.Json
module Diag = Srfa_util.Diag
module Trace = Srfa_util.Trace
module Protocol = Srfa_server.Protocol
module Flow = Srfa_core.Flow
module Allocator = Srfa_core.Allocator

(* ---- round trip -------------------------------------------------------- *)

(* String pieces: every control byte, the two escaped printables, plain
   ASCII, and valid UTF-8 of every length (2-byte, 3-byte around the
   surrogate gap, 4-byte astral). *)
let gen_piece =
  let open QCheck.Gen in
  let utf8 lo hi =
    map
      (fun cp ->
        let b = Buffer.create 4 in
        Buffer.add_utf_8_uchar b (Uchar.of_int cp);
        Buffer.contents b)
      (int_range lo hi)
  in
  frequency
    [
      (3, map (fun c -> String.make 1 (Char.chr c)) (int_range 0 0x1f));
      (2, oneofl [ "\""; "\\"; "/"; "\x7f" ]);
      (4, map (String.make 1) printable);
      (1, utf8 0x80 0x7ff);
      (1, utf8 0x800 0xd7ff);
      (1, utf8 0xe000 0xffff);
      (1, utf8 0x10000 0x10ffff);
    ]

let gen_string =
  QCheck.Gen.(map (String.concat "") (list_size (int_bound 12) gen_piece))

let gen_value =
  let open QCheck.Gen in
  let leaf =
    oneof
      [
        return Json.Null;
        map (fun b -> Json.Bool b) bool;
        map (fun i -> Json.Int i) int;
        map (fun i -> Json.Int i) small_signed_int;
        map (fun f -> Json.fixed 3 f) (float_range (-1e6) 1e6);
        map (fun s -> Json.Str s) gen_string;
      ]
  in
  sized_size (int_bound 4)
  @@ fix (fun self depth ->
         if depth = 0 then leaf
         else
           frequency
             [
               (2, leaf);
               ( 1,
                 map (fun vs -> Json.Arr vs)
                   (list_size (int_bound 4) (self (depth - 1))) );
               ( 1,
                 map (fun kvs -> Json.Obj kvs)
                   (list_size (int_bound 4) (pair gen_string (self (depth - 1))))
               );
             ])

let arbitrary_value = QCheck.make ~print:Json.to_string gen_value

let prop_round_trip =
  QCheck.Test.make ~name:"parse (to_string v) = v" ~count:500 arbitrary_value
    (fun v -> Json.parse (Json.to_string v) = v)

let prop_round_trip_lines =
  QCheck.Test.make ~name:"parse (to_lines v) = v" ~count:200 arbitrary_value
    (fun v -> Json.parse (Json.to_lines v) = v)

(* ---- the writer's bytes ------------------------------------------------ *)

let test_escaping () =
  Alcotest.(check string)
    "escape rule" {|"q\"b\\n\nt\tc\u0001r\u000d\u001f é/"|}
    (Json.to_string (Json.Str "q\"b\\n\nt\tc\001r\r\031 \xc3\xa9/"));
  Alcotest.(check string)
    "compact layout" {|{"a": [1, true, null], "b": {}, "c": [], "d": 0.500}|}
    (Json.to_string
       (Json.Obj
          [
            ("a", Json.Arr [ Json.Int 1; Json.Bool true; Json.Null ]);
            ("b", Json.Obj []);
            ("c", Json.Arr []);
            ("d", Json.fixed 3 0.5);
          ]))

let test_lines_layout () =
  Alcotest.(check string)
    "object with an array member"
    {|{
  "k": "v",
  "xs": [
    {"a": 1},
    [2, 3]
  ],
  "o": {"p": []}
}|}
    (Json.to_lines
       (Json.Obj
          [
            ("k", Json.Str "v");
            ( "xs",
              Json.Arr
                [
                  Json.Obj [ ("a", Json.Int 1) ];
                  Json.Arr [ Json.Int 2; Json.Int 3 ];
                ] );
            ("o", Json.Obj [ ("p", Json.Arr []) ]);
          ]));
  Alcotest.(check string)
    "top-level array" "[\n  1,\n  2\n]"
    (Json.to_lines (Json.Arr [ Json.Int 1; Json.Int 2 ]));
  Alcotest.(check string) "empty array" "[]" (Json.to_lines (Json.Arr []))

(* ---- every emitter parses ---------------------------------------------- *)

let parses what text =
  match Json.parse text with
  | _ -> ()
  | exception Json.Malformed msg -> Alcotest.failf "%s: %s in %s" what msg text

let report =
  lazy
    (Flow.evaluate_analysis Flow.default_config Allocator.Cpa_ra
       (Flow.analyze (Helpers.small_fir ())))

let diag =
  Diag.make ~code:"E-TEST-001" ~span:{ Diag.line = 3; col = 9 }
    ~context:[ ("kernel", "fir"); ("why", "tab\there \"quoted\"") ]
    "a message\nwith a newline"

let test_protocol_responses () =
  let report = Lazy.force report in
  let warning = Diag.warning ~code:"W-GUARD-CUT" "guard tripped" in
  let rebudget =
    {
      Protocol.rb_requested = 8;
      rb_effective = 8;
      rb_clamped = false;
      rb_freed = 2;
      rb_respent = 0;
      rb_memoized = true;
    }
  in
  parses "json_of_report" (Protocol.json_of_report report);
  parses "response_ok"
    (Protocol.response_ok ~id:"r\"1" ~rebudget ~cache:`Hit
       ~warnings:[ warning ] report);
  parses "response_ok without id"
    (Protocol.response_ok ~cache:`Miss ~warnings:[] report);
  parses "response_explore"
    (Protocol.response_explore ~id:"e1" ~cache:`Analysis ~warnings:[ warning ]
       ~stats:[ ("variants", 2) ] {|{"kernel": "k", "points": []}|});
  parses "response_error" (Protocol.response_error ~id:"x" [ diag; warning ]);
  parses "response_stats" (Protocol.response_stats ~id:"s" [ ("served", 3) ]);
  parses "response_bye" (Protocol.response_bye ())

let test_diag_and_trace () =
  let d = Json.parse (Diag.to_json diag) in
  Alcotest.(check bool) "diag span" true (Json.member "line" d = Some (Json.Int 3));
  Alcotest.(check bool)
    "diag context" true
    (match Json.member "context" d with
    | Some ctx -> Json.member "why" ctx = Some (Json.Str "tab\there \"quoted\"")
    | None -> false);
  parses "trace event"
    (Trace.to_json
       (Trace.event "cut.flow"
          [
            ("ok", Trace.Bool true);
            ("share", Trace.Float 0.25);
            ("inf", Trace.Float infinity);
            ("who", Trace.String "a\r\n");
            ("cut", Trace.List [ Trace.String "a"; Trace.Int 2 ]);
          ]))

let test_frontier_and_sweep () =
  let space =
    {
      Flow.Core.default_space with
      Flow.Core.orders = Flow.Core.Identity_order;
      space_budgets = [ 8 ];
      space_algorithms = [ Allocator.Cpa_ra ];
    }
  in
  let f = Flow.Core.explore ~space Flow.default_config (Helpers.example ()) in
  let pretty = Flow.Core.frontier_json f in
  let compact = Flow.Core.frontier_json ~compact:true f in
  parses "pretty frontier" pretty;
  parses "compact frontier" compact;
  Alcotest.(check bool)
    "both frontier layouts hold one value" true
    (Json.parse pretty = Json.parse compact);
  let points =
    Flow.sweep ~algorithms:[ Allocator.Fr_ra; Allocator.Cpa_ra ] ~budgets:[ 8; 16 ]
      [ ("fir", Helpers.small_fir ()) ]
  in
  let sweep = Flow.Core.sweep_json points in
  parses "sweep --json" sweep;
  let lines = String.split_on_char '\n' sweep in
  Alcotest.(check int)
    "one line per point plus brackets"
    (List.length points + 2)
    (List.length lines);
  List.iteri
    (fun i line ->
      if i > 0 && i <= List.length points then
        let item = String.trim line in
        let item =
          if String.ends_with ~suffix:"," item then
            String.sub item 0 (String.length item - 1)
          else item
        in
        parses "sweep point line" item)
    lines

let () =
  Alcotest.run "json"
    [
      ( "round trip",
        List.map QCheck_alcotest.to_alcotest
          [ prop_round_trip; prop_round_trip_lines ] );
      ( "writer",
        [
          Alcotest.test_case "escaping" `Quick test_escaping;
          Alcotest.test_case "line-per-member layout" `Quick test_lines_layout;
        ] );
      ( "emitters parse",
        [
          Alcotest.test_case "protocol responses" `Quick test_protocol_responses;
          Alcotest.test_case "diag and trace" `Quick test_diag_and_trace;
          Alcotest.test_case "frontier and sweep" `Quick test_frontier_and_sweep;
        ] );
    ]
