(* The load generator and its persisted artifact (DESIGN.md §4j):

   - a real open-loop run against an in-process server completes, its
     counters add up (sent = completed + dropped) and percentiles are
     ordered;
   - the emitted BENCH_serve.json round-trips through the JSON
     emitter/parser and passes the schema gate [bench check] enforces;
   - the gate actually rejects: a missing percentile key, an empty
     scales array, malformed JSON, a missing or unknown bench tag, and
     each ablation artifact that breaks its claim fail with a pointed
     error;
   - every checked-in BENCH_*.json passes the gate;
   - the JSON module itself round-trips escapes and numbers. *)

module Loadgen = Flexpath_loadgen.Loadgen
module Json = Flexpath_loadgen.Json
module Server = Flexpath_server.Server
module Env = Flexpath.Env
module Error = Flexpath.Error

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let ok_exn what = function
  | Ok v -> v
  | Error e -> Alcotest.failf "%s failed: %s" what (Error.to_string e)

let with_server cfg f =
  let env = Env.make (Xmark.Articles.doc ~seed:7 ~count:20 ()) in
  let srv = ok_exn "create" (Server.create cfg ~env) in
  let d = Domain.spawn (fun () -> Server.serve srv) in
  Fun.protect
    ~finally:(fun () ->
      Server.stop srv;
      Domain.join d)
    (fun () -> f srv)

(* ------------------------------------------------------------------ *)

let tiny_workload =
  {
    Loadgen.default_workload with
    rate = 80.0;
    duration_s = 1.0;
    warmup_s = 0.3;
    ping_fraction = 0.3;
  }

let test_run_and_artifact () =
  with_server { Server.default_config with port = 0; workers = 2 } (fun srv ->
      let port = Server.port srv in
      let results =
        List.map
          (fun connections ->
            match Loadgen.run ~host:"127.0.0.1" ~port ~connections tiny_workload with
            | Ok r -> r
            | Error msg -> Alcotest.failf "loadgen run (%d conns): %s" connections msg)
          [ 2; 8 ]
      in
      List.iter
        (fun (r : Loadgen.result) ->
          check_bool "some requests measured" true (r.sent > 0);
          check_int "conservation: sent = completed + dropped" r.sent (r.completed + r.dropped);
          check_int "samples = ok + partial" r.samples (r.ok + r.partial);
          check_bool "mostly served" true (r.ok > 0);
          check_bool "percentiles ordered" true
            (r.p50_ms <= r.p90_ms && r.p90_ms <= r.p99_ms && r.p99_ms <= r.p999_ms
           && r.p999_ms <= r.max_ms))
        results;
      (* The artifact round-trips and passes the gate. *)
      let report =
        Loadgen.report
          ~config:[ ("mode", Json.Str "test"); ("rate_rps", Json.Num tiny_workload.Loadgen.rate) ]
          ~results
      in
      let text = Json.to_string report in
      let parsed =
        match Json.parse text with
        | Ok v -> v
        | Error msg -> Alcotest.failf "emitted artifact does not parse: %s" msg
      in
      (match Loadgen.check_report parsed with
      | Ok _ -> ()
      | Error msg -> Alcotest.failf "emitted artifact fails its own gate: %s" msg);
      (* Required keys, spelled out. *)
      let scales = Json.to_list (Option.get (Json.member "scales" parsed)) in
      check_int "one scale entry per run" 2 (List.length scales);
      List.iter
        (fun entry ->
          let lat = Option.get (Json.member "latency_ms" entry) in
          List.iter
            (fun key ->
              check_bool (key ^ " present and numeric") true
                (Option.bind (Json.member key lat) Json.to_float <> None))
            [ "p50"; "p90"; "p99"; "p999" ];
          check_bool "goodput numeric" true
            (Option.bind (Json.member "goodput_rps" entry) Json.to_float <> None))
        scales;
      check_bool "summary has baseline ratio" true
        (Option.bind (Json.member "summary" parsed) (Json.member "top_p99_over_baseline") <> None))

(* ------------------------------------------------------------------ *)

let minimal_valid =
  Json.Obj
    [
      ("schema_version", Json.Num 1.0);
      ("bench", Json.Str "serve");
      ( "scales",
        Json.List
          [
            Json.Obj
              [
                ("connections", Json.Num 8.0);
                ("goodput_rps", Json.Num 100.0);
                ( "latency_ms",
                  Json.Obj
                    [ ("p50", Json.Num 1.0); ("p99", Json.Num 2.0); ("p999", Json.Num 3.0) ] );
              ];
          ] );
    ]

let expect_reject what json affix =
  match Loadgen.check_report json with
  | Ok _ -> Alcotest.failf "%s was accepted" what
  | Error msg ->
    check_bool
      (Printf.sprintf "%s error mentions %s (got %S)" what affix msg)
      true
      (let n = String.length affix and m = String.length msg in
       let rec go i = i + n <= m && (String.sub msg i n = affix || go (i + 1)) in
       n = 0 || go 0)

let test_schema_gate () =
  (match Loadgen.check_report minimal_valid with
  | Ok _ -> ()
  | Error msg -> Alcotest.failf "minimal valid artifact rejected: %s" msg);
  expect_reject "empty scales"
    (Json.Obj
       [ ("schema_version", Json.Num 1.0); ("bench", Json.Str "serve"); ("scales", Json.List []) ])
    "non-empty";
  expect_reject "missing schema_version" (Json.Obj [ ("scales", Json.List [ Json.Obj [] ]) ])
    "schema_version";
  (let dropped_p999 =
     Json.Obj
       [
         ("schema_version", Json.Num 1.0);
         ("bench", Json.Str "serve");
         ( "scales",
           Json.List
             [
               Json.Obj
                 [
                   ("connections", Json.Num 8.0);
                   ("goodput_rps", Json.Num 100.0);
                   ("latency_ms", Json.Obj [ ("p50", Json.Num 1.0); ("p99", Json.Num 2.0) ]);
                 ];
             ] );
       ]
   in
   expect_reject "missing p999" dropped_p999 "p999");
  match Json.parse "{\"scales\": [" with
  | Ok _ -> Alcotest.fail "malformed JSON parsed"
  | Error msg -> check_bool "parse error carries offset" true (msg <> "")

(* The gate dispatches on the "bench" tag: twig artifacts carry a
   series of per-query binary/holistic timings instead of scales. *)
let twig_entry ?(drop = "") name =
  Json.Obj
    (List.filter
       (fun (k, _) -> k <> drop)
       [
         ("query", Json.Str name);
         ("binary_ms", Json.Num 10.0);
         ("holistic_ms", Json.Num 4.0);
         ("speedup", Json.Num 2.5);
       ])

let twig_artifact entries =
  Json.Obj
    [ ("schema_version", Json.Num 1.0); ("bench", Json.Str "twig"); ("series", Json.List entries) ]

let test_schema_gate_twig () =
  (match Loadgen.check_report (twig_artifact [ twig_entry "Q1"; twig_entry "Q2" ]) with
  | Ok _ -> ()
  | Error msg -> Alcotest.failf "valid twig artifact rejected: %s" msg);
  expect_reject "empty series" (twig_artifact []) "non-empty";
  expect_reject "missing speedup" (twig_artifact [ twig_entry ~drop:"speedup" "Q1" ]) "speedup";
  expect_reject "missing query label" (twig_artifact [ twig_entry ~drop:"query" "Q1" ]) "query";
  (* a twig tag does not exempt an artifact from the serve rules *)
  expect_reject "twig artifact without series"
    (Json.Obj [ ("schema_version", Json.Num 1.0); ("bench", Json.Str "twig") ])
    "series"

(* Replica artifacts encode the §4l failover guarantee in the schema:
   the replica-lost pass must report exactly zero PARTIAL answers. *)
let replica_artifact ?(drop = "") ?(lost_partials = 0.0) () =
  let pass partials =
    Json.Obj
      [
        ("p50_ms", Json.Num 0.3);
        ("p99_ms", Json.Num 4.0);
        ("partials", Json.Num partials);
        ("failovers", Json.Num 60.0);
      ]
  in
  Json.Obj
    (List.filter
       (fun (k, _) -> k <> drop)
       [
         ("schema_version", Json.Num 1.0);
         ("bench", Json.Str "replica");
         ("query", Json.Obj [ ("healthy", pass 0.0); ("replica_lost", pass lost_partials) ]);
         ( "ingest",
           Json.Obj
             [ ("sync_docs_per_s", Json.Num 1300.0); ("async_docs_per_s", Json.Num 1400.0) ] );
         ("catchup", Json.Obj [ ("records_behind", Json.Num 20.0); ("ms", Json.Num 11.0) ]);
       ])

let test_schema_gate_replica () =
  (match Loadgen.check_report (replica_artifact ()) with
  | Ok _ -> ()
  | Error msg -> Alcotest.failf "valid replica artifact rejected: %s" msg);
  (* one lost replica leaking a PARTIAL is a broken failover, not a datapoint *)
  expect_reject "nonzero lost partials" (replica_artifact ~lost_partials:3.0 ()) "partials";
  expect_reject "missing query passes" (replica_artifact ~drop:"query" ()) "query";
  expect_reject "missing ingest rates" (replica_artifact ~drop:"ingest" ()) "ingest";
  expect_reject "missing catchup" (replica_artifact ~drop:"catchup" ()) "catchup"

(* Shard artifacts pin the degraded-service claim: a healthy pass has
   no PARTIAL, and losing one shard per query makes every query
   PARTIAL. *)
let shard_artifact ?(healthy = 0.0) ?(degraded = 80.0) () =
  let pass partials =
    Json.Obj [ ("p50_ms", Json.Num 1.5); ("p99_ms", Json.Num 7.0); ("partials", Json.Num partials) ]
  in
  Json.Obj
    [
      ("schema_version", Json.Num 1.0);
      ("bench", Json.Str "shard");
      ("queries_per_pass", Json.Num 80.0);
      ( "series",
        Json.List
          (List.map
             (fun shards ->
               Json.Obj
                 [ ("shards", Json.Num shards); ("healthy", pass healthy); ("degraded", pass degraded) ])
             [ 1.0; 4.0; 16.0 ]) );
    ]

let test_schema_gate_shard () =
  (match Loadgen.check_report (shard_artifact ()) with
  | Ok _ -> ()
  | Error msg -> Alcotest.failf "valid shard artifact rejected: %s" msg);
  expect_reject "healthy partials" (shard_artifact ~healthy:1.0 ()) "healthy.partials";
  expect_reject "degraded pass missing a PARTIAL" (shard_artifact ~degraded:79.0 ())
    "degraded.partials";
  expect_reject "more degraded partials than queries" (shard_artifact ~degraded:81.0 ())
    "queries_per_pass"

(* Ingest artifacts: a run that never merged measured no merge cadence. *)
let ingest_artifact ?(drop = "") ?(merges = 50.0) () =
  Json.Obj
    [
      ("schema_version", Json.Num 1.0);
      ("bench", Json.Str "ingest");
      ("merge_interval_ms", Json.Num 200.0);
      ( "ingest",
        Json.Obj
          (List.filter
             (fun (k, _) -> k <> drop)
             [
               ("docs", Json.Num 600.0);
               ("bytes", Json.Num 121580.0);
               ("wall_ms", Json.Num 4282.7);
               ("docs_per_s", Json.Num 140.1);
             ]) );
      ( "mixed",
        Json.Obj
          [
            ("queries", Json.Num 810.0);
            ("query_p50_ms", Json.Num 4.5);
            ("query_p99_ms", Json.Num 147.8);
            ("staleness_p50_ms", Json.Num 88.6);
            ("staleness_p95_ms", Json.Num 228.2);
            ("staleness_max_ms", Json.Num 343.5);
            ("ingests", Json.Num 790.0);
            ("merges", Json.Num merges);
          ] );
    ]

let test_schema_gate_ingest () =
  (match Loadgen.check_report (ingest_artifact ()) with
  | Ok _ -> ()
  | Error msg -> Alcotest.failf "valid ingest artifact rejected: %s" msg);
  expect_reject "missing ingest rate" (ingest_artifact ~drop:"docs_per_s" ()) "ingest.docs_per_s";
  expect_reject "no merge" (ingest_artifact ~merges:0.0 ()) "mixed.merges"

(* Every artifact names its schema: no tag and an unknown tag are both
   errors that list the known tags, never a silent fall-back to serve. *)
let test_schema_gate_tags () =
  let retag tag =
    match minimal_valid with
    | Json.Obj fields ->
      Json.Obj
        (List.filter_map
           (fun (k, v) -> if k = "bench" then Option.map (fun t -> (k, Json.Str t)) tag else Some (k, v))
           fields)
    | other -> other
  in
  let known = "serve, twig, replica, shard, ingest" in
  expect_reject "missing bench tag" (retag None) known;
  expect_reject "unknown bench tag" (retag (Some "twgi")) known;
  expect_reject "mistyped bench tag"
    (Json.Obj [ ("schema_version", Json.Num 1.0); ("bench", Json.Num 1.0) ])
    known

(* The checked-in artifacts back README and DESIGN.md claims; each must
   pass the gate, with the summary its kind prints. *)
let test_checked_in_artifacts () =
  List.iter
    (fun (file, summary_suffix) ->
      let text = In_channel.with_open_bin (Filename.concat ".." file) In_channel.input_all in
      match Result.bind (Json.parse text) Loadgen.check_report with
      | Ok summary ->
        check_bool
          (Printf.sprintf "%s summary %S ends with %S" file summary summary_suffix)
          true
          (String.ends_with ~suffix:summary_suffix summary)
      | Error msg -> Alcotest.failf "%s rejected: %s" file msg)
    [
      ("BENCH_serve.json", " scales");
      ("BENCH_twig.json", " series entries");
      ("BENCH_replica.json", "replica: healthy and replica-lost passes, 0 lost-pass partials");
      ("BENCH_shard.json", " queries");
      ("BENCH_ingest.json", " merges");
    ]

let test_json_roundtrip () =
  let v =
    Json.Obj
      [
        ("s", Json.Str "a\"b\\c\nd\te\r<>&");
        ("n", Json.Num 1234.5678);
        ("i", Json.Num 42.0);
        ("neg", Json.Num (-0.25));
        ("b", Json.Bool true);
        ("nil", Json.Null);
        ("l", Json.List [ Json.Num 1.0; Json.Str ""; Json.Obj [] ]);
      ]
  in
  (* Pretty and compact renderings both round-trip structurally. *)
  List.iter
    (fun indent ->
      match Json.parse (Json.to_string ~indent v) with
      | Ok v' -> check_bool (Printf.sprintf "round-trip indent=%d" indent) true (v = v')
      | Error msg -> Alcotest.failf "round-trip indent=%d: %s" indent msg)
    [ 0; 2 ];
  (* Escapes parse back to the bytes they encode. *)
  (match Json.parse "\"a\\u0041\\n\\\"\"" with
  | Ok (Json.Str s) -> check_string "escape decoding" "aA\n\"" s
  | Ok _ | Error _ -> Alcotest.fail "escape string did not parse");
  match Json.parse "[1, 2.5, -3e2, true, false, null]" with
  | Ok (Json.List [ Json.Num 1.0; Json.Num 2.5; Json.Num -300.0; Json.Bool true; Json.Bool false; Json.Null ])
    -> ()
  | Ok other -> Alcotest.failf "number array mis-parsed: %s" (Json.to_string ~indent:0 other)
  | Error msg -> Alcotest.failf "number array: %s" msg

let () =
  Alcotest.run "loadgen"
    [
      ( "artifact",
        [
          Alcotest.test_case "open-loop run emits a valid artifact" `Quick test_run_and_artifact;
          Alcotest.test_case "schema gate accepts and rejects" `Quick test_schema_gate;
          Alcotest.test_case "schema gate: twig artifacts" `Quick test_schema_gate_twig;
          Alcotest.test_case "schema gate: replica artifacts" `Quick test_schema_gate_replica;
          Alcotest.test_case "schema gate: shard artifacts" `Quick test_schema_gate_shard;
          Alcotest.test_case "schema gate: ingest artifacts" `Quick test_schema_gate_ingest;
          Alcotest.test_case "schema gate: bench tags" `Quick test_schema_gate_tags;
          Alcotest.test_case "checked-in artifacts pass the gate" `Quick test_checked_in_artifacts;
        ] );
      ("json", [ Alcotest.test_case "emit/parse round-trip" `Quick test_json_roundtrip ]);
    ]
