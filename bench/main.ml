(* Benchmark harness reproducing the experimental evaluation of
   FleXPath (SIGMOD 2004), §6 — one table per figure, plus ablations
   and Bechamel micro-benchmarks of the substrates.

   Usage:
     dune exec bench/main.exe                # everything
     dune exec bench/main.exe -- fig9 fig13  # selected figures
     dune exec bench/main.exe -- quick       # reduced sizes (CI-speed)
     dune exec bench/main.exe -- micro       # Bechamel micro-benches only

   Size scaling: the paper runs XMark documents of 1-100 MB on a 2 GHz
   P4.  We map one "paper megabyte" to 100 XMark items (roughly a tenth
   of the byte size), which preserves the structural ratios the
   algorithms are sensitive to — number of items, relaxation
   opportunities per item, answer counts — while keeping a full run in
   minutes.  Absolute times are not comparable to the paper; the
   reported series shapes (who wins, how gaps grow with K, document
   size and number of relaxations) are. *)

module Doc = Xmldom.Doc
module Xpath = Tpq.Xpath
module Env = Flexpath.Env
module Ranking = Flexpath.Ranking
module Failpoint = Flexpath.Failpoint
module Json = Flexpath_loadgen.Json
module Loadgen = Flexpath_loadgen.Loadgen

let items_per_paper_mb = 200

(* The three queries of §6. *)
let q1_str = "//item[./description/parlist]"
let q2_str = "//item[./description/parlist and ./mailbox/mail/text]"

let q3_str =
  "//item[./description/parlist/listitem and ./mailbox/mail/text[./bold and ./keyword and \
   ./emph] and ./name and ./incategory]"

let queries = [ ("Q1", q1_str); ("Q2", q2_str); ("Q3", q3_str) ]

(* ------------------------------------------------------------------ *)
(* Environment cache: one indexed document per size. *)

let env_cache : (int, Env.t) Hashtbl.t = Hashtbl.create 8

let env_for_mb mb =
  let items = max 10 (int_of_float (mb *. float_of_int items_per_paper_mb)) in
  match Hashtbl.find_opt env_cache items with
  | Some env -> env
  | None ->
    let t0 = Unix.gettimeofday () in
    let doc = Xmark.Auction.doc ~seed:2004 ~items () in
    let env = Env.make doc in
    Printf.printf "  [setup] %gMB: %d items, %d elements, built in %.1fs\n%!" mb items
      (Doc.size doc)
      (Unix.gettimeofday () -. t0);
    Hashtbl.add env_cache items env;
    env

let time f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, (Unix.gettimeofday () -. t0) *. 1000.0)

(* Median of three timed runs (after the first, which also serves as
   warm-up) — the algorithm comparisons are sensitive to GC state. *)
let time_median f =
  let r, t1 = time f in
  let _, t2 = time f in
  let _, t3 = time f in
  let sorted = List.sort Float.compare [ t1; t2; t3 ] in
  (r, List.nth sorted 1)

let run_algo env ~algorithm ~k q =
  time_median (fun () -> Flexpath.run_exn ~algorithm ~scheme:Ranking.Structure_first env ~k q)

(* ------------------------------------------------------------------ *)
(* Table printing *)

let header title caption columns =
  Printf.printf "\n=== %s ===\n%s\n%!" title caption;
  Printf.printf "%-14s" "x";
  List.iter (fun c -> Printf.printf "%14s" c) columns;
  print_newline ()

let row label cells =
  Printf.printf "%-14s" label;
  List.iter (fun c -> Printf.printf "%14s" c) cells;
  print_newline ();
  flush stdout

let ms v = Printf.sprintf "%.1f" v

(* The ablations that back a README or DESIGN.md claim also persist
   their numbers as BENCH_<bench>.json, under the envelope
   [flexpath bench check] gates. *)
let write_artifact bench body =
  let path = Printf.sprintf "BENCH_%s.json" bench in
  Loadgen.write_artifact path (Loadgen.artifact ~bench body);
  Printf.printf "  [artifact] %s written\n%!" path

let int_num n = Json.Num (float_of_int n)

(* ------------------------------------------------------------------ *)
(* Figures *)

(* Fig. 9: execution time vs number of relaxations (queries Q1-Q3),
   1MB document, K = 50, DPO vs SSO. *)
let fig9 ~quick () =
  let env = env_for_mb (if quick then 0.5 else 1.0) in
  let k = 50 in
  header "Figure 9" "Varying number of relaxations (1MB, K=50): DPO vs SSO, time in ms"
    [ "relaxations"; "DPO"; "SSO" ];
  List.iter
    (fun (name, qs) ->
      let q = Xpath.parse_exn qs in
      let rd, td = run_algo env ~algorithm:Flexpath.DPO ~k q in
      let _, ts = run_algo env ~algorithm:Flexpath.SSO ~k q in
      row name [ string_of_int rd.Flexpath.Common.relaxations_evaluated; ms td; ms ts ])
    queries

(* Fig. 10: execution time vs K, 10MB document, query Q3, DPO vs SSO. *)
let fig10 ~quick () =
  let env = env_for_mb (if quick then 2.0 else 10.0) in
  let q = Xpath.parse_exn q3_str in
  header "Figure 10" "Varying K (10MB, Q3): DPO vs SSO, time in ms" [ "DPO"; "SSO" ];
  List.iter
    (fun k ->
      let _, td = run_algo env ~algorithm:Flexpath.DPO ~k q in
      let _, ts = run_algo env ~algorithm:Flexpath.SSO ~k q in
      row (string_of_int k) [ ms td; ms ts ])
    (if quick then [ 50; 200; 600 ] else [ 50; 100; 200; 300; 400; 500; 600 ])

(* Fig. 11 / 12: execution time vs document size, query Q2,
   K = 12 and K = 500, DPO vs SSO. *)
let fig_docsize ~quick ~k name =
  let q = Xpath.parse_exn q2_str in
  header name
    (Printf.sprintf "Varying document size (Q2, K=%d): DPO vs SSO, time in ms" k)
    [ "DPO"; "SSO" ];
  List.iter
    (fun mb ->
      let env = env_for_mb mb in
      let _, td = run_algo env ~algorithm:Flexpath.DPO ~k q in
      let _, ts = run_algo env ~algorithm:Flexpath.SSO ~k q in
      row (Printf.sprintf "%gMB" mb) [ ms td; ms ts ])
    (if quick then [ 1.0; 5.0 ] else [ 1.0; 10.0; 25.0; 50.0; 100.0 ])

let fig11 ~quick () = fig_docsize ~quick ~k:12 "Figure 11"
let fig12 ~quick () = fig_docsize ~quick ~k:500 "Figure 12"

(* Fig. 13: varying number of relaxations, 10MB, K = 500,
   SSO vs Hybrid. *)
let fig13 ~quick () =
  let env = env_for_mb (if quick then 2.0 else 10.0) in
  let k = 500 in
  header "Figure 13" "Varying number of relaxations (10MB, K=500): SSO vs Hybrid, time in ms"
    [ "relaxations"; "SSO"; "Hybrid" ];
  List.iter
    (fun (name, qs) ->
      let q = Xpath.parse_exn qs in
      let rs, ts = run_algo env ~algorithm:Flexpath.SSO ~k q in
      let _, th = run_algo env ~algorithm:Flexpath.Hybrid ~k q in
      row name [ string_of_int rs.Flexpath.Common.relaxations_evaluated; ms ts; ms th ])
    queries

(* Fig. 14: varying document size, Q3, K = 500, SSO vs Hybrid. *)
let fig14 ~quick () =
  let q = Xpath.parse_exn q3_str in
  header "Figure 14" "Varying document size (Q3, K=500): SSO vs Hybrid, time in ms"
    [ "SSO"; "Hybrid" ];
  List.iter
    (fun mb ->
      let env = env_for_mb mb in
      let _, ts = run_algo env ~algorithm:Flexpath.SSO ~k:500 q in
      let _, th = run_algo env ~algorithm:Flexpath.Hybrid ~k:500 q in
      row (Printf.sprintf "%gMB" mb) [ ms ts; ms th ])
    (if quick then [ 1.0; 5.0 ] else [ 1.0; 10.0; 25.0; 50.0; 100.0 ])

(* Fig. 15 / 16: varying K, query Q3, SSO vs Hybrid, on 10MB and 100MB. *)
let fig_k_sso_hybrid ~quick ~mb name =
  let env = env_for_mb mb in
  let q = Xpath.parse_exn q3_str in
  header name
    (Printf.sprintf "Varying K (%gMB, Q3): SSO vs Hybrid, time in ms" mb)
    [ "SSO"; "Hybrid" ];
  List.iter
    (fun k ->
      let _, ts = run_algo env ~algorithm:Flexpath.SSO ~k q in
      let _, th = run_algo env ~algorithm:Flexpath.Hybrid ~k q in
      row (string_of_int k) [ ms ts; ms th ])
    (if quick then [ 50; 600 ] else [ 50; 100; 200; 300; 400; 500; 600 ])

let fig15 ~quick () = fig_k_sso_hybrid ~quick ~mb:(if quick then 2.0 else 10.0) "Figure 15"
let fig16 ~quick () = fig_k_sso_hybrid ~quick ~mb:(if quick then 5.0 else 100.0) "Figure 16"

(* ------------------------------------------------------------------ *)
(* Ablations: the design choices DESIGN.md calls out. *)

let deep_plan env q =
  let penv = Env.penalty_env env q in
  let chain = Relax.Space.sequence ~max_steps:32 penv in
  let deep = List.nth chain (List.length chain - 1) in
  (penv, Joins.Encoded.of_ops_exn q deep.Relax.Space.ops)

(* Bucketization (Hybrid) vs score re-sorting (SSO) vs neither, at
   fixed relaxation depth: isolates the §5.2.2 "fundamental tension"
   between node-id order and score order. *)
let abl_bucketize ~quick () =
  let env = env_for_mb (if quick then 2.0 else 10.0) in
  let q = Xpath.parse_exn q3_str in
  header "Ablation: bucketization"
    "Same fully-relaxed plan, K=500: score re-sorting vs buckets vs neither; time in ms"
    [ "time"; "sorted-tuples" ];
  let run name sort_on_score bucketize prune =
    let penv, enc = deep_plan env q in
    let metrics = Joins.Exec.fresh_metrics () in
    let strategy =
      {
        Joins.Exec.sort_on_score;
        bucketize;
        prune_k = (if prune then Some 500 else None);
        prune_slack = 0.0;
      }
    in
    let _, t = time (fun () -> Joins.Exec.run ~metrics (Env.exec_env env penv) enc strategy) in
    row name [ ms t; string_of_int metrics.Joins.Exec.score_sorted_tuples ]
  in
  run "sso-style" true false true;
  run "hybrid-style" false true true;
  run "no-order" false false true;
  run "no-pruning" false false false

(* Threshold + maxScoreGrowth pruning on/off for SSO. *)
let abl_pruning ~quick () =
  let env = env_for_mb (if quick then 2.0 else 10.0) in
  let q = Xpath.parse_exn q3_str in
  header "Ablation: pruning" "SSO plan with and without threshold/maxScoreGrowth pruning (K=500)"
    [ "time"; "tuples"; "pruned" ];
  let run name prune =
    let penv, enc = deep_plan env q in
    let metrics = Joins.Exec.fresh_metrics () in
    let strategy =
      {
        Joins.Exec.sort_on_score = true;
        bucketize = false;
        prune_k = (if prune then Some 500 else None);
        prune_slack = 0.0;
      }
    in
    let _, t = time (fun () -> Joins.Exec.run ~metrics (Env.exec_env env penv) enc strategy) in
    row name
      [
        ms t;
        string_of_int metrics.Joins.Exec.tuples_produced;
        string_of_int metrics.Joins.Exec.tuples_pruned;
      ]
  in
  run "with-pruning" true;
  run "without" false

(* Selectivity estimation: SSO's static cut vs a purely restart-driven
   walk of the chain (what running without an estimator degrades to). *)
let abl_estimator ~quick () =
  let env = env_for_mb (if quick then 2.0 else 10.0) in
  let q = Xpath.parse_exn q2_str in
  header "Ablation: estimator"
    "SSO with estimator-chosen cut vs walking the chain pass by pass (K=500)"
    [ "time"; "passes"; "restarts" ];
  let r, t = run_algo env ~algorithm:Flexpath.SSO ~k:500 q in
  row "with-estimator"
    [ ms t; string_of_int r.Flexpath.Common.passes; string_of_int r.Flexpath.Common.restarts ];
  let r', t' = run_algo env ~algorithm:Flexpath.DPO ~k:500 q in
  row "pass-by-pass"
    [ ms t'; string_of_int r'.Flexpath.Common.passes; string_of_int r'.Flexpath.Common.restarts ]

(* Ranking schemes (§4.3 / §5.1): structure-first admits the strongest
   pruning and earliest cuts; Combined keeps a keyword slack; keyword-
   first must encode the whole chain and cannot prune on structure. *)
let abl_schemes ~quick () =
  let env = env_for_mb (if quick then 2.0 else 10.0) in
  let q = Xpath.parse_exn q2_str in
  header "Ablation: ranking schemes"
    "Hybrid, Q2, K=100 under the three ranking schemes; time in ms"
    [ "time"; "relaxations"; "pruned" ];
  List.iter
    (fun scheme ->
      let r, t =
        time_median (fun () -> Flexpath.run_exn ~algorithm:Flexpath.Hybrid ~scheme env ~k:100 q)
      in
      row (Ranking.to_string scheme)
        [
          ms t;
          string_of_int r.Flexpath.Common.relaxations_evaluated;
          string_of_int r.Flexpath.Common.metrics.Joins.Exec.tuples_pruned;
        ])
    Ranking.all

(* Resource governance: what a budget costs when it never trips
   (cancellation-polling overhead) and what it buys when it does
   (bounded latency against best-effort answer counts). *)
let abl_governance ~quick () =
  let env = env_for_mb (if quick then 2.0 else 10.0) in
  let q = Xpath.parse_exn q3_str in
  let k = 500 in
  header "Ablation: resource governance"
    "DPO, Q3, K=500 under shrinking budgets: latency vs answers kept; time in ms"
    [ "time"; "answers"; "passes"; "state"; "bound" ];
  let run name budget =
    let r, t =
      time_median (fun () -> Flexpath.run_exn ~algorithm:Flexpath.DPO ?budget env ~k q)
    in
    let state, bound =
      match r.Flexpath.Common.completeness with
      | Flexpath.Common.Complete -> ("complete", "-")
      | Flexpath.Common.Truncated { reason; score_bound } ->
        (Flexpath.Guard.reason_to_string reason, Printf.sprintf "%.3f" score_bound)
    in
    row name
      [
        ms t;
        string_of_int (List.length r.Flexpath.Common.answers);
        string_of_int r.Flexpath.Common.passes;
        state;
        bound;
      ]
  in
  run "unlimited" None;
  run "ungoverned-poll" (Some (Flexpath.Guard.budget ~tuple_budget:max_int ()));
  run "steps=2" (Some (Flexpath.Guard.budget ~step_budget:2 ()));
  run "tuples=50k" (Some (Flexpath.Guard.budget ~tuple_budget:50_000 ()));
  run "tuples=5k" (Some (Flexpath.Guard.budget ~tuple_budget:5_000 ()));
  run "deadline=5ms" (Some (Flexpath.Guard.budget ~deadline_ms:5.0 ()))

(* Snapshot storage: what the checksummed sectioned format costs to
   write, load and verify as documents grow, and what recovery costs
   when a derived section is damaged and must be rebuilt from the
   document section. *)
let abl_snapshot ~quick () =
  header "Ablation: snapshot storage"
    "Checksummed snapshot save/load/verify, and recovery from a damaged index section; time in ms"
    [ "bytes"; "save"; "load"; "verify"; "recover" ];
  let fail e = failwith (Flexpath.Error.to_string e) in
  List.iter
    (fun mb ->
      let env = env_for_mb mb in
      let path = Filename.temp_file "flexpath_bench" ".env" in
      Fun.protect
        ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
        (fun () ->
          let _, save_ms =
            time_median (fun () ->
                match Flexpath.Storage.save env path with Ok () -> () | Error e -> fail e)
          in
          let bytes = (Unix.stat path).Unix.st_size in
          let _, load_ms =
            time_median (fun () ->
                match Flexpath.Storage.load path with
                | Ok (_, Flexpath.Storage.Intact) -> ()
                | Ok _ -> failwith "expected an intact load"
                | Error e -> fail e)
          in
          let _, verify_ms =
            time_median (fun () ->
                match Flexpath.Storage.verify path with Ok _ -> () | Error e -> fail e)
          in
          (* Flip one byte in the middle of the index section: load must
             detect the checksum mismatch and re-index the document. *)
          let report =
            match Flexpath.Storage.verify path with Ok r -> r | Error e -> fail e
          in
          let s =
            List.find (fun s -> s.Flexpath.Storage.name = "index") report.Flexpath.Storage.sections
          in
          let data =
            let ic = open_in_bin path in
            Fun.protect
              ~finally:(fun () -> close_in_noerr ic)
              (fun () -> Bytes.of_string (really_input_string ic (in_channel_length ic)))
          in
          let i = s.Flexpath.Storage.offset + (s.Flexpath.Storage.bytes / 2) in
          Bytes.set data i (Char.chr (Char.code (Bytes.get data i) lxor 1));
          let oc = open_out_bin path in
          output_bytes oc data;
          close_out oc;
          let _, recover_ms =
            time_median (fun () ->
                match Flexpath.Storage.load path with
                | Ok (_, Flexpath.Storage.Recovered _) -> ()
                | Ok _ -> failwith "expected a recovery"
                | Error e -> fail e)
          in
          row
            (Printf.sprintf "%gMB" mb)
            [ string_of_int bytes; ms save_ms; ms load_ms; ms verify_ms; ms recover_ms ]))
    (if quick then [ 0.5; 2.0 ] else [ 1.0; 10.0; 25.0 ])

(* Data relaxation (APPROXML, §7) vs query relaxation (SSO): the third
   evaluation strategy the paper rejects because it "quickly fails with
   large databases".  We measure the materialized closure and the
   evaluation cost as documents grow. *)
let abl_approxml ~quick () =
  let q = Xpath.parse_exn "//item[./description/parlist]" in
  header "Ablation: data relaxation (APPROXML)"
    "Materialized closure size and query time vs SSO query relaxation (Q1, K=100)"
    [ "closure-edges"; "build-ms"; "eval-ms"; "SSO-ms" ];
  List.iter
    (fun mb ->
      let env = env_for_mb mb in
      let t, build_ms = time (fun () -> Approxml.build env.Env.doc) in
      (match t with
      | Error msg -> row (Printf.sprintf "%gMB" mb) [ "-"; "-"; msg; "-" ]
      | Ok t ->
        let _, eval_ms = time_median (fun () -> Approxml.answers t env.Env.index q) in
        let _, sso_ms = run_algo env ~algorithm:Flexpath.SSO ~k:100 q in
        row (Printf.sprintf "%gMB" mb)
          [ string_of_int (Approxml.edge_count t); ms build_ms; ms eval_ms; ms sso_ms ]))
    (if quick then [ 1.0; 5.0 ] else [ 1.0; 10.0; 25.0; 50.0; 100.0 ])

(* Worker supervision (DESIGN.md §4g): what heartbeat-driven loss
   recovery buys under injected wedges.  Retrying clients issue a fixed
   workload while a fraction of requests wedge their worker; with
   supervision on, the lost worker is replaced within the hard wall and
   the retry lands on a live one — with it off, each wedge permanently
   shrinks the pool, and goodput collapses as the wedge rate grows. *)
let abl_supervision ~quick () =
  let module Server = Flexpath_server.Server in
  let module Protocol = Flexpath_server.Protocol in
  let module Client = Flexpath_server.Client in
  let module Metrics = Flexpath_server.Metrics in
  let module Monotime = Flexpath.Monotime in
  let mb = if quick then 1.0 else 2.0 in
  let env = env_for_mb mb in
  let request = Printf.sprintf "QUERY k=10 %s" q1_str in
  let clients = 8 and per_client = if quick then 12 else 30 in
  let hard_wall_ms = 250.0 in
  header "Ablation: worker supervision"
    (Printf.sprintf
       "%d retrying clients (retries=1, 500 ms budget), %d requests each, a fraction wedging \
        their worker (%.0f ms hard wall); goodput and tail latency, supervision on vs off"
       clients per_client hard_wall_ms)
    [ "served"; "p99-ms"; "req/s"; "lost" ];
  let retry =
    { Client.retries = 1; budget_ms = Some 500.0; base_backoff_ms = 20.0; max_backoff_ms = 100.0 }
  in
  List.iter
    (fun (wedge_pct, supervise) ->
      let cfg =
        {
          Server.default_config with
          Server.workers = 4;
          queue_depth = 64;
          hard_wall_ms;
          supervise;
          (* Quarantining off: every wedge uses the same query shape,
             and this table isolates loss recovery. *)
          quarantine_strikes = 0;
        }
      in
      match Server.create cfg ~env with
      | Error e -> failwith (Flexpath.Error.to_string e)
      | Ok srv ->
        let d = Domain.spawn (fun () -> Server.serve srv) in
        Fun.protect
          ~finally:(fun () ->
            Failpoint.reset ();
            Server.stop srv;
            Domain.join d)
          (fun () ->
            let port = Server.port srv in
            let served = Atomic.make 0 in
            let latency_of = Array.make clients [] in
            let client id () =
              let rng = Random.State.make [| 0x5EED + id |] in
              let lat = ref [] in
              for _ = 1 to per_client do
                if Random.State.int rng 100 < wedge_pct then
                  ignore (Failpoint.activate_n "worker_wedge" 1);
                let clock = Monotime.create () in
                (match Client.run ~rng ~port ~retry [ request ] with
                | Ok [ ((Protocol.Ok_ | Protocol.Partial), _) ] -> Atomic.incr served
                | Ok _ | Error _ -> ());
                lat := Monotime.elapsed_ms clock :: !lat
              done;
              latency_of.(id) <- !lat
            in
            let _, wall_ms =
              time (fun () ->
                  let ds = List.init clients (fun id -> Domain.spawn (client id)) in
                  List.iter Domain.join ds)
            in
            let latencies =
              Array.to_list latency_of |> List.concat |> List.sort Float.compare |> Array.of_list
            in
            let served = Atomic.get served in
            row
              (Printf.sprintf "wedge=%d%% sup=%s" wedge_pct (if supervise then "on" else "off"))
              [
                string_of_int served;
                ms (Loadgen.percentile latencies 99.0);
                Printf.sprintf "%.0f" (float_of_int served /. (wall_ms /. 1000.0));
                string_of_int (Metrics.snapshot (Server.metrics srv)).Metrics.lost;
              ]))
    [ (0, true); (0, false); (1, true); (1, false); (5, true); (5, false) ]

(* Live ingestion (DESIGN.md §4h): write throughput on the WAL-durable
   path of a one-shard corpus, query tail latency while the background
   merge domain runs, and the staleness the merge cadence actually
   delivers.  Besides the table, the numbers land in BENCH_ingest.json
   so regressions show up in review diffs. *)
let abl_ingest ~quick () =
  let module Server = Flexpath_server.Server in
  let module Protocol = Flexpath_server.Protocol in
  let module Client = Flexpath_server.Client in
  let module Metrics = Flexpath_server.Metrics in
  let module Ingest = Flexpath.Ingest in
  let module Monotime = Flexpath.Monotime in
  let dir = Filename.temp_file "flexpath_bench_ingest" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  let merge_interval_ms = 200.0 in
  let cfg =
    {
      Server.default_config with
      Server.workers = 4;
      queue_depth = 64;
      ingest = Some { Server.ingest_defaults with Server.merge_interval_ms; write_lane = 8 };
      snapshot = Some (Filename.concat dir "corpus");
    }
  in
  let env =
    match Ingest.empty () with Ok c -> Ingest.env c | Error e -> failwith (Flexpath.Error.to_string e)
  in
  let doc_body n =
    Printf.sprintf
      "<article><title>bench %d</title><section><paragraph>flexible xml querying with full text \
       search revision %d</paragraph><paragraph>structural relaxation benchmark \
       payload</paragraph></section></article>"
      n n
  in
  match Server.create cfg ~env with
  | Error e -> failwith (Flexpath.Error.to_string e)
  | Ok srv ->
    let d = Domain.spawn (fun () -> Server.serve srv) in
    let result =
      Fun.protect
        ~finally:(fun () ->
          Server.stop srv;
          Domain.join d;
          (try
             Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
             Unix.rmdir dir
           with Sys_error _ | Unix.Unix_error _ -> ()))
        (fun () ->
          let port = Server.port srv in
          header "Ablation: live ingestion"
            (Printf.sprintf
               "WAL-durable ingest throughput, then mixed traffic (2 writers, 4 readers) under a \
                %.0f ms merge cadence: query latency and staleness percentiles"
               merge_interval_ms)
            [ "value" ];
          (* Phase 1: pure ingest throughput on one connection. *)
          let n_docs = if quick then 150 else 600 in
          let retry = Client.default_retry in
          let bytes = ref 0 in
          let (), ingest_wall_ms =
            time (fun () ->
                let reqs =
                  List.init n_docs (fun i ->
                      let xml = doc_body i in
                      bytes := !bytes + String.length xml;
                      Client.ingest_request ~id:(Printf.sprintf "d%d" (i mod 256)) xml)
                in
                match Client.run_requests ~port ~retry reqs with
                | Ok _ -> ()
                | Error (f, _) -> failwith (Client.failure_to_string f))
          in
          let docs_per_s = float_of_int n_docs /. (ingest_wall_ms /. 1000.0) in
          row "ingest-docs/s" [ Printf.sprintf "%.0f" docs_per_s ];
          row "ingest-MB/s"
            [ Printf.sprintf "%.2f" (float_of_int !bytes /. 1048576.0 /. (ingest_wall_ms /. 1000.0)) ];
          (* Phase 2: mixed read/write traffic with background merges. *)
          let run_s = if quick then 3.0 else 8.0 in
          let clock = Monotime.create () in
          let running () = Monotime.elapsed_ms clock < run_s *. 1000.0 in
          let writer w () =
            let n = ref 0 in
            while running () do
              incr n;
              let xml = doc_body !n in
              ignore
                (Client.run_requests ~port ~retry
                   [ Client.ingest_request ~id:(Printf.sprintf "m%d-%d" w (!n mod 64)) xml ])
            done
          in
          let query_lat = Array.make 4 [] in
          let reader r () =
            let lat = ref [] in
            let q = "QUERY k=5 //article[.contains(\"flexible\" and \"relaxation\")]" in
            while running () do
              let t = Monotime.create () in
              (match Client.run ~port ~retry [ q ] with
              | Ok [ ((Protocol.Ok_ | Protocol.Partial), _) ] ->
                lat := Monotime.elapsed_ms t :: !lat
              | Ok _ | Error _ -> ());
              Unix.sleepf 0.001
            done;
            query_lat.(r) <- !lat
          in
          let staleness = ref [] in
          let monitor () =
            let corpus = Option.get (Server.corpus srv) in
            while running () do
              staleness := (Flexpath.Corpus.health corpus).(0).h_staleness_ms :: !staleness;
              Unix.sleepf 0.01
            done
          in
          let writers = List.init 2 (fun w -> Domain.spawn (writer w)) in
          let readers = List.init 4 (fun r -> Domain.spawn (reader r)) in
          let mon = Domain.spawn monitor in
          List.iter Domain.join writers;
          List.iter Domain.join readers;
          Domain.join mon;
          let lat =
            Array.to_list query_lat |> List.concat |> List.sort Float.compare |> Array.of_list
          in
          let stale = List.sort Float.compare !staleness |> Array.of_list in
          let s = Metrics.snapshot (Server.metrics srv) in
          let q_p50 = Loadgen.percentile lat 50.0 and q_p99 = Loadgen.percentile lat 99.0 in
          let st_p50 = Loadgen.percentile stale 50.0
          and st_p95 = Loadgen.percentile stale 95.0
          and st_max = Loadgen.percentile stale 100.0 in
          row "query-p50-ms" [ ms q_p50 ];
          row "query-p99-ms" [ ms q_p99 ];
          row "staleness-p50" [ ms st_p50 ];
          row "staleness-p95" [ ms st_p95 ];
          row "staleness-max" [ ms st_max ];
          row "merges" [ string_of_int s.Metrics.merges ];
          [
            ("quick", Json.Bool quick);
            ("merge_interval_ms", Json.Num merge_interval_ms);
            ( "ingest",
              Json.Obj
                [
                  ("docs", int_num n_docs);
                  ("bytes", int_num !bytes);
                  ("wall_ms", Json.Num ingest_wall_ms);
                  ("docs_per_s", Json.Num docs_per_s);
                ] );
            ( "mixed",
              Json.Obj
                [
                  ("queries", int_num (Array.length lat));
                  ("query_p50_ms", Json.Num q_p50);
                  ("query_p99_ms", Json.Num q_p99);
                  ("staleness_p50_ms", Json.Num st_p50);
                  ("staleness_p95_ms", Json.Num st_p95);
                  ("staleness_max_ms", Json.Num st_max);
                  ("ingests", int_num s.Metrics.ingests);
                  ("merges", int_num s.Metrics.merges);
                ] );
          ])
    in
    write_artifact "ingest" result

(* Sharded corpus (DESIGN.md §4i): scatter-gather query latency as the
   same document set spreads over 1, 4 and 16 shards, and the tail cost
   of degraded service — every query losing one shard mid-probe and
   settling for a sound PARTIAL.  The numbers land in BENCH_shard.json
   so regressions show up in review diffs. *)
let abl_shard ~quick () =
  let module Corpus = Flexpath.Corpus in
  let dir = Filename.temp_file "flexpath_bench_shard" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  let n_docs = if quick then 120 else 400 in
  let n_queries = if quick then 80 else 300 in
  let article seed =
    let rng = Xmark.Prng.create seed in
    let archetype =
      Xmark.Prng.pick rng
        [|
          Xmark.Articles.Exact;
          Xmark.Articles.Title_keywords;
          Xmark.Articles.Algo_elsewhere;
          Xmark.Articles.No_algorithm;
          Xmark.Articles.Keywords_only;
          Xmark.Articles.Irrelevant;
        |]
    in
    Xmldom.Xml.to_string (Xmark.Articles.article rng archetype seed)
  in
  let bodies = List.init n_docs (fun i -> (Printf.sprintf "d%d" i, article (7000 + i))) in
  let query_mix =
    List.map Xpath.parse_exn
      [
        "//article[.contains(\"xml\")]";
        "//article[./section[./algorithm and ./paragraph[.contains(\"xml\" and \"streaming\")]]]";
        "//section[./title]";
      ]
  in
  (* One guard governs both passes: run [n_queries] over the mix,
     arming the shard-loss failpoint before every query when
     [degrade].  Returns (p50, p99, partials). *)
  let measure corpus ~degrade =
    let lat = ref [] in
    let partials = ref 0 in
    for i = 0 to n_queries - 1 do
      if degrade then
        (match Flexpath.Failpoint.activate_n "shard_probe" 1 with
        | Ok () -> ()
        | Error e -> failwith e);
      let q = List.nth query_mix (i mod List.length query_mix) in
      let r, t =
        time (fun () ->
            match Corpus.query corpus ~use_cache:false ~k:10 q with
            | Ok r -> r
            | Error e -> failwith (Flexpath.Error.to_string e))
      in
      (match r.Corpus.completeness with Corpus.Partial _ -> incr partials | Corpus.Complete -> ());
      lat := t :: !lat
    done;
    Flexpath.Failpoint.reset ();
    let sorted = List.sort Float.compare !lat |> Array.of_list in
    (Loadgen.percentile sorted 50.0, Loadgen.percentile sorted 99.0, !partials)
  in
  header "Ablation: sharded corpus"
    (Printf.sprintf
       "Scatter-gather over N shards (%d docs, K=10, cache off): query latency healthy, then \
        degraded (one shard lost per query, sound PARTIAL)"
       n_docs)
    [ "p50-ms"; "p99-ms"; "deg-p50"; "deg-p99"; "partials" ];
  let cells =
    List.map
      (fun shards ->
        let prefix = Filename.concat dir (Printf.sprintf "c%d.fxe" shards) in
        (* Strikes never quarantine here: the degraded pass loses a
           shard on every query by design. *)
        match Corpus.open_corpus ~strike_threshold:max_int ~shards ~prefix () with
        | Error e -> failwith (Flexpath.Error.to_string e)
        | Ok corpus ->
          Fun.protect
            ~finally:(fun () -> Corpus.close corpus)
            (fun () ->
              List.iter
                (fun (id, xml) ->
                  match Corpus.ingest corpus ~id xml with
                  | Ok _ -> ()
                  | Error e -> failwith (Flexpath.Error.to_string e))
                bodies;
              let h_p50, h_p99, h_partials = measure corpus ~degrade:false in
              let d_p50, d_p99, d_partials = measure corpus ~degrade:true in
              row
                (Printf.sprintf "%d shard%s" shards (if shards = 1 then "" else "s"))
                [
                  ms h_p50;
                  ms h_p99;
                  ms d_p50;
                  ms d_p99;
                  Printf.sprintf "%d+%d" h_partials d_partials;
                ];
              let pass p50 p99 partials =
                Json.Obj
                  [ ("p50_ms", Json.Num p50); ("p99_ms", Json.Num p99); ("partials", int_num partials) ]
              in
              Json.Obj
                [
                  ("shards", int_num shards);
                  ("healthy", pass h_p50 h_p99 h_partials);
                  ("degraded", pass d_p50 d_p99 d_partials);
                ]))
      [ 1; 4; 16 ]
  in
  (try
     Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
     Unix.rmdir dir
   with Sys_error _ | Unix.Unix_error _ -> ());
  write_artifact "shard"
    [
      ("quick", Json.Bool quick);
      ("docs", int_num n_docs);
      ("queries_per_pass", int_num n_queries);
      ("k", int_num 10);
      ("series", Json.List cells);
    ]

(* Replication (DESIGN.md §4l): what redundancy costs and what it buys.
   Query latency healthy vs losing one replica per query (failover keeps
   every answer COMPLETE), ingest throughput under sync vs async WAL
   shipping, and how long a follower that missed records takes to catch
   up from its primary.  The numbers land in BENCH_replica.json so
   regressions show up in review diffs. *)
let abl_replica ~quick () =
  let module Corpus = Flexpath.Corpus in
  let dir = Filename.temp_file "flexpath_bench_replica" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  let n_docs = if quick then 80 else 300 in
  let n_queries = if quick then 60 else 200 in
  let article seed =
    let rng = Xmark.Prng.create seed in
    let archetype =
      Xmark.Prng.pick rng
        [|
          Xmark.Articles.Exact;
          Xmark.Articles.Title_keywords;
          Xmark.Articles.Algo_elsewhere;
          Xmark.Articles.No_algorithm;
          Xmark.Articles.Keywords_only;
          Xmark.Articles.Irrelevant;
        |]
    in
    Xmldom.Xml.to_string (Xmark.Articles.article rng archetype seed)
  in
  let bodies = List.init n_docs (fun i -> (Printf.sprintf "d%d" i, article (9000 + i))) in
  let query_mix =
    List.map Xpath.parse_exn
      [
        "//article[.contains(\"xml\")]";
        "//article[./section[./algorithm and ./paragraph[.contains(\"xml\" and \"streaming\")]]]";
        "//section[./title]";
      ]
  in
  let open_replicated ?ack_mode name =
    let prefix = Filename.concat dir name in
    match
      Corpus.open_corpus ?ack_mode ~strike_threshold:max_int ~replicas:2 ~shards:2 ~prefix ()
    with
    | Error e -> failwith (Flexpath.Error.to_string e)
    | Ok corpus -> corpus
  in
  let fill corpus =
    List.iter
      (fun (id, xml) ->
        match Corpus.ingest corpus ~id xml with
        | Ok _ -> ()
        | Error e -> failwith (Flexpath.Error.to_string e))
      bodies
  in
  (* Ingest throughput: sync ships every record through the follower's
     WAL before the ack; async acks on the primary alone and drains the
     queue afterwards (the drain is included in the throughput — the
     work doesn't disappear, it moves off the ack path). *)
  let ingest_rate ack_mode =
    let corpus = open_replicated ~ack_mode (Corpus.ack_mode_to_string ack_mode) in
    Fun.protect
      ~finally:(fun () -> Corpus.close corpus)
      (fun () ->
        let _, t_ms =
          time (fun () ->
              fill corpus;
              for ord = 0 to Corpus.shard_count corpus - 1 do
                Corpus.ship_pending corpus ord
              done)
        in
        float_of_int n_docs /. (t_ms /. 1000.0))
  in
  let sync_rate = ingest_rate Corpus.Sync in
  let async_rate = ingest_rate Corpus.Async in
  (* Query latency over a sync-replicated corpus: a healthy pass, then
     a pass losing one replica on every query — failover answers from
     the surviving copy, so partials must stay 0. *)
  let corpus = open_replicated "measure" in
  let q_healthy, q_lost, catchup =
    Fun.protect
      ~finally:(fun () -> Corpus.close corpus)
      (fun () ->
        fill corpus;
        let measure ~degrade =
          let lat = ref [] in
          let partials = ref 0 and failovers = ref 0 in
          for i = 0 to n_queries - 1 do
            if degrade then
              (match Failpoint.activate_n "shard_probe" 1 with
              | Ok () -> ()
              | Error e -> failwith e);
            let q = List.nth query_mix (i mod List.length query_mix) in
            let r, t =
              time (fun () ->
                  match Corpus.query corpus ~use_cache:false ~k:10 q with
                  | Ok r -> r
                  | Error e -> failwith (Flexpath.Error.to_string e))
            in
            (match r.Corpus.completeness with
            | Corpus.Partial _ -> incr partials
            | Corpus.Complete -> ());
            failovers := !failovers + r.Corpus.failovers;
            lat := t :: !lat
          done;
          Failpoint.reset ();
          let sorted = List.sort Float.compare !lat |> Array.of_list in
          (Loadgen.percentile sorted 50.0, Loadgen.percentile sorted 99.0, !partials, !failovers)
        in
        let healthy = measure ~degrade:false in
        let lost = measure ~degrade:true in
        (* Catch-up: kill shipping for one write so shard 0's follower
           falls out of sync, widen the gap with fresh documents it
           never sees, then time the snapshot-copy + WAL-tail-replay
           recovery. *)
        let fresh =
          let rec go i acc n =
            if n = 0 then List.rev acc
            else
              let id = Printf.sprintf "x%d" i in
              if Corpus.shard_of_id corpus id = 0 then go (i + 1) (id :: acc) (n - 1)
              else go (i + 1) acc n
          in
          go 0 [] (max 8 (n_docs / 4))
        in
        (match Failpoint.activate_n "replica_ship" 1 with
        | Ok () -> ()
        | Error e -> failwith e);
        List.iteri
          (fun i id ->
            match Corpus.ingest corpus ~id (article (12_000 + i)) with
            | Ok _ -> ()
            | Error e -> failwith (Flexpath.Error.to_string e))
          fresh;
        Failpoint.reset ();
        let behind =
          let h = (Corpus.health corpus).(0) in
          h.Corpus.h_replicas.(0).Corpus.rh_docs - h.Corpus.h_replicas.(1).Corpus.rh_docs
        in
        let _, catchup_ms = time (fun () -> ignore (Corpus.reload corpus ~replica:1 0)) in
        (healthy, lost, (behind, catchup_ms)))
  in
  (try
     Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
     Unix.rmdir dir
   with Sys_error _ | Unix.Unix_error _ -> ());
  let h_p50, h_p99, h_partials, h_failovers = q_healthy in
  let l_p50, l_p99, l_partials, l_failovers = q_lost in
  let behind, catchup_ms = catchup in
  header "Ablation: shard replication"
    (Printf.sprintf
       "2 shards x 2 replicas (%d docs, K=10, cache off): query latency healthy vs one replica \
        lost per query (failover, zero PARTIAL)"
       n_docs)
    [ "p50-ms"; "p99-ms"; "partials"; "failovers" ];
  row "healthy"
    [ ms h_p50; ms h_p99; string_of_int h_partials; string_of_int h_failovers ];
  row "replica-lost"
    [ ms l_p50; ms l_p99; string_of_int l_partials; string_of_int l_failovers ];
  header "Replication: ingest and catch-up"
    "WAL-shipping ack modes (docs/s includes the async drain), and follower catch-up from the \
     primary"
    [ "sync-docs/s"; "async-docs/s"; "behind"; "catchup-ms" ];
  row "replicas=2"
    [
      Printf.sprintf "%.0f" sync_rate;
      Printf.sprintf "%.0f" async_rate;
      string_of_int behind;
      ms catchup_ms;
    ];
  let pass (p50, p99, partials, failovers) =
    Json.Obj
      [
        ("p50_ms", Json.Num p50);
        ("p99_ms", Json.Num p99);
        ("partials", int_num partials);
        ("failovers", int_num failovers);
      ]
  in
  write_artifact "replica"
    [
      ("quick", Json.Bool quick);
      ("docs", int_num n_docs);
      ("queries_per_pass", int_num n_queries);
      ("shards", int_num 2);
      ("replicas", int_num 2);
      ("query", Json.Obj [ ("healthy", pass q_healthy); ("replica_lost", pass q_lost) ]);
      ( "ingest",
        Json.Obj [ ("sync_docs_per_s", Json.Num sync_rate); ("async_docs_per_s", Json.Num async_rate) ]
      );
      ("catchup", Json.Obj [ ("records_behind", int_num behind); ("ms", Json.Num catchup_ms) ]);
    ]

(* Holistic twig join (DESIGN.md §4k): the TwigStack-style physical
   operator against the binary structural-join pipeline, on identical
   plans returning identical answers.  Exact conjunctive plans take the
   operator's fast path (answers straight off the solution streams);
   relaxed-but-conjunctive plans still twig-filter before enumerating;
   plans with optional specs fall back to the pipeline, so their row
   doubles as a cost-of-selection control. *)
let abl_twig ~quick () =
  let mb = if quick then 2.0 else 100.0 in
  let env = env_for_mb mb in
  header "Ablation: holistic twig join"
    (Printf.sprintf
       "Binary pipeline vs holistic twig operator, same plans (%gMB); time in ms" mb)
    [ "binary"; "holistic"; "speedup"; "stream-elems" ];
  let bench_row name q enc =
    let penv = Env.penalty_env env q in
    let eenv = Env.exec_env env penv in
    let strategy = Joins.Exec.exact_strategy in
    let m = Joins.Exec.fresh_metrics () in
    let answers =
      Joins.Exec.run ~metrics:m ~executor:Joins.Exec.Auto eenv enc strategy
    in
    let _, tb =
      time_median (fun () -> Joins.Exec.run ~executor:Joins.Exec.Binary eenv enc strategy)
    in
    let _, th =
      time_median (fun () -> Joins.Exec.run ~executor:Joins.Exec.Auto eenv enc strategy)
    in
    let speedup = if th > 0.0 then tb /. th else 0.0 in
    row name
      [
        ms tb;
        ms th;
        Printf.sprintf "%.2fx" speedup;
        string_of_int m.Joins.Exec.stream_elements;
      ];
    Json.Obj
      [
        ("query", Json.Str name);
        ("binary_ms", Json.Num tb);
        ("holistic_ms", Json.Num th);
        ("speedup", Json.Num speedup);
        ("holistic_runs", int_num m.Joins.Exec.holistic_runs);
        ("fast_path", Json.Bool (m.Joins.Exec.holistic_fast_paths > 0));
        ("stream_elements", int_num m.Joins.Exec.stream_elements);
        ("answers", int_num (List.length answers));
      ]
  in
  let cells = ref [] in
  let emit name q enc = cells := bench_row name q enc :: !cells in
  (* Q1-Q3 exact plans: the paper's workload, where the operator must win *)
  List.iter
    (fun (name, qs) ->
      let q = Xpath.parse_exn qs in
      emit name q (Joins.Encoded.of_ops_exn q []))
    queries;
  (* the deepest still-conjunctive relaxation of Q3 (twig-filtered but
     no fast path) and the first non-conjunctive one (falls back) *)
  let q3 = Xpath.parse_exn q3_str in
  let penv = Env.penalty_env env q3 in
  let chain = Relax.Space.sequence ~max_steps:32 penv in
  let encs =
    List.map (fun e -> Joins.Encoded.of_ops_exn q3 e.Relax.Space.ops) chain
  in
  (match List.filter Joins.Twig.applicable encs with
  | [] -> ()
  | conj -> emit "Q3-relaxed" q3 (List.nth conj (List.length conj - 1)));
  (match List.find_opt (fun e -> not (Joins.Twig.applicable e)) encs with
  | None -> ()
  | Some enc -> emit "Q3-fallback" q3 enc);
  write_artifact "twig"
    [ ("quick", Json.Bool quick); ("mb", Json.Num mb); ("series", Json.List (List.rev !cells)) ]

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks of the substrates. *)

let micro () =
  let open Bechamel in
  let doc = Xmark.Auction.doc ~seed:5 ~items:100 () in
  let items = Doc.by_tag_name doc "item" in
  let texts = Doc.by_tag_name doc "text" in
  let q3 = Xpath.parse_exn q3_str in
  let preds = Tpq.Query.to_preds q3 in
  let xml_string = Xmldom.Xml.to_string (Doc.to_tree doc) in
  let tests =
    [
      Test.make ~name:"structural-join ad(item,text)"
        (Staged.stage (fun () -> ignore (Joins.Structural_join.ad_pairs doc ~anc:items ~desc:texts)));
      Test.make ~name:"closure of Q3" (Staged.stage (fun () -> ignore (Tpq.Closure.closure preds)));
      Test.make ~name:"core of Q3" (Staged.stage (fun () -> ignore (Tpq.Closure.core preds)));
      Test.make ~name:"xpath parse Q3" (Staged.stage (fun () -> ignore (Xpath.parse_exn q3_str)));
      Test.make ~name:"porter stem"
        (Staged.stage (fun () -> ignore (Fulltext.Stemmer.stem "relational")));
      Test.make ~name:"index build (100 items)"
        (Staged.stage (fun () -> ignore (Fulltext.Index.build doc)));
      Test.make ~name:"xml parse (100 items)"
        (Staged.stage (fun () -> ignore (Xmldom.Xml_parser.parse_exn xml_string)));
      Test.make ~name:"stats build (100 items)" (Staged.stage (fun () -> ignore (Stats.build doc)));
    ]
  in
  Printf.printf "\n=== Micro-benchmarks (Bechamel) ===\n%!";
  List.iter
    (fun test ->
      let clock = Toolkit.Instance.monotonic_clock in
      let cfg = Benchmark.cfg ~quota:(Time.second 0.5) ~kde:None () in
      let raw = Benchmark.all cfg [ clock ] test in
      let results =
        Analyze.all
          (Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| "run" |])
          clock raw
      in
      Hashtbl.iter
        (fun name result ->
          match Analyze.OLS.estimates result with
          | Some [ est ] -> Printf.printf "%-40s %14.1f ns/run\n%!" name est
          | _ -> Printf.printf "%-40s (no estimate)\n%!" name)
        results)
    tests

(* ------------------------------------------------------------------ *)

let all_figures =
  [
    ("fig9", fig9);
    ("fig10", fig10);
    ("fig11", fig11);
    ("fig12", fig12);
    ("fig13", fig13);
    ("fig14", fig14);
    ("fig15", fig15);
    ("fig16", fig16);
    ("abl_bucketize", abl_bucketize);
    ("abl_pruning", abl_pruning);
    ("abl_estimator", abl_estimator);
    ("abl_schemes", abl_schemes);
    ("abl_governance", abl_governance);
    ("abl_snapshot", abl_snapshot);
    ("abl_approxml", abl_approxml);
    ("abl_supervision", abl_supervision);
    ("abl_ingest", abl_ingest);
    ("abl_shard", abl_shard);
    ("abl_replica", abl_replica);
    ("abl_twig", abl_twig);
  ]

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let quick = List.mem "quick" args in
  let selected = List.filter (fun a -> a <> "quick" && a <> "micro") args in
  let micro_requested = List.mem "micro" args in
  if micro_requested && selected = [] then micro ()
  else begin
    Printf.printf "FleXPath benchmark harness — reproducing SIGMOD 2004 figures 9-16%s\n%!"
      (if quick then " (quick mode)" else "");
    List.iter
      (fun (name, f) -> if selected = [] || List.mem name selected then f ~quick ())
      all_figures;
    if selected = [] then micro ()
  end
