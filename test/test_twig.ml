(* Differential tests for the holistic twig operator (DESIGN.md §4k).

   The claim under test: [Joins.Exec.run ~executor:Binary] and the
   holistic twig operator ([Auto] on conjunctive plans)
   produce byte-identical results — same targets, same float bits,
   same satisfied/failed predicate sets — at every level of the stack:
   the raw executor, the three top-K algorithms under every ranking
   scheme, the governed (budget-truncated) paths that are
   executor-deterministic, armed failpoints, and the sharded Corpus
   scatter-gather.  Tuple budgets and deadlines are deliberately out
   of scope: their truncation points legitimately differ per physical
   operator (the answer cache keys on the executor for exactly this
   reason). *)

module Xml = Xmldom.Xml
module Doc = Xmldom.Doc
module Ftexp = Fulltext.Ftexp
module Index = Fulltext.Index
module Query = Tpq.Query
module Xpath = Tpq.Xpath
module Op = Relax.Op
module Penalty = Relax.Penalty
module Encoded = Joins.Encoded
module Exec = Joins.Exec
module Twig = Joins.Twig
module Env = Flexpath.Env
module Ranking = Flexpath.Ranking
module Answer = Flexpath.Answer
module Common = Flexpath.Common
module Guard = Flexpath.Guard
module Error = Flexpath.Error
module Failpoint = Flexpath.Failpoint
module Corpus = Flexpath.Corpus

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let kw = Ftexp.(Term "xml" &&& Term "streaming")

let q1 () =
  Xpath.parse_exn
    "//article[./section[./algorithm and ./paragraph[.contains(\"XML\" and \"streaming\")]]]"

let parse s =
  match Xpath.parse s with
  | Ok q -> q
  | Error { Xpath.offset; message } -> Alcotest.failf "parse %s: %d: %s" s offset message

(* ------------------------------------------------------------------ *)
(* Executor level: raw [Exec.run] answers, exact and relaxed encodings *)

let make_env d =
  let idx = Index.build d in
  let st = Stats.build d in
  Stats.set_index st idx;
  (d, idx, st)

let exec_env d idx st q = { Exec.doc = d; index = idx; penalty = Penalty.make st Penalty.uniform q }

(* Everything executor-independent in an answer.  [bindings] is
   excluded by contract: the holistic fast path lists only the
   distinguished variable (no embedding witness). *)
let answer_fingerprint (a : Exec.answer) =
  Printf.sprintf "%d|%Lx|%Lx|[%s]|[%s]" a.Exec.target
    (Int64.bits_of_float a.Exec.sscore)
    (Int64.bits_of_float a.Exec.kscore)
    (String.concat ";" (List.map Tpq.Pred.to_string a.Exec.satisfied))
    (String.concat ";" (List.map Tpq.Pred.to_string a.Exec.failed))

let sorted_fingerprints answers = List.sort compare (List.map answer_fingerprint answers)

let op_sets =
  [
    [];
    [ Op.Axis_generalization 2 ];
    [ Op.Contains_promotion (4, kw) ];
    [ Op.Subtree_promotion 3 ];
    [ Op.Contains_promotion (4, kw); Op.Subtree_promotion 3 ];
    (* leaf deletions make the plan non-conjunctive: the holistic
       request must fall back, still byte-identical *)
    [ Op.Contains_promotion (4, kw); Op.Leaf_deletion 3 ];
    [ Op.Contains_promotion (4, kw); Op.Leaf_deletion 3; Op.Leaf_deletion 4 ];
  ]

let strategies k =
  [
    ("exact", Exec.exact_strategy);
    ("sso", { Exec.sort_on_score = true; bucketize = false; prune_k = Some k; prune_slack = 0.0 });
    ("hybrid", { Exec.sort_on_score = false; bucketize = true; prune_k = Some k; prune_slack = 0.0 });
  ]

let test_exec_differential () =
  let d, idx, st = make_env (Xmark.Articles.doc ~seed:21 ~count:50 ()) in
  let q = q1 () in
  let env = exec_env d idx st q in
  List.iter
    (fun ops ->
      let enc = Encoded.of_ops_exn q ops in
      List.iter
        (fun (sname, strategy) ->
          let run executor = sorted_fingerprints (Exec.run ~executor env enc strategy) in
          let label =
            Printf.sprintf "%s / %s" sname (String.concat ";" (List.map Op.to_string ops))
          in
          let binary = run Exec.Binary in
          check_bool (label ^ ": answers nonempty or both empty") true
            (binary = run Exec.Auto))
        (strategies 10))
    op_sets

let test_exec_metrics_and_fallback () =
  let d, idx, st = make_env (Xmark.Articles.doc ~seed:21 ~count:30 ()) in
  let q = q1 () in
  let env = exec_env d idx st q in
  let run executor enc =
    let m = Exec.fresh_metrics () in
    ignore (Exec.run ~metrics:m ~executor env enc Exec.exact_strategy);
    m
  in
  let conj = Encoded.of_ops_exn q [] in
  check_bool "conjunctive plan is twig-applicable" true (Twig.applicable conj);
  let m_auto = run Exec.Auto conj in
  check_int "auto takes holistic" 1 m_auto.Exec.holistic_runs;
  check_int "exact conjunctive hits the fast path" 1 m_auto.Exec.holistic_fast_paths;
  check_bool "streams carry elements" true (m_auto.Exec.stream_elements > 0);
  let m_bin = run Exec.Binary conj in
  check_int "forced binary never twig-joins" 0 m_bin.Exec.holistic_runs;
  (* relaxed but still conjunctive: holistic runs, fast path does not *)
  let relaxed = Encoded.of_ops_exn q [ Op.Contains_promotion (4, kw) ] in
  let m_rel = run Exec.Auto relaxed in
  check_int "relaxed conjunctive still holistic" 1 m_rel.Exec.holistic_runs;
  check_int "relaxed encoding skips the fast path" 0 m_rel.Exec.holistic_fast_paths;
  (* optional spec (leaf deletion): Auto falls back to the pipeline *)
  let optional = Encoded.of_ops_exn q [ Op.Contains_promotion (4, kw); Op.Leaf_deletion 4 ] in
  check_bool "optional spec not twig-applicable" false (Twig.applicable optional);
  let m_opt = run Exec.Auto optional in
  check_int "auto falls back on optional specs" 0 m_opt.Exec.holistic_runs

let test_fast_path_preserves_failpoint_schedule () =
  (* the fast path fires "exec.stage" once per join stage so counted
     fault schedules are executor-independent *)
  let d, idx, st = make_env (Xmark.Articles.doc ~seed:7 ~count:20 ()) in
  let q = q1 () in
  let env = exec_env d idx st q in
  let enc = Encoded.of_ops_exn q [] in
  let stage_hits executor =
    let m = Exec.fresh_metrics () in
    ignore (Exec.run ~metrics:m ~executor env enc Exec.exact_strategy);
    m.Exec.stages
  in
  check_int "same stage count" (stage_hits Exec.Binary) (stage_hits Exec.Auto)

(* ------------------------------------------------------------------ *)
(* Algorithm level: Flexpath.run across DPO/SSO/Hybrid x schemes *)

let algorithms = [ Flexpath.DPO; Flexpath.SSO; Flexpath.Hybrid ]
let schemes = [ Ranking.Structure_first; Ranking.Keyword_first; Ranking.Combined ]

let completeness_tag = function
  | Common.Complete -> "C"
  | Common.Truncated { reason; _ } -> "T:" ^ Guard.reason_to_string reason

let result_fingerprint (r : Common.result) =
  let b = Buffer.create 256 in
  Buffer.add_string b
    (Printf.sprintf "rex=%d passes=%d restarts=%d deg=%b %s\n" r.Common.relaxations_evaluated
       r.Common.passes r.Common.restarts r.Common.degraded
       (completeness_tag r.Common.completeness));
  List.iter
    (fun (a : Answer.t) ->
      Buffer.add_string b
        (Printf.sprintf "%d|%Lx|%Lx|%d\n" a.Answer.node
           (Int64.bits_of_float a.Answer.sscore)
           (Int64.bits_of_float a.Answer.kscore)
           a.Answer.dropped_predicates))
    r.Common.answers;
  Buffer.contents b

let run_fingerprint ?budget env ~algorithm ~scheme ~k ~executor q =
  match Flexpath.run ~algorithm ~scheme ?budget ~executor env ~k q with
  | Ok r -> result_fingerprint r
  | Error e -> "error:" ^ Error.to_string e

let diff_env = lazy (Env.make (Xmark.Articles.doc ~seed:77 ~count:25 ()))

(* Same generator as test_flexpath's cross-algorithm property: random
   1-4 variable twigs over the Articles vocabulary. *)
let gen_random_query =
  let open QCheck2.Gen in
  let tag_gen = oneofl [ "article"; "section"; "paragraph"; "algorithm"; "title"; "abstract" ] in
  let kw_gen = oneofl [ "xml"; "streaming"; "algorithm"; "query" ] in
  let node_gen =
    let* t = tag_gen in
    let* n_kw = oneofl [ 0; 0; 1 ] in
    let* ws = list_repeat n_kw kw_gen in
    return (Query.node_spec ~tag:t ~contains:(List.map Ftexp.term ws) ())
  in
  let* n_nodes = 1 -- 4 in
  let* nodes = list_repeat n_nodes node_gen in
  let* axes = list_repeat n_nodes (oneofl [ Query.Child; Query.Descendant ]) in
  let* parents =
    flatten_l (List.init n_nodes (fun i -> if i = 0 then return 0 else 0 -- (i - 1)))
  in
  let nodes = List.mapi (fun i n -> (i + 1, n)) nodes in
  let edges =
    List.concat
      (List.mapi
         (fun i (p, a) -> if i = 0 then [] else [ (p + 1, i + 1, a) ])
         (List.combine parents axes))
  in
  let* dist = 1 -- n_nodes in
  match Query.make ~root:1 ~nodes ~edges ~distinguished:dist with
  | Ok q -> return q
  | Error _ -> assert false

let prop_executors_agree =
  QCheck2.Test.make ~name:"holistic = binary on random twigs, all algorithms and schemes"
    ~count:30
    (QCheck2.Gen.pair gen_random_query (QCheck2.Gen.oneofl [ 3; 10 ]))
    (fun (q, k) ->
      let env = Lazy.force diff_env in
      List.for_all
        (fun algorithm ->
          List.for_all
            (fun scheme ->
              let fp executor = run_fingerprint env ~algorithm ~scheme ~k ~executor q in
              fp Exec.Binary = fp Exec.Auto)
            schemes)
        algorithms)

(* Budget truncation that IS executor-deterministic: step budgets and
   restart caps cut at pass boundaries, which both executors cross at
   the same points. *)
let prop_executors_agree_truncated =
  QCheck2.Test.make ~name:"holistic = binary under step budgets and restart caps" ~count:20
    (QCheck2.Gen.pair gen_random_query (QCheck2.Gen.oneofl [ 1; 2; 4 ]))
    (fun (q, steps) ->
      let env = Lazy.force diff_env in
      let budget =
        { Guard.deadline_ms = None; tuple_budget = None; step_budget = Some steps;
          restart_cap = Some 0 }
      in
      List.for_all
        (fun algorithm ->
          List.for_all
            (fun scheme ->
              let fp executor =
                run_fingerprint ~budget env ~algorithm ~scheme ~k:5 ~executor q
              in
              fp Exec.Binary = fp Exec.Auto)
            schemes)
        algorithms)

let test_executors_agree_under_failpoints () =
  (* identically armed counted faults must surface identically: the
     fast path preserves the per-stage and per-run hit schedule *)
  let env = Lazy.force diff_env in
  let q = q1 () in
  List.iter
    (fun (point, hits) ->
      let outcome executor =
        Failpoint.reset ();
        (match Failpoint.activate_n point hits with
        | Ok () -> ()
        | Error e -> Alcotest.failf "arm %s: %s" point e);
        let r =
          List.map
            (fun algorithm ->
              run_fingerprint env ~algorithm ~scheme:Ranking.Structure_first ~k:5
                ~executor q)
            algorithms
        in
        Failpoint.reset ();
        r
      in
      List.iter2
        (fun b a -> check_string (Printf.sprintf "%s:%d" point hits) b a)
        (outcome Exec.Binary) (outcome Exec.Auto))
    [ ("exec.run", 1); ("exec.run", 3); ("exec.stage", 1); ("exec.stage", 5); ("chain.build", 1) ]

(* ------------------------------------------------------------------ *)
(* Corpus level: scatter-gather over shards, healthy and with a shard
   lost mid-query *)

let ok_exn what = function
  | Ok v -> v
  | Error e -> Alcotest.failf "%s failed: %s" what (Error.to_string e)

let temp_prefix =
  let n = ref 0 in
  fun () ->
    incr n;
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "flexpath_twig_%d_%d" (Unix.getpid ()) !n)

let remove_quiet path = try Sys.remove path with Sys_error _ -> ()

let with_corpus ~shards f =
  let prefix = temp_prefix () in
  Fun.protect
    ~finally:(fun () ->
      for i = 0 to shards - 1 do
        remove_quiet (Printf.sprintf "%s.shard%d" prefix i);
        remove_quiet (Printf.sprintf "%s.shard%d.wal" prefix i)
      done)
    (fun () ->
      let c = ok_exn "open_corpus" (Corpus.open_corpus ~shards ~prefix ()) in
      Fun.protect ~finally:(fun () -> Corpus.close c) (fun () -> f c))

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
  Xmark.Articles.article rng archetype seed

let fill corpus n =
  List.iter
    (fun i ->
      let body = Xml.to_string (article (500 + i)) in
      ignore (ok_exn "ingest" (Corpus.ingest corpus ~id:(Printf.sprintf "d%d" i) body)))
    (List.init n Fun.id)

let corpus_queries =
  [
    "//article[.contains(\"xml\")]";
    "//article[./section[./algorithm and ./paragraph[.contains(\"xml\" and \"streaming\")]]]";
    "//section[./title]";
  ]

let corpus_completeness_tag = function
  | Corpus.Complete -> "C"
  | Corpus.Partial { reason; score_bound } ->
    Printf.sprintf "P:%s:%Lx" reason (Int64.bits_of_float score_bound)

let corpus_fingerprint (r : Corpus.result) =
  let b = Buffer.create 256 in
  Buffer.add_string b
    (Printf.sprintf "served=%d/%d %s deg=%b\n" r.Corpus.served r.Corpus.total
       (corpus_completeness_tag r.Corpus.completeness)
       r.Corpus.degraded);
  List.iter
    (fun (a : Corpus.answer) ->
      Buffer.add_string b
        (Printf.sprintf "%s|%d|%Lx|%Lx|%d\n" (Corpus.answer_line a) a.Corpus.a_node
           (Int64.bits_of_float a.Corpus.a_sscore)
           (Int64.bits_of_float a.Corpus.a_kscore)
           a.Corpus.a_dropped))
    r.Corpus.answers;
  Buffer.contents b

let test_corpus_scatter_differential () =
  with_corpus ~shards:3 (fun corpus ->
      fill corpus 9;
      List.iter
        (fun algorithm ->
          List.iter
            (fun qs ->
              let q = parse qs in
              let fp executor =
                corpus_fingerprint
                  (ok_exn ("query " ^ qs)
                     (Corpus.query corpus ~algorithm ~use_cache:false ~executor ~k:10 q))
              in
              check_string
                (Printf.sprintf "%s %s" (Corpus.algorithm_to_string algorithm) qs)
                (fp Exec.Binary) (fp Exec.Auto))
            corpus_queries)
        [ Corpus.DPO; Corpus.SSO; Corpus.Hybrid ])

let test_corpus_shard_loss_differential () =
  (* a shard lost mid-scatter produces the same sound PARTIAL under
     either executor.  Two identically filled corpora so the strike
     bookkeeping of one run cannot leak into the other. *)
  let q = parse "//article[./section[./algorithm]]" in
  let result_of executor =
    with_corpus ~shards:3 (fun corpus ->
        fill corpus 9;
        Failpoint.reset ();
        (match Failpoint.activate_n "shard_probe" 1 with
        | Ok () -> ()
        | Error e -> Alcotest.failf "arm shard_probe: %s" e);
        let r =
          ok_exn "query under loss"
            (Corpus.query corpus ~use_cache:false ~executor ~k:10 q)
        in
        Failpoint.reset ();
        r)
  in
  let binary = result_of Exec.Binary and auto = result_of Exec.Auto in
  check_int "one shard lost" 2 binary.Corpus.served;
  (match binary.Corpus.completeness with
  | Corpus.Partial _ -> ()
  | Corpus.Complete -> Alcotest.fail "loss must report PARTIAL");
  check_string "identical partial merge" (corpus_fingerprint binary) (corpus_fingerprint auto)

(* ------------------------------------------------------------------ *)
(* Scratch column growth *)

(* A corpus that grows by appends hands the holistic filter a slightly
   larger document on nearly every query.  The per-domain stamp column
   must grow geometrically, or each of those queries reallocates the
   whole column.  A fresh domain starts with an empty column, and
   [Gc.allocated_bytes] counts the calling domain's allocations only. *)
let test_stamp_column_growth () =
  let doc_of fillers =
    Doc.of_tree
      (Xml.Element
         ( "r",
           [],
           List.init fillers (fun _ -> Xml.Element ("x", [], []))
           @ [ Xml.Element ("a", [], [ Xml.Element ("b", [], []) ]) ] ))
  in
  let inputs =
    List.init 50 (fun i ->
        let d = doc_of (2000 + (4 * i)) in
        (d, [| Doc.by_tag_name d "a"; Doc.by_tag_name d "b" |]))
  in
  let largest = List.fold_left (fun acc (d, _) -> max acc (Doc.size d)) 0 inputs in
  let anchors = [| None; Some (0, Query.Child) |] in
  let allocated =
    Domain.join
      (Domain.spawn (fun () ->
           let before = Gc.allocated_bytes () in
           List.iter
             (fun (d, candidates) ->
               let out = Twig.filter d ~anchors ~candidates ~tick:ignore in
               assert (Array.length out.(1) = 1))
             inputs;
           Gc.allocated_bytes () -. before))
  in
  let column = float_of_int (largest * (Sys.word_size / 8)) in
  if allocated > 8.0 *. column then
    Alcotest.failf "50 growing documents (largest %d elements) allocated %.0f bytes: %.1f columns"
      largest allocated (allocated /. column)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "twig"
    [
      ( "executor",
        [
          Alcotest.test_case "binary = holistic on exact and relaxed encodings" `Quick
            test_exec_differential;
          Alcotest.test_case "planner selection and fallback metrics" `Quick
            test_exec_metrics_and_fallback;
          Alcotest.test_case "fast path keeps the stage schedule" `Quick
            test_fast_path_preserves_failpoint_schedule;
          Alcotest.test_case "stamp column grows geometrically" `Quick test_stamp_column_growth;
        ] );
      ( "algorithms",
        [
          QCheck_alcotest.to_alcotest prop_executors_agree;
          QCheck_alcotest.to_alcotest prop_executors_agree_truncated;
          Alcotest.test_case "identical fault surfacing" `Quick
            test_executors_agree_under_failpoints;
        ] );
      ( "corpus",
        [
          Alcotest.test_case "scatter-gather differential" `Quick
            test_corpus_scatter_differential;
          Alcotest.test_case "shard-loss differential" `Quick
            test_corpus_shard_loss_differential;
        ] );
    ]
