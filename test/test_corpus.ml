(* Sharded corpus: scatter-gather equivalence and shard-loss chaos.

   Acceptance tests of the fault-isolated sharded corpus:
   - a healthy N-shard corpus answers byte-identically (paths, float
     bits, ordering, tie-breaks) to a 1-shard corpus and to a plain
     single-env corpus over the same documents, across DPO/SSO/Hybrid
     and all ranking schemes;
   - the threshold-algorithm cutoff skips shards only when skipping is
     exact (tie-breaks included);
   - chaos: a shard whose snapshot is bit-flipped opens down, a shard
     lost mid-query (shard_probe failpoint) is struck, and in both
     cases the merged answer is PARTIAL with shards=N-1/N attribution
     and a sound score bound (>= the true score of every answer the
     lost shard held); repeated losses quarantine the shard; RELOAD
     restores COMPLETE;
   - the answer cache is scoped by the full per-shard generation
     vector: a write to any one shard invalidates cached merges;
   - replication (R = 2): WAL shipping keeps followers holding the
     acked set (sync before the ack, async within a bounded drain), a
     replica lost mid-query or corrupt at load fails over so the
     answer stays COMPLETE and byte-identical to the healthy run, a
     torn follower WAL catches up from the primary (snapshot copy +
     WAL tail replay), and killing the primary mid-soak drops no acked
     write and degrades no answer;
   - disk faults (ENOSPC/EIO on the durability path) degrade the store
     to explicit read-only — typed refusal with a retry hint, reads
     unaffected — and a post-probation write or merge recovers it. *)

module Xml = Xmldom.Xml
module Doc = Xmldom.Doc
module Corpus = Flexpath.Corpus
module Ingest = Flexpath.Ingest
module Env = Flexpath.Env
module Error = Flexpath.Error
module Failpoint = Flexpath.Failpoint
module Answer = Flexpath.Answer
module Ranking = Flexpath.Ranking
module Guard = Flexpath.Guard
module Taskpool = Flexpath.Taskpool

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let ok_exn what = function
  | Ok v -> v
  | Error e -> Alcotest.failf "%s failed: %s" what (Error.to_string e)

let temp_prefix =
  let n = ref 0 in
  fun () ->
    incr n;
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "flexpath_corpus_%d_%d" (Unix.getpid ()) !n)

let remove_quiet path = try Sys.remove path with Sys_error _ -> ()

let with_corpus_paths ?(replicas = 1) ~shards f =
  let prefix = temp_prefix () in
  Fun.protect
    ~finally:(fun () ->
      for i = 0 to shards - 1 do
        remove_quiet (Printf.sprintf "%s.shard%d" prefix i);
        remove_quiet (Printf.sprintf "%s.shard%d.wal" prefix i);
        for j = 1 to replicas - 1 do
          remove_quiet (Printf.sprintf "%s.shard%d.r%d" prefix i j);
          remove_quiet (Printf.sprintf "%s.shard%d.r%d.wal" prefix i j)
        done
      done)
    (fun () -> f prefix)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path data =
  let oc = open_out_bin path in
  output_string oc data;
  close_out oc

(* ------------------------------------------------------------------ *)
(* Fixtures *)

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

(* Bodies as strings so corpus and baseline parse the same bytes. *)
let bodies n seed0 =
  List.init n (fun i -> (Printf.sprintf "d%d" i, Xml.to_string (article (seed0 + i))))

let queries =
  [
    "//article[.contains(\"xml\")]";
    "//article[./section[./algorithm and ./paragraph[.contains(\"xml\" and \"streaming\")]]]";
    "//section[./title]";
  ]

let parse_query s =
  match Tpq.Xpath.parse s with
  | Ok q -> q
  | Error { Tpq.Xpath.offset; message } -> Alcotest.failf "parse %s: %d: %s" s offset message

let fill corpus docs =
  List.iter (fun (id, body) -> ignore (ok_exn ("ingest " ^ id) (Corpus.ingest corpus ~id body))) docs

let schemes = [ Ranking.Structure_first; Ranking.Keyword_first; Ranking.Combined ]
let algorithms = [ Corpus.DPO; Corpus.SSO; Corpus.Hybrid ]

(* Byte-exact fingerprint of a corpus: rendered lines plus float bits
   and global tie-break ids, across algorithms x schemes x queries. *)
let corpus_fingerprint corpus =
  let b = Buffer.create 1024 in
  List.iter
    (fun algorithm ->
      List.iter
        (fun scheme ->
          List.iter
            (fun qs ->
              let q = parse_query qs in
              let r = ok_exn ("query " ^ qs) (Corpus.query corpus ~algorithm ~scheme ~k:10 q) in
              (match r.Corpus.completeness with
              | Corpus.Complete -> ()
              | Corpus.Partial _ -> Alcotest.failf "healthy corpus returned PARTIAL for %s" qs);
              check_int ("served " ^ qs) (Corpus.shard_count corpus) r.Corpus.served;
              List.iter
                (fun (a : Corpus.answer) ->
                  Buffer.add_string b
                    (Printf.sprintf "%s|%s|%s|%d|%Lx|%Lx\n"
                       (Corpus.algorithm_to_string algorithm)
                       (Ranking.to_string scheme) (Corpus.answer_line a) a.Corpus.a_node
                       (Int64.bits_of_float a.Corpus.a_sscore)
                       (Int64.bits_of_float a.Corpus.a_kscore))
                  )
                r.Corpus.answers)
            queries)
        schemes)
    algorithms;
  Buffer.contents b

(* The same fingerprint computed from a plain single-environment
   corpus (no sharding machinery at all), rendering answers through
   the same doc-relative convention. *)
let plain_fingerprint docs =
  let trees = List.map (fun (id, body) -> (id, ok_exn "parse_doc" (Ingest.parse_doc body))) docs in
  let env = Ingest.env (ok_exn "of_docs" (Ingest.of_docs trees)) in
  let doc = env.Env.doc in
  let spans =
    Doc.children doc (Doc.root doc)
    |> List.map (fun w ->
           (w, Doc.subtree_end doc w, Option.get (Doc.attribute doc w "id")))
  in
  let render (a : Answer.t) =
    let w, _, id =
      List.find (fun (w, e, _) -> w <= a.Answer.node && a.Answer.node < e) spans
    in
    let full = Doc.path_to_root doc a.Answer.node in
    let rel =
      if a.Answer.node = w then ""
      else
        (* strip "fx-corpus[1]/fx-doc[j]/" *)
        let i = String.index full '/' in
        let j = String.index_from full (i + 1) '/' in
        String.sub full (j + 1) (String.length full - j - 1)
    in
    let loc = if rel = "" then id else id ^ "/" ^ rel in
    let suffix =
      if a.Answer.dropped_predicates = 0 then "  exact"
      else Printf.sprintf "  (%d predicates relaxed)" a.Answer.dropped_predicates
    in
    Printf.sprintf "%s  ss=%.4f ks=%.4f%s" loc a.Answer.sscore a.Answer.kscore suffix
  in
  let b = Buffer.create 1024 in
  List.iter
    (fun algorithm ->
      List.iter
        (fun scheme ->
          List.iter
            (fun qs ->
              match Flexpath.run ~algorithm ~scheme env ~k:10 (parse_query qs) with
              | Error e -> Alcotest.failf "plain query %s failed: %s" qs (Error.to_string e)
              | Ok r ->
                List.iter
                  (fun (a : Answer.t) ->
                    Buffer.add_string b
                      (Printf.sprintf "%s|%s|%s|%d|%Lx|%Lx\n"
                         (Corpus.algorithm_to_string algorithm)
                         (Ranking.to_string scheme) (render a) a.Answer.node
                         (Int64.bits_of_float a.Answer.sscore)
                         (Int64.bits_of_float a.Answer.kscore)))
                  r.Flexpath.Common.answers)
            queries)
        schemes)
    algorithms;
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Scatter-gather equivalence *)

let test_sharded_equals_plain () =
  let docs = bodies 10 500 in
  let fp_plain = plain_fingerprint docs in
  List.iter
    (fun shards ->
      with_corpus_paths ~shards (fun prefix ->
          let c = ok_exn "open" (Corpus.open_corpus ~shards ~prefix ()) in
          Fun.protect
            ~finally:(fun () -> Corpus.close c)
            (fun () ->
              fill c docs;
              check_string
                (Printf.sprintf "%d-shard == plain single-env" shards)
                fp_plain (corpus_fingerprint c))))
    [ 1; 4 ]

let test_parallel_scatter_equals_sequential () =
  (* The taskpool scatter (probe_domains > 0) must be answer-invisible:
     healthy merged results are byte-identical — float bits, ordering,
     tie-breaks — to the strictly sequential scatter over the same
     on-disk corpus.  The threshold-algorithm floor is shared across
     concurrent probes, so a stale floor may only reduce pruning. *)
  let docs = bodies 12 1100 in
  let shards = 4 in
  with_corpus_paths ~shards (fun prefix ->
      (* Persist once; both corpora then open the same on-disk state
         (a reopen reconstructs cross-shard arrival order, so comparing
         pre-restart against post-restart would conflate that with the
         scatter strategy under test). *)
      (let c = ok_exn "open to fill" (Corpus.open_corpus ~shards ~prefix ()) in
       Fun.protect ~finally:(fun () -> Corpus.close c) (fun () -> fill c docs));
      let fp_sequential =
        let c = ok_exn "open sequential" (Corpus.open_corpus ~shards ~prefix ()) in
        Fun.protect
          ~finally:(fun () -> Corpus.close c)
          (fun () ->
            check_int "sequential scatter" 1 (Corpus.probe_parallelism c);
            corpus_fingerprint c)
      in
      let c =
        ok_exn "open parallel" (Corpus.open_corpus ~probe_domains:3 ~shards ~prefix ())
      in
      Fun.protect
        ~finally:(fun () -> Corpus.close c)
        (fun () ->
          check_int "parallel scatter" (min 3 (shards - 1) + 1) (Corpus.probe_parallelism c);
          check_string "parallel scatter == sequential" fp_sequential (corpus_fingerprint c)))

(* A writable server's workers all query through one scatter pool, so
   each caller must claim only its own batch's thunks, at every pool
   size.  Domain A's batch is held: its first thunk waits for B to
   return, its second for a release, and a third is queued behind
   them.  The main domain then runs batch B, which must return without
   running A's third thunk.  Every thunk must run in its own caller or
   a pool domain, never in the other caller.  While A's held thunks
   still occupy the pool's domains, so that only the caller claims, a
   raising thunk must end its batch: later thunks do not run. *)
let test_pool_runs_batches_in_caller_or_pool domains =
  let pool = Taskpool.create ~domains in
  let wait_for flag =
    let deadline = Unix.gettimeofday () +. 5.0 in
    while (not (Atomic.get flag)) && Unix.gettimeofday () < deadline do
      Unix.sleepf 0.001
    done
  in
  let a_held = Atomic.make false and b_returned = Atomic.make false in
  let release = Atomic.make false and a_returned = Atomic.make false in
  let ran_in = Array.make 4 (-1) in
  let here i = ran_in.(i) <- (Domain.self () :> int) in
  let a =
    Domain.spawn (fun () ->
        Taskpool.run pool
          [
            (fun () ->
              here 0;
              Atomic.set a_held true;
              wait_for b_returned);
            (fun () ->
              here 1;
              wait_for release);
            (fun () -> here 2);
          ];
        Atomic.set a_returned true;
        (Domain.self () :> int))
  in
  let size what = Printf.sprintf "%s (%d pool domains)" what domains in
  wait_for a_held;
  Taskpool.run pool [ (fun () -> here 3) ];
  check_bool (size "B returned while A is held") false (Atomic.get a_returned);
  check_int (size "B returned without running A's third thunk") (-1) ran_in.(2);
  let later = ref false in
  (match Taskpool.run pool [ (fun () -> raise Exit); (fun () -> later := true) ] with
  | () -> Alcotest.fail (size "exception swallowed")
  | exception Exit -> ());
  check_bool (size "no thunk runs after the exception") false !later;
  Atomic.set b_returned true;
  Atomic.set release true;
  let a_domain = Domain.join a and b_domain = (Domain.self () :> int) in
  List.iter
    (fun (i, what, other) ->
      check_bool (size (what ^ " ran")) true (ran_in.(i) >= 0);
      check_bool (size (what ^ " never ran in the other caller")) true (ran_in.(i) <> other))
    [
      (0, "A's first thunk", b_domain);
      (1, "A's held thunk", b_domain);
      (2, "A's third thunk", b_domain);
      (3, "B's thunk", a_domain);
    ];
  Taskpool.shutdown pool

let test_upsert_delete_equivalence () =
  (* Upserts move documents to the end of the global arrival order and
     deletes remove them — same as the unsharded corpus. *)
  let d1 = bodies 6 700 in
  with_corpus_paths ~shards:3 (fun prefix ->
      let c = ok_exn "open" (Corpus.open_corpus ~shards:3 ~prefix ()) in
      Fun.protect
        ~finally:(fun () -> Corpus.close c)
        (fun () ->
          fill c d1;
          let replacement = Xml.to_string (article 999) in
          ignore (ok_exn "upsert" (Corpus.ingest c ~id:"d2" replacement));
          ok_exn "delete" (Corpus.delete c ~id:"d4");
          let final =
            List.filter (fun (id, _) -> id <> "d2" && id <> "d4") d1 @ [ ("d2", replacement) ]
          in
          check_bool "arrival order" true (Corpus.ids c = List.map fst final);
          check_string "post-upsert/delete == plain" (plain_fingerprint final)
            (corpus_fingerprint c)))

let test_auto_ids_route_and_persist () =
  with_corpus_paths ~shards:4 (fun prefix ->
      let c = ok_exn "open" (Corpus.open_corpus ~shards:4 ~prefix ()) in
      let id1 = ok_exn "ingest" (Corpus.ingest c (Xml.to_string (article 1))) in
      let id2 = ok_exn "ingest" (Corpus.ingest c (Xml.to_string (article 2))) in
      check_string "first auto id" "doc-1" id1;
      check_string "second auto id" "doc-2" id2;
      check_int "routed shard" (Corpus.route ~shards:4 id1) (Corpus.shard_of_id c id1);
      Corpus.close c;
      (* Restart recovers both documents from the per-shard WALs and
         re-seeds the auto-id counter past them. *)
      let c = ok_exn "reopen" (Corpus.open_corpus ~shards:4 ~prefix ()) in
      Fun.protect
        ~finally:(fun () -> Corpus.close c)
        (fun () ->
          check_int "docs after restart" 2 (Corpus.doc_count c);
          let id3 = ok_exn "ingest" (Corpus.ingest c (Xml.to_string (article 3))) in
          check_string "auto id continues" "doc-3" id3))

(* The exact cutoff: K exact structural matches gathered from
   early-arrival documents let later-arrival shards be skipped, and
   the skip never changes the answer bytes. *)
let test_threshold_skip_exact () =
  let exact_doc = "<section><title>t</title></section>" in
  with_corpus_paths ~shards:2 (fun prefix ->
      let c = ok_exn "open" (Corpus.open_corpus ~shards:2 ~prefix ()) in
      Fun.protect
        ~finally:(fun () -> Corpus.close c)
        (fun () ->
          (* three early docs on shard 0, two late docs on shard 1 *)
          let on_shard s =
            let rec find i n acc =
              if n = 0 then List.rev acc
              else
                let id = Printf.sprintf "s%d-%d" s i in
                if Corpus.route ~shards:2 id = s then find (i + 1) (n - 1) (id :: acc)
                else find (i + 1) n acc
            in
            find 0 3 []
          in
          let early = on_shard 0 and late = List.filteri (fun i _ -> i < 2) (on_shard 1) in
          List.iter (fun id -> ignore (ok_exn "ingest" (Corpus.ingest c ~id exact_doc))) early;
          List.iter (fun id -> ignore (ok_exn "ingest" (Corpus.ingest c ~id exact_doc))) late;
          let q = parse_query "//section[./title]" in
          let r = ok_exn "query" (Corpus.query c ~k:3 q) in
          check_bool "complete" true (r.Corpus.completeness = Corpus.Complete);
          check_int "served counts skipped" 2 r.Corpus.served;
          let status_of ord =
            (List.find (fun rep -> rep.Corpus.r_ord = ord) r.Corpus.reports).Corpus.r_status
          in
          check_bool "shard 0 served" true (status_of 0 = Corpus.Served);
          check_bool "shard 1 skipped" true (status_of 1 = Corpus.Skipped);
          (* the three answers are the early-arrival documents *)
          check_bool "answers from early docs" true
            (List.for_all
               (fun (a : Corpus.answer) -> List.mem a.Corpus.a_doc early)
               r.Corpus.answers);
          check_int "k answers" 3 (List.length r.Corpus.answers)))

(* ------------------------------------------------------------------ *)
(* Chaos: shard loss *)

(* True per-answer scores over the full healthy corpus, for soundness
   checks: every answer the lost shard held must score at most the
   reported bound. *)
let true_scores corpus scheme qs =
  let r = ok_exn "healthy query" (Corpus.query corpus ~scheme ~use_cache:false ~k:50 (parse_query qs)) in
  List.map
    (fun (a : Corpus.answer) ->
      (a.Corpus.a_doc, Ranking.total scheme { sscore = a.Corpus.a_sscore; kscore = a.Corpus.a_kscore }))
    r.Corpus.answers

let check_partial_sound ~what ~lost_ord corpus r truth =
  let shards = Corpus.shard_count corpus in
  (match r.Corpus.completeness with
  | Corpus.Partial { reason = "shard-loss"; score_bound } ->
    (* sound: no answer living on the lost shard scores above the bound *)
    List.iter
      (fun (doc, total) ->
        if Corpus.shard_of_id corpus doc = lost_ord && total > score_bound +. 1e-9 then
          Alcotest.failf "%s: bound %.6f unsound, %s on lost shard scores %.6f" what score_bound
            doc total)
      truth
  | Corpus.Partial { reason; _ } -> Alcotest.failf "%s: unexpected partial reason %s" what reason
  | Corpus.Complete -> Alcotest.failf "%s: expected PARTIAL" what);
  check_int (what ^ ": served") (shards - 1) r.Corpus.served;
  check_int (what ^ ": total") shards r.Corpus.total;
  (* every returned answer comes from a surviving shard *)
  List.iter
    (fun (a : Corpus.answer) ->
      if Corpus.shard_of_id corpus a.Corpus.a_doc = lost_ord then
        Alcotest.failf "%s: answer %s from lost shard" what a.Corpus.a_doc)
    r.Corpus.answers

let test_corrupt_shard_snapshot () =
  let docs = bodies 12 900 in
  let shards = 3 in
  with_corpus_paths ~shards (fun prefix ->
      let c = ok_exn "open" (Corpus.open_corpus ~shards ~prefix ()) in
      fill c docs;
      for i = 0 to shards - 1 do
        ok_exn "merge" (Corpus.merge c i)
      done;
      let truth = true_scores c Ranking.Structure_first (List.hd queries) in
      Corpus.close c;
      (* bit-flip shard 1's snapshot inside the primary document
         section: integrity checking must fail the load *)
      let victim = Printf.sprintf "%s.shard%d" prefix 1 in
      let good = read_file victim in
      let pos = min 100 (String.length good - 1) in
      let flipped =
        String.mapi (fun i ch -> if i = pos then Char.chr (Char.code ch lxor 0x40) else ch) good
      in
      write_file victim flipped;
      let c = ok_exn "reopen with corrupt shard" (Corpus.open_corpus ~shards ~prefix ()) in
      Fun.protect
        ~finally:(fun () -> Corpus.close c)
        (fun () ->
          let h = Corpus.health c in
          check_bool "shard 1 down" false h.(1).Corpus.h_live;
          check_bool "shard 0 live" true h.(0).Corpus.h_live;
          check_bool "load error recorded" true (h.(1).Corpus.h_last_error <> None);
          let r =
            ok_exn "query over degraded corpus"
              (Corpus.query c ~use_cache:false ~k:10 (parse_query (List.hd queries)))
          in
          check_partial_sound ~what:"corrupt shard" ~lost_ord:1 c r truth;
          (* surviving shards still accept writes at full goodput;
             writes routed to the dead shard are refused cleanly *)
          let rec pick_id ~on i =
            let id = Printf.sprintf "w%d" i in
            if Corpus.shard_of_id c id = 1 = on then id else pick_id ~on (i + 1)
          in
          ignore
            (ok_exn "ingest while degraded"
               (Corpus.ingest c ~id:(pick_id ~on:false 0) (Xml.to_string (article 77))));
          (match Corpus.ingest c ~id:(pick_id ~on:true 0) (Xml.to_string (article 78)) with
          | Error (Error.Io_error _) -> ()
          | Error e -> Alcotest.failf "unexpected refusal: %s" (Error.to_string e)
          | Ok _ -> Alcotest.fail "write to a down shard must be refused");
          (* repair the snapshot, RELOAD the one shard: COMPLETE again *)
          write_file victim good;
          ok_exn "reload" (Corpus.reload c 1);
          let r2 =
            ok_exn "query after reload"
              (Corpus.query c ~use_cache:false ~k:10 (parse_query (List.hd queries)))
          in
          check_bool "complete after reload" true (r2.Corpus.completeness = Corpus.Complete);
          check_int "all shards served" shards r2.Corpus.served))

let test_shard_lost_mid_query_and_quarantine () =
  let docs = bodies 12 1100 in
  let shards = 3 in
  with_corpus_paths ~shards (fun prefix ->
      let c = ok_exn "open" (Corpus.open_corpus ~shards ~prefix ()) in
      Fun.protect
        ~finally:(fun () ->
          Failpoint.reset ();
          Corpus.close c)
        (fun () ->
          fill c docs;
          let qs = List.nth queries 2 in
          let truth = true_scores c Ranking.Structure_first qs in
          (* the first probe of the scatter dies: shard 0 is lost for
             this query only *)
          (match Failpoint.activate_n "shard_probe" 1 with
          | Ok () -> ()
          | Error m -> Alcotest.fail m);
          let r = ok_exn "query with lost probe" (Corpus.query c ~use_cache:false ~k:10 (parse_query qs)) in
          check_partial_sound ~what:"probe loss" ~lost_ord:0 c r truth;
          let h = Corpus.health c in
          check_int "strike recorded" 1 h.(0).Corpus.h_strikes;
          check_bool "not yet quarantined" false h.(0).Corpus.h_quarantined;
          (* a healthy query clears the strike *)
          ignore (ok_exn "healthy query" (Corpus.query c ~use_cache:false ~k:10 (parse_query qs)));
          check_int "strikes cleared" 0 (Corpus.health c).(0).Corpus.h_strikes;
          (* three consecutive losses trip the quarantine *)
          for _ = 1 to 3 do
            (match Failpoint.activate_n "shard_probe" 1 with
            | Ok () -> ()
            | Error m -> Alcotest.fail m);
            ignore (ok_exn "lossy query" (Corpus.query c ~use_cache:false ~k:10 (parse_query qs)))
          done;
          let h = Corpus.health c in
          check_bool "quarantined" true h.(0).Corpus.h_quarantined;
          check_bool "quarantined shard not live" false h.(0).Corpus.h_live;
          (* quarantined shard contributes a bound, not an error — and
             no failpoint is armed anymore *)
          let r = ok_exn "query under quarantine" (Corpus.query c ~use_cache:false ~k:10 (parse_query qs)) in
          check_partial_sound ~what:"quarantine" ~lost_ord:0 c r truth;
          (* writes to the quarantined shard are refused *)
          (match Corpus.ingest c ~id:"s0-0" "<a/>" with
          | Error (Error.Io_error _) when Corpus.shard_of_id c "s0-0" = 0 -> ()
          | Error e -> Alcotest.failf "unexpected refusal: %s" (Error.to_string e)
          | Ok _ ->
            if Corpus.shard_of_id c "s0-0" = 0 then Alcotest.fail "write to quarantined shard");
          (* RELOAD restores the shard and the COMPLETE answer *)
          ok_exn "reload" (Corpus.reload c 0);
          let r2 = ok_exn "query after reload" (Corpus.query c ~use_cache:false ~k:10 (parse_query qs)) in
          check_bool "complete after reload" true (r2.Corpus.completeness = Corpus.Complete)))

let test_all_shards_down () =
  with_corpus_paths ~shards:2 (fun prefix ->
      (* both snapshots are garbage *)
      write_file (prefix ^ ".shard0") "not a snapshot";
      write_file (prefix ^ ".shard1") "not a snapshot either";
      let c = ok_exn "open" (Corpus.open_corpus ~shards:2 ~prefix ()) in
      Fun.protect
        ~finally:(fun () -> Corpus.close c)
        (fun () ->
          let r = ok_exn "query" (Corpus.query c ~k:5 (parse_query (List.hd queries))) in
          check_int "nothing served" 0 r.Corpus.served;
          check_bool "no answers" true (r.Corpus.answers = []);
          match r.Corpus.completeness with
          | Corpus.Partial { reason = "shard-loss"; score_bound } ->
            (* //article has no structural predicates, so the
               data-independent maximum is exactly 0 — still sound *)
            check_bool "sound bound" true (score_bound >= 0.)
          | _ -> Alcotest.fail "expected shard-loss PARTIAL"))

(* With every shard down the query still plans (on the empty corpus's
   env) and scatters: each shard reports [Down] under the one
   data-independent bound, and an over-capacity query is refused with
   [Capacity] exactly as on a healthy corpus. *)
let test_all_shards_down_plans () =
  let over = parse_query "//a/b/c/d/e/f/g/h/i/j/k/l" in
  let expect_capacity what c =
    match Corpus.query c ~k:5 over with
    | Error (Error.Capacity _) -> ()
    | Ok _ -> Alcotest.failf "%s: over-capacity query answered" what
    | Error e -> Alcotest.failf "%s: expected Capacity, got %s" what (Error.to_string e)
  in
  with_corpus_paths ~shards:2 (fun prefix ->
      let c = ok_exn "open healthy" (Corpus.open_corpus ~shards:2 ~prefix ()) in
      Fun.protect
        ~finally:(fun () -> Corpus.close c)
        (fun () ->
          fill c (bodies 4 1900);
          expect_capacity "healthy" c));
  with_corpus_paths ~shards:2 (fun prefix ->
      write_file (prefix ^ ".shard0") "not a snapshot";
      write_file (prefix ^ ".shard1") "not a snapshot either";
      let c = ok_exn "open" (Corpus.open_corpus ~shards:2 ~prefix ()) in
      Fun.protect
        ~finally:(fun () -> Corpus.close c)
        (fun () ->
          expect_capacity "all down" c;
          let r = ok_exn "query" (Corpus.query c ~k:5 (parse_query (List.nth queries 2))) in
          match r.Corpus.completeness with
          | Corpus.Partial { reason = "shard-loss"; score_bound } ->
            check_bool "every shard reports Down under the partial's bound" true
              (List.for_all
                 (fun (rep : Corpus.shard_report) ->
                   (match rep.r_status with Corpus.Down _ -> true | _ -> false)
                   && rep.r_bound = score_bound)
                 r.Corpus.reports
              && List.length r.Corpus.reports = 2)
          | _ -> Alcotest.fail "expected shard-loss PARTIAL"))

(* ------------------------------------------------------------------ *)
(* Replication: WAL shipping, failover, catch-up, read-only degrade *)

let replica_of c ~ord ~idx = (Corpus.health c).(ord).Corpus.h_replicas.(idx)

(* [Some retry_after_ms] while shard [ord]'s primary is inside its
   read-only probation, read off the shard's health. *)
let readonly_hint c ord =
  Array.to_list (Corpus.health c).(ord).Corpus.h_replicas
  |> List.find_map (fun (r : Corpus.replica_health) ->
         if r.rh_role = Corpus.Primary && r.rh_readonly then Some r.rh_readonly_retry_ms else None)

let must = function Ok () -> () | Error m -> Alcotest.fail m

let test_replicated_equals_plain () =
  let docs = bodies 10 1700 in
  let fp_plain = plain_fingerprint docs in
  List.iter
    (fun ack_mode ->
      with_corpus_paths ~replicas:2 ~shards:3 (fun prefix ->
          let c =
            ok_exn "open" (Corpus.open_corpus ~replicas:2 ~ack_mode ~shards:3 ~prefix ())
          in
          Fun.protect
            ~finally:(fun () -> Corpus.close c)
            (fun () ->
              fill c docs;
              (match ack_mode with
              | Corpus.Sync ->
                (* sync shipping: every follower already holds the acked
                   set when the ack returns *)
                Array.iter
                  (fun h ->
                    Array.iter
                      (fun rh ->
                        check_bool "synced" true rh.Corpus.rh_synced;
                        check_int "docs agree" h.Corpus.h_docs rh.Corpus.rh_docs)
                      h.Corpus.h_replicas)
                  (Corpus.health c)
              | Corpus.Async ->
                (* async shipping: a follower with queued records is
                   excluded from the view ([!] in the vector) until
                   drained, so failover can never serve a stale copy *)
                check_bool "lagging follower excluded" true
                  (String.contains (Corpus.generation_vector c) '!');
                for ord = 0 to Corpus.shard_count c - 1 do
                  Corpus.ship_pending c ord
                done;
                Array.iter
                  (fun h ->
                    Array.iter
                      (fun rh ->
                        check_bool "drained and synced" true
                          (rh.Corpus.rh_lag = 0 && rh.Corpus.rh_synced))
                      h.Corpus.h_replicas)
                  (Corpus.health c));
              check_string
                (Printf.sprintf "replicated (%s) == plain single-env"
                   (Corpus.ack_mode_to_string ack_mode))
                fp_plain (corpus_fingerprint c))))
    [ Corpus.Sync; Corpus.Async ]

let test_probe_loss_failover_complete () =
  let docs = bodies 12 1900 in
  let shards = 2 in
  with_corpus_paths ~replicas:2 ~shards (fun prefix ->
      let c = ok_exn "open" (Corpus.open_corpus ~replicas:2 ~shards ~prefix ()) in
      Fun.protect
        ~finally:(fun () ->
          Failpoint.reset ();
          Corpus.close c)
        (fun () ->
          fill c docs;
          let q = parse_query (List.nth queries 2) in
          let healthy = ok_exn "healthy" (Corpus.query c ~use_cache:false ~k:10 q) in
          check_bool "healthy complete" true (healthy.Corpus.completeness = Corpus.Complete);
          (* the first probe attempt (shard 0's primary) dies mid-query:
             the probe retries on the follower under the same guard *)
          must (Failpoint.activate_n "shard_probe" 1);
          let r = ok_exn "failover query" (Corpus.query c ~use_cache:false ~k:10 q) in
          check_bool "still complete" true (r.Corpus.completeness = Corpus.Complete);
          check_int "all sets served" shards r.Corpus.served;
          check_int "one failover" 1 r.Corpus.failovers;
          check_bool "answers byte-identical to healthy" true
            (r.Corpus.answers = healthy.Corpus.answers);
          let rep0 = List.find (fun rep -> rep.Corpus.r_ord = 0) r.Corpus.reports in
          check_bool "shard 0 served" true (rep0.Corpus.r_status = Corpus.Served);
          check_int "served by the follower" 1 rep0.Corpus.r_replica;
          check_int "primary struck" 1 (replica_of c ~ord:0 ~idx:0).Corpus.rh_strikes;
          (* a healthy probe served by the primary clears its strike *)
          ignore (ok_exn "healthy again" (Corpus.query c ~use_cache:false ~k:10 q));
          check_int "strike cleared" 0 (replica_of c ~ord:0 ~idx:0).Corpus.rh_strikes))

let test_corrupt_primary_failover_and_catchup () =
  let docs = bodies 12 2100 in
  let shards = 2 in
  with_corpus_paths ~replicas:2 ~shards (fun prefix ->
      (* fill + merge so every replica owns a snapshot, then capture the
         healthy post-restart fingerprint (a reopen reconstructs
         cross-shard arrival order, so the baseline must be a reopen
         too) *)
      (let c = ok_exn "open to fill" (Corpus.open_corpus ~replicas:2 ~shards ~prefix ()) in
       Fun.protect
         ~finally:(fun () -> Corpus.close c)
         (fun () ->
           fill c docs;
           for i = 0 to shards - 1 do
             ok_exn "merge" (Corpus.merge c i)
           done));
      let fp_healthy =
        let c = ok_exn "reopen healthy" (Corpus.open_corpus ~replicas:2 ~shards ~prefix ()) in
        Fun.protect ~finally:(fun () -> Corpus.close c) (fun () -> corpus_fingerprint c)
      in
      (* bit-flip the PRIMARY's snapshot of shard 0: integrity checking
         fails its load, the follower is promoted, and the corpus still
         answers COMPLETE, byte-identical to the healthy run *)
      let victim = prefix ^ ".shard0" in
      let good = read_file victim in
      let pos = min 100 (String.length good - 1) in
      write_file victim
        (String.mapi (fun i ch -> if i = pos then Char.chr (Char.code ch lxor 0x40) else ch) good);
      let c = ok_exn "reopen corrupt" (Corpus.open_corpus ~replicas:2 ~shards ~prefix ()) in
      Fun.protect
        ~finally:(fun () -> Corpus.close c)
        (fun () ->
          let r0 = replica_of c ~ord:0 ~idx:0 and r1 = replica_of c ~ord:0 ~idx:1 in
          check_bool "replica 0 down" false r0.Corpus.rh_live;
          check_bool "load error recorded" true (r0.Corpus.rh_last_error <> None);
          check_bool "follower promoted" true (r1.Corpus.rh_role = Corpus.Primary);
          check_bool "set still live" true (Corpus.health c).(0).Corpus.h_live;
          check_string "one replica lost == healthy" fp_healthy (corpus_fingerprint c);
          (* writes routed to shard 0 keep flowing through the promoted
             primary *)
          let rec pick i =
            let id = Printf.sprintf "p%d" i in
            if Corpus.shard_of_id c id = 0 then id else pick (i + 1)
          in
          ignore
            (ok_exn "write to promoted primary"
               (Corpus.ingest c ~id:(pick 0) (Xml.to_string (article 321))));
          (* catch the dead replica up from the promoted primary: a real
             snapshot copy + WAL tail replay, past both the corruption
             and the write it missed *)
          ok_exn "reload replica" (Corpus.reload c ~replica:0 0);
          let r0 = replica_of c ~ord:0 ~idx:0 in
          check_bool "replica 0 back" true (r0.Corpus.rh_live && r0.Corpus.rh_synced);
          check_int "caught up past the corruption"
            (replica_of c ~ord:0 ~idx:1).Corpus.rh_docs r0.Corpus.rh_docs))

let test_torn_follower_wal_catchup () =
  let docs = bodies 8 2300 in
  with_corpus_paths ~replicas:2 ~shards:1 (fun prefix ->
      (let c = ok_exn "open" (Corpus.open_corpus ~replicas:2 ~shards:1 ~prefix ()) in
       Fun.protect ~finally:(fun () -> Corpus.close c) (fun () -> fill c docs));
      (* tear the follower's WAL mid-record: replay recovers the valid
         prefix, so the follower reopens live but behind the primary *)
      let fwal = prefix ^ ".shard0.r1.wal" in
      let bytes = read_file fwal in
      write_file fwal (String.sub bytes 0 (String.length bytes / 2));
      let c = ok_exn "reopen" (Corpus.open_corpus ~replicas:2 ~shards:1 ~prefix ()) in
      Fun.protect
        ~finally:(fun () -> Corpus.close c)
        (fun () ->
          let prim = replica_of c ~ord:0 ~idx:0 and rf = replica_of c ~ord:0 ~idx:1 in
          check_int "primary has all docs" (List.length docs) prim.Corpus.rh_docs;
          check_bool "follower live but behind" true
            (rf.Corpus.rh_live
            && (not rf.Corpus.rh_synced)
            && rf.Corpus.rh_docs < List.length docs);
          check_bool "out-of-sync marked in the vector" true
            (String.contains (Corpus.generation_vector c) '!');
          (* queries keep serving COMPLETE from the primary *)
          let r =
            ok_exn "query" (Corpus.query c ~use_cache:false ~k:10 (parse_query (List.hd queries)))
          in
          check_bool "complete" true (r.Corpus.completeness = Corpus.Complete);
          (* catch-up: primary snapshot copy + WAL tail replay to the
             primary's acked set *)
          ok_exn "catch up" (Corpus.reload c ~replica:1 0);
          let rf = replica_of c ~ord:0 ~idx:1 in
          check_bool "follower synced" true (rf.Corpus.rh_synced && rf.Corpus.rh_live);
          check_int "doc counts agree" (List.length docs) rf.Corpus.rh_docs;
          (* shipping resumes: a new write reaches both copies before ack *)
          ignore (ok_exn "ingest" (Corpus.ingest c ~id:"post" (Xml.to_string (article 77))));
          check_int "primary ahead" (List.length docs + 1)
            (replica_of c ~ord:0 ~idx:0).Corpus.rh_docs;
          check_int "follower keeps pace" (List.length docs + 1)
            (replica_of c ~ord:0 ~idx:1).Corpus.rh_docs))

let test_kill_primary_mid_soak () =
  let docs = bodies 10 2500 in
  let shards = 2 in
  with_corpus_paths ~replicas:2 ~shards (fun prefix ->
      let c = ok_exn "open" (Corpus.open_corpus ~replicas:2 ~shards ~prefix ()) in
      Fun.protect
        ~finally:(fun () ->
          Failpoint.reset ();
          Corpus.close c)
        (fun () ->
          fill c docs;
          let q = parse_query (List.nth queries 2) in
          (* three mid-query losses quarantine shard 0's primary — the
             permanent-kill model — and every one of them is absorbed by
             failover, never surfacing as PARTIAL *)
          for _ = 1 to 3 do
            must (Failpoint.activate_n "shard_probe" 1);
            let r = ok_exn "query during kill" (Corpus.query c ~use_cache:false ~k:10 q) in
            check_bool "complete during kill" true (r.Corpus.completeness = Corpus.Complete)
          done;
          check_bool "primary quarantined" true (replica_of c ~ord:0 ~idx:0).Corpus.rh_quarantined;
          check_bool "follower promoted" true
            ((replica_of c ~ord:0 ~idx:1).Corpus.rh_role = Corpus.Primary);
          (* soak: interleaved writes and queries against the one-copy
             set — zero PARTIAL, zero dropped writes *)
          let written = ref [] in
          for i = 0 to 9 do
            let id = Printf.sprintf "soak%d" i in
            ignore (ok_exn ("ingest " ^ id) (Corpus.ingest c ~id (Xml.to_string (article (3000 + i)))));
            written := id :: !written;
            let r = ok_exn "soak query" (Corpus.query c ~use_cache:false ~k:10 q) in
            check_bool "soak complete" true (r.Corpus.completeness = Corpus.Complete);
            check_int "soak served" shards r.Corpus.served
          done;
          let ids = Corpus.ids c in
          List.iter (fun id -> check_bool ("retained " ^ id) true (List.mem id ids)) !written;
          check_int "zero dropped" (List.length docs + 10) (Corpus.doc_count c);
          (* RELOAD the set: the quarantined replica reopens, catches up
             from the survivor, and the set is fully redundant again *)
          ok_exn "reload" (Corpus.reload c 0);
          let r0 = replica_of c ~ord:0 ~idx:0 and r1 = replica_of c ~ord:0 ~idx:1 in
          check_bool "replica 0 recovered" true
            (r0.Corpus.rh_live && r0.Corpus.rh_synced && not r0.Corpus.rh_quarantined);
          check_int "replica doc counts agree" r1.Corpus.rh_docs r0.Corpus.rh_docs;
          let r = ok_exn "query after reload" (Corpus.query c ~use_cache:false ~k:10 q) in
          check_bool "complete after reload" true (r.Corpus.completeness = Corpus.Complete)))

let test_disk_fault_readonly_degrade () =
  with_corpus_paths ~shards:1 (fun prefix ->
      let c = ok_exn "open" (Corpus.open_corpus ~probation_ms:300.0 ~shards:1 ~prefix ()) in
      Fun.protect
        ~finally:(fun () ->
          Failpoint.reset ();
          Corpus.close c)
        (fun () ->
          ignore (ok_exn "seed" (Corpus.ingest c ~id:"a" (Xml.to_string (article 1))));
          (* ENOSPC on the WAL append: the failing write reports Io_error
             and is in neither the corpus nor the log — never a silent
             non-durable ack *)
          must (Failpoint.activate_errno "wal_append" Unix.ENOSPC 1);
          (match Corpus.ingest c ~id:"b" (Xml.to_string (article 2)) with
          | Error (Error.Io_error _) -> ()
          | Error e -> Alcotest.failf "expected Io_error, got %s" (Error.to_string e)
          | Ok _ -> Alcotest.fail "ENOSPC write must fail");
          check_bool "failed write absent" false (List.mem "b" (Corpus.ids c));
          (* the store is now explicitly read-only: the typed refusal
             with a retry hint (wire READONLY, exit code 7) *)
          (match Corpus.ingest c ~id:"b" (Xml.to_string (article 2)) with
          | Error (Error.Readonly { retry_after_ms; _ } as e) ->
            check_bool "positive hint" true (retry_after_ms >= 1);
            check_int "exit code" 7 (Error.exit_code e)
          | Error e -> Alcotest.failf "expected Readonly, got %s" (Error.to_string e)
          | Ok _ -> Alcotest.fail "degraded store must refuse writes");
          check_bool "hint surfaced" true (readonly_hint c 0 <> None);
          check_bool "health flag" true (replica_of c ~ord:0 ~idx:0).Corpus.rh_readonly;
          (* reads keep serving the acked corpus *)
          let r =
            ok_exn "read while degraded"
              (Corpus.query c ~use_cache:false ~k:5 (parse_query (List.hd queries)))
          in
          check_bool "reads complete" true (r.Corpus.completeness = Corpus.Complete);
          (* after probation the next write is the automatic re-probe;
             the healthy disk clears the degrade *)
          Unix.sleepf 0.4;
          ignore (ok_exn "re-probe write" (Corpus.ingest c ~id:"b" (Xml.to_string (article 2))));
          check_bool "degrade cleared" true (readonly_hint c 0 = None);
          check_bool "health cleared" false (replica_of c ~ord:0 ~idx:0).Corpus.rh_readonly;
          (* EIO on the snapshot-publishing rename during a merge arms
             the same degrade; a post-probation merge recovers *)
          must (Failpoint.activate_errno "storage_rename" Unix.EIO 1);
          (match Corpus.merge c 0 with
          | Error (Error.Io_error _) -> ()
          | Error e -> Alcotest.failf "expected Io_error, got %s" (Error.to_string e)
          | Ok () -> Alcotest.fail "EIO merge must fail");
          (match Corpus.ingest c ~id:"d" (Xml.to_string (article 3)) with
          | Error (Error.Readonly _) -> ()
          | Error e -> Alcotest.failf "expected Readonly, got %s" (Error.to_string e)
          | Ok _ -> Alcotest.fail "degraded store must refuse writes");
          Unix.sleepf 0.4;
          ok_exn "recovered merge" (Corpus.merge c 0);
          check_bool "cleared after merge" true (readonly_hint c 0 = None)))

(* ------------------------------------------------------------------ *)
(* Budget and cache *)

let test_budget_partial_is_sound () =
  let docs = bodies 10 1300 in
  with_corpus_paths ~shards:2 (fun prefix ->
      let c = ok_exn "open" (Corpus.open_corpus ~shards:2 ~prefix ()) in
      Fun.protect
        ~finally:(fun () -> Corpus.close c)
        (fun () ->
          fill c docs;
          let qs = List.nth queries 1 in
          let full = ok_exn "full" (Corpus.query c ~use_cache:false ~k:10 (parse_query qs)) in
          let budget = Guard.budget ~tuple_budget:1 () in
          let r = ok_exn "tiny budget" (Corpus.query c ~budget ~use_cache:false ~k:10 (parse_query qs)) in
          match r.Corpus.completeness with
          | Corpus.Complete -> Alcotest.fail "expected budget PARTIAL"
          | Corpus.Partial { score_bound; _ } ->
            (* every full answer missing from the truncated result
               scores at most the bound *)
            let kept = List.map (fun a -> a.Corpus.a_node) r.Corpus.answers in
            List.iter
              (fun (a : Corpus.answer) ->
                if not (List.mem a.Corpus.a_node kept) then begin
                  let total =
                    Ranking.total Ranking.Structure_first
                      { sscore = a.Corpus.a_sscore; kscore = a.Corpus.a_kscore }
                  in
                  if total > score_bound +. 1e-9 then
                    Alcotest.failf "unsound budget bound %.6f < %.6f" score_bound total
                end)
              full.Corpus.answers))

let test_cache_scoped_by_generation_vector () =
  let docs = bodies 6 1500 in
  with_corpus_paths ~shards:3 (fun prefix ->
      let c = ok_exn "open" (Corpus.open_corpus ~shards:3 ~prefix ()) in
      Fun.protect
        ~finally:(fun () -> Corpus.close c)
        (fun () ->
          fill c docs;
          let q = parse_query "//section[./title]" in
          let r1 = ok_exn "q1" (Corpus.query c ~k:20 q) in
          let r2 = ok_exn "q2" (Corpus.query c ~k:20 q) in
          let hits_after_repeat = (Corpus.cache_counters c).Flexpath.Qcache.hits in
          check_bool "repeat hits the cache" true (hits_after_repeat > 0);
          check_bool "cached answer identical" true (r1 = r2);
          let v1 = Corpus.generation_vector c in
          (* a write to ONE shard must change the vector and miss *)
          ignore (ok_exn "ingest" (Corpus.ingest c (Xml.to_string (article 42))));
          let v2 = Corpus.generation_vector c in
          check_bool "generation vector changed" true (v1 <> v2);
          let r3 = ok_exn "q3" (Corpus.query c ~k:20 q) in
          check_bool "post-write result is fresh" true
            (List.length r3.Corpus.answers >= List.length r1.Corpus.answers)))

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "corpus"
    [
      ( "equivalence",
        [
          Alcotest.test_case "sharded == plain single-env (1 and 4 shards)" `Slow
            test_sharded_equals_plain;
          Alcotest.test_case "parallel scatter == sequential scatter" `Slow
            test_parallel_scatter_equals_sequential;
          Alcotest.test_case "pool runs each batch in its caller or the pool (0, 1 domains)"
            `Quick (fun () -> List.iter test_pool_runs_batches_in_caller_or_pool [ 0; 1 ]);
          Alcotest.test_case "upsert/delete keeps equivalence" `Slow test_upsert_delete_equivalence;
          Alcotest.test_case "auto ids route and persist" `Quick test_auto_ids_route_and_persist;
          Alcotest.test_case "threshold-algorithm skip is exact" `Quick test_threshold_skip_exact;
        ] );
      ( "chaos",
        [
          Alcotest.test_case "corrupt snapshot: PARTIAL then RELOAD" `Slow
            test_corrupt_shard_snapshot;
          Alcotest.test_case "probe loss, strikes, quarantine, RELOAD" `Slow
            test_shard_lost_mid_query_and_quarantine;
          Alcotest.test_case "all shards down" `Quick test_all_shards_down;
          Alcotest.test_case "all shards down: plans and refuses over-capacity" `Quick
            test_all_shards_down_plans;
        ] );
      ( "replication",
        [
          Alcotest.test_case "replicated (sync and async) == plain single-env" `Slow
            test_replicated_equals_plain;
          Alcotest.test_case "probe loss fails over: COMPLETE, byte-identical" `Slow
            test_probe_loss_failover_complete;
          Alcotest.test_case "corrupt primary: promotion, then catch-up" `Slow
            test_corrupt_primary_failover_and_catchup;
          Alcotest.test_case "torn follower WAL: catch-up resyncs" `Quick
            test_torn_follower_wal_catchup;
          Alcotest.test_case "kill primary mid-soak: zero PARTIAL, zero dropped" `Slow
            test_kill_primary_mid_soak;
          Alcotest.test_case "ENOSPC/EIO: read-only degrade and recovery" `Quick
            test_disk_fault_readonly_degrade;
        ] );
      ( "budget+cache",
        [
          Alcotest.test_case "budget PARTIAL bound is sound" `Quick test_budget_partial_is_sound;
          Alcotest.test_case "cache scoped by generation vector" `Quick
            test_cache_scoped_by_generation_vector;
        ] );
    ]
