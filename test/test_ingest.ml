(* Live ingestion: WAL durability and merge equivalence.

   Acceptance tests of the ingest subsystem:
   - an incrementally grown corpus (Doc.append_trees + Index.extend +
     Stats.extend) answers queries identically — same nodes, same
     float bits — to an env rebuilt offline over the union corpus,
     across DPO/SSO/Hybrid and cached/uncached paths, including under
     random add/upsert/delete interleavings (QCheck);
   - the WAL corruption corpus: truncating the log at every byte and
     flipping a bit in every byte region (magic, record header, body,
     CRC) makes replay stop at the last valid record — never a resync,
     never an exception;
   - a store killed at any wal_*/merge_*/storage_* failpoint and
     reopened from disk recovers exactly the acknowledged document
     set. *)

module Xml = Xmldom.Xml
module Doc = Xmldom.Doc
module Ingest = Flexpath.Ingest
module Wal = Flexpath.Wal
module Env = Flexpath.Env
module Error = Flexpath.Error
module Failpoint = Flexpath.Failpoint
module Answer = Flexpath.Answer
module Qcache = Flexpath.Qcache

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let ok_exn what = function
  | Ok v -> v
  | Error e -> Alcotest.failf "%s failed: %s" what (Error.to_string e)

let temp_name =
  let n = ref 0 in
  fun suffix ->
    incr n;
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "flexpath_ingest_%d_%d%s" (Unix.getpid ()) !n suffix)

let write_file path data =
  let oc = open_out_bin path in
  output_string oc data;
  close_out oc

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let remove_quiet path = try Sys.remove path with Sys_error _ -> ()

(* A store on fresh temp paths; [f] gets the paths so it can close and
   reopen to simulate restarts. *)
let with_store_paths f =
  let snapshot = temp_name ".env" in
  let wal = temp_name ".wal" in
  Fun.protect
    ~finally:(fun () ->
      remove_quiet snapshot;
      remove_quiet wal)
    (fun () -> f ~snapshot ~wal)

(* ------------------------------------------------------------------ *)
(* Fixture documents: small articles featuring the paper's keywords. *)

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

let queries =
  [
    "//article[.contains(\"xml\")]";
    "//article[./section[./algorithm and ./paragraph[.contains(\"xml\" and \"streaming\")]]]";
    "//section[./title]";
  ]

(* Byte-exact fingerprint of query results over an env: node paths,
   exact float bits, across every algorithm, uncached and cached (the
   second cached run hits the answer tier). *)
let fingerprint env =
  let b = Buffer.create 256 in
  List.iter
    (fun algorithm ->
      let cache = Qcache.create () in
      List.iter
        (fun q ->
          List.iter
            (fun cache ->
              match Flexpath.top_k_xpath ?cache ~algorithm env ~k:10 q with
              | Error e -> Alcotest.failf "query %s failed: %s" q (Error.to_string e)
              | Ok answers ->
                List.iter
                  (fun (a : Answer.t) ->
                    Buffer.add_string b
                      (Printf.sprintf "%s|%s|%Lx|%Lx|%d\n"
                         (Flexpath.algorithm_to_string algorithm)
                         (Doc.path_to_root env.Env.doc a.node)
                         (Int64.bits_of_float a.sscore) (Int64.bits_of_float a.kscore)
                         a.dropped_predicates))
                  answers)
            [ None; Some cache; Some cache ])
        queries)
    Flexpath.all_algorithms;
  Buffer.contents b

let check_corpus_equal what fresh incr =
  check_bool (what ^ ": ids") true (Ingest.ids fresh = Ingest.ids incr);
  check_string
    (what ^ ": corpus tree")
    (Xml.to_string (Doc.to_tree (Ingest.env fresh).Env.doc))
    (Xml.to_string (Doc.to_tree (Ingest.env incr).Env.doc));
  check_string (what ^ ": query fingerprint") (fingerprint (Ingest.env fresh))
    (fingerprint (Ingest.env incr))

(* ------------------------------------------------------------------ *)
(* Merge equivalence. *)

let test_incremental_equals_rebuild () =
  let docs = List.init 6 (fun i -> (Printf.sprintf "d%d" i, article (100 + i))) in
  let incr =
    List.fold_left
      (fun corpus (id, tree) -> ok_exn "add" (Ingest.add corpus ~id tree))
      (ok_exn "empty" (Ingest.empty ()))
      docs
  in
  let fresh = ok_exn "of_docs" (Ingest.of_docs docs) in
  check_corpus_equal "incremental growth" fresh incr

(* The extended index is value-identical to a fresh one, not merely
   equivalent on sampled queries: token counts, posting lists and every
   element's subtree token range agree. *)
let test_extend_internals () =
  let module Index = Fulltext.Index in
  let docs = List.init 4 (fun i -> (Printf.sprintf "d%d" i, article (200 + i))) in
  let incr =
    List.fold_left
      (fun corpus (id, tree) -> ok_exn "add" (Ingest.add corpus ~id tree))
      (ok_exn "empty" (Ingest.empty ()))
      docs
  in
  let fresh = ok_exn "of_docs" (Ingest.of_docs docs) in
  let fi = (Ingest.env fresh).Env.index and ii = (Ingest.env incr).Env.index in
  check_int "n_tokens" (Index.n_tokens fi) (Index.n_tokens ii);
  check_int "distinct terms" (Index.distinct_terms fi) (Index.distinct_terms ii);
  List.iter
    (fun w ->
      check_bool ("postings for " ^ w) true (Index.term_positions fi w = Index.term_positions ii w))
    [ "xml"; "streaming"; "algorithm"; "the"; "absent-term" ];
  let fd = (Ingest.env fresh).Env.doc in
  check_int "doc size" (Doc.size fd) (Doc.size (Ingest.env incr).Env.doc);
  for e = 0 to Doc.size fd - 1 do
    if Index.tok_range fi e <> Index.tok_range ii e then
      Alcotest.failf "tok_range differs at element %d" e
  done;
  let fs = (Ingest.env fresh).Env.stats and is_ = (Ingest.env incr).Env.stats in
  List.iter
    (fun t ->
      check_int ("#(" ^ t ^ ")") (Stats.count_tag fs t) (Stats.count_tag is_ t);
      List.iter
        (fun t2 ->
          check_int
            (Printf.sprintf "#pc(%s,%s)" t t2)
            (Stats.count_pc fs t t2) (Stats.count_pc is_ t t2);
          check_int
            (Printf.sprintf "#ad(%s,%s)" t t2)
            (Stats.count_ad fs t t2) (Stats.count_ad is_ t t2))
        [ "article"; "section"; "paragraph"; "title" ])
    [ "fx-corpus"; "fx-doc"; "article"; "section"; "paragraph"; "algorithm" ]

(* A splice is a fresh build.  A delete or upsert splices one
   document's subtree out of the arena, index and statistics; each must
   then hold, field by field, what [Ingest.of_docs] over the surviving
   documents builds.  Tags are compared by name, because the spliced
   arena keeps its intern table (and with it the old tag numbering and
   tags no element uses any more).  The first document holds the only
   occurrences of one word and one tag, so deleting it must drop both;
   a wordless document checks a splice that moves no token. *)
let test_splice_internals () =
  let module Index = Fulltext.Index in
  let first =
    Xml.Element
      ( "article",
        [],
        [
          Xml.Element ("title", [], [ Xml.Text "Streaming XML, the quokka way" ]);
          Xml.Element ("erratum", [ ("n", "1") ], [ Xml.Text "an xml algorithm" ]);
        ] )
  in
  let wordless = Xml.Element ("article", [], [ Xml.Element ("title", [], []) ]) in
  let docs =
    (("d0", first) :: List.init 4 (fun i -> (Printf.sprintf "d%d" (i + 1), article (800 + i))))
    @ [ ("quiet", wordless); ("d5", article 804) ]
  in
  let grown =
    List.fold_left
      (fun corpus (id, tree) -> ok_exn "add" (Ingest.add corpus ~id tree))
      (ok_exn "empty" (Ingest.empty ()))
      docs
  in
  let gd = (Ingest.env grown).Env.doc in
  let names = List.sort_uniq compare (List.init (Doc.size gd) (Doc.tag_name gd)) in
  let words =
    List.init (Doc.chunk_count gd) (fun c -> Fulltext.Tokenizer.tokens (Doc.chunk_text gd c))
    |> List.concat |> List.sort_uniq compare
  in
  check_bool "the lone word and tag are in the grown corpus" true
    (List.mem "quokka" words && List.mem "erratum" names);
  let estimates =
    List.map Tpq.Xpath.parse_exn
      [
        "//*[./title]";
        "//*/paragraph";
        "//*//paragraph";
        "//section[./*]";
        "//article//*";
        "//fx-corpus//*";
        "//*//*";
      ]
  in
  let check_splice what spliced surviving =
    let fresh = ok_exn "of_docs" (Ingest.of_docs surviving) in
    check_corpus_equal what fresh spliced;
    check_bool (what ^ ": boundary column") true (Ingest.spans fresh = Ingest.spans spliced);
    let fe = Ingest.env fresh and se = Ingest.env spliced in
    let fd = fe.Env.doc and sd = se.Env.doc in
    let fi = fe.Env.index and si = se.Env.index in
    let fs = fe.Env.stats and ss = se.Env.stats in
    check_int (what ^ ": size") (Doc.size fd) (Doc.size sd);
    for e = 0 to Doc.size fd - 1 do
      if
        Doc.post fd e <> Doc.post sd e
        || Doc.level fd e <> Doc.level sd e
        || Doc.parent fd e <> Doc.parent sd e
        || Doc.subtree_end fd e <> Doc.subtree_end sd e
        || Doc.tag_name fd e <> Doc.tag_name sd e
        || Doc.attributes fd e <> Doc.attributes sd e
        || Doc.path_to_root fd e <> Doc.path_to_root sd e
        || Index.tok_range fi e <> Index.tok_range si e
      then Alcotest.failf "%s: element %d differs" what e
    done;
    check_int (what ^ ": chunks") (Doc.chunk_count fd) (Doc.chunk_count sd);
    for c = 0 to Doc.chunk_count fd - 1 do
      if Doc.chunk_owner fd c <> Doc.chunk_owner sd c || Doc.chunk_text fd c <> Doc.chunk_text sd c
      then Alcotest.failf "%s: chunk %d differs" what c
    done;
    check_bool (what ^ ": the intern table keeps every tag") true
      (Xmldom.Tag.count (Doc.tags sd) >= Xmldom.Tag.count (Doc.tags fd));
    check_int (what ^ ": n_tokens") (Index.n_tokens fi) (Index.n_tokens si);
    check_int (what ^ ": distinct terms") (Index.distinct_terms fi) (Index.distinct_terms si);
    List.iter
      (fun w ->
        if Index.term_positions fi w <> Index.term_positions si w then
          Alcotest.failf "%s: postings for %s differ" what w)
      words;
    check_bool (what ^ ": index marshals to the same bytes") true
      (Marshal.to_string (Index.to_portable fi) [] = Marshal.to_string (Index.to_portable si) []);
    check_int (what ^ ": total elements") (Stats.total_elems fs) (Stats.total_elems ss);
    List.iter
      (fun t ->
        if Doc.by_tag_name fd t <> Doc.by_tag_name sd t then
          Alcotest.failf "%s: by_tag %s differs" what t;
        check_int (Printf.sprintf "%s: #(%s)" what t) (Stats.count_tag fs t) (Stats.count_tag ss t);
        List.iter
          (fun t2 ->
            if
              Stats.count_pc fs t t2 <> Stats.count_pc ss t t2
              || Stats.count_ad fs t t2 <> Stats.count_ad ss t t2
            then Alcotest.failf "%s: #pc/#ad(%s,%s) differ" what t t2)
          names)
      names;
    (* Wildcard estimates read the per-tag child, descendant and depth
       totals, which no count above exposes. *)
    List.iter
      (fun q ->
        let bits f = Int64.bits_of_float (f q) in
        if
          bits (Stats.estimate_answers fs) <> bits (Stats.estimate_answers ss)
          || bits (Stats.estimate_matches fs) <> bits (Stats.estimate_matches ss)
        then Alcotest.failf "%s: estimates for %s differ" what (Tpq.Xpath.to_string q))
      estimates
  in
  let without ids = List.filter (fun (id, _) -> not (List.mem id ids)) docs in
  let delete ids =
    List.fold_left (fun corpus id -> ok_exn "remove" (Ingest.remove corpus ~id)) grown ids
  in
  let upsert id tree = ok_exn "upsert" (Ingest.add grown ~id tree) in
  let all_but_last = List.filter (fun id -> id <> "d5") (List.map fst docs) in
  check_splice "delete the first" (delete [ "d0" ]) (without [ "d0" ]);
  check_splice "delete a middle" (delete [ "d2" ]) (without [ "d2" ]);
  check_splice "delete the last" (delete [ "d5" ]) (without [ "d5" ]);
  check_splice "delete the wordless" (delete [ "quiet" ]) (without [ "quiet" ]);
  check_splice "upsert the first" (upsert "d0" (article 900))
    (without [ "d0" ] @ [ ("d0", article 900) ]);
  check_splice "upsert the last" (upsert "d5" (article 901))
    (without [ "d5" ] @ [ ("d5", article 901) ]);
  check_splice "delete all but one" (delete all_but_last) (without all_but_last);
  check_splice "delete all" (delete (List.map fst docs)) []

(* The write path's allocation, a deterministic cost gate: a delete or
   an upsert of one document splices, so it allocates within a small
   factor of appending that document to the same corpus, at any corpus
   size.  A rebuild of the corpus would allocate tens of times more.
   Words are minor + major - promoted ([Gc.counters]); each figure is
   the median of five runs, each after a full major collection. *)
let test_write_allocation () =
  let words f =
    let once () =
      Gc.full_major ();
      let m0, p0, j0 = Gc.counters () in
      ignore (Sys.opaque_identity (f ()));
      let m1, p1, j1 = Gc.counters () in
      m1 -. m0 +. (j1 -. j0) -. (p1 -. p0)
    in
    let runs = List.sort Float.compare (List.init 5 (fun _ -> once ())) in
    List.nth runs 2
  in
  List.iter
    (fun n ->
      let docs = List.init n (fun i -> (Printf.sprintf "d%d" i, article (1000 + i))) in
      let corpus = ok_exn "of_docs" (Ingest.of_docs docs) in
      let id = Printf.sprintf "d%d" (n / 2) in
      let tree = List.assoc id docs in
      let append = words (fun () -> Ingest.add corpus ~id:"probe" tree) in
      let delete = words (fun () -> Ingest.remove corpus ~id) in
      let upsert = words (fun () -> Ingest.add corpus ~id tree) in
      let within what ratio limit =
        if ratio > limit then
          Alcotest.failf "%d documents: a %s allocated %.1fx an append's words (%.0f), limit %.0fx"
            n what ratio append limit
      in
      within "delete" (delete /. append) 2.0;
      within "upsert" (upsert /. append) 4.0)
    [ 50; 400 ]

let test_upsert_delete_equivalence () =
  let t1 = article 301 and t2 = article 302 and t3 = article 303 and t4 = article 304 in
  let corpus = ok_exn "empty" (Ingest.empty ()) in
  let corpus = ok_exn "add a" (Ingest.add corpus ~id:"a" t1) in
  let corpus = ok_exn "add b" (Ingest.add corpus ~id:"b" t2) in
  let corpus = ok_exn "upsert a" (Ingest.add corpus ~id:"a" t3) in
  let corpus = ok_exn "delete b" (Ingest.remove corpus ~id:"b") in
  let corpus = ok_exn "add c" (Ingest.add corpus ~id:"c" t4) in
  (* Upsert moves the document to the end, delete removes it. *)
  let fresh = ok_exn "of_docs" (Ingest.of_docs [ ("a", t3); ("c", t4) ]) in
  check_corpus_equal "upsert/delete" fresh corpus

(* The document-boundary column: each row's range is its wrapper's
   subtree; an incrementally grown corpus carries the same column as an
   offline rebuild and a snapshot reload; [locate] renders a node by its
   document and its path below the wrapper. *)
let test_boundary_column () =
  let t1 = article 701 and t2 = article 702 and t3 = article 703 in
  let corpus = ok_exn "empty" (Ingest.empty ()) in
  let corpus = ok_exn "add a" (Ingest.add corpus ~id:"a" t1) in
  let corpus = ok_exn "add b" (Ingest.add corpus ~id:"b" t2) in
  let corpus = ok_exn "add c" (Ingest.add corpus ~id:"c" t3) in
  let corpus = ok_exn "upsert b" (Ingest.add corpus ~id:"b" t2) in
  let fresh = ok_exn "of_docs" (Ingest.of_docs [ ("a", t1); ("c", t3); ("b", t2) ]) in
  let reloaded = ok_exn "of_env" (Ingest.of_env (Ingest.env corpus)) in
  check_bool "incremental column = offline column" true (Ingest.spans corpus = Ingest.spans fresh);
  check_bool "reloaded column = offline column" true (Ingest.spans reloaded = Ingest.spans fresh);
  check_int "doc_count" 3 (Ingest.doc_count corpus);
  check_bool "mem" true (Ingest.mem corpus "c" && not (Ingest.mem corpus "z"));
  let doc = (Ingest.env corpus).Env.doc in
  let check_loc = Alcotest.(check (pair string string)) in
  Array.iteri
    (fun i (s : Ingest.span) ->
      check_int "range is the wrapper's subtree" (Doc.subtree_end doc s.first) s.stop;
      check_bool "find" true
        (Ingest.find corpus s.first = Some i && Ingest.find corpus (s.stop - 1) = Some i);
      check_loc "wrapper renders as the bare id" (s.id, "") (Ingest.locate corpus s.first);
      check_loc "document root" (s.id, "article[1]") (Ingest.locate corpus (s.first + 1));
      let id, path = Ingest.locate corpus (s.first + 2) in
      check_bool "inner node: its path below the wrapper" true
        (id = s.id
        && String.starts_with ~prefix:"article[1]/" path
        && String.ends_with ~suffix:("]/" ^ path) (Doc.path_to_root doc (s.first + 2))))
    (Ingest.spans corpus);
  check_bool "root is outside every document" true (Ingest.find corpus 0 = None);
  check_loc "root renders as its tag" ("", "fx-corpus") (Ingest.locate corpus 0)

(* Random op interleavings against an assoc-list model. *)
let prop_random_ops =
  let open QCheck2.Gen in
  let gen_ops = list_size (1 -- 10) (pair (0 -- 3) (pair bool (0 -- 1000))) in
  QCheck2.Test.make ~name:"random add/upsert/delete == offline rebuild" ~count:100 gen_ops
    (fun ops ->
      let ids = [| "a"; "b"; "c"; "d" |] in
      let corpus = ref (ok_exn "empty" (Ingest.empty ())) in
      let model = ref [] in
      List.iter
        (fun (i, (is_delete, seed)) ->
          let id = ids.(i) in
          if is_delete then begin
            if List.mem_assoc id !model then begin
              corpus := ok_exn "remove" (Ingest.remove !corpus ~id);
              model := List.filter (fun (x, _) -> x <> id) !model
            end
          end
          else begin
            let tree = article seed in
            corpus := ok_exn "add" (Ingest.add !corpus ~id tree);
            model := List.filter (fun (x, _) -> x <> id) !model @ [ (id, tree) ]
          end)
        ops;
      let fresh = ok_exn "of_docs" (Ingest.of_docs !model) in
      Ingest.ids fresh = Ingest.ids !corpus
      && fingerprint (Ingest.env fresh) = fingerprint (Ingest.env !corpus))

(* ------------------------------------------------------------------ *)
(* WAL codec and corruption corpus. *)

let sample_records =
  [
    Wal.Add { id = "a"; xml = "<article><title>XML streaming</title></article>" };
    Wal.Delete { id = "a" };
    Wal.Add { id = "doc-0"; xml = "<r><p>hello world</p></r>" };
    Wal.Add { id = "b.2_x"; xml = "<r/>" };
  ]

let image records = Wal.magic ^ String.concat "" (List.map Wal.encode records)

let test_wal_codec_roundtrip () =
  let replay =
    match Wal.decode (image sample_records) with
    | Ok r -> r
    | Error c -> Alcotest.failf "decode failed: %s" (Error.corruption_to_string c)
  in
  check_int "record count" (List.length sample_records) (List.length replay.Wal.records);
  check_bool "records roundtrip" true (replay.Wal.records = sample_records);
  check_int "no dropped bytes" 0 replay.Wal.dropped_bytes;
  check_int "valid bytes" (String.length (image sample_records)) replay.Wal.valid_bytes

(* Number of [sample_records] whose encoding ends within the first
   [len] bytes of the image. *)
let records_within len =
  let pos = ref (String.length Wal.magic) in
  let count = ref 0 in
  let stopped = ref false in
  List.iter
    (fun r ->
      let e = !pos + String.length (Wal.encode r) in
      if (not !stopped) && e <= len then begin
        incr count;
        pos := e
      end
      else stopped := true)
    sample_records;
  !count

let test_wal_truncation_every_byte () =
  let img = image sample_records in
  for len = 0 to String.length img - 1 do
    let s = String.sub img 0 len in
    match Wal.decode s with
    | Error c ->
      Alcotest.failf "truncation at %d: unexpected error %s" len (Error.corruption_to_string c)
    | Ok replay ->
      let expected = records_within len in
      if List.length replay.Wal.records <> expected then
        Alcotest.failf "truncation at %d: replayed %d records, expected %d" len
          (List.length replay.Wal.records)
          expected
  done

let test_wal_bitflip_every_byte () =
  let img = image sample_records in
  let magic_len = String.length Wal.magic in
  for p = 0 to String.length img - 1 do
    let bit = 1 lsl (p mod 8) in
    let flipped =
      String.mapi (fun i c -> if i = p then Char.chr (Char.code c lxor bit) else c) img
    in
    match Wal.decode flipped with
    | Error Error.Bad_magic when p < magic_len -> ()
    | Error c -> Alcotest.failf "flip at %d: unexpected error %s" p (Error.corruption_to_string c)
    | Ok _ when p < magic_len -> Alcotest.failf "flip at %d: damaged magic accepted" p
    | Ok replay ->
      (* The flip lands in some record; every record before it must
         replay, the damaged one and everything after must not. *)
      let expected = records_within p in
      if List.length replay.Wal.records <> expected then
        Alcotest.failf "flip at %d: replayed %d records, expected %d" p
          (List.length replay.Wal.records)
          expected
  done

(* A truncated-on-disk log replays the surviving prefix and the store
   serves exactly those documents. *)
let test_wal_truncated_store_recovers_prefix () =
  let img = image sample_records in
  (* After replaying all four records the corpus is [doc-0; b.2_x] with
     "a" deleted; check a few cut points with their expected id sets. *)
  let boundaries =
    let pos = ref (String.length Wal.magic) in
    List.map
      (fun r ->
        pos := !pos + String.length (Wal.encode r);
        !pos)
      sample_records
  in
  let expected_ids_at cut =
    match List.length (List.filter (fun b -> b <= cut) boundaries) with
    | 0 -> []
    | 1 -> [ "a" ]
    | 2 -> []
    | 3 -> [ "doc-0" ]
    | _ -> [ "doc-0"; "b.2_x" ]
  in
  List.iter
    (fun cut ->
      with_store_paths (fun ~snapshot ~wal ->
          write_file wal (String.sub img 0 cut);
          let store = ok_exn "open_store" (Ingest.open_store ~snapshot ~wal ()) in
          let ids = Ingest.ids (Ingest.store_corpus store) in
          Ingest.close store;
          if ids <> expected_ids_at cut then
            Alcotest.failf "cut at %d: recovered ids [%s], expected [%s]" cut
              (String.concat "; " ids)
              (String.concat "; " (expected_ids_at cut))))
    (List.filter
       (fun cut -> cut >= 0 && cut <= String.length img)
       (0 :: 5 :: List.concat_map (fun b -> [ b - 1; b; b + 3 ]) boundaries))

(* ------------------------------------------------------------------ *)
(* Store lifecycle: replay, merge, crash-at-failpoint restarts. *)

let test_store_replay_roundtrip () =
  with_store_paths (fun ~snapshot ~wal ->
      let store = ok_exn "open" (Ingest.open_store ~snapshot ~wal ()) in
      ok_exn "ingest" (Ingest.ingest store ~id:"doc-0" (Xml.to_string (article 400)));
      ok_exn "ingest" (Ingest.ingest store ~id:"doc-1" (Xml.to_string (article 401)));
      ok_exn "ingest" (Ingest.ingest store ~id:"named" (Xml.to_string (article 402)));
      ok_exn "delete" (Ingest.delete store ~id:"doc-1");
      check_int "unmerged" 4 (Ingest.unmerged_records store);
      check_bool "staleness > 0" true (Ingest.staleness_ms store >= 0.0);
      let ids = Ingest.ids (Ingest.store_corpus store) in
      let fp = fingerprint (Ingest.env (Ingest.store_corpus store)) in
      Ingest.close store;
      (* Restart without any merge: everything comes from the WAL. *)
      let store = ok_exn "reopen" (Ingest.open_store ~snapshot ~wal ()) in
      check_int "replayed" 4 (Ingest.replayed_records store);
      check_bool "ids survive" true (Ingest.ids (Ingest.store_corpus store) = ids);
      check_string "results survive" fp (fingerprint (Ingest.env (Ingest.store_corpus store)));
      Ingest.close store)

let test_store_merge_truncates_wal () =
  with_store_paths (fun ~snapshot ~wal ->
      let store = ok_exn "open" (Ingest.open_store ~snapshot ~wal ()) in
      let _ = ok_exn "ingest" (Ingest.ingest store ~id:"doc-0" (Xml.to_string (article 500))) in
      let _ = ok_exn "ingest" (Ingest.ingest store ~id:"doc-1" (Xml.to_string (article 501))) in
      let fp = fingerprint (Ingest.env (Ingest.store_corpus store)) in
      ok_exn "merge" (Ingest.merge store);
      check_int "nothing unmerged" 0 (Ingest.unmerged_records store);
      check_bool "staleness reset" true (Ingest.staleness_ms store = 0.0);
      check_int "wal reset to magic" (String.length Wal.magic) (Ingest.wal_bytes store);
      Ingest.close store;
      let store = ok_exn "reopen" (Ingest.open_store ~snapshot ~wal ()) in
      check_int "no replay after merge" 0 (Ingest.replayed_records store);
      check_string "results survive merge" fp
        (fingerprint (Ingest.env (Ingest.store_corpus store)));
      Ingest.close store)

(* Crash simulation: arm a failpoint, drive the store into it, then
   reopen from disk and verify the recovered corpus is exactly the
   acked set. *)
let test_kill_at_every_failpoint () =
  with_store_paths (fun ~snapshot ~wal ->
      let store = ref (ok_exn "open" (Ingest.open_store ~snapshot ~wal ())) in
      let acked = ref [] in
      let ingest_ok seed =
        let id = Printf.sprintf "doc-%d" seed in
        ok_exn "ingest" (Ingest.ingest !store ~id (Xml.to_string (article seed)));
        acked := !acked @ [ (id, article seed) ]
      in
      let restart () =
        Ingest.close !store;
        store := ok_exn "restart" (Ingest.open_store ~snapshot ~wal ());
        let fresh = ok_exn "of_docs" (Ingest.of_docs !acked) in
        check_bool "recovered = acked" true
          (Ingest.ids (Ingest.store_corpus !store) = List.map fst !acked);
        check_string "recovered results = acked results" (fingerprint (Ingest.env fresh))
          (fingerprint (Ingest.env (Ingest.store_corpus !store)))
      in
      ingest_ok 600;
      ingest_ok 601;
      (* wal_append: fails before any byte is written. *)
      Result.get_ok (Failpoint.activate_n "wal_append" 1);
      (match Ingest.ingest !store ~id:"doc-602" (Xml.to_string (article 602)) with
      | Error (Error.Fault "wal_append") -> ()
      | Ok _ | Error _ -> Alcotest.fail "wal_append did not inject");
      restart ();
      (* wal_fsync: fails after the write; the partial record must be
         rolled back so the unacked document never reappears. *)
      Result.get_ok (Failpoint.activate_n "wal_fsync" 1);
      (match Ingest.ingest !store ~id:"doc-603" (Xml.to_string (article 603)) with
      | Error (Error.Fault "wal_fsync") -> ()
      | Ok _ | Error _ -> Alcotest.fail "wal_fsync did not inject");
      restart ();
      ingest_ok 604;
      (* storage_rename: the merge's snapshot never publishes; the WAL
         still covers everything. *)
      Result.get_ok (Failpoint.activate_n "storage_rename" 1);
      (match Ingest.merge !store with
      | Error (Error.Fault "storage_rename") -> ()
      | Ok () | Error _ -> Alcotest.fail "storage_rename did not inject");
      restart ();
      check_bool "wal survived failed merge" true (Ingest.replayed_records !store > 0);
      (* merge_publish: snapshot renamed, WAL not yet truncated — the
         crash window where replay must be idempotent over the merged
         snapshot. *)
      Result.get_ok (Failpoint.activate_n "merge_publish" 1);
      (match Ingest.merge !store with
      | exception Failpoint.Injected "merge_publish" -> ()
      | Ok () | Error _ -> Alcotest.fail "merge_publish did not inject");
      restart ();
      check_bool "wal replayed over snapshot" true (Ingest.replayed_records !store > 0);
      (* A clean merge after all that chaos converges to snapshot-only. *)
      ok_exn "merge" (Ingest.merge !store);
      restart ();
      check_int "wal empty after clean merge" 0 (Ingest.replayed_records !store);
      Ingest.close !store;
      Failpoint.reset ())

let test_budget_and_validation () =
  with_store_paths (fun ~snapshot ~wal ->
      let limits = { Ingest.max_bytes = 200; max_elems = 5 } in
      let store = ok_exn "open" (Ingest.open_store ~limits ~snapshot ~wal ()) in
      (match Ingest.ingest store ~id:"doc-0" (String.make 201 'x') with
      | Error (Error.Capacity { what = "ingest document bytes"; _ }) -> ()
      | Ok _ | Error _ -> Alcotest.fail "oversized bytes accepted");
      (match Ingest.ingest store ~id:"doc-0" "<a><b/><b/><b/><b/><b/></a>" with
      | Error (Error.Capacity { what = "ingest document elements"; _ }) -> ()
      | Ok _ | Error _ -> Alcotest.fail "oversized element count accepted");
      (match Ingest.ingest store ~id:"doc-0" "<a><unclosed></a>" with
      | Error (Error.Xml_error _) -> ()
      | Ok _ | Error _ -> Alcotest.fail "malformed XML accepted");
      (match Ingest.ingest store ~id:"bad id!" "<a/>" with
      | Error (Error.Config_error { what = "document id"; _ }) -> ()
      | Ok _ | Error _ -> Alcotest.fail "invalid id accepted");
      (match Ingest.delete store ~id:"absent" with
      | Error (Error.Config_error _) -> ()
      | Ok _ | Error _ -> Alcotest.fail "delete of unknown id accepted");
      (* Nothing above was acked; the log must still be pristine. *)
      check_int "wal still empty" (String.length Wal.magic) (Ingest.wal_bytes store);
      ok_exn "ingest" (Ingest.ingest store ~id:"doc-0" "<a><b>hi</b></a>");
      Ingest.close store)

(* Every write reaches the log through one commit, so its disk-fault
   contract must hold for each kind of record: an ENOSPC at
   [wal_append] returns [Io_error] and leaves the corpus, its ids and
   the log bytes at the acked prefix; the next write of that kind
   inside probation is refused [Readonly]; after probation it
   succeeds. *)
let test_disk_fault_every_record_kind () =
  let body seed = Xml.to_string (article seed) in
  let kinds =
    [
      ("user add", (fun st -> Ingest.ingest st ~id:"c" (body 702)), [ "a"; "b"; "c" ]);
      ("user delete", (fun st -> Ingest.delete st ~id:"a"), [ "b" ]);
      ( "shipped add",
        (fun st -> Ingest.apply_shipped st (Wal.Add { id = "c"; xml = body 702 })),
        [ "a"; "b"; "c" ] );
      ("shipped delete", (fun st -> Ingest.apply_shipped st (Wal.Delete { id = "a" })), [ "b" ]);
    ]
  in
  List.iter
    (fun (kind, write, ids_after) ->
      with_store_paths (fun ~snapshot ~wal ->
          let store = ok_exn "open" (Ingest.open_store ~probation_ms:500.0 ~snapshot ~wal ()) in
          Fun.protect
            ~finally:(fun () ->
              Failpoint.reset ();
              Ingest.close store)
            (fun () ->
              ok_exn "seed" (Ingest.ingest store ~id:"a" (body 700));
              ok_exn "seed" (Ingest.ingest store ~id:"b" (body 701));
              let docs = Ingest.docs (Ingest.store_corpus store) in
              let log = read_file wal in
              Result.get_ok (Failpoint.activate_errno "wal_append" Unix.ENOSPC 1);
              (match write store with
              | Error (Error.Io_error _) -> ()
              | Error e -> Alcotest.failf "%s: expected Io_error, got %s" kind (Error.to_string e)
              | Ok () -> Alcotest.failf "%s: ENOSPC write acked" kind);
              (* The refused write comes straight after the failed one,
                 so no check runs inside the probation window; the
                 acked-prefix checks below then cover both writes. *)
              let retry_after_ms =
                match write store with
                | Error (Error.Readonly { retry_after_ms; _ }) -> retry_after_ms
                | Error e ->
                  Alcotest.failf "%s: expected Readonly, got %s" kind (Error.to_string e)
                | Ok () -> Alcotest.failf "%s: write acked inside probation" kind
              in
              Alcotest.(check (list string))
                (kind ^ ": ids at the acked prefix") [ "a"; "b" ]
                (Ingest.ids (Ingest.store_corpus store));
              check_bool (kind ^ ": corpus at the acked prefix") true
                (Ingest.docs (Ingest.store_corpus store) = docs);
              check_string (kind ^ ": log at the acked prefix") log (read_file wal);
              Unix.sleepf ((float_of_int retry_after_ms +. 50.0) /. 1000.0);
              ok_exn (kind ^ " after probation") (write store);
              Alcotest.(check (list string))
                (kind ^ ": ids after probation") ids_after
                (Ingest.ids (Ingest.store_corpus store)))))
    kinds

(* A foreign file where the WAL should be is an error, not a clobber. *)
let test_wal_refuses_foreign_file () =
  with_store_paths (fun ~snapshot ~wal ->
      write_file wal "this is not a WAL at all";
      (match Ingest.open_store ~snapshot ~wal () with
      | Error (Error.Snapshot_error { corruption = Error.Bad_magic; _ }) -> ()
      | Ok store ->
        Ingest.close store;
        Alcotest.fail "foreign file accepted as WAL"
      | Error e -> Alcotest.failf "unexpected error: %s" (Error.to_string e));
      check_string "foreign file untouched" "this is not a WAL at all" (read_file wal))

let () =
  Alcotest.run "ingest"
    [
      ( "equivalence",
        [
          Alcotest.test_case "incremental growth == offline rebuild" `Quick
            test_incremental_equals_rebuild;
          Alcotest.test_case "extended index/stats internals identical" `Quick
            test_extend_internals;
          Alcotest.test_case "spliced arena/index/stats internals identical" `Quick
            test_splice_internals;
          Alcotest.test_case "delete and upsert allocate within a factor of an append" `Quick
            test_write_allocation;
          Alcotest.test_case "upsert and delete == offline rebuild" `Quick
            test_upsert_delete_equivalence;
          QCheck_alcotest.to_alcotest prop_random_ops;
          Alcotest.test_case "document-boundary column" `Quick test_boundary_column;
        ] );
      ( "wal",
        [
          Alcotest.test_case "codec roundtrip" `Quick test_wal_codec_roundtrip;
          Alcotest.test_case "truncation at every byte" `Quick test_wal_truncation_every_byte;
          Alcotest.test_case "bit flip at every byte" `Quick test_wal_bitflip_every_byte;
          Alcotest.test_case "truncated log: store serves acked prefix" `Quick
            test_wal_truncated_store_recovers_prefix;
          Alcotest.test_case "foreign file refused" `Quick test_wal_refuses_foreign_file;
        ] );
      ( "store",
        [
          Alcotest.test_case "replay roundtrip" `Quick test_store_replay_roundtrip;
          Alcotest.test_case "merge truncates wal" `Quick test_store_merge_truncates_wal;
          Alcotest.test_case "kill at every failpoint, restart recovers acked set" `Quick
            test_kill_at_every_failpoint;
          Alcotest.test_case "parse budget and id validation" `Quick test_budget_and_validation;
          Alcotest.test_case "disk fault: every record kind" `Quick
            test_disk_fault_every_record_kind;
        ] );
    ]
