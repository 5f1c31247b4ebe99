(* Tests for the IR substrate: tokenizer, stemmer, FTExp, index. *)

module Xml = Xmldom.Xml
module Doc = Xmldom.Doc
module Tokenizer = Fulltext.Tokenizer
module Stemmer = Fulltext.Stemmer
module Stopwords = Fulltext.Stopwords
module Ftexp = Fulltext.Ftexp
module Index = Fulltext.Index

let el = Xml.element
let txt = Xml.text
let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)
let check_slist = Alcotest.(check (list string))
let check_ilist = Alcotest.(check (list int))

(* ------------------------------------------------------------------ *)
(* Tokenizer *)

let test_tokens_basic () =
  check_slist "split and lowercase" [ "hello"; "world" ] (Tokenizer.tokens "Hello, World!");
  check_slist "digits kept" [ "x86"; "64bit" ] (Tokenizer.tokens "x86 / 64bit");
  check_slist "empty" [] (Tokenizer.tokens "  \t . ,, !");
  check_int "count" 3 (Tokenizer.count "one two three")

let test_tokens_unicode_bytes () =
  (* UTF-8 bytes are word bytes: accented words stay whole. *)
  check_slist "utf8 word" [ "caf\xc3\xa9" ] (Tokenizer.tokens "caf\xc3\xa9!")

(* ------------------------------------------------------------------ *)
(* Stemmer: reference pairs from Porter's paper and test vocabulary. *)

let stem_pairs =
  [
    ("caresses", "caress"); ("ponies", "poni"); ("ties", "ti"); ("caress", "caress");
    ("cats", "cat"); ("feed", "feed"); ("agreed", "agre"); ("plastered", "plaster");
    ("bled", "bled"); ("motoring", "motor"); ("sing", "sing"); ("conflated", "conflat");
    ("troubled", "troubl"); ("sized", "size"); ("hopping", "hop"); ("tanned", "tan");
    ("falling", "fall"); ("hissing", "hiss"); ("fizzed", "fizz"); ("failing", "fail");
    ("filing", "file"); ("happy", "happi"); ("sky", "sky"); ("relational", "relat");
    ("conditional", "condit"); ("rational", "ration"); ("valenci", "valenc");
    ("hesitanci", "hesit"); ("digitizer", "digit"); ("conformabli", "conform");
    ("radicalli", "radic"); ("differentli", "differ"); ("vileli", "vile");
    ("analogousli", "analog"); ("vietnamization", "vietnam"); ("predication", "predic");
    ("operator", "oper"); ("feudalism", "feudal"); ("decisiveness", "decis");
    ("hopefulness", "hope"); ("callousness", "callous"); ("formaliti", "formal");
    ("sensitiviti", "sensit"); ("sensibiliti", "sensibl"); ("triplicate", "triplic");
    ("formative", "form"); ("formalize", "formal"); ("electriciti", "electr");
    ("electrical", "electr"); ("hopeful", "hope"); ("goodness", "good");
    ("revival", "reviv"); ("allowance", "allow"); ("inference", "infer");
    ("airliner", "airlin"); ("gyroscopic", "gyroscop"); ("adjustable", "adjust");
    ("defensible", "defens"); ("irritant", "irrit"); ("replacement", "replac");
    ("adjustment", "adjust"); ("dependent", "depend"); ("adoption", "adopt");
    ("homologou", "homolog"); ("communism", "commun"); ("activate", "activ");
    ("angulariti", "angular"); ("homologous", "homolog"); ("effective", "effect");
    ("bowdlerize", "bowdler"); ("probate", "probat"); ("rate", "rate");
    ("cease", "ceas"); ("controll", "control"); ("roll", "roll");
    ("streaming", "stream"); ("streams", "stream"); ("streamed", "stream");
    ("queries", "queri"); ("querying", "queri"); ("databases", "databas");
  ]

let test_stemmer_pairs () =
  List.iter
    (fun (w, expected) -> check_string w expected (Stemmer.stem w))
    stem_pairs

let test_stemmer_short_and_nonletters () =
  check_string "short word unchanged" "at" (Stemmer.stem "at");
  check_string "non-letters unchanged" "x86" (Stemmer.stem "x86")

(* ------------------------------------------------------------------ *)
(* Stopwords *)

let test_stopwords () =
  check_bool "the" true (Stopwords.is_stopword "the");
  check_bool "and" true (Stopwords.is_stopword "and");
  check_bool "xml" false (Stopwords.is_stopword "xml");
  check_bool "list nonempty" true (List.length Stopwords.all > 50)

(* ------------------------------------------------------------------ *)
(* Ftexp parse/print *)

let parse_ft s =
  match Ftexp.of_string s with
  | Ok e -> e
  | Error { position; message } -> Alcotest.failf "ftexp parse failed at %d: %s" position message

let test_ftexp_parse_basic () =
  check_bool "two keywords" true
    (Ftexp.equal (parse_ft "\"XML\" and \"streaming\"") Ftexp.(Term "xml" &&& Term "streaming"));
  check_bool "bare words" true (Ftexp.equal (parse_ft "xml and streaming") Ftexp.(Term "xml" &&& Term "streaming"));
  check_bool "or/not" true
    (Ftexp.equal (parse_ft "a or not b") Ftexp.(Term "a" ||| not_ (Term "b")));
  check_bool "parens" true
    (Ftexp.equal (parse_ft "(a or b) and c") Ftexp.(And (Or (Term "a", Term "b"), Term "c")))

let test_ftexp_parse_phrase_window () =
  check_bool "phrase" true (Ftexp.equal (parse_ft "\"data stream\"") (Ftexp.Phrase [ "data"; "stream" ]));
  check_bool "window" true
    (Ftexp.equal (parse_ft "window(5, \"xml\", \"query\")") (Ftexp.Window (5, [ "xml"; "query" ])))

let test_ftexp_parse_errors () =
  let bad s = match Ftexp.of_string s with Ok _ -> Alcotest.failf "expected error: %S" s | Error _ -> () in
  bad "";
  bad "and";
  bad "a and";
  bad "(a";
  bad "a)";
  bad "window(0, \"x\")";
  bad "window(3)";
  bad "\"unterminated"

let test_ftexp_print_parse_roundtrip () =
  let exps =
    [
      Ftexp.(Term "xml" &&& Term "streaming");
      Ftexp.(Or (And (Term "a", Term "b"), Not (Term "c")));
      Ftexp.Phrase [ "data"; "stream" ];
      Ftexp.(Window (4, [ "x"; "y" ]) &&& Term "z");
    ]
  in
  List.iter
    (fun e ->
      let printed = Ftexp.to_string e in
      check_bool ("roundtrip " ^ printed) true (Ftexp.equal e (parse_ft printed)))
    exps

let test_ftexp_keywords () =
  let e = Ftexp.(And (Term "a", Or (Not (Term "b"), Phrase [ "c"; "a" ]))) in
  check_slist "keywords" [ "a"; "b"; "c" ] (Ftexp.keywords e);
  check_bool "not positive" false (Ftexp.is_positive e);
  check_bool "positive" true Ftexp.(is_positive (Term "a" &&& Phrase [ "b"; "c" ]))

(* ------------------------------------------------------------------ *)
(* Index on a handcrafted document *)

(* <doc>
     <a>xml streaming algorithms</a>
     <b><c>xml queries</c><d>streaming data</d></b>
     <e>unrelated prose words</e>
   </doc> *)
let sample () =
  let tree =
    el "doc"
      [
        el "a" [ txt "xml streaming algorithms" ];
        el "b" [ el "c" [ txt "xml queries" ]; el "d" [ txt "streaming data" ] ];
        el "e" [ txt "unrelated prose words" ];
      ]
  in
  let d = Doc.of_tree tree in
  (d, Index.build d)

(* element ids: doc=0 a=1 b=2 c=3 d=4 e=5 *)

let test_index_stats () =
  let _, idx = sample () in
  check_int "tokens" 10 (Index.n_tokens idx);
  check_bool "terms" true (Index.distinct_terms idx >= 8)

let test_index_tok_ranges () =
  let _, idx = sample () in
  check_bool "doc covers all" true (Index.tok_range idx 0 = (0, 10));
  check_bool "a range" true (Index.tok_range idx 1 = (0, 3));
  check_bool "b covers c and d" true (Index.tok_range idx 2 = (3, 7));
  check_bool "c range" true (Index.tok_range idx 3 = (3, 5))

let test_index_satisfies () =
  let _, idx = sample () in
  let xml = Ftexp.Term "xml" in
  let both = Ftexp.(Term "xml" &&& Term "streaming") in
  check_bool "a has xml" true (Index.satisfies idx xml 1);
  check_bool "e lacks xml" false (Index.satisfies idx xml 5);
  check_bool "a has both" true (Index.satisfies idx both 1);
  check_bool "c lacks both" false (Index.satisfies idx both 3);
  check_bool "b has both (across children)" true (Index.satisfies idx both 2);
  check_bool "root has both" true (Index.satisfies idx both 0)

let test_index_stemming_match () =
  let _, idx = sample () in
  (* "streams" stems to "stream", matching indexed "streaming". *)
  check_bool "stemmed query" true (Index.satisfies idx (Ftexp.Term "streams") 1);
  check_bool "stemmed query 2" true (Index.satisfies idx (Ftexp.Term "query") 3)

let test_index_not () =
  let _, idx = sample () in
  let e = Ftexp.(Term "prose" &&& not_ (Term "xml")) in
  check_bool "e satisfies" true (Index.satisfies idx e 5);
  check_bool "root does not (has xml)" false (Index.satisfies idx e 0)

let test_index_phrase () =
  let _, idx = sample () in
  check_bool "phrase present" true (Index.satisfies idx (Ftexp.Phrase [ "xml"; "streaming" ]) 1);
  check_bool "phrase crosses order" false (Index.satisfies idx (Ftexp.Phrase [ "streaming"; "xml" ]) 1);
  check_bool "phrase not in c" false (Index.satisfies idx (Ftexp.Phrase [ "xml"; "streaming" ]) 3)

let test_index_window () =
  let _, idx = sample () in
  check_bool "tight window" true (Index.satisfies idx (Ftexp.Window (2, [ "xml"; "streaming" ])) 1);
  check_bool "window too small in b" false (Index.satisfies idx (Ftexp.Window (2, [ "queries"; "data" ])) 2);
  check_bool "wider window in b" true (Index.satisfies idx (Ftexp.Window (4, [ "queries"; "data" ])) 2)

let test_index_all_satisfying () =
  let _, idx = sample () in
  let both = Ftexp.(Term "xml" &&& Term "streaming") in
  check_ilist "upward closed" [ 0; 1; 2 ] (Index.all_satisfying idx both)

let test_index_most_specific () =
  let _, idx = sample () in
  let both = Ftexp.(Term "xml" &&& Term "streaming") in
  (* a satisfies; b satisfies but no child of b does; doc is an ancestor
     of both so not minimal. *)
  check_ilist "most specific" [ 1; 2 ] (Index.most_specific idx both)

let test_index_scores_monotone () =
  let _, idx = sample () in
  let xml = Ftexp.Term "xml" in
  check_bool "root >= a" true (Index.raw_score idx xml 0 >= Index.raw_score idx xml 1);
  check_bool "zero when unsat" true (Index.raw_score idx xml 5 = 0.0);
  let n = Index.normalized_score idx xml 1 in
  check_bool "normalized in range" true (n > 0.0 && n <= 1.0);
  check_bool "root normalized is 1" true (Index.normalized_score idx xml 0 = 1.0)

let test_index_matches_ranked () =
  let _, idx = sample () in
  let ms = Index.matches idx (Ftexp.Term "xml") in
  check_bool "nonempty" true (List.length ms = 2);
  let scores = List.map snd ms in
  check_bool "descending" true (scores = List.sort (fun a b -> Float.compare b a) scores);
  check_bool "top is 1.0" true (List.hd scores = 1.0)

let test_index_count_with_tag () =
  let d, idx = sample () in
  let tag t = Option.get (Xmldom.Tag.find (Doc.tags d) t) in
  check_int "one a with xml" 1 (Index.count_satisfying_with_tag idx (Ftexp.Term "xml") (tag "a"));
  check_int "no e with xml" 0 (Index.count_satisfying_with_tag idx (Ftexp.Term "xml") (tag "e"))

let test_index_stopwords_skipped () =
  let d = Doc.of_tree (el "r" [ txt "the cat and the dog" ]) in
  let idx = Index.build d in
  check_int "only content words" 2 (Index.n_tokens idx);
  check_bool "phrase across stopwords" true (Index.satisfies idx (Ftexp.Phrase [ "cat"; "dog" ]) 0)

(* Query analysis drops stopwords as indexing does: a quoted phrase or
   a window holding a stopword matches (and scores) as the same list
   without it, here and at an overlay's virtual root; an expression
   left with no word never matches. *)
let test_index_stopword_phrases () =
  let books =
    [
      el "book" [ el "title" [ txt "the state of the art in xml streaming" ] ];
      el "book" [ el "title" [ txt "state art" ] ];
    ]
  in
  let same_bits what idx a b =
    Doc.iter_elements (Index.doc idx) (fun e ->
        let bits f = Int64.bits_of_float f in
        check_bool (Printf.sprintf "%s: satisfaction at %d" what e) (Index.satisfies idx b e)
          (Index.satisfies idx a e);
        check_bool (Printf.sprintf "%s: raw bits at %d" what e) true
          (bits (Index.raw_score idx a e) = bits (Index.raw_score idx b e));
        check_bool (Printf.sprintf "%s: normalized bits at %d" what e) true
          (bits (Index.normalized_score idx a e) = bits (Index.normalized_score idx b e)))
  in
  let with_stop = parse_ft "\"state of the art\"" and without = parse_ft "\"state art\"" in
  check_bool "parsed as a phrase" true
    (Ftexp.equal with_stop (Ftexp.Phrase [ "state"; "of"; "the"; "art" ]));
  let idx = Index.build (Doc.of_tree (el "lib" books)) in
  check_ilist "both titles match" [ 2; 4 ] (Index.most_specific idx with_stop);
  same_bits "phrase" idx with_stop without;
  same_bits "window" idx
    (Ftexp.Window (2, [ "state"; "of"; "art" ]))
    (Ftexp.Window (2, [ "state"; "art" ]));
  let shards = List.map (fun b -> Index.build (Doc.of_tree (el "lib" [ b ]))) books in
  let ov = Index.overlay_of shards in
  List.iter
    (fun shard -> same_bits "overlay phrase" (Index.with_overlay shard ov) with_stop without)
    shards;
  List.iter
    (fun f ->
      check_ilist ("never satisfied: " ^ Ftexp.to_string f) [] (Index.all_satisfying idx f);
      check_bool ("no score: " ^ Ftexp.to_string f) true (Index.normalized_score idx f 0 = 0.0))
    [ Ftexp.Term "the"; Ftexp.Phrase [ "of"; "the" ]; Ftexp.Window (3, [ "the"; "of" ]) ]

let test_index_empty_text () =
  let d = Doc.of_tree (el "r" [ el "a" []; el "b" [ txt "word" ] ]) in
  let idx = Index.build d in
  check_bool "empty element unsat" false (Index.satisfies idx (Ftexp.Term "word") 1);
  check_bool "b sat" true (Index.satisfies idx (Ftexp.Term "word") 2)

(* ------------------------------------------------------------------ *)
(* Scorers *)

module Scorer = Fulltext.Scorer

let test_scorer_strings () =
  check_bool "tfidf roundtrip" true (Scorer.of_string "tfidf" = Ok Scorer.Tf_idf);
  check_bool "bm25 parse" true (Scorer.of_string "bm25" = Ok (Scorer.bm25 ()));
  check_bool "unknown rejected" true (Result.is_error (Scorer.of_string "pagerank"))

let test_scorer_term_score_shapes () =
  let tfidf tf = Scorer.term_score Scorer.Tf_idf ~tf ~df:10 ~n_tokens:1000 ~scope_len:20 ~avg_scope_len:20.0 in
  let bm tf = Scorer.term_score (Scorer.bm25 ()) ~tf ~df:10 ~n_tokens:1000 ~scope_len:20 ~avg_scope_len:20.0 in
  check_bool "zero tf" true (tfidf 0 = 0.0 && bm 0 = 0.0);
  check_bool "tfidf grows with tf" true (tfidf 5 > tfidf 1);
  check_bool "bm25 grows with tf" true (bm 5 > bm 1);
  (* bm25 saturates: the marginal gain shrinks *)
  check_bool "bm25 saturation" true (bm 2 -. bm 1 > bm 10 -. bm 9);
  (* rarer terms score higher under both *)
  let rare scorer = Scorer.term_score scorer ~tf:1 ~df:2 ~n_tokens:1000 ~scope_len:20 ~avg_scope_len:20.0 in
  let freq scorer = Scorer.term_score scorer ~tf:1 ~df:200 ~n_tokens:1000 ~scope_len:20 ~avg_scope_len:20.0 in
  check_bool "idf tfidf" true (rare Scorer.Tf_idf > freq Scorer.Tf_idf);
  check_bool "idf bm25" true (rare (Scorer.bm25 ()) > freq (Scorer.bm25 ()))

let test_scorer_bm25_length_norm () =
  let at_len scope_len =
    Scorer.term_score (Scorer.bm25 ()) ~tf:2 ~df:10 ~n_tokens:1000 ~scope_len ~avg_scope_len:20.0
  in
  check_bool "longer scopes discounted" true (at_len 10 > at_len 100)

let test_index_with_bm25 () =
  let d =
    Doc.of_tree
      (el "r"
         [
           el "short" [ txt "xml" ];
           el "long" [ txt ("xml " ^ String.concat " " (List.init 40 (fun i -> "filler" ^ string_of_int i))) ];
         ])
  in
  let idx = Index.build ~scorer:(Scorer.bm25 ()) d in
  check_bool "scorer recorded" true (Index.scorer idx = Scorer.bm25 ());
  let s_short = Index.raw_score idx (Ftexp.Term "xml") 1 in
  let s_long = Index.raw_score idx (Ftexp.Term "xml") 2 in
  check_bool "tight match outscores diluted one" true (s_short > s_long);
  (* default scorer is unchanged behaviour *)
  let idx0 = Index.build d in
  check_bool "default is tfidf" true (Index.scorer idx0 = Scorer.Tf_idf)

(* ------------------------------------------------------------------ *)
(* Golden kernel outputs (see kernel_golden.ml) *)

let test_kernel_golden () = Golden.check "kernel_golden.expected" (Kernel_golden.lines ())

(* ------------------------------------------------------------------ *)
(* Properties *)

let gen_words =
  QCheck2.Gen.(list_size (1 -- 30) (oneofl [ "alpha"; "beta"; "gamma"; "delta"; "xml" ]))

let doc_of_words words =
  (* split words over a few nested elements *)
  let rec build ws =
    match ws with
    | [] -> []
    | [ w ] -> [ txt w ]
    | w :: rest -> [ txt w; el "s" (build rest) ]
  in
  Doc.of_tree (el "r" (build words))

let prop_root_satisfies_any_present_word =
  QCheck2.Test.make ~name:"root satisfies Term w iff w occurs" ~count:100 gen_words (fun ws ->
      let d = doc_of_words ws in
      let idx = Index.build d in
      List.for_all (fun w -> Index.satisfies idx (Ftexp.Term w) 0) ws
      && not (Index.satisfies idx (Ftexp.Term "absentword") 0))

let prop_satisfaction_upward_closed =
  QCheck2.Test.make ~name:"positive satisfaction is upward closed" ~count:100 gen_words (fun ws ->
      let d = doc_of_words ws in
      let idx = Index.build d in
      let f = Ftexp.Term (List.nth ws (List.length ws / 2)) in
      let ok = ref true in
      Doc.iter_elements d (fun e ->
          if Index.satisfies idx f e then
            List.iter
              (fun a -> if not (Index.satisfies idx f a) then ok := false)
              (Doc.ancestors d e));
      !ok)

let prop_raw_score_monotone =
  QCheck2.Test.make ~name:"raw score monotone along ancestors (positive)" ~count:100 gen_words
    (fun ws ->
      let d = doc_of_words ws in
      let idx = Index.build d in
      let f = Ftexp.Term (List.hd ws) in
      let ok = ref true in
      Doc.iter_elements d (fun e ->
          List.iter
            (fun a ->
              if Index.raw_score idx f a < Index.raw_score idx f e -. 1e-9 then ok := false)
            (Doc.ancestors d e));
      !ok)

(* Satisfaction against an oracle that shares no code with the index:
   each element's subtree text tokenized, stopwords dropped, stemmed,
   and the expression checked on that word list.  Stopwords and words
   with a common stem are in the vocabulary on purpose. *)
let vocab = [ "alpha"; "beta"; "xml"; "streams"; "streaming"; "the"; "of" ]

let gen_tree =
  let open QCheck2.Gen in
  let text = map (fun ws -> txt (String.concat " " ws)) (list_size (1 -- 3) (oneofl vocab)) in
  let rec node depth =
    let child = if depth = 0 then text else oneof [ text; node (depth - 1) ] in
    map (el "s") (list_size (1 -- 3) child)
  in
  node 3

let gen_ftexp =
  let open QCheck2.Gen in
  let words = list_size (1 -- 3) (oneofl vocab) in
  let leaf =
    oneof
      [
        map (fun w -> Ftexp.Term w) (oneofl vocab);
        map (fun ws -> Ftexp.Phrase ws) words;
        map2 (fun n ws -> Ftexp.Window (n, ws)) (1 -- 4) words;
      ]
  in
  sized_size (int_bound 4)
  @@ fix (fun self n ->
         if n = 0 then leaf
         else
           oneof
             [
               leaf;
               map2 (fun a b -> Ftexp.And (a, b)) (self (n / 2)) (self (n / 2));
               map2 (fun a b -> Ftexp.Or (a, b)) (self (n / 2)) (self (n / 2));
               map (fun a -> Ftexp.Not a) (self (n - 1));
             ])

let subtree_stems d e =
  let out = ref [] in
  for c = 0 to Doc.chunk_count d - 1 do
    let o = Doc.chunk_owner d c in
    if o = e || Doc.is_ancestor d e o then
      Tokenizer.iter (Doc.chunk_text d c) (fun w ->
          if not (Stopwords.is_stopword w) then out := Stemmer.stem w :: !out)
  done;
  Array.of_list (List.rev !out)

let rec oracle toks f =
  let n = Array.length toks in
  let stems ws = List.map Stemmer.stem (List.filter (fun w -> not (Stopwords.is_stopword w)) ws) in
  let exists_from lo hi p =
    let rec go i = i < hi && (p i || go (i + 1)) in
    go lo
  in
  match f with
  | Ftexp.Term w -> (not (Stopwords.is_stopword w)) && Array.mem (Stemmer.stem w) toks
  | Ftexp.Phrase ws -> (
    match stems ws with
    | [] -> false
    | ss ->
      exists_from 0 n (fun start ->
          List.for_all Fun.id (List.mapi (fun j s -> start + j < n && toks.(start + j) = s) ss)))
  | Ftexp.Window (width, ws) -> (
    match stems ws with
    | [] -> false
    | ss ->
      exists_from 0 n (fun start ->
          List.for_all
            (fun s -> exists_from start (min n (start + width)) (fun i -> toks.(i) = s))
            ss))
  | Ftexp.And (a, b) -> oracle toks a && oracle toks b
  | Ftexp.Or (a, b) -> oracle toks a || oracle toks b
  | Ftexp.Not a -> not (oracle toks a)

let prop_satisfaction_matches_oracle =
  QCheck2.Test.make ~name:"satisfaction matches a token-list oracle" ~count:300
    ~print:(fun (_, f) -> Ftexp.to_string f)
    QCheck2.Gen.(pair gen_tree gen_ftexp)
    (fun (tree, f) ->
      let d = Doc.of_tree tree in
      let idx = Index.build d in
      let expected = List.filter (fun e -> oracle (subtree_stems d e) f) (List.init (Doc.size d) Fun.id) in
      Index.all_satisfying idx f = expected
      && List.for_all (fun e -> Index.satisfies idx f e = List.mem e expected) (List.init (Doc.size d) Fun.id))

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "fulltext"
    [
      ( "tokenizer",
        [
          Alcotest.test_case "basics" `Quick test_tokens_basic;
          Alcotest.test_case "utf8 bytes" `Quick test_tokens_unicode_bytes;
        ] );
      ( "stemmer",
        [
          Alcotest.test_case "porter reference pairs" `Quick test_stemmer_pairs;
          Alcotest.test_case "short/non-letter words" `Quick test_stemmer_short_and_nonletters;
        ] );
      ("stopwords", [ Alcotest.test_case "membership" `Quick test_stopwords ]);
      ( "ftexp",
        [
          Alcotest.test_case "parse basics" `Quick test_ftexp_parse_basic;
          Alcotest.test_case "phrase and window" `Quick test_ftexp_parse_phrase_window;
          Alcotest.test_case "parse errors" `Quick test_ftexp_parse_errors;
          Alcotest.test_case "print/parse roundtrip" `Quick test_ftexp_print_parse_roundtrip;
          Alcotest.test_case "keywords" `Quick test_ftexp_keywords;
        ] );
      ( "index",
        [
          Alcotest.test_case "stats" `Quick test_index_stats;
          Alcotest.test_case "token ranges" `Quick test_index_tok_ranges;
          Alcotest.test_case "satisfies" `Quick test_index_satisfies;
          Alcotest.test_case "stemming" `Quick test_index_stemming_match;
          Alcotest.test_case "negation" `Quick test_index_not;
          Alcotest.test_case "phrase" `Quick test_index_phrase;
          Alcotest.test_case "window" `Quick test_index_window;
          Alcotest.test_case "all satisfying" `Quick test_index_all_satisfying;
          Alcotest.test_case "most specific" `Quick test_index_most_specific;
          Alcotest.test_case "score monotone" `Quick test_index_scores_monotone;
          Alcotest.test_case "ranked matches" `Quick test_index_matches_ranked;
          Alcotest.test_case "count by tag" `Quick test_index_count_with_tag;
          Alcotest.test_case "stopwords skipped" `Quick test_index_stopwords_skipped;
          Alcotest.test_case "stopwords dropped from queries" `Quick test_index_stopword_phrases;
          Alcotest.test_case "empty text" `Quick test_index_empty_text;
          Alcotest.test_case "golden kernel outputs" `Quick test_kernel_golden;
        ] );
      ( "scorer",
        [
          Alcotest.test_case "strings" `Quick test_scorer_strings;
          Alcotest.test_case "term score shapes" `Quick test_scorer_term_score_shapes;
          Alcotest.test_case "bm25 length norm" `Quick test_scorer_bm25_length_norm;
          Alcotest.test_case "index with bm25" `Quick test_index_with_bm25;
        ] );
      ( "properties",
        [
          q prop_root_satisfies_any_present_word;
          q prop_satisfaction_upward_closed;
          q prop_raw_score_monotone;
          q prop_satisfaction_matches_oracle;
        ] );
    ]
