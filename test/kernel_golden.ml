(* The full-text kernel's outputs on a fixed corpus, one line per fact,
   with every float as its IEEE bits.  [test_fulltext.ml] compares them
   with [kernel_golden.expected], whose lines this module printed from
   the per-call evaluator that the compiled kernel replaced: the file
   pins satisfaction and scores bit for bit across kernel changes.  A
   change that means to alter an output must say so and regenerate the
   file.

   No expression holds a stopword: the stopword rule changed what such
   phrases match, so the file does not pin them. *)

module Doc = Xmldom.Doc
module Tag = Xmldom.Tag
module Xml = Xmldom.Xml
module Ftexp = Fulltext.Ftexp
module Index = Fulltext.Index
module Scorer = Fulltext.Scorer

let articles = 6
let seed = 2004

let exprs =
  Ftexp.
    [
      ("term", Term "xml");
      ("and-or", And (Term "xml", Or (Term "streaming", Term "keyword")));
      ("and-or-not", And (Or (Term "streaming", Term "relaxation"), Not (Term "velvet")));
      ("phrase", Phrase [ "velvet"; "xml" ]);
      ("window", Window (3, [ "xml"; "streaming" ]));
      (* Phrase and window matches sit in shard 0 only: shard 1's
         denominator depends on the overlay's virtual-root check. *)
      ("phrase-or", Or (Phrase [ "velvet"; "xml" ], Term "keyword"));
      ("window-or", Or (Window (3, [ "xml"; "streaming" ]), Term "keyword"));
      ("absent", Term "zyzzyva");
    ]

let bits f = Printf.sprintf "%016Lx" (Int64.bits_of_float f)

(* The collection, and the same articles split into two halves, each a
   collection of its own: the layout of a two-shard corpus. *)
let documents () =
  match Xmark.Articles.collection ~seed ~count:articles () with
  | Xml.Element (name, attrs, kids) ->
    let half = List.length kids / 2 in
    let first = List.filteri (fun i _ -> i < half) kids
    and second = List.filteri (fun i _ -> i >= half) kids in
    let doc kids = Doc.of_tree (Xml.Element (name, attrs, kids)) in
    (doc kids, [ doc first; doc second ])
  | Xml.Text _ -> invalid_arg "Kernel_golden.documents"

(* Views: (name, scoring view).  Both overlay shards are listed under
   one view name, shard 0 first. *)
let views () =
  let whole, halves = documents () in
  let overlay scorer =
    let idxs = List.map (Index.build ~scorer) halves in
    let ov = Index.overlay_of idxs in
    List.map (fun idx -> Index.with_overlay idx ov) idxs
  in
  [
    ("tfidf", [ Index.build ~scorer:Scorer.Tf_idf whole ]);
    ("bm25", [ Index.build ~scorer:(Scorer.bm25 ()) whole ]);
    ("overlay-tfidf", overlay Scorer.Tf_idf);
    ("overlay-bm25", overlay (Scorer.bm25 ()));
  ]

let lines () =
  let out = ref [] in
  let add fmt = Printf.ksprintf (fun s -> out := s :: !out) fmt in
  List.iter
    (fun (vname, idxs) ->
      List.iteri
        (fun shard idx ->
          let doc = Index.doc idx in
          let tags = Doc.tags doc in
          List.iter
            (fun (ename, f) ->
              add "%s shard %d expr %s %s" vname shard ename (Ftexp.to_string f);
              let sat e = if Index.satisfies idx f e then '1' else '0' in
              add "sat %s" (String.init (Doc.size doc) sat);
              for e = 0 to Doc.size doc - 1 do
                let raw = Index.raw_score idx f e and norm = Index.normalized_score idx f e in
                if Int64.bits_of_float raw <> 0L || Int64.bits_of_float norm <> 0L then
                  add "score %d %s %s" e (bits raw) (bits norm)
              done;
              for t = 0 to Tag.count tags - 1 do
                add "count %s %d" (Tag.name tags t) (Index.count_satisfying_with_tag idx f t)
              done;
              let elems es = String.concat "" (List.map (Printf.sprintf " %d") es) in
              add "all%s" (elems (Index.all_satisfying idx f));
              add "most-specific%s" (elems (Index.most_specific idx f));
              let scored = List.map (fun (e, s) -> Printf.sprintf " %d:%s" e (bits s)) in
              add "matches%s" (String.concat "" (scored (Index.matches idx f))))
            exprs)
        idxs)
    (views ());
  List.rev !out
