(* Tests for the XML substrate: parser, serializer, arena document. *)

module Xml = Xmldom.Xml
module Xml_parser = Xmldom.Xml_parser
module Doc = Xmldom.Doc
module Tag = Xmldom.Tag

let el = Xml.element
let txt = Xml.text

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let parse s =
  match Xml_parser.parse s with
  | Ok t -> t
  | Error e -> Alcotest.failf "parse failed: %s" (Format.asprintf "%a" Xml_parser.pp_error e)

(* ------------------------------------------------------------------ *)
(* Xml tree basics *)

let test_escape () =
  check_string "all specials" "&amp;&lt;&gt;&quot;&apos;" (Xml.escape "&<>\"'");
  check_string "no specials untouched" "hello world" (Xml.escape "hello world")

let test_serialize_roundtrip_simple () =
  let t = el "a" [ el "b" [ txt "x & y" ]; el "c" ~attrs:[ ("k", "v\"w") ] [] ] in
  let s = Xml.to_string t in
  check_bool "roundtrip equal" true (Xml.equal t (parse s))

let test_direct_vs_deep_text () =
  let t = el "a" [ txt "x"; el "b" [ txt "y" ]; txt "z" ] in
  check_string "direct" "xz" (Xml.direct_text t);
  check_string "deep" "xyz" (Xml.deep_text t)

let test_count_elements () =
  let t = el "a" [ el "b" [ el "c" [] ]; txt "t"; el "d" [] ] in
  check_int "count" 4 (Xml.count_elements t)

let test_attribute () =
  let t = el "a" ~attrs:[ ("x", "1"); ("y", "2") ] [] in
  check_bool "x found" true (Xml.attribute t "x" = Some "1");
  check_bool "z missing" true (Xml.attribute t "z" = None)

(* ------------------------------------------------------------------ *)
(* Parser *)

let test_parse_minimal () =
  let t = parse "<a/>" in
  check_bool "empty element" true (Xml.equal t (el "a" []))

let test_parse_decl_doctype_comments () =
  let s =
    "<?xml version=\"1.0\"?><!DOCTYPE site [<!ELEMENT a (b)>]><!-- c --><a><!-- inner \
     --><b>t</b></a><!-- after -->"
  in
  check_bool "prolog handled" true (Xml.equal (parse s) (el "a" [ el "b" [ txt "t" ] ]))

let test_parse_entities () =
  let t = parse "<a>&amp;&lt;&gt;&quot;&apos;&#65;&#x42;</a>" in
  check_bool "entities decoded" true (Xml.equal t (el "a" [ txt "&<>\"'AB" ]))

let test_parse_cdata () =
  let t = parse "<a><![CDATA[<not> & parsed]]></a>" in
  check_bool "cdata" true (Xml.equal t (el "a" [ txt "<not> & parsed" ]))

let test_parse_attrs () =
  let t = parse "<a x='1' y=\"two &amp; three\"/>" in
  check_bool "attrs" true
    (Xml.attribute t "x" = Some "1" && Xml.attribute t "y" = Some "two & three")

let test_parse_ws_dropped () =
  let t = parse "<a>\n  <b/>\n  <c/>\n</a>" in
  check_bool "whitespace dropped" true (Xml.equal t (el "a" [ el "b" []; el "c" [] ]))

let test_parse_mixed_kept () =
  let t = parse "<p>one <b>two</b> three</p>" in
  check_bool "mixed content" true
    (Xml.equal t (el "p" [ txt "one "; el "b" [ txt "two" ]; txt " three" ]))

let expect_error s =
  match Xml_parser.parse s with
  | Ok _ -> Alcotest.failf "expected a parse error for %S" s
  | Error _ -> ()

let test_parse_errors () =
  expect_error "";
  expect_error "<a>";
  expect_error "<a></b>";
  expect_error "<a";
  expect_error "<a>&unknown;</a>";
  expect_error "<a><b></a></b>";
  expect_error "<a/><b/>";
  expect_error "just text"

let contains_substring msg affix =
  let n = String.length msg and m = String.length affix in
  let rec go i = i + m <= n && (String.sub msg i m = affix || go (i + 1)) in
  go 0

let test_parse_error_position () =
  match Xml_parser.parse "<a>\n<b></c>\n</a>" with
  | Ok _ -> Alcotest.fail "expected error"
  | Error e ->
    check_int "line" 2 e.line;
    check_bool "message mentions tags" true (contains_substring e.message "mismatched")

(* ------------------------------------------------------------------ *)
(* Doc arena *)

let sample_doc () =
  Doc.of_tree
    (el "site"
       [
         el "item" [ el "name" [ txt "gold watch" ]; el "description" [ txt "fine" ] ];
         el "item" [ el "name" [ txt "vase" ] ];
       ])

let test_doc_numbering () =
  let d = sample_doc () in
  check_int "size" 6 (Doc.size d);
  check_int "root" 0 (Doc.root d);
  check_string "root tag" "site" (Doc.tag_name d 0);
  check_string "first item" "item" (Doc.tag_name d 1);
  check_int "root level" 0 (Doc.level d 0);
  check_int "name level" 2 (Doc.level d 2)

let test_doc_containment () =
  let d = sample_doc () in
  check_bool "site anc name" true (Doc.is_ancestor d 0 2);
  check_bool "item1 anc name1" true (Doc.is_ancestor d 1 2);
  check_bool "item1 not anc item2" false (Doc.is_ancestor d 1 4);
  check_bool "not self" false (Doc.is_ancestor d 1 1);
  check_bool "parent" true (Doc.is_parent d 1 2);
  check_bool "not grandparent" false (Doc.is_parent d 0 2)

let test_doc_by_tag () =
  let d = sample_doc () in
  let items = Doc.by_tag_name d "item" in
  check_int "two items" 2 (Array.length items);
  check_bool "sorted" true (items.(0) < items.(1));
  check_int "unknown tag" 0 (Array.length (Doc.by_tag_name d "zzz"))

let test_doc_navigation () =
  let d = sample_doc () in
  check_bool "first child of root" true (Doc.first_child d 0 = Some 1);
  check_bool "next sibling item" true (Doc.next_sibling d 1 = Some 4);
  check_bool "no sibling" true (Doc.next_sibling d 4 = None);
  check_bool "parent of name" true (Doc.parent d 2 = Some 1);
  check_bool "root no parent" true (Doc.parent d 0 = None);
  check_bool "ancestors of name1" true (Doc.ancestors d 2 = [ 1; 0 ])

let test_doc_text () =
  let d = sample_doc () in
  check_string "direct text leaf" "gold watch" (Doc.direct_text d 2);
  check_string "deep text item1" "gold watchfine" (Doc.deep_text d 1);
  check_string "no text" "" (Doc.direct_text d 1)

let test_doc_to_tree_roundtrip () =
  let t = parse "<a x=\"1\">pre<b>in</b>post<c><d/></c></a>" in
  let d = Doc.of_tree t in
  check_bool "tree rebuilt" true (Xml.equal t (Doc.to_tree d))

let test_doc_path () =
  let d = sample_doc () in
  check_string "path" "site[1]/item[2]/name[1]" (Doc.path_to_root d 5)

let test_doc_of_string () =
  match Doc.of_string "<a><b/></a>" with
  | Ok d -> check_int "two elements" 2 (Doc.size d)
  | Error _ -> Alcotest.fail "of_string failed"

(* ------------------------------------------------------------------ *)
(* SAX streaming interface *)

module Sax = Xmldom.Xml_sax

let test_sax_events () =
  match Sax.events "<a x=\"1\">hi<b/></a>" with
  | Error e -> Alcotest.failf "%s" (Format.asprintf "%a" Xml_parser.pp_error e)
  | Ok evs ->
    check_bool "event sequence" true
      (evs
      = [
          Sax.Start_element ("a", [ ("x", "1") ]);
          Sax.Text "hi";
          Sax.Start_element ("b", []);
          Sax.End_element "b";
          Sax.End_element "a";
        ])

let test_sax_fold_counts () =
  let s = Xml.to_string (Xmark.Articles.collection ~seed:4 ~count:5 ()) in
  let count =
    match
      Sax.fold s ~init:0 ~f:(fun acc ev ->
          match ev with Sax.Start_element _ -> acc + 1 | _ -> acc)
    with
    | Ok n -> n
    | Error _ -> -1
  in
  check_int "starts = element count" (Xml.count_elements (parse s)) count

let test_sax_error_propagates () =
  check_bool "mismatched tags error" true (Result.is_error (Sax.events "<a><b></a></b>"))

let test_sax_tree_roundtrip () =
  let t = parse "<a>pre<b k=\"v\">in</b>post</a>" in
  match Sax.events (Xml.to_string t) with
  | Error _ -> Alcotest.fail "events failed"
  | Ok evs -> (
    match Sax.tree_of_events evs with
    | Ok t' -> check_bool "tree rebuilt" true (Xml.equal t t')
    | Error msg -> Alcotest.fail msg)

let test_sax_tree_of_events_errors () =
  let bad evs =
    match Sax.tree_of_events evs with
    | Ok _ -> Alcotest.fail "expected error"
    | Error _ -> ()
  in
  bad [];
  bad [ Sax.Start_element ("a", []) ];
  bad [ Sax.Start_element ("a", []); Sax.End_element "b" ];
  bad [ Sax.Text "floating" ];
  bad
    [
      Sax.Start_element ("a", []); Sax.End_element "a";
      Sax.Start_element ("b", []); Sax.End_element "b";
    ]

(* ------------------------------------------------------------------ *)
(* Tag interning *)

let test_tag_interning () =
  let tbl = Tag.create () in
  let a = Tag.intern tbl "alpha" in
  let b = Tag.intern tbl "beta" in
  check_bool "distinct" true (a <> b);
  check_int "stable" a (Tag.intern tbl "alpha");
  check_string "name back" "beta" (Tag.name tbl b);
  check_int "count" 2 (Tag.count tbl);
  check_bool "find known" true (Tag.find tbl "alpha" = Some a);
  check_bool "find unknown" true (Tag.find tbl "gamma" = None)

let test_tag_growth () =
  let tbl = Tag.create () in
  for i = 0 to 199 do
    ignore (Tag.intern tbl ("t" ^ string_of_int i))
  done;
  check_int "200 tags" 200 (Tag.count tbl);
  check_string "spot check" "t150" (Tag.name tbl (Option.get (Tag.find tbl "t150")))

(* ------------------------------------------------------------------ *)
(* Property tests *)

(* Trees over [tag_gen] whose inner nodes have [width] element
   children, each followed by a text chunk half the time; a child of a
   node with size budget [n] among [k] siblings gets [kid_size n k]. *)
let sized_tree ~tag_gen ~width ~kid_size =
  let open QCheck2.Gen in
  let text_gen = map (fun s -> "t" ^ s) (string_size ~gen:(char_range 'a' 'z') (1 -- 6)) in
  let kid_gen self n =
    let* k = self n in
    let* with_text = bool in
    if with_text then
      let* t = text_gen in
      return [ k; Xml.Text t ]
    else return [ k ]
  in
  fix (fun self n ->
      if n <= 0 then map (fun t -> Xml.Element (t, [], [])) tag_gen
      else
        let* t = tag_gen in
        let* k = width in
        let* kid_lists = list_repeat k (kid_gen self (kid_size n k)) in
        return (Xml.Element (t, [], List.concat kid_lists)))

let gen_tree =
  QCheck2.Gen.(
    sized
      (sized_tree ~tag_gen:(oneofl [ "a"; "b"; "c"; "d" ]) ~width:(1 -- 3) ~kid_size:(fun n _ -> n / 2)))

(* Weighted toward what same-tag ranks depend on: two dominant tags, so
   siblings repeat tags; parents up to 16 wide; text between siblings.
   The size budget, at most 200, is split among the children, so a tree
   has about as many elements as its budget. *)
let gen_ranked_tree =
  QCheck2.Gen.(
    sized_size (0 -- 200)
      (sized_tree
         ~tag_gen:(frequencyl [ (4, "a"); (2, "b"); (1, "c") ])
         ~width:(frequency [ (3, 1 -- 3); (2, 4 -- 16) ])
         ~kid_size:(fun n k -> (n - 1) / k)))

let prop_parse_serialize_roundtrip =
  QCheck2.Test.make ~name:"parse(to_string(t)) = t" ~count:200 gen_tree (fun t ->
      match Xml_parser.parse (Xml.to_string t) with
      | Ok t' -> Xml.equal t t'
      | Error _ -> false)

let prop_doc_prepost =
  QCheck2.Test.make ~name:"pre/post containment agrees with parent chains" ~count:100 gen_tree
    (fun t ->
      let d = Doc.of_tree t in
      let ok = ref true in
      Doc.iter_elements d (fun e ->
          List.iter
            (fun a -> if not (Doc.is_ancestor d a e) then ok := false)
            (Doc.ancestors d e));
      !ok)

let prop_doc_tree_roundtrip =
  QCheck2.Test.make ~name:"to_tree(of_tree(t)) = t" ~count:200 gen_tree (fun t ->
      Xml.equal t (Doc.to_tree (Doc.of_tree t)))

let prop_sax_agrees_with_dom =
  QCheck2.Test.make ~name:"SAX events rebuild the DOM tree" ~count:100 gen_tree (fun t ->
      match Sax.events (Xml.to_string t) with
      | Error _ -> false
      | Ok evs -> (
        match Sax.tree_of_events evs with Ok t' -> Xml.equal t t' | Error _ -> false))

let prop_subtree_end =
  QCheck2.Test.make ~name:"subtree_end bounds descendants exactly" ~count:12 gen_tree (fun t ->
      let d = Doc.of_tree t in
      let ok = ref true in
      Doc.iter_elements d (fun e ->
          Doc.iter_elements d (fun e' ->
              let inside = e' > e && e' < Doc.subtree_end d e in
              if inside <> Doc.is_ancestor d e e' then ok := false));
      !ok)

(* ------------------------------------------------------------------ *)
(* Location paths *)

(* The list-scan definition [Doc.path_to_root] was first written with:
   each step's rank is found by listing all of the parent's children. *)
let reference_path d e =
  let sibling_rank e =
    match Doc.parent d e with
    | None -> 1
    | Some p ->
      let rank = ref 0 in
      let found = ref 1 in
      List.iter
        (fun c ->
          if Doc.tag d c = Doc.tag d e then begin
            incr rank;
            if c = e then found := !rank
          end)
        (Doc.children d p);
      !found
  in
  let rec go e acc =
    let step = Printf.sprintf "%s[%d]" (Doc.tag_name d e) (sibling_rank e) in
    match Doc.parent d e with
    | None -> step :: acc
    | Some p -> go p (step :: acc)
  in
  String.concat "/" (go e [])

(* The first element whose path differs from [expected d e], if any. *)
let path_mismatch d expected =
  let bad = ref None in
  Doc.iter_elements d (fun e ->
      if !bad = None && Doc.path_to_root d e <> expected e then bad := Some e);
  !bad

let paths_agree d expected =
  match path_mismatch d expected with
  | None -> true
  | Some e ->
    QCheck2.Test.fail_reportf "element %d: path %S, expected %S" e (Doc.path_to_root d e)
      (expected e)

let prop_path_reference =
  QCheck2.Test.make ~name:"path_to_root = list-scan reference" ~count:300 gen_ranked_tree
    (fun t ->
      let d = Doc.of_tree t in
      paths_agree d (reference_path d))

let test_path_reference_xmark () =
  let check name d =
    match path_mismatch d (reference_path d) with
    | None -> ()
    | Some e ->
      Alcotest.failf "%s: element %d: path %S, expected %S" name e (Doc.path_to_root d e)
        (reference_path d e)
  in
  List.iter
    (fun seed ->
      check (Printf.sprintf "auction seed %d" seed) (Xmark.Auction.doc ~seed ~items:40 ());
      check (Printf.sprintf "articles seed %d" seed) (Xmark.Articles.doc ~seed ~count:60 ()))
    [ 1; 7; 2004 ]

(* A base tree, then 1-4 appends of 1-4 trees each.  The appended roots
   draw from the base's tags and from two tags the base never uses. *)
let gen_append_chain =
  let open QCheck2.Gen in
  let batch_tree =
    sized_size (0 -- 12)
      (sized_tree
         ~tag_gen:(frequencyl [ (3, "a"); (2, "b"); (1, "c"); (2, "e"); (1, "f") ])
         ~width:(1 -- 4)
         ~kid_size:(fun n k -> (n - 1) / k))
  in
  pair gen_ranked_tree (list_size (1 -- 4) (list_size (1 -- 4) batch_tree))

let prop_path_after_appends =
  QCheck2.Test.make ~name:"path_to_root after append_trees = fresh of_tree" ~count:200
    gen_append_chain (fun (base, batches) ->
      let rec go d tree = function
        | [] -> true
        | batch :: rest ->
          let tree =
            match tree with
            | Xml.Element (name, attrs, kids) -> Xml.Element (name, attrs, kids @ batch)
            | Xml.Text _ -> assert false
          in
          let d = Doc.append_trees d batch in
          let fresh = Doc.of_tree tree in
          paths_agree d (Doc.path_to_root fresh)
          && paths_agree d (reference_path d)
          && go d tree rest
      in
      go (Doc.of_tree base) base batches)

(* A path costs O(depth): rendering the last article of a collection
   allocates the same whether the collection root has 10 children or
   5000. *)
let test_path_allocation_flat () =
  let words count =
    let d = Xmark.Articles.doc ~seed:3 ~count () in
    let arts = Doc.by_tag_name d "article" in
    let last = arts.(Array.length arts - 1) in
    ignore (Doc.path_to_root d last);
    let before = Gc.minor_words () in
    ignore (Sys.opaque_identity (Doc.path_to_root d last));
    int_of_float (Gc.minor_words () -. before)
  in
  let small = words 10 in
  let large = words 5000 in
  check_int (Printf.sprintf "minor words, 5000 vs 10 articles (%d)" small) small large

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "xmldom"
    [
      ( "xml",
        [
          Alcotest.test_case "escape" `Quick test_escape;
          Alcotest.test_case "serialize roundtrip" `Quick test_serialize_roundtrip_simple;
          Alcotest.test_case "direct vs deep text" `Quick test_direct_vs_deep_text;
          Alcotest.test_case "count elements" `Quick test_count_elements;
          Alcotest.test_case "attribute" `Quick test_attribute;
        ] );
      ( "parser",
        [
          Alcotest.test_case "minimal" `Quick test_parse_minimal;
          Alcotest.test_case "prolog" `Quick test_parse_decl_doctype_comments;
          Alcotest.test_case "entities" `Quick test_parse_entities;
          Alcotest.test_case "cdata" `Quick test_parse_cdata;
          Alcotest.test_case "attributes" `Quick test_parse_attrs;
          Alcotest.test_case "whitespace dropped" `Quick test_parse_ws_dropped;
          Alcotest.test_case "mixed content kept" `Quick test_parse_mixed_kept;
          Alcotest.test_case "errors" `Quick test_parse_errors;
          Alcotest.test_case "error positions" `Quick test_parse_error_position;
        ] );
      ( "doc",
        [
          Alcotest.test_case "numbering" `Quick test_doc_numbering;
          Alcotest.test_case "containment" `Quick test_doc_containment;
          Alcotest.test_case "by_tag" `Quick test_doc_by_tag;
          Alcotest.test_case "navigation" `Quick test_doc_navigation;
          Alcotest.test_case "text" `Quick test_doc_text;
          Alcotest.test_case "to_tree roundtrip" `Quick test_doc_to_tree_roundtrip;
          Alcotest.test_case "path rendering" `Quick test_doc_path;
          Alcotest.test_case "of_string" `Quick test_doc_of_string;
        ] );
      ( "sax",
        [
          Alcotest.test_case "event stream" `Quick test_sax_events;
          Alcotest.test_case "fold counts" `Quick test_sax_fold_counts;
          Alcotest.test_case "errors propagate" `Quick test_sax_error_propagates;
          Alcotest.test_case "tree roundtrip" `Quick test_sax_tree_roundtrip;
          Alcotest.test_case "tree_of_events errors" `Quick test_sax_tree_of_events_errors;
        ] );
      ( "tag",
        [
          Alcotest.test_case "interning" `Quick test_tag_interning;
          Alcotest.test_case "growth" `Quick test_tag_growth;
        ] );
      ( "properties",
        [
          q prop_parse_serialize_roundtrip;
          q prop_doc_prepost;
          q prop_doc_tree_roundtrip;
          q prop_sax_agrees_with_dom;
          q prop_subtree_end;
        ] );
      ( "paths",
        [
          q prop_path_reference;
          Alcotest.test_case "xmark documents match the reference" `Quick test_path_reference_xmark;
          q prop_path_after_appends;
          Alcotest.test_case "allocation does not grow with fan-out" `Quick test_path_allocation_flat;
        ] );
    ]
