(* Tests for the relaxation operators, penalties and the relaxation
   space — the formal core of the paper (§3, §4.3.1). *)

module Xml = Xmldom.Xml
module Doc = Xmldom.Doc
module Ftexp = Fulltext.Ftexp
module Index = Fulltext.Index
module Pred = Tpq.Pred
module Query = Tpq.Query
module Xpath = Tpq.Xpath
module Semantics = Tpq.Semantics
module Containment = Tpq.Containment
module Closure = Tpq.Closure
module Hierarchy = Tpq.Hierarchy
module Op = Relax.Op
module Penalty = Relax.Penalty
module Space = Relax.Space

let el = Xml.element
let txt = Xml.text
let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_float = Alcotest.(check (float 1e-9))

let kw = Ftexp.(Term "xml" &&& Term "streaming")

let q1 () =
  Xpath.parse_exn
    "//article[./section[./algorithm and ./paragraph[.contains(\"XML\" and \"streaming\")]]]"

(* In Q1's parse, $1=article, $2=section, $3=algorithm, $4=paragraph. *)

let shape_equal a b = String.equal (Query.canonical_key a) (Query.canonical_key b)

(* ------------------------------------------------------------------ *)
(* Operators: the Figure 1 derivations *)

let test_axis_generalization () =
  let q = Op.apply_exn (q1 ()) (Op.Axis_generalization 2) in
  check_bool "pc became ad" true (Query.parent q 2 = Some (1, Query.Descendant));
  check_bool "inapplicable on ad edge" true (Result.is_error (Op.apply q (Op.Axis_generalization 2)));
  check_bool "inapplicable on root" true (Result.is_error (Op.apply q (Op.Axis_generalization 1)))

let test_contains_promotion_is_q2 () =
  (* κ_$4(Q1) = Q2 (Figure 1b) *)
  let q2 = Op.apply_exn (q1 ()) (Op.Contains_promotion (4, kw)) in
  let expected =
    Xpath.parse_exn
      "//article[./section[./algorithm and ./paragraph and .contains(\"XML\" and \"streaming\")]]"
  in
  check_bool "Q2 shape" true (shape_equal q2 expected)

let test_subtree_promotion_is_q3 () =
  (* σ_$3(Q1) = Q3 (Figure 1c) *)
  let q3 = Op.apply_exn (q1 ()) (Op.Subtree_promotion 3) in
  let expected =
    Xpath.parse_exn
      "//article[.//algorithm and ./section[./paragraph[.contains(\"XML\" and \"streaming\")]]]"
  in
  check_bool "Q3 shape" true (shape_equal q3 expected)

let test_leaf_deletion_is_q5 () =
  (* λ_$3(Q2) = Q5 (Figure 1e) *)
  let q2 = Op.apply_exn (q1 ()) (Op.Contains_promotion (4, kw)) in
  let q5 = Op.apply_exn q2 (Op.Leaf_deletion 3) in
  let expected =
    Xpath.parse_exn "//article[./section[./paragraph and .contains(\"XML\" and \"streaming\")]]"
  in
  check_bool "Q5 shape" true (shape_equal q5 expected)

let test_q6_reachable () =
  (* Repeated application reaches Q6 (keywords anywhere in article). *)
  let q = q1 () in
  let q = Op.apply_exn q (Op.Contains_promotion (4, kw)) in
  let q = Op.apply_exn q (Op.Leaf_deletion 3) in
  let q = Op.apply_exn q (Op.Leaf_deletion 4) in
  let q = Op.apply_exn q (Op.Contains_promotion (2, kw)) in
  let q = Op.apply_exn q (Op.Leaf_deletion 2) in
  let expected = Xpath.parse_exn "//article[.contains(\"XML\" and \"streaming\")]" in
  check_bool "Q6 shape" true (shape_equal q expected);
  check_int "single variable" 1 (Query.size q)

let test_op_errors () =
  let q = q1 () in
  check_bool "delete non-leaf" true (Result.is_error (Op.apply q (Op.Leaf_deletion 2)));
  check_bool "promote without grandparent" true
    (Result.is_error (Op.apply q (Op.Subtree_promotion 2)));
  check_bool "promote root contains" true
    (Result.is_error (Op.apply q (Op.Contains_promotion (1, kw))));
  check_bool "promote missing contains" true
    (Result.is_error (Op.apply q (Op.Contains_promotion (3, kw))))

let test_applicable_q1 () =
  let ops = Op.applicable (q1 ()) in
  (* 3 axis generalizations + 2 leaf deletions + 2 subtree promotions +
     1 contains promotion *)
  check_bool "axis gen $2" true (List.mem (Op.Axis_generalization 2) ops);
  check_bool "axis gen $3" true (List.mem (Op.Axis_generalization 3) ops);
  check_bool "axis gen $4" true (List.mem (Op.Axis_generalization 4) ops);
  check_bool "delete $3" true (List.mem (Op.Leaf_deletion 3) ops);
  check_bool "delete $4" true (List.mem (Op.Leaf_deletion 4) ops);
  check_bool "promote $3" true (List.mem (Op.Subtree_promotion 3) ops);
  check_bool "promote $4" true (List.mem (Op.Subtree_promotion 4) ops);
  check_bool "promote contains $4" true (List.mem (Op.Contains_promotion (4, kw)) ops);
  check_int "exactly these" 8 (List.length ops)

let test_applicable_excludes_equivalent () =
  (* a[b and b]: deleting either b leaf yields an equivalent query, so
     leaf deletion must not be offered. *)
  let q =
    Query.make_exn ~root:1
      ~nodes:
        [
          (1, Query.node_spec ~tag:"a" ());
          (2, Query.node_spec ~tag:"b" ());
          (3, Query.node_spec ~tag:"b" ());
        ]
      ~edges:[ (1, 2, Query.Child); (1, 3, Query.Child) ]
      ~distinguished:1
  in
  let ops = Op.applicable q in
  check_bool "no equivalent deletion" false
    (List.mem (Op.Leaf_deletion 2) ops || List.mem (Op.Leaf_deletion 3) ops)

(* Soundness (Theorem 2, first half): operators produce relaxations,
   i.e. strictly containing queries. *)
let test_ops_sound_containment () =
  let q = q1 () in
  List.iter
    (fun op ->
      let q' = Op.apply_exn q op in
      check_bool (Op.to_string op ^ " contains original") true (Containment.contained q q');
      check_bool (Op.to_string op ^ " strict") false (Containment.contained q' q))
    (Op.applicable q)

(* Independence: no operator's effect is reproducible by the others.
   We verify the four canonical instances on Q1 produce four pairwise
   non-equivalent queries, none equal to any single application of a
   different operator kind. *)
let test_ops_independent () =
  let q = q1 () in
  let results =
    List.map
      (fun op -> (op, Op.apply_exn q op))
      [
        Op.Axis_generalization 2;
        Op.Leaf_deletion 3;
        Op.Subtree_promotion 3;
        Op.Contains_promotion (4, kw);
      ]
  in
  List.iter
    (fun (op1, r1) ->
      List.iter
        (fun (op2, r2) ->
          if Op.compare op1 op2 <> 0 then
            check_bool
              (Op.to_string op1 ^ " vs " ^ Op.to_string op2)
              false (shape_equal r1 r2))
        results)
    results

(* ------------------------------------------------------------------ *)
(* Penalties (§4.3.1, Example 1) *)

(* Article data where the counts are easy to verify by hand. *)
let article_doc () =
  Doc.of_tree
    (el "collection"
       [
         el "article"
           [ el "section" [ el "algorithm" []; el "paragraph" [ txt "xml streaming" ] ] ];
         el "article"
           [
             el "section" [ el "paragraph" [ txt "xml streaming" ] ];
             el "section" [ el "subsection" [ el "algorithm" [] ] ];
           ];
       ])

let penalty_env () =
  let d = article_doc () in
  let idx = Index.build d in
  let st = Stats.build d in
  Stats.set_index st idx;
  Penalty.make st Penalty.uniform (q1 ())

let test_penalty_pc () =
  let env = penalty_env () in
  (* #pc(section,algorithm) = 1, #ad(section,algorithm) = 2 *)
  check_float "pc penalty" 0.5 (Penalty.predicate_penalty env (Pred.Pc (2, 3)))

let test_penalty_ad () =
  let env = penalty_env () in
  (* #ad(section,algorithm) = 2, #section = 3, #algorithm = 2 *)
  check_float "ad penalty" (2.0 /. 6.0) (Penalty.predicate_penalty env (Pred.Ad (2, 3)))

let test_penalty_contains () =
  let env = penalty_env () in
  (* #contains(paragraph, kw) = 2, parent of $4 is $2 (section):
     #contains(section, kw) = 2 *)
  check_float "contains penalty" 1.0 (Penalty.predicate_penalty env (Pred.Contains (4, kw)))

let test_penalty_value_preds_zero () =
  let env = penalty_env () in
  check_float "tag penalty" 0.0 (Penalty.predicate_penalty env (Pred.Tag_eq (1, "article")))

let test_base_and_keyword_score () =
  let env = penalty_env () in
  check_float "base = 3 structural preds" 3.0 (Penalty.base_score env);
  check_float "one contains pred" 1.0 (Penalty.max_keyword_score env)

let test_dropped_preds_contains_promotion () =
  let env = penalty_env () in
  let q2 = Op.apply_exn (q1 ()) (Op.Contains_promotion (4, kw)) in
  let dropped = Penalty.dropped_preds env q2 in
  check_bool "only contains($4) dropped" true
    (dropped = [ Pred.Contains (4, kw) ])

let test_dropped_preds_subtree_promotion () =
  let env = penalty_env () in
  let q3 = Op.apply_exn (q1 ()) (Op.Subtree_promotion 3) in
  let dropped = Penalty.dropped_preds env q3 in
  check_bool "pc and ad (2,3) dropped" true
    (List.sort Pred.compare dropped
    = List.sort Pred.compare [ Pred.Pc (2, 3); Pred.Ad (2, 3) ])

let test_structural_score_decreases () =
  let env = penalty_env () in
  let q = q1 () in
  let s0 = Penalty.structural_score env q in
  List.iter
    (fun op ->
      let q' = Op.apply_exn q op in
      let s1 = Penalty.structural_score env q' in
      check_bool (Op.to_string op ^ " lowers score") true (s1 < s0 +. 1e-12))
    (Op.applicable q)

(* Order invariance (Theorem 3): the score of a relaxation does not
   depend on the order its operators were applied in. *)
let test_order_invariance () =
  let env = penalty_env () in
  let q = q1 () in
  let path1 =
    Op.apply_exn (Op.apply_exn q (Op.Contains_promotion (4, kw))) (Op.Subtree_promotion 3)
  in
  let path2 =
    Op.apply_exn (Op.apply_exn q (Op.Subtree_promotion 3)) (Op.Contains_promotion (4, kw))
  in
  check_float "same score both orders"
    (Penalty.structural_score env path1)
    (Penalty.structural_score env path2)

(* ------------------------------------------------------------------ *)
(* Relaxation space *)

let test_enumerate_includes_figure1 () =
  let space = Space.enumerate ~max_queries:400 (q1 ()) in
  let keys = List.map (fun (q, _) -> Query.canonical_key q) space in
  let has s = List.mem (Query.canonical_key (Xpath.parse_exn s)) keys in
  check_bool "Q2 in space" true
    (has "//article[./section[./algorithm and ./paragraph and .contains(\"xml\" and \"streaming\")]]");
  check_bool "Q3 in space" true
    (has "//article[.//algorithm and ./section[./paragraph[.contains(\"xml\" and \"streaming\")]]]");
  check_bool "Q5 in space" true
    (has "//article[./section[./paragraph and .contains(\"xml\" and \"streaming\")]]");
  check_bool "Q6 in space" true (has "//article[.contains(\"xml\" and \"streaming\")]")

let test_enumerate_dedups () =
  let space = Space.enumerate ~max_queries:400 (q1 ()) in
  let keys = List.map (fun (q, _) -> Query.canonical_key q) space in
  let sorted = List.sort String.compare keys in
  let rec no_dup = function
    | a :: (b :: _ as rest) -> a <> b && no_dup rest
    | _ -> true
  in
  check_bool "no duplicate shapes" true (no_dup sorted)

let test_enumerate_all_sound () =
  let q = q1 () in
  let space = Space.enumerate ~max_queries:100 q in
  List.iter
    (fun (q', ops) ->
      if ops <> [] then
        check_bool "is relaxation" true (Containment.contained q q'))
    space

let test_sequence_monotone () =
  let env = penalty_env () in
  let chain = Space.sequence ~max_steps:20 env in
  check_bool "starts at original" true (chain <> [] && (List.hd chain).Space.ops = []);
  let rec check_pairs = function
    | (a : Space.entry) :: (b : Space.entry) :: rest ->
      check_bool "penalty non-decreasing" true (b.penalty >= a.penalty -. 1e-9);
      check_bool "score non-increasing" true (b.score <= a.score +. 1e-9);
      check_bool "one more op" true (List.length b.ops = List.length a.ops + 1);
      check_pairs (b :: rest)
    | _ -> ()
  in
  check_pairs chain

let test_sequence_reaches_full_relaxation () =
  let env = penalty_env () in
  let chain = Space.sequence ~max_steps:32 env in
  let last = List.nth chain (List.length chain - 1) in
  (* the chain ends at the single-node fully relaxed query (Q6 form) *)
  check_int "one variable left" 1 (Query.size last.Space.query);
  check_bool "no further op" true (Space.cheapest_next env last.Space.query = None)

let test_sequence_answers_grow () =
  let d = article_doc () in
  let idx = Index.build d in
  let st = Stats.build d in
  Stats.set_index st idx;
  let env = Penalty.make st Penalty.uniform (q1 ()) in
  let chain = Space.sequence ~max_steps:32 env in
  let rec check_pairs = function
    | (a : Space.entry) :: (b : Space.entry) :: rest ->
      let aa = Semantics.answers d idx a.Space.query in
      let bb = Semantics.answers d idx b.Space.query in
      check_bool "answers monotone" true (List.for_all (fun x -> List.mem x bb) aa);
      check_pairs (b :: rest)
    | _ -> ()
  in
  check_pairs chain

(* Completeness spot check (Theorem 2, second half): dropping
   pc(2,3)+ad(2,3) from the closure — a valid structural relaxation —
   is reachable via the operators. *)
let test_completeness_q3 () =
  let q = q1 () in
  let target =
    Xpath.parse_exn
      "//article[.//algorithm and ./section[./paragraph[.contains(\"xml\" and \"streaming\")]]]"
  in
  let space = Space.enumerate ~max_queries:400 q in
  check_bool "Q3 reachable" true
    (List.exists (fun (q', _) -> shape_equal q' target) space)

(* Golden planner outputs (see plan_golden.ml) *)

let test_plan_golden () = Golden.check "plan_golden.expected" (Plan_golden.lines ())

(* ------------------------------------------------------------------ *)
(* Weights *)

let test_weights_by_kind () =
  let w = Relax.Weights.by_kind ~structural:2.0 ~contains:0.5 () in
  check_float "pc" 2.0 (w (Pred.Pc (1, 2)));
  check_float "ad" 2.0 (w (Pred.Ad (1, 2)));
  check_float "contains" 0.5 (w (Pred.Contains (1, kw)));
  check_float "tag default" 1.0 (w (Pred.Tag_eq (1, "a")))

let test_weights_per_var () =
  let w = Relax.Weights.per_var [ (2, 3.0) ] Relax.Weights.uniform in
  check_float "mentions var" 3.0 (w (Pred.Pc (1, 2)));
  check_float "does not" 1.0 (w (Pred.Pc (1, 3)));
  check_float "both endpoints" 9.0
    (Relax.Weights.per_var [ (1, 3.0); (2, 3.0) ] Relax.Weights.uniform (Pred.Pc (1, 2)))

let test_weights_parse () =
  (match Relax.Weights.parse "structural=2, contains=0.5, var3=4" with
  | Error e -> Alcotest.fail e
  | Ok w ->
    check_float "structural" 2.0 (w (Pred.Pc (1, 2)));
    check_float "contains" 0.5 (w (Pred.Contains (1, kw)));
    check_float "var scaled" 8.0 (w (Pred.Pc (1, 3))));
  let bad s =
    match Relax.Weights.parse s with
    | Ok _ -> Alcotest.failf "expected parse error: %S" s
    | Error _ -> ()
  in
  bad "structural";
  bad "structural=x";
  bad "nope=2";
  bad "var=2";
  bad "contains=-1"

let test_weights_affect_scores () =
  (* doubling structural weights doubles the base score and scales
     penalties accordingly *)
  let d = article_doc () in
  let idx = Index.build d in
  let st = Stats.build d in
  Stats.set_index st idx;
  let env1 = Penalty.make st Relax.Weights.uniform (q1 ()) in
  let env2 = Penalty.make st (Relax.Weights.by_kind ~structural:2.0 ()) (q1 ()) in
  check_float "base doubles" (2.0 *. Penalty.base_score env1) (Penalty.base_score env2);
  let q2 = Op.apply_exn (q1 ()) (Op.Subtree_promotion 3) in
  check_float "penalty doubles"
    (2.0 *. Penalty.relaxation_penalty env1 q2)
    (Penalty.relaxation_penalty env2 q2)

(* ------------------------------------------------------------------ *)
(* Properties *)

let gen_query =
  let open QCheck2.Gen in
  let tag_gen = oneofl [ "a"; "b"; "c"; "d" ] in
  let node_gen =
    let* t = tag_gen in
    let* has_kw = bool in
    return (Query.node_spec ~tag:t ~contains:(if has_kw then [ Ftexp.Term "xml" ] else []) ())
  in
  let* n_nodes = 2 -- 5 in
  let* nodes = list_repeat n_nodes node_gen in
  let* axes = list_repeat n_nodes (oneofl [ Query.Child; Query.Descendant ]) in
  let* parents = flatten_l (List.init n_nodes (fun i -> if i = 0 then return 0 else 0 -- (i - 1))) in
  let nodes = List.mapi (fun i n -> (i + 1, n)) nodes in
  let edges =
    List.concat
      (List.mapi
         (fun i (p, a) -> if i = 0 then [] else [ (p + 1, i + 1, a) ])
         (List.combine parents axes))
  in
  match Query.make ~root:1 ~nodes ~edges ~distinguished:1 with
  | Ok q -> return q
  | Error _ -> assert false

let gen_doc =
  let open QCheck2.Gen in
  let tag_gen = oneofl [ "a"; "b"; "c"; "d" ] in
  sized @@ fix (fun self n ->
      let* t = tag_gen in
      let* kw = bool in
      let body = if kw then [ Xml.Text "xml" ] else [] in
      if n <= 0 then return (Xml.Element (t, [], body))
      else
        let* kids = list_size (1 -- 3) (self (n / 3)) in
        return (Xml.Element (t, [], body @ kids)))

let prop_ops_enlarge_answers =
  QCheck2.Test.make ~name:"operators only add answers on data" ~count:60
    (QCheck2.Gen.pair gen_query gen_doc) (fun (q, tree) ->
      let d = Doc.of_tree tree in
      let idx = Index.build d in
      let before = Semantics.answers d idx q in
      List.for_all
        (fun op ->
          let q' = Op.apply_exn q op in
          let after = Semantics.answers d idx q' in
          List.for_all (fun x -> List.mem x after) before)
        (Op.applicable q))

let prop_sequence_scores_sorted =
  QCheck2.Test.make ~name:"greedy chain scores are non-increasing" ~count:30
    (QCheck2.Gen.pair gen_query gen_doc) (fun (q, tree) ->
      let d = Doc.of_tree tree in
      let st = Stats.build d in
      Stats.set_index st (Index.build d);
      let env = Penalty.make st Penalty.uniform q in
      let chain = Space.sequence ~max_steps:12 env in
      let rec ok = function
        | (a : Space.entry) :: (b : Space.entry) :: rest ->
          b.score <= a.score +. 1e-9 && ok (b :: rest)
        | _ -> true
      in
      ok chain)

(* Rebuild [q] with every variable id mapped through the injection [f].
   The result is isomorphic to [q], so its canonical key must not
   change — the query cache keys plans and answers by shape, not by
   variable numbering. *)
let remap_vars f q =
  let vars = Query.vars q in
  let nodes = List.map (fun v -> (f v, Query.node q v)) vars in
  let edges =
    List.filter_map
      (fun v -> Option.map (fun (p, a) -> (f p, f v, a)) (Query.parent q v))
      vars
  in
  match
    Query.make ~root:(f (Query.root q)) ~nodes ~edges
      ~distinguished:(f (Query.distinguished q))
  with
  | Ok q' -> q'
  | Error msg -> failwith msg

let prop_canonical_key_isomorphic =
  QCheck2.Test.make ~name:"canonical_key invariant under variable renaming" ~count:200 gen_query
    (fun q ->
      (* 100 - v reverses sibling order, exercising the child-key sort. *)
      shape_equal q (remap_vars (fun v -> (v * 7) + 3) q)
      && shape_equal q (remap_vars (fun v -> 100 - v) q))

let prop_canonical_key_separates =
  (* Every applicable operator yields a non-equivalent query (that is
     what [applicable] guarantees), and non-equivalent implies
     non-isomorphic — so the relaxed query must get a distinct key. *)
  QCheck2.Test.make ~name:"canonical_key distinct across applicable relaxations" ~count:200
    gen_query (fun q ->
      List.for_all (fun op -> not (shape_equal q (Op.apply_exn q op))) (Op.applicable q))

(* ------------------------------------------------------------------ *)
(* Closure masks against their references: the Closure fixpoint, the
   containment test, the planner they replaced, and §5.1's bound by
   brute force. *)

type shape =
  | Distinct  (** distinct tags, no hierarchy: the planner's mask path *)
  | Repeated  (** two tags only, positive contains: redundant siblings *)
  | Mixed  (** wildcards, repeated tags, sometimes a hierarchy *)

let mask_hierarchy = Hierarchy.of_list_exn [ ("a", "p"); ("b", "p"); ("c", "a") ]

let gen_mask_doc =
  let open QCheck2.Gen in
  sized_size (5 -- 40)
  @@ fix (fun self n ->
         let* t = oneofl [ "a"; "b"; "c"; "d"; "e"; "f"; "p" ] in
         let* ws = list_size (0 -- 2) (oneofl [ "x"; "y"; "z" ]) in
         let body = if ws = [] then [] else [ Xml.Text (String.concat " " ws) ] in
         if n <= 1 then return (Xml.Element (t, [], body))
         else
           let* kids = list_size (1 -- 3) (self (n / 3)) in
           return (Xml.Element (t, [], body @ kids)))

(* Queries of up to 6 nodes.  Half are [Distinct], where a quarter of
   the nodes carry a negated contains: promoted twice, it moves between
   two nodes outside the original closure, so only the positivity
   condition keeps the planner off the mask path. *)
let gen_mask_case =
  let open QCheck2.Gen in
  let* shape = frequency [ (2, return Distinct); (1, return Repeated); (1, return Mixed) ] in
  let* n = 2 -- 6 in
  let* tags =
    match shape with
    | Distinct ->
      map
        (fun ts -> List.filteri (fun i _ -> i < n) (List.map Option.some ts))
        (shuffle_l [ "a"; "b"; "c"; "d"; "e"; "f" ])
    | Repeated -> list_repeat n (map Option.some (oneofl [ "a"; "b" ]))
    | Mixed -> list_repeat n (oneofl [ Some "a"; Some "b"; Some "c"; None ])
  in
  let positive = oneofl Ftexp.[ Term "x"; And (Term "x", Term "y") ] in
  let negated = oneofl Ftexp.[ Not (Term "y"); And (Term "x", Not (Term "y")) ] in
  let one g = map (fun f -> [ f ]) g in
  let contains =
    match shape with
    | Repeated -> frequency [ (3, return []); (1, one positive) ]
    | Distinct | Mixed -> frequency [ (2, return []); (1, one positive); (1, one negated) ]
  in
  let* contains = list_repeat n contains in
  let* axes = list_repeat n (oneofl [ Query.Child; Query.Descendant ]) in
  let* parents = flatten_l (List.init n (fun i -> if i = 0 then return 0 else 0 -- (i - 1))) in
  let* dist = frequency [ (3, return 1); (1, 1 -- n) ] in
  let* hierarchy =
    match shape with
    | Mixed -> oneofl [ Hierarchy.empty; mask_hierarchy ]
    | Distinct | Repeated -> return Hierarchy.empty
  in
  let* doc = gen_mask_doc in
  let nodes =
    List.mapi (fun i (tag, contains) -> (i + 1, { Query.tag; attrs = []; contains }))
      (List.combine tags contains)
  in
  let edges =
    List.concat
      (List.mapi
         (fun i (p, a) -> if i = 0 then [] else [ (p + 1, i + 1, a) ])
         (List.combine parents axes))
  in
  return (hierarchy, Query.make_exn ~root:1 ~nodes ~edges ~distinguished:dist, doc)

let print_mask_case (h, q, _) =
  Printf.sprintf "%s%s" (Xpath.to_string q)
    (if Hierarchy.is_empty h then "" else "  (with hierarchy)")

(* [closure(orig) \ closure(q)] by the fixpoint, over the scored
   predicates. *)
let fixpoint_dropped penv q =
  let implied = Closure.closure_set (Pred.Set.of_list (Query.to_preds q)) in
  List.filter (fun p -> not (Pred.Set.mem p implied)) (Penalty.scored_preds penv)

(* The planner the masks replaced: [Op.applicable]'s containment test
   and a fixpoint per penalty, with [Space.cheapest_next]'s
   tie-breaking. *)
let reference_chain penv =
  let hierarchy = Penalty.hierarchy penv in
  let penalty q =
    List.fold_left (fun acc p -> acc +. Penalty.predicate_penalty penv p) 0.0
      (fixpoint_dropped penv q)
  in
  let rec go q ops acc steps =
    let pick best op =
      let q' = Op.apply_exn ~hierarchy q op in
      let p = penalty q' in
      match best with
      | Some (op0, _, p0)
        when not (p < p0 -. 1e-12 || (Float.abs (p -. p0) <= 1e-12 && Op.compare op op0 < 0)) ->
        best
      | _ -> Some (op, q', p)
    in
    if steps >= 32 then List.rev acc
    else
      match List.fold_left pick None (Op.applicable ~hierarchy q) with
      | None -> List.rev acc
      | Some (op, q', p) ->
        let ops = ops @ [ op ] in
        go q' ops ((ops, Int64.bits_of_float p) :: acc) (steps + 1)
  in
  ([], 0L) :: go (Penalty.original penv) [] [] 0

(* §5.1's bound from its definition, for closures of at most 18
   predicates: the best [base − Σπ(failed)] over the inference-closed
   sets of scored predicates that fail one the entry still implies.  A
   set is closed when it holds the fixpoint closure of each pair of its
   members (every rule of Figure 3 has at most two premises). *)
let brute_force_bounds penv =
  let scored = Array.of_list (Penalty.scored_preds penv) in
  let m = Array.length scored in
  let bits_of set =
    let acc = ref 0 in
    Array.iteri (fun i p -> if Pred.Set.mem p set then acc := !acc lor (1 lsl i)) scored;
    !acc
  in
  let derived =
    Array.init m (fun i ->
        Array.init m (fun j ->
            bits_of (Closure.closure_set (Pred.Set.of_list [ scored.(i); scored.(j) ]))))
  in
  let closed s =
    let ok = ref true and i = ref 0 in
    while !ok && !i < m do
      if s land (1 lsl !i) <> 0 then
        for j = !i to m - 1 do
          if s land (1 lsl j) <> 0 && derived.(!i).(j) land lnot s <> 0 then ok := false
        done;
      incr i
    done;
    !ok
  in
  let pi = Array.map (Penalty.predicate_penalty penv) scored in
  let closed_losses = ref [] in
  for s = 0 to (1 lsl m) - 1 do
    if closed s then begin
      let loss = ref 0.0 in
      for i = 0 to m - 1 do
        if s land (1 lsl i) = 0 then loss := !loss +. pi.(i)
      done;
      closed_losses := (s, !loss) :: !closed_losses
    end
  done;
  let base = Penalty.base_score penv in
  fun (entry : Space.entry) ->
    let enforced =
      bits_of (Closure.closure_set (Pred.Set.of_list (Query.to_preds entry.query)))
    in
    List.fold_left
      (fun best (s, loss) ->
        if s land enforced <> enforced && base -. loss > best then base -. loss else best)
      neg_infinity !closed_losses

let prop_masks_match_references =
  QCheck2.Test.make ~name:"closure masks match the fixpoint, containment and brute force"
    ~count:250 ~print:print_mask_case gen_mask_case (fun (hierarchy, q, tree) ->
      let d = Doc.of_tree tree in
      let st = Stats.build d in
      Stats.set_index st (Index.build d);
      let penv = Penalty.make ~hierarchy st Penalty.uniform q in
      let lattice = Space.enumerate ~hierarchy ~max_queries:40 q in
      let preds ps = String.concat "; " (List.map Pred.to_string ps) in
      (* (a) the mask read off the tree is the fixpoint's difference *)
      List.iter
        (fun (q', _) ->
          let direct = Penalty.dropped_preds penv q' and fixpoint = fixpoint_dropped penv q' in
          if direct <> fixpoint then
            QCheck2.Test.fail_reportf "dropped sets differ on %s:@ mask [%s]@ fixpoint [%s]"
              (Xpath.to_string q') (preds direct) (preds fixpoint))
        lattice;
      (* (b) on the mask path, mask equality is equivalence *)
      if Penalty.forced penv then
        List.iter
          (fun (q', _) ->
            List.iter
              (fun op ->
                match Op.apply ~hierarchy q' op with
                | Error _ -> ()
                | Ok q'' ->
                  let by_mask = Penalty.mask_equal (Penalty.mask penv q') (Penalty.mask penv q'') in
                  if by_mask <> Op.equivalent ~hierarchy q' q'' then
                    QCheck2.Test.fail_reportf "%s on %s: masks equal %b, equivalent %b"
                      (Op.to_string op) (Xpath.to_string q') by_mask (not by_mask))
              (Op.candidates ~hierarchy q'))
          lattice;
      (* the chain is the one the fixpoint planner builds, bit for bit *)
      let chain = Space.sequence penv in
      let got = List.map (fun (e : Space.entry) -> (e.ops, Int64.bits_of_float e.penalty)) chain in
      if got <> reference_chain penv then
        QCheck2.Test.fail_reportf "chain differs from the fixpoint planner's";
      (* (c) every entry's bound is the brute-force maximum, bit for bit *)
      if List.length (Penalty.scored_preds penv) <= 18 then begin
        let bound = brute_force_bounds penv in
        List.iteri
          (fun i (e : Space.entry) ->
            let expected = bound e in
            let sf = Flexpath.Common.unseen_bound Flexpath.Ranking.Structure_first penv e in
            let comb = Flexpath.Common.unseen_bound Flexpath.Ranking.Combined penv e in
            if
              Int64.bits_of_float sf <> Int64.bits_of_float expected
              || Int64.bits_of_float comb
                 <> Int64.bits_of_float (expected +. Penalty.max_keyword_score penv)
            then
              QCheck2.Test.fail_reportf "entry %d: bound %h, brute force %h" i sf expected)
          chain
      end;
      true)

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "relax"
    [
      ( "operators",
        [
          Alcotest.test_case "axis generalization" `Quick test_axis_generalization;
          Alcotest.test_case "contains promotion = Q2" `Quick test_contains_promotion_is_q2;
          Alcotest.test_case "subtree promotion = Q3" `Quick test_subtree_promotion_is_q3;
          Alcotest.test_case "leaf deletion = Q5" `Quick test_leaf_deletion_is_q5;
          Alcotest.test_case "Q6 reachable" `Quick test_q6_reachable;
          Alcotest.test_case "errors" `Quick test_op_errors;
          Alcotest.test_case "applicable on Q1" `Quick test_applicable_q1;
          Alcotest.test_case "equivalent results excluded" `Quick test_applicable_excludes_equivalent;
          Alcotest.test_case "soundness (containment)" `Quick test_ops_sound_containment;
          Alcotest.test_case "independence" `Quick test_ops_independent;
        ] );
      ( "penalties",
        [
          Alcotest.test_case "pc penalty" `Quick test_penalty_pc;
          Alcotest.test_case "ad penalty" `Quick test_penalty_ad;
          Alcotest.test_case "contains penalty" `Quick test_penalty_contains;
          Alcotest.test_case "value preds zero" `Quick test_penalty_value_preds_zero;
          Alcotest.test_case "base and keyword scores" `Quick test_base_and_keyword_score;
          Alcotest.test_case "dropped: contains promotion" `Quick test_dropped_preds_contains_promotion;
          Alcotest.test_case "dropped: subtree promotion" `Quick test_dropped_preds_subtree_promotion;
          Alcotest.test_case "scores decrease" `Quick test_structural_score_decreases;
          Alcotest.test_case "order invariance" `Quick test_order_invariance;
        ] );
      ( "space",
        [
          Alcotest.test_case "figure 1 queries reachable" `Quick test_enumerate_includes_figure1;
          Alcotest.test_case "deduplication" `Quick test_enumerate_dedups;
          Alcotest.test_case "all entries sound" `Quick test_enumerate_all_sound;
          Alcotest.test_case "sequence monotone" `Quick test_sequence_monotone;
          Alcotest.test_case "sequence reaches full relaxation" `Quick test_sequence_reaches_full_relaxation;
          Alcotest.test_case "answers grow along chain" `Quick test_sequence_answers_grow;
          Alcotest.test_case "completeness: Q3 reachable" `Quick test_completeness_q3;
          Alcotest.test_case "golden planner outputs" `Quick test_plan_golden;
        ] );
      ( "weights",
        [
          Alcotest.test_case "by kind" `Quick test_weights_by_kind;
          Alcotest.test_case "per var" `Quick test_weights_per_var;
          Alcotest.test_case "parse" `Quick test_weights_parse;
          Alcotest.test_case "affect scores" `Quick test_weights_affect_scores;
        ] );
      ( "properties",
        [
          q prop_ops_enlarge_answers;
          q prop_sequence_scores_sorted;
          q prop_canonical_key_isomorphic;
          q prop_canonical_key_separates;
          q prop_masks_match_references;
        ] );
    ]
