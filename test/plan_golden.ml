(* The planner's outputs on fixed queries, one line per fact, with every
   float as its IEEE bits.  [test_relax.ml] compares them with
   [plan_golden.expected], whose lines this module printed from the
   fixpoint planner (a [Closure.closure_set] per penalty, two
   homomorphism searches per candidate operator) that the closure
   bitmasks replaced: the file pins the greedy chain, every penalty and
   score, the early-termination bounds and the dropped sets of the
   enumerated lattice bit for bit.  A change that means to alter an
   output must say so and regenerate the file. *)

module Query = Tpq.Query
module Xpath = Tpq.Xpath
module Pred = Tpq.Pred
module Hierarchy = Tpq.Hierarchy
module Xml = Xmldom.Xml
module Penalty = Relax.Penalty
module Space = Relax.Space
module Op = Relax.Op
module Common = Flexpath.Common
module Env = Flexpath.Env
module Ranking = Flexpath.Ranking

let bits f = Printf.sprintf "%016Lx" (Int64.bits_of_float f)

(* The bounds are only defined where the executor's score mask holds
   the closure. *)
let bound_limit = 62

let auction = lazy (Env.make (Xmark.Auction.doc ~seed:7 ~items:30 ()))
let articles = lazy (Env.make (Xmark.Articles.doc ~seed:2004 ~count:12 ()))

(* test_extensions.ml's bibliography: a type hierarchy makes the tag
   predicates scored. *)
let library =
  lazy
    (let hierarchy =
       Hierarchy.of_list_exn
         [ ("article", "publication"); ("book", "publication"); ("thesis", "book") ]
     in
     Env.of_tree ~hierarchy
       (Xml.element "library"
          (List.init 30 (fun i ->
               let tag =
                 match i mod 4 with 0 -> "article" | 1 -> "book" | 2 -> "thesis" | _ -> "report"
               in
               Xml.element tag
                 [
                   Xml.element "title"
                     [ Xml.text (if i mod 3 = 0 then "xml streaming" else "other words") ];
                 ]))))

let cases =
  [
    ("Q1", auction, "//item[./description/parlist]");
    ("Q2", auction, "//item[./description/parlist and ./mailbox/mail/text]");
    ( "Q3",
      auction,
      "//item[./description/parlist/listitem and ./mailbox/mail/text[./bold and ./keyword and \
       ./emph] and ./name and ./incategory]" );
    ("A1", articles, "//article[./section[./algorithm and ./paragraph[.contains(\"XML\" and \"streaming\")]]]");
    ("A2", articles, "//article[./section[./algorithm and .contains(\"XML\" and \"streaming\")]]");
    ("A3", articles, "//article[.//algorithm and ./section[./paragraph[.contains(\"XML\" and \"streaming\")]]]");
    ("A4", articles, "//article[.//algorithm and ./section[./paragraph and .contains(\"XML\" and \"streaming\")]]");
    ("A5", articles, "//article[./section[./paragraph and .contains(\"XML\" and \"streaming\")]]");
    ("A6", articles, "//article[.contains(\"XML\" and \"streaming\")]");
    ("relax-line", articles, "//article[./section/algorithm]");
    ( "repeated-tags",
      articles,
      "//article[./section[./algorithm and ./paragraph and ./title] and ./abstract and ./title]" );
    ("wildcard", articles, "//article[./*[./paragraph[.contains(\"xml\")]] and ./title]");
    ( "negated",
      articles,
      "//article[./section[./paragraph[.contains(\"xml\" and not \"streaming\")]] and ./title]" );
    ("hierarchy", library, "//article[./title[.contains(\"xml\")]]");
    ("path-12", articles, "//a/b/c/d/e/f/g/h/i/j/k/l");
  ]

let ops_string ops = "[" ^ String.concat "; " (List.map Op.to_string ops) ^ "]"
let preds_string ps = "[" ^ String.concat "; " (List.map Pred.to_string ps) ^ "]"

let lines () =
  let out = ref [] in
  let add fmt = Printf.ksprintf (fun s -> out := s :: !out) fmt in
  List.iter
    (fun (name, env, xpath) ->
      let env = Lazy.force env in
      let q = Xpath.parse_exn xpath in
      let penv = Env.penalty_env env q in
      let m = List.length (Penalty.scored_preds penv) in
      add "query %s %s" name xpath;
      add "scored %d base %s keyword %s" m (bits (Penalty.base_score penv))
        (bits (Penalty.max_keyword_score penv));
      List.iteri
        (fun i (e : Space.entry) ->
          let bounds =
            if m > bound_limit then ""
            else
              Printf.sprintf " sf %s comb %s"
                (bits (Common.unseen_bound Ranking.Structure_first penv e))
                (bits (Common.unseen_bound Ranking.Combined penv e))
          in
          add "chain %d %s penalty %s score %s%s" i (ops_string e.ops) (bits e.penalty)
            (bits e.score) bounds)
        (Space.sequence penv);
      List.iteri
        (fun i (q', ops) ->
          add "lattice %d %s dropped %s" i (ops_string ops)
            (preds_string (Penalty.dropped_preds penv q')))
        (Space.enumerate ~hierarchy:(Penalty.hierarchy penv) ~max_queries:100 q))
    cases;
  List.rev !out
