(* topk_cold: the paper's §6 experiment, in-process, no Qcache.

   Every op parses its XPath string and runs one top-K algorithm
   through Flexpath.run, which builds the penalty environment and
   relaxation chain and executes the plan.  The traced run spells those
   calls out so that it can put a span around each layer. *)

open Rec
module Common = Flexpath.Common
module Ranking = Flexpath.Ranking
module Env = Flexpath.Env

(* The three queries of §6 (as in bench/main.ml) and the Figure 1
   queries of the running example. *)
let xmark_q1 = "//item[./description/parlist]"
let xmark_q2 = "//item[./description/parlist and ./mailbox/mail/text]"

let xmark_q3 =
  "//item[./description/parlist/listitem and ./mailbox/mail/text[./bold and ./keyword and \
   ./emph] and ./name and ./incategory]"

let fig1 =
  [
    ("A1", "//article[./section[./algorithm and ./paragraph[.contains(\"XML\" and \"streaming\")]]]");
    ("A2", "//article[./section[./algorithm and .contains(\"XML\" and \"streaming\")]]");
    ("A3", "//article[.//algorithm and ./section[./paragraph[.contains(\"XML\" and \"streaming\")]]]");
    ("A4", "//article[.//algorithm and ./section[./paragraph and .contains(\"XML\" and \"streaming\")]]");
    ("A5", "//article[./section[./paragraph and .contains(\"XML\" and \"streaming\")]]");
    ("A6", "//article[.contains(\"XML\" and \"streaming\")]");
  ]

type algo = Dpo | Sso | Hybrid

let algo_name = function Dpo -> "dpo" | Sso -> "sso" | Hybrid -> "hybrid"

type op = {
  qname : string;  (** Q1..Q3 (auction) or A1..A6 (articles). *)
  xpath : string;
  on_articles : bool;
  algo : algo;
  k : int;
}

let op_id o = Printf.sprintf "%s.%s.k%d" o.qname (algo_name o.algo) o.k

let auction_items = 400
let articles_count = 2000
let data_seed = 2004

(* Serialized once per process, outside every timing: set-up measures
   parsing and indexing, not generation. *)
let documents ~articles_count () =
  let auction = Xmldom.Xml.to_string (Xmark.Auction.site ~seed:data_seed ~items:auction_items ()) in
  let articles =
    Xmldom.Xml.to_string (Xmark.Articles.collection ~seed:data_seed ~count:articles_count ())
  in
  (auction, articles)

let get_ok what = function
  | Ok v -> v
  | Error e -> failwith (what ^ ": " ^ Flexpath.Error.to_string e)

(* Env.of_string, decomposed into its layers when traced. *)
let env_of_string tr ~op s =
  if not tr.on then get_ok "Env.of_string" (Env.of_string s)
  else begin
    let doc =
      span tr ~op "xmldom.doc_parse" (fun () ->
          match Xmldom.Doc.of_string s with
          | Ok d -> d
          | Error e -> failwith ("Doc.of_string: " ^ e.Xmldom.Xml_parser.message))
    in
    let index = span tr ~op "fulltext.index_build" (fun () -> Fulltext.Index.build doc) in
    let stats = span tr ~op "stats.build" (fun () -> Stats.build doc) in
    Env.of_parts ~doc ~index ~stats ~hierarchy:Tpq.Hierarchy.empty ()
  end

(* One op: parse, penalties, chain, execution.  Returns the result.
   Untraced, the op is the program's own entry point, Flexpath.run with
   no cache.  Traced, the same steps are split into one span each; the
   trace report checks that their sum matches the untraced median. *)
let run_op tr ~op env o =
  let parse () =
    match Tpq.Xpath.parse o.xpath with
    | Ok q -> q
    | Error { Tpq.Xpath.message; _ } -> failwith ("parse: " ^ message)
  in
  let scheme = Ranking.Structure_first and k = o.k in
  if not tr.on then
    let algorithm =
      match o.algo with Dpo -> Flexpath.DPO | Sso -> Flexpath.SSO | Hybrid -> Flexpath.Hybrid
    in
    get_ok "Flexpath.run" (Flexpath.run ~algorithm ~scheme env ~k (parse ()))
  else begin
    let q = span tr ~op "tpq.parse" parse in
    let penv = span tr ~op "relax.penalty" (fun () -> Env.penalty_env env q) in
    let chain = span tr ~op "relax.chain" (fun () -> Relax.Space.sequence ~max_steps:32 penv) in
    let plan =
      {
        Common.pquery = q;
        penv;
        chain = Array.of_list chain;
        encoded = Array.init (List.length chain) (fun _ -> Atomic.make None);
      }
    in
    span tr ~op "joins.exec" (fun () ->
        match o.algo with
        | Dpo -> Flexpath.Dpo.run ~plan env ~scheme ~k q
        | Sso -> Flexpath.Sso.run ~plan env ~scheme ~k q
        | Hybrid -> Flexpath.Hybrid.run ~plan env ~scheme ~k q)
  end

(* The repository's agreement rule (test_flexpath.ml): identical ranked
   score lists, and identical answer sets strictly above the K-th
   score — ties at the K-th score may fill the last slots either way.
   The digest of that canonical form is what every algorithm must
   reproduce for a (query, K). *)
let canonical (answers : Flexpath.Answer.t list) =
  let scores =
    List.map
      (fun (a : Flexpath.Answer.t) ->
        Printf.sprintf "%.0f,%.0f" (Float.round (a.sscore *. 1e6)) (Float.round (a.kscore *. 1e6)))
      answers
  in
  let above =
    match List.rev answers with
    | [] -> []
    | last :: _ ->
      let total a = Ranking.total Ranking.Structure_first (Flexpath.Answer.score a) in
      let kth = total last in
      List.filter (fun a -> total a > kth +. 1e-7) answers
      |> List.map (fun (a : Flexpath.Answer.t) -> a.node)
      |> List.sort Int.compare |> List.map string_of_int
  in
  String.concat ";" scores ^ "|" ^ String.concat "," above

let digest_of answers = Digest.to_hex (Digest.string (canonical answers))
let digest_key o = Printf.sprintf "%s.k%d" o.qname o.k

(* ------------------------------------------------------------------ *)
(* The cycle.

   Op classes group the ops whose costs coincide: a (query, K) under
   DPO, and the same (query, K) under SSO and Hybrid, which share the
   single-pass skeleton.  Weights place each reported percentile deep
   inside one class (run.py verifies it after every run): Q1 at K=100
   under SSO/Hybrid, about 0.7 ms with nothing between 0.3 and 2.5 ms
   around it, holds ranks ~5-66% and so the median; Q3 at K=100 under
   SSO/Hybrid, the slowest class by 3x, holds the top ~4% and so p99.
   Every other op runs once per cycle. *)

let cls o =
  Printf.sprintf "%s.k%d.%s" o.qname o.k (match o.algo with Dpo -> "dpo" | Sso | Hybrid -> "sso+hybrid")

let cycle () =
  let auction name xpath algos ks =
    List.concat_map
      (fun k -> List.map (fun algo -> { qname = name; xpath; on_articles = false; algo; k }) algos)
      ks
  in
  let all = [ Dpo; Sso; Hybrid ] in
  let times n l = List.concat (List.init n (fun _ -> l)) in
  let q1_low =
    auction "Q1" xmark_q1 [ Dpo ] [ 100 ] @ times 6 (auction "Q1" xmark_q1 [ Sso; Hybrid ] [ 100 ])
  in
  List.concat
    [
      times 5 q1_low;
      auction "Q1" xmark_q1 all [ 300 ];
      auction "Q2" xmark_q2 all [ 10; 100 ];
      auction "Q3" xmark_q3 all [ 5 ];
      (* DPO on Q3 at K=100 walks ~30 relaxations, about 1 s per op. *)
      times 2 (auction "Q3" xmark_q3 [ Sso; Hybrid ] [ 100 ]);
      List.concat_map
        (fun (name, xpath) ->
          List.map (fun algo -> { qname = name; xpath; on_articles = true; algo; k = 10 }) all)
        fig1;
    ]
  |> Array.of_list

(* ------------------------------------------------------------------ *)
(* Digests *)

let load_digests path =
  let tbl = Hashtbl.create 16 in
  let ic = open_in path in
  (try
     while true do
       match String.split_on_char '\t' (input_line ic) with
       | [ key; hex ] -> Hashtbl.replace tbl key hex
       | _ -> ()
     done
   with End_of_file -> ());
  close_in ic;
  tbl

(* One line per (query, K) of the cycle, computed under DPO — the
   reference the other two algorithms must match. *)
let print_digests () =
  let auction, articles = documents ~articles_count () in
  let tr = trace ~on:false in
  let env_a = env_of_string tr ~op:0 auction and env_r = env_of_string tr ~op:0 articles in
  let seen = Hashtbl.create 16 in
  Array.iter
    (fun o ->
      let key = digest_key o in
      if not (Hashtbl.mem seen key) then begin
        Hashtbl.add seen key ();
        let r = run_op tr ~op:0 (if o.on_articles then env_r else env_a) { o with algo = Dpo } in
        Printf.printf "%s\t%s\n%!" key (digest_of r.Common.answers)
      end)
    (cycle ())

(* ------------------------------------------------------------------ *)
(* The run *)

let setup_reps = 11

(* The timed cycles over the environments of the last set-up. *)
let measure ~seed ~seconds ~out ~tr ~digests (env_a, env_r) =
  let cyc = cycle () in
  shuffle (Xmark.Prng.create seed) cyc;
  (* Whole cycles only, and at least 1000 samples (a p99 needs ten
     beyond it): 12 cycles, 1188 ops, at --seconds 10. *)
  let n = Array.length cyc in
  let cycles = max ((1000 + n - 1) / n) (int_of_float (Float.ceil (seconds /. 0.9))) in
  let check o (r : Common.result) =
    match (Hashtbl.find_opt digests (digest_key o), r.completeness) with
    | _, Common.Truncated _ -> Error "truncated"
    | None, _ -> Error "no checked-in digest"
    | Some want, _ ->
      let got = digest_of r.answers in
      if got = want then Ok () else Error (Printf.sprintf "digest %s, checked in %s" got want)
  in
  let env_of o = if o.on_articles then env_r else env_a in
  (* Warm-up: one untimed cycle. *)
  Array.iter (fun o -> ignore (run_op (trace ~on:false) ~op:0 (env_of o) o)) cyc;
  Gc.full_major ();
  let steal0 = steal_ticks () and cpu0 = cpu_s_self () in
  let window = ref 0.0 and ops = ref 0 in
  let joins_tuples = ref 0 and sorted = ref 0 and pruned = ref 0 and holistic = ref 0 in
  let passes = ref 0 and restarts = ref 0 and answers = ref 0 in
  for _ = 1 to cycles do
    Array.iter
      (fun o ->
        incr ops;
        let id = !ops in
        let env = env_of o in
        let t0 = now_ns () in
        let r = span tr ~op:id "op" (fun () -> run_op tr ~op:id env o) in
        let ms = ms_since t0 in
        window := !window +. ms;
        let ok =
          match check o r with
          | Ok () -> true
          | Error e ->
            fail out (Printf.sprintf "%s: %s" (op_id o) e);
            false
        in
        op out ~cls:(cls o) ~kind:"query" ~ms ~ok;
        if tr.on then begin
          (* Side probe, outside the op's span: the contains predicates
             the op evaluated internally. *)
          let q = Tpq.Xpath.parse_exn o.xpath in
          List.iter
            (fun (_, f) ->
              ignore
                (span tr ~op:id "fulltext.matches" (fun () -> Fulltext.Index.matches env.index f)))
            (Tpq.Query.contains_preds q);
          let m = r.metrics in
          joins_tuples := !joins_tuples + m.Joins.Exec.tuples_produced;
          sorted := !sorted + m.score_sorted_tuples;
          pruned := !pruned + m.tuples_pruned;
          holistic := !holistic + m.holistic_runs;
          passes := !passes + r.passes;
          restarts := !restarts + r.restarts;
          answers := !answers + List.length r.answers
        end)
      cyc
  done;
  let cpu = cpu_s_self () -. cpu0 and steal = steal_ticks () - steal0 in
  record out [ "window_s"; Printf.sprintf "%.9f" (!window /. 1000.0) ];
  record out [ "cpu_s"; Printf.sprintf "%.3f" cpu ];
  record out [ "steal"; string_of_int steal ];
  record out [ "rss_mb"; Printf.sprintf "%.3f" (peak_rss_mb "self") ];
  if tr.on then begin
    let ops = float_of_int !ops in
    let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b in
    layer out "joins.tuples_per_op" (float_of_int !joins_tuples /. ops) "count";
    layer out "joins.sorted_tuples_per_op" (float_of_int !sorted /. ops) "count";
    layer out "joins.pruned_ratio" (ratio !pruned (!pruned + !joins_tuples)) "ratio";
    layer out "joins.holistic_pass_share" (ratio !holistic !passes) "ratio";
    layer out "joins.answers_per_ktuple" (1000.0 *. ratio !answers !joins_tuples) "count";
    layer out "flexpath.passes_per_op" (float_of_int !passes /. ops) "count";
    layer out "flexpath.restarts_per_op" (float_of_int !restarts /. ops) "count"
  end

(* Set-up runs [setup_reps] times, each from a collected heap with no
   other environment alive.  The first half runs before the timed
   cycles and the rest after them, once the cycles' environments are
   garbage: the machine's speed wanders over seconds, and the median of
   both halves follows the run as a whole, as the window's metrics do,
   rather than the one or two seconds at its start. *)
let run ~seed ~seconds ~tiny ~out ~tr ~digests =
  let digests = load_digests digests in
  let auction, articles = documents ~articles_count () in
  let set_up first last =
    let envs = ref None in
    for rep = first to last do
      envs := None;
      Gc.full_major ();
      let t0 = now_ns () in
      let env_a = env_of_string tr ~op:(-rep) auction in
      let env_r = env_of_string tr ~op:(-rep) articles in
      setup out (s_since t0);
      envs := Some (env_a, env_r)
    done;
    Option.get !envs
  in
  let reps = if tiny then 1 else setup_reps in
  let before = (reps + 1) / 2 in
  measure ~seed ~seconds ~out ~tr ~digests (set_up 1 before);
  if reps > before then ignore (set_up (before + 1) reps)
