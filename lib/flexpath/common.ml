let log_src = Logs.Src.create "flexpath" ~doc:"FleXPath top-K query evaluation"

module Log = (val Logs.src_log log_src : Logs.LOG)

type algorithm = DPO | SSO | Hybrid

let algorithm_to_string = function DPO -> "dpo" | SSO -> "sso" | Hybrid -> "hybrid"

let algorithm_of_string s =
  match String.lowercase_ascii s with
  | "dpo" -> Ok DPO
  | "sso" -> Ok SSO
  | "hybrid" -> Ok Hybrid
  | other -> Error (Printf.sprintf "unknown algorithm %S (expected dpo, sso or hybrid)" other)

let all_algorithms = [ DPO; SSO; Hybrid ]

type completeness = Complete | Truncated of { reason : Guard.reason; score_bound : float }

type result = {
  answers : Answer.t list;
  metrics : Joins.Exec.metrics;
  relaxations_evaluated : int;
  passes : int;
  restarts : int;
  completeness : completeness;
  degraded : bool;
}

(* §5.1's stopping bound.  Any answer the entry's query does not return
   fails some scored predicate that query still implies, and its
   satisfied set is inference-closed, so its structural score is at most
   [base − least loss] over those predicates.  The per-predicate least
   losses are a table the penalty environment computes once. *)
let structural_bound penv (entry : Relax.Space.entry) =
  let loss = Relax.Penalty.unseen_loss penv entry.query in
  if loss = infinity then neg_infinity else Relax.Penalty.base_score penv -. loss

let unseen_bound scheme penv (entry : Relax.Space.entry) =
  match scheme with
  | Ranking.Keyword_first ->
    (* keyword scores are independent of relaxation depth: no sound
       early cut on the keyword-first primary key *)
    infinity
  | Ranking.Structure_first -> structural_bound penv entry
  | Ranking.Combined -> structural_bound penv entry +. Relax.Penalty.max_keyword_score penv

let kth_total scheme k answers =
  if List.length answers < k then None
  else begin
    let totals =
      List.map (fun a -> Ranking.total scheme (Answer.score a)) answers
      |> List.sort (fun a b -> Float.compare b a)
    in
    Some (List.nth totals (k - 1))
  end

(* The best primary score any answer at all can reach under a scheme —
   the truncation bound when not even the original query finished. *)
let max_total scheme penv =
  match scheme with
  | Ranking.Structure_first -> Relax.Penalty.base_score penv
  | Ranking.Keyword_first -> Relax.Penalty.max_keyword_score penv
  | Ranking.Combined -> Relax.Penalty.base_score penv +. Relax.Penalty.max_keyword_score penv

let truncation_bound scheme penv last_completed =
  match last_completed with
  | Some entry -> Float.min (max_total scheme penv) (unseen_bound scheme penv entry)
  | None -> max_total scheme penv

(* ------------------------------------------------------------------ *)
(* Reusable evaluation plans.

   A plan captures everything about an evaluation that depends only on
   the query's shape: the penalty environment (closure, weights,
   statistics-derived penalties), the greedy relaxation chain, and —
   lazily — the relaxation-encoded join plans of the entries actually
   evaluated.  Answers carry no variable ids, so a plan built for one
   query serves any isomorphic query (same {!Tpq.Query.canonical_key})
   verbatim; {!Qcache} relies on exactly that. *)

type plan = {
  pquery : Tpq.Query.t;  (* the representative query the plan was built for *)
  penv : Relax.Penalty.t;
  chain : Relax.Space.entry array;
  encoded : Joins.Encoded.t option Atomic.t array;
      (* one slot per chain entry, compiled on first evaluation; Atomic
         so a plan shared between worker domains publishes compiled
         entries safely (a racing recompute yields an equivalent value) *)
}

let build_plan env q =
  Failpoint.hit "chain.build";
  let penv = Env.penalty_env env q in
  (* Refuse before building a chain no evaluation could use. *)
  Joins.Exec.check_capacity penv;
  let chain = Array.of_list (Relax.Space.sequence ~max_steps:32 penv) in
  Log.debug (fun m ->
      m "relaxation chain: %d entries, scores %.3f .. %.3f" (Array.length chain)
        chain.(0).Relax.Space.score
        chain.(Array.length chain - 1).Relax.Space.score);
  { pquery = q; penv; chain; encoded = Array.map (fun _ -> Atomic.make None) chain }

let encoded_entry p i =
  match Atomic.get p.encoded.(i) with
  | Some enc -> enc
  | None ->
    let entry = p.chain.(i) in
    let enc =
      Joins.Encoded.of_ops_exn ~hierarchy:(Relax.Penalty.hierarchy p.penv) p.pquery
        entry.Relax.Space.ops
    in
    Atomic.set p.encoded.(i) (Some enc);
    enc

let evaluate_entry ?metrics ?cancel ?executor env p i strategy =
  let enc = encoded_entry p i in
  Joins.Exec.run ?metrics ?cancel ?executor (Env.exec_env env p.penv) enc strategy
  |> List.map Answer.of_exec
