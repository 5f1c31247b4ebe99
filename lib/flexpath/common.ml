module Pred = Tpq.Pred

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

let chain env ?(max_steps = 32) q =
  Failpoint.hit "chain.build";
  let penv = Env.penalty_env env q in
  let entries = Relax.Space.sequence ~max_steps penv in
  Log.debug (fun m ->
      m "relaxation chain: %d entries, scores %.3f .. %.3f" (List.length entries)
        (match entries with e :: _ -> e.Relax.Space.score | [] -> nan)
        (match List.rev entries with e :: _ -> e.Relax.Space.score | [] -> nan));
  (penv, entries)

(* An answer's satisfied-predicate set is always closed under the
   inference rules of Figure 3 (satisfaction on data respects them).
   The best structural score any answer OUTSIDE a relaxation can have is
   therefore the maximum of [base − Σ π(failed)] over inference-closed
   sets that violate at least one predicate the relaxation still
   enforces.  For the small closures of tree pattern queries we compute
   this exactly by bitmask enumeration. *)
let scored_preds penv = Relax.Penalty.scored_preds penv

let closure_rules preds =
  (* (premise_mask, conclusion_bit) pairs over the scored predicates *)
  let arr = Array.of_list preds in
  let m = Array.length arr in
  let index p =
    let rec go i = if i >= m then None else if Pred.equal arr.(i) p then Some i else go (i + 1) in
    go 0
  in
  let rules = ref [] in
  let add premises conclusion =
    match index conclusion with
    | None -> ()
    | Some c ->
      let mask =
        List.fold_left
          (fun acc p -> match index p with Some i -> acc lor (1 lsl i) | None -> acc)
          0 premises
      in
      (* all premises must be among the scored preds for the rule to bind *)
      if List.for_all (fun p -> index p <> None) premises then rules := (mask, c) :: !rules
  in
  Array.iter
    (fun p ->
      match p with
      | Pred.Pc (x, y) -> add [ p ] (Pred.Ad (x, y))
      | Pred.Ad (x, y) ->
        Array.iter
          (fun p' ->
            match p' with
            | Pred.Ad (y', z) when y' = y -> add [ p; p' ] (Pred.Ad (x, z))
            | Pred.Contains (y', f) when y' = y && Fulltext.Ftexp.is_positive f ->
              add [ p; p' ] (Pred.Contains (x, f))
            | _ -> ())
          arr
      | Pred.Tag_eq _ | Pred.Attr _ | Pred.Contains _ -> ())
    arr;
  !rules

let tight_structural_bound penv (entry : Relax.Space.entry) =
  let preds = scored_preds penv in
  let arr = Array.of_list preds in
  let m = Array.length arr in
  let base = Relax.Penalty.base_score penv in
  let pen = Array.map (Relax.Penalty.predicate_penalty penv) arr in
  let dropped = Pred.Set.of_list (Relax.Penalty.dropped_preds penv entry.query) in
  let required_mask = ref 0 in
  Array.iteri (fun i p -> if not (Pred.Set.mem p dropped) then required_mask := !required_mask lor (1 lsl i)) arr;
  if !required_mask = 0 then neg_infinity
  else if m > 18 then begin
    (* Closures too large to enumerate: lower-bound the loss of failing
       each enforced predicate by following the inference rules — when a
       derived predicate fails, every rule deriving it must have a
       failing premise, so at least the cheapest premise of the most
       expensive rule fails along with it.  Counting one chain per
       predicate avoids double counting, keeping the bound sound. *)
    let rules = closure_rules preds in
    (* The rule graph is acyclic (a conclusion is always a longer edge
       or a higher contains than its premises), so plain memoization is
       safe. *)
    let memo = Hashtbl.create 32 in
    let rec cost c =
      match Hashtbl.find_opt memo c with
      | Some v -> v
      | None ->
        Hashtbl.replace memo c pen.(c) (* guard against malformed cycles *);
        let chain =
          List.fold_left
            (fun acc (premise_mask, concl) ->
              if concl <> c then acc
              else begin
                let cheapest = ref infinity in
                for i = 0 to m - 1 do
                  if premise_mask land (1 lsl i) <> 0 then cheapest := Float.min !cheapest (cost i)
                done;
                if !cheapest = infinity then acc else Float.max acc !cheapest
              end)
            0.0 rules
        in
        let v = pen.(c) +. chain in
        Hashtbl.replace memo c v;
        v
    in
    let min_loss = ref infinity in
    for i = 0 to m - 1 do
      if !required_mask land (1 lsl i) <> 0 then min_loss := Float.min !min_loss (cost i)
    done;
    base -. !min_loss
  end
  else begin
    let rules = closure_rules preds in
    let best = ref neg_infinity in
    for s = 0 to (1 lsl m) - 1 do
      if s land !required_mask <> !required_mask then begin
        let closed =
          List.for_all
            (fun (premises, c) -> s land premises <> premises || s land (1 lsl c) <> 0)
            rules
        in
        if closed then begin
          let loss = ref 0.0 in
          for i = 0 to m - 1 do
            if s land (1 lsl i) = 0 then loss := !loss +. pen.(i)
          done;
          if base -. !loss > !best then best := base -. !loss
        end
      end
    done;
    !best
  end

let unseen_bound scheme penv (entry : Relax.Space.entry) =
  match scheme with
  | Ranking.Keyword_first ->
    (* keyword scores are independent of relaxation depth: no sound
       early cut on the keyword-first primary key *)
    infinity
  | Ranking.Structure_first -> tight_structural_bound penv entry
  | Ranking.Combined ->
    tight_structural_bound penv entry +. Relax.Penalty.max_keyword_score penv

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

let evaluate ?metrics ?cancel ?executor env penv orig ops strategy =
  let enc = Joins.Encoded.of_ops_exn ~hierarchy:(Relax.Penalty.hierarchy penv) orig ops in
  Joins.Exec.run ?metrics ?cancel ?executor (Env.exec_env env penv) enc strategy
  |> List.map Answer.of_exec

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

let build_plan env ?max_steps q =
  let penv, entries = chain env ?max_steps q in
  let arr = Array.of_list entries in
  { pquery = q; penv; chain = arr; encoded = Array.init (Array.length arr) (fun _ -> Atomic.make None) }

let plan_entries p = Array.to_list p.chain

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
