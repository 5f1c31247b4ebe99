let pick_cut env ~scheme ~k chain =
  let n = List.length chain in
  match scheme with
  | Ranking.Keyword_first -> n - 1
  | Ranking.Structure_first | Ranking.Combined ->
    let rec go i = function
      | [] -> n - 1
      | (entry : Relax.Space.entry) :: rest ->
        if Stats.estimate_answers env.Env.stats entry.query >= float_of_int k then i
        else go (i + 1) rest
    in
    go 0 chain

(* Pruning per §5.1: full strength for structure-first, slack of [m]
   (the weight of the contains predicates) for Combined, and none at
   all for keyword-first — "an answer with the worst structural score
   might still make it to the top-K". *)
let prune_for scheme penv k =
  match scheme with
  | Ranking.Structure_first -> (Some k, 0.0)
  | Ranking.Combined -> (Some k, Relax.Penalty.max_keyword_score penv)
  | Ranking.Keyword_first -> (None, 0.0)

let run_with ?(guard = Guard.none) ?plan ?floor ?executor ~sort_on_score ~bucketize env
    ~scheme ~k q =
  let plan = match plan with Some p -> p | None -> Common.build_plan env q in
  let penv = plan.Common.penv in
  let chain_arr = plan.Common.chain in
  let chain = Array.to_list chain_arr in
  let metrics = Joins.Exec.fresh_metrics () in
  let cancel = Guard.cancel_fn guard in
  let cut = pick_cut env ~scheme ~k chain in
  (* §5.1: having estimated that relaxations up to [cut] yield K
     answers, also encode every further relaxation that could still
     contribute a top-K answer — the smallest j with score bound below
     the K-th score the [cut]-level answers guarantee.  This keeps the
     evaluation to a single plan unless the estimate itself was bad. *)
  let cut =
    let floor_score = chain_arr.(cut).Relax.Space.score in
    let rec extend j =
      if j >= Array.length chain_arr - 1 then j
      else if Common.unseen_bound scheme penv chain_arr.(j) <= floor_score +. 1e-9 then j
      else extend (j + 1)
    in
    extend cut
  in
  let prune_k, prune_slack = prune_for scheme penv k in
  let strategy = { Joins.Exec.sort_on_score; bucketize; prune_k; prune_slack } in
  (* Fallback (graceful degradation): hand the rest of the budget to
     DPO's exact per-step evaluation, which can surface partial answers
     at every pass boundary.  Reached when the restart cap is exhausted
     or when a budget trips mid-plan — a single-plan evaluation that
     dies before its last stage has produced no answers at all, so
     per-step evaluation is the only way to salvage anything from
     whatever budget remains. *)
  let degrade restarts passes =
    Common.Log.debug (fun m ->
        m "SSO/Hybrid: degrading to DPO per-step evaluation after %d restarts" restarts);
    let r = Dpo.run ~guard ~metrics ~plan ?floor ?executor env ~scheme ~k q in
    { r with Common.restarts; passes = passes + r.Common.passes; degraded = true }
  in
  (* [done_] counts completed evaluation passes; the pass about to run
     is [done_ + 1]. *)
  let rec attempt cut restarts done_ =
    match Guard.pass_allowed guard ~passes:done_ with
    | Some reason ->
      {
        Common.answers = [];
        metrics;
        relaxations_evaluated = 0;
        passes = done_;
        restarts;
        completeness =
          Common.Truncated { reason; score_bound = Common.truncation_bound scheme penv None };
        degraded = false;
      }
    | None -> (
      let entry = chain_arr.(cut) in
      Common.Log.debug (fun m ->
          m "SSO/Hybrid: evaluating cut %d (%d relaxations, score floor %.3f), attempt %d" cut
            (List.length entry.Relax.Space.ops)
            entry.Relax.Space.score (restarts + 1));
      match Common.evaluate_entry ~metrics ?cancel ?executor env plan cut strategy with
      | exception Joins.Exec.Cancelled -> degrade restarts (done_ + 1)
      | answers ->
        (* As in DPO, an external floor from the scatter-gather merge
           counts toward the stopping bound. *)
        let enough =
          match (Common.kth_total scheme k answers, floor) with
          | None, None -> false
          | kth, fl ->
            let cur =
              Float.max
                (Option.value kth ~default:neg_infinity)
                (match fl with None -> neg_infinity | Some f -> f ())
            in
            cur >= Common.unseen_bound scheme penv entry -. 1e-9
        in
        if enough || cut >= Array.length chain_arr - 1 then
          {
            Common.answers = Answer.sort_and_truncate scheme k answers;
            metrics;
            relaxations_evaluated = List.length entry.ops;
            passes = done_ + 1;
            restarts;
            completeness = Common.Complete;
            degraded = false;
          }
        else if Guard.restart_exhausted guard ~restarts then degrade restarts (done_ + 1)
        else attempt (cut + 1) (restarts + 1) (done_ + 1))
  in
  attempt cut 0 0

let run ?guard ?plan ?floor ?executor env ~scheme ~k q =
  run_with ?guard ?plan ?floor ?executor ~sort_on_score:true ~bucketize:false env
    ~scheme ~k q
