(* Answer nodes are preorder ranks ([Xmldom.Doc.elem = int]): key the
   best-score table with monomorphic integer hashing instead of the
   polymorphic default. *)
module Itbl = Hashtbl.Make (Int)

let run ?(guard = Guard.none) ?metrics ?plan ?floor ?executor env ~scheme ~k q =
  let plan = match plan with Some p -> p | None -> Common.build_plan env q in
  let penv = plan.Common.penv in
  let metrics = match metrics with Some m -> m | None -> Joins.Exec.fresh_metrics () in
  let cancel = Guard.cancel_fn guard in
  (* An answer node can gain a better-scoring embedding once a deeper
     relaxation widens the embedding space, so keep the best score seen
     per node.  The stopping bound covers improvements too: an
     embedding invalid under the current relaxation scores at most
     [unseen_bound]. *)
  let best : Answer.t Itbl.t = Itbl.create 64 in
  let passes = ref 0 in
  (* The deepest entry whose pass ran to completion: budget truncation
     reports [unseen_bound] of this entry as the sound score bound for
     whatever was not collected. *)
  let last_completed = ref None in
  let completeness = ref Common.Complete in
  let truncate reason =
    completeness :=
      Common.Truncated { reason; score_bound = Common.truncation_bound scheme penv !last_completed }
  in
  let n = Array.length plan.Common.chain in
  let rec go i =
    if i < n then begin
      let entry = plan.Common.chain.(i) in
      match Guard.pass_allowed guard ~passes:!passes with
      | Some reason -> truncate reason
      | None -> (
        incr passes;
        match Common.evaluate_entry ~metrics ?cancel ?executor env plan i Joins.Exec.exact_strategy with
        | exception Joins.Exec.Cancelled ->
          (* The pass was abandoned mid-join: nothing of it is kept, the
             bound stays that of the last completed entry. *)
          truncate
            (match Guard.tripped guard with Some r -> r | None -> Guard.Deadline)
        | answers ->
          List.iter
            (fun (a : Answer.t) ->
              match Itbl.find_opt best a.node with
              | None -> Itbl.replace best a.node a
              | Some prev ->
                if Ranking.compare_desc scheme (Answer.score a) (Answer.score prev) < 0 then
                  Itbl.replace best a.node a)
            answers;
          last_completed := Some entry;
          let collected = Itbl.fold (fun _ a acc -> a :: acc) best [] in
          (* The scatter-gather executor passes an external [floor] —
             the k-th total already guaranteed by other shards.  Any
             answer this evaluation has not yet produced is bounded by
             [unseen_bound], so once that bound cannot beat the floor
             the rest of the chain is provably outside the global
             top-K, even if fewer than k answers were found here. *)
          let finished =
            match (Common.kth_total scheme k collected, floor) with
            | None, None -> false
            | kth, fl ->
              let cur =
                Float.max
                  (Option.value kth ~default:neg_infinity)
                  (match fl with None -> neg_infinity | Some f -> f ())
              in
              cur >= Common.unseen_bound scheme penv entry -. 1e-9
          in
          if not finished then go (i + 1))
    end
  in
  go 0;
  Common.Log.debug (fun m -> m "DPO: %d passes, %d distinct answers" !passes (Itbl.length best));
  let collected = Itbl.fold (fun _ a acc -> a :: acc) best [] in
  {
    Common.answers = Answer.sort_and_truncate scheme k collected;
    metrics;
    relaxations_evaluated = !passes;
    passes = !passes;
    restarts = 0;
    completeness = !completeness;
    degraded = false;
  }
