(** Hybrid (§5.2.3, Algorithm 2).

    Same single-plan evaluation as SSO, but intermediate tuples are
    never re-sorted on score: they stay in node-id order, and the
    executor counts their buckets — the distinct satisfied-predicate
    sets, whose members share a score — in [buckets_touched].
    Threshold / maxScoreGrowth pruning applies as under SSO.  Taking
    the buckets best first, as §5.2.3 describes, is ROADMAP item 8(b);
    today Hybrid is SSO without the re-sort. *)

val run :
  ?guard:Guard.t ->
  ?plan:Common.plan ->
  ?floor:(unit -> float) ->
  ?executor:Joins.Exec.executor ->
  Env.t ->
  scheme:Ranking.scheme ->
  k:int ->
  Tpq.Query.t ->
  Common.result
(** [floor] and [executor] as in {!Dpo.run}. *)
