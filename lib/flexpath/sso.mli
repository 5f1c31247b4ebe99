(** SSO — Static Selectivity Order (§5.1.2, Algorithm 1).

    Uses the selectivity estimator to decide {e before evaluation} how
    many relaxations to encode into a single plan, then evaluates that
    plan once, keeping intermediate results sorted on score and pruning
    with threshold + maxScoreGrowth.  When the estimate was too
    optimistic and fewer than K answers come back, it deepens the
    encoding and restarts (pseudocode lines 11-12).

    Under a {!Guard}, the restart loop is capped
    ([budget.restart_cap]); past the cap — or when a budget trips in
    the middle of the single plan, which cannot yield partial answers —
    the engine degrades to {!Dpo}'s exact per-step evaluation with
    whatever budget remains and marks the result [degraded]. *)

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
(** [floor] as in {!Dpo.run}: an external lower bound on the global
    k-th total, folded into the enough-answers stopping test.
    [executor] as in {!Dpo.run}. *)

val pick_cut :
  Env.t -> scheme:Ranking.scheme -> k:int -> Relax.Space.entry list -> int
(** Index into the chain of the first entry whose estimated answer
    count reaches K (keyword-first always encodes the full chain, as
    §5.1 requires).  Exposed for the estimator ablation bench. *)

val run_with :
  ?guard:Guard.t ->
  ?plan:Common.plan ->
  ?floor:(unit -> float) ->
  ?executor:Joins.Exec.executor ->
  sort_on_score:bool ->
  bucketize:bool ->
  Env.t ->
  scheme:Ranking.scheme ->
  k:int ->
  Tpq.Query.t ->
  Common.result
(** The SSO skeleton with a custom execution strategy — Hybrid is this
    skeleton with bucketization instead of score sorting.  Pruning
    strength is derived from the ranking scheme (§5.1).  [plan] reuses
    a prebuilt {!Common.plan} (see {!Dpo.run}). *)
