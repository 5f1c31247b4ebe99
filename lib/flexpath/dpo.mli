(** DPO — Dynamic Penalty Order (§5.1.1).

    Evaluates the relaxation chain one query at a time, in increasing
    penalty order, re-running a full evaluation pass per step, and stops
    as soon as the collected top-K can no longer change.  Its strength
    is exact knowledge (no estimates, no wasted relaxations); its
    weakness is the repeated passes over the data, which the experiments
    of §6 measure against SSO and Hybrid.

    DPO is the engine's {e anytime} algorithm: pass boundaries are
    natural budget checkpoints, so under a {!Guard} it returns the
    best-effort top-K of the passes that completed, marked
    [Truncated].  SSO/Hybrid degrade to it when their restart cap is
    exhausted. *)

val run :
  ?guard:Guard.t ->
  ?metrics:Joins.Exec.metrics ->
  ?plan:Common.plan ->
  ?floor:(unit -> float) ->
  ?executor:Joins.Exec.executor ->
  Env.t ->
  scheme:Ranking.scheme ->
  k:int ->
  Tpq.Query.t ->
  Common.result
(** [guard] governs the whole run (default {!Guard.none}); [metrics]
    lets a caller that already accumulated executor metrics (the
    SSO/Hybrid fallback path) keep one running total; [plan] reuses a
    previously built {!Common.plan} for an isomorphic query (the cached
    path) instead of rebuilding chain and penalties.  [floor],
    consulted at each pass boundary, is an external lower bound on the
    k-th total score (the scatter-gather merge passes the global top-K
    floor): the chain walk stops as soon as [max(local kth, floor ())]
    meets [unseen_bound], which is sound because both are lower bounds
    on the true global k-th score.  [executor] selects the physical operator per pass
    (default [Auto]: holistic twig operator on conjunctive chain
    entries, binary pipeline otherwise); results are byte-identical
    across executors. *)
