(** Shared machinery of the three top-K algorithms (§5.1).

    All algorithms walk the same penalty-ordered relaxation chain
    [Q = Q0 ⊂ Q1 ⊂ ...] ({!Relax.Space.sequence}) and differ in how
    much of it they evaluate and how.  Early termination is sound: any
    answer not yet produced by relaxation [Qi] must violate at least
    one closure predicate [Qi] still enforces, so its structural score
    is at most [base −] the least loss of failing one of them
    ({!unseen_bound}); once the current K-th answer reaches that bound
    no further relaxation can change the top-K. *)

val log_src : Logs.src
(** Log source ["flexpath"]: debug-level traces of chain construction,
    cut selection and pass counts. *)

module Log : Logs.LOG

type algorithm = DPO | SSO | Hybrid
(** The three top-K strategies of §5.  The one definition: the façade
    ({!Flexpath.algorithm}) and the sharded corpus
    ({!Corpus.algorithm}) re-export it, so their constructors are
    this type's. *)

val algorithm_to_string : algorithm -> string
val algorithm_of_string : string -> (algorithm, string) result
val all_algorithms : algorithm list

type completeness =
  | Complete  (** The reported top-K is the true top-K. *)
  | Truncated of { reason : Guard.reason; score_bound : float }
      (** A budget tripped before the stopping bound was reached: the
          answers are the best found so far, correctly ordered, but an
          unreported answer could score up to [score_bound] on the
          scheme's primary key.  Sound by the same argument as early
          termination: any answer not produced by the last {e completed}
          relaxation violates a predicate it still enforces
          ({!unseen_bound}). *)

type result = {
  answers : Answer.t list;  (** Top-K, best first. *)
  metrics : Joins.Exec.metrics;
  relaxations_evaluated : int;
      (** Chain steps evaluated (DPO) or encoded in the plan (SSO /
          Hybrid). *)
  passes : int;  (** Full evaluation passes over the data. *)
  restarts : int;  (** SSO/Hybrid restarts after underestimation. *)
  completeness : completeness;
  degraded : bool;
      (** True when SSO/Hybrid gave up restarting (budget's
          [restart_cap]) and fell back to DPO's per-step evaluation. *)
}

val unseen_bound : Ranking.scheme -> Relax.Penalty.t -> Relax.Space.entry -> float
(** Upper bound on {!Ranking.total} of any answer not produced by the
    entry's query: [base − ]{!Relax.Penalty.unseen_loss} under
    structure-first, plus the keyword maximum under Combined, [infinity]
    under keyword-first.  [neg_infinity] when every scored predicate is
    already dropped.  The least-loss table behind it is computed the
    first time a bound needs it — once per plan, since a plan owns its
    penalty environment — and published atomically, so a plan shared
    between worker domains through {!Qcache} needs no lock; the table
    lives as long as the plan. *)

val kth_total : Ranking.scheme -> int -> Answer.t list -> float option
(** The K-th best primary score among collected answers; [None] when
    fewer than [k] are present. *)

val max_total : Ranking.scheme -> Relax.Penalty.t -> float
(** The best primary score any answer can reach under the scheme —
    the vacuous truncation bound when no pass completed. *)

val truncation_bound :
  Ranking.scheme -> Relax.Penalty.t -> Relax.Space.entry option -> float
(** The [score_bound] to report when a budget trips: {!unseen_bound} of
    the last fully completed chain entry, or {!max_total} when not even
    the original query's pass finished. *)

(** {2 Reusable evaluation plans}

    Everything about an evaluation that depends only on the query's
    shape, bundled for reuse: the penalty environment, the greedy
    relaxation chain, and (lazily compiled, atomically published) the
    relaxation-encoded join plan of each chain entry.  Answers carry no
    variable ids, so a plan built for one query is valid for any
    isomorphic query — the foundation of {!Qcache}'s plan tier.  A plan
    is bound to the environment it was built from and must not be used
    with another. *)

type plan = {
  pquery : Tpq.Query.t;  (** The representative query the plan was built for. *)
  penv : Relax.Penalty.t;
  chain : Relax.Space.entry array;  (** The greedy chain, original query first. *)
  encoded : Joins.Encoded.t option Atomic.t array;
      (** One slot per chain entry; filled by {!encoded_entry}. *)
}

val build_plan : Env.t -> Tpq.Query.t -> plan
(** The penalty environment and the greedy relaxation chain
    ({!Relax.Space.sequence}, at most 32 entries, original query
    first), packaged as a plan; no join plan is compiled yet.  Hits the
    ["chain.build"] failpoint first.
    @raise Joins.Exec.Capacity_exceeded before building the chain when
    the query's closure has more scored predicates than the executor can
    track ({!Joins.Exec.check_capacity}): every algorithm and
    {!Corpus.query} plan through here, so an over-capacity query costs
    no chain. *)

val encoded_entry : plan -> int -> Joins.Encoded.t
(** The compiled join plan of chain entry [i], compiling and publishing
    it on first use. *)

val evaluate_entry :
  ?metrics:Joins.Exec.metrics ->
  ?cancel:(int -> bool) ->
  ?executor:Joins.Exec.executor ->
  Env.t ->
  plan ->
  int ->
  Joins.Exec.strategy ->
  Answer.t list
(** Evaluate chain entry [i] — the original query with the entry's
    operators applied — against [env] through the plan's cached
    encodings, scored on the plan's closure.  [cancel] and [executor]
    (physical operator selection, default [Auto]) are threaded to
    {!Joins.Exec.run}; when [cancel] aborts, {!Joins.Exec.Cancelled}
    escapes to the calling algorithm. *)
