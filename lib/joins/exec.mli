(** Scored evaluation of an encoded query — the common machinery behind
    the three top-K algorithms (§5).

    The executor processes the variable specs of an {!Encoded.t} as a
    left-deep pipeline: a scan for the root, then one join stage per
    further variable.  Each intermediate tuple carries the set of
    original-closure predicates already known (un)satisfied and the
    corresponding running structural score (base − penalties of
    predicates found unsatisfied, Definition 3 / §4.3.2).

    Strategy knobs reproduce the algorithmic differences the paper
    measures:
    - [sort_on_score] re-sorts the intermediate tuple list on score at
      every stage — SSO's behaviour, whose cost §5.2.2 calls the
      "fundamental tension" between node-id order and score order;
    - [bucketize] counts the satisfied-predicate sets (Hybrid's
      buckets, §5.2.3) in [buckets_touched] and never re-sorts: tuples
      stay in node-id order.  The buckets are not yet evaluated best
      first (ROADMAP item 8(b));
    - [prune_k] enables threshold + maxScoreGrowth pruning: a tuple is
      discarded when even its best achievable final score cannot reach
      the current K-th answer's guaranteed score. *)

type env = { doc : Xmldom.Doc.t; index : Fulltext.Index.t; penalty : Relax.Penalty.t }

exception Cancelled
(** Raised from {!run} when the [cancel] callback asks to stop.  Never
    escapes the top-K algorithms: they catch it and return the
    best-effort answers collected from completed passes. *)

exception Capacity_exceeded of { what : string; limit : int; actual : int }
(** Raised by {!run} when the query's closure does not fit the
    executor's fixed capacities (the satisfied-predicate bitmask holds
    at most {!max_scored_preds} scored predicates).  A typed condition
    the façade converts to an error value — never an abort. *)

val max_scored_preds : int
(** Scored closure predicates the tuple bitmask can track (62). *)

val check_capacity : Relax.Penalty.t -> unit
(** @raise Capacity_exceeded when the penalty environment has more than
    {!max_scored_preds} scored predicates — the check {!run} makes,
    available to planners that want to refuse before doing any work. *)

val failpoint : (string -> unit) ref
(** Fault-injection hook: called with a point name ("exec.compile",
    "exec.run", "exec.stage") at the corresponding code path.  A no-op
    until {!Flexpath.Failpoint} installs itself here; an installed hook
    raises to simulate the failure. *)

type answer = {
  target : Xmldom.Doc.elem;  (** Binding of the distinguished variable. *)
  sscore : float;
  kscore : float;
  satisfied : Tpq.Pred.t list;
      (** Predicates of the original closure this answer satisfies. *)
  failed : Tpq.Pred.t list;
      (** Scored closure predicates it does not satisfy; empty for
          exact matches. *)
  bindings : (int * Xmldom.Doc.elem) list;
      (** Variable bindings; unbound optional variables are absent. *)
}

type strategy = {
  sort_on_score : bool;
  bucketize : bool;
  prune_k : int option;
  prune_slack : float;
      (** Admissible non-structural gain a pruned tuple could still
          collect — the [m] of the §5.1 rule for the Combined scheme
          (0 for structure-first; keyword-first must not prune at
          all). *)
}

val exact_strategy : strategy
(** No sorting, no buckets, no pruning — plain evaluation (DPO uses
    this per relaxation). *)

type executor = Auto | Binary
(** Physical operator selection.  [Auto] is the planner rule: the
    holistic twig operator ({!Twig}) when the encoded pattern is
    conjunctive (twig-shaped, no optional spec), the binary pipeline
    otherwise.  [Binary] forces the pipeline.  Results are
    byte-identical across executors (same answers, scores, and
    tie-breaks); only metrics and — under tuple budgets or deadlines —
    truncation points differ. *)

val executor_to_string : executor -> string

type metrics = {
  mutable tuples_produced : int;
  mutable tuples_pruned : int;
  mutable score_sorted_tuples : int;
      (** Total tuples passed through score re-sorts (SSO's overhead). *)
  mutable buckets_touched : int;
  mutable stages : int;
  mutable cancel_polls : int;
      (** Times the cooperative cancellation callback was consulted. *)
  mutable holistic_runs : int;
      (** Runs that took the holistic twig operator. *)
  mutable holistic_fast_paths : int;
      (** Holistic runs whose answers came straight off the solution
          streams with no tuple enumeration at all (exact conjunctive
          encoding, empty hierarchy, plain strategy). *)
  mutable stream_elements : int;
      (** Total elements across all solution streams after twig
          filtering. *)
}

val fresh_metrics : unit -> metrics

val run :
  ?metrics:metrics ->
  ?cancel:(int -> bool) ->
  ?executor:executor ->
  env ->
  Encoded.t ->
  strategy ->
  answer list
(** All answers of the encoded query, one per distinct distinguished
    binding (the best-scoring embedding is kept), unordered.  With
    [prune_k = Some k], answers outside any possible top-k may be
    missing — by design.

    [executor] (default [Auto]) selects the physical operator; see
    {!executor}.  Answer contents are executor-independent, with one
    caveat: answers produced by the holistic fast path list only the
    distinguished variable in [bindings] (no embedding witness is
    enumerated).  [target], scores, [satisfied] and [failed] are always
    identical.

    [cancel] is the cooperative cancellation check: it is polled from
    the join loop roughly every 4096 tuples (and at every stage
    boundary) with the number of tuples produced since the previous
    poll; returning [true] aborts the evaluation by raising
    {!Cancelled}.  Without [cancel] the hot path is unchanged.  The
    holistic operator ticks the same counter per stream element while
    filtering, so budgets still bound its work — tuple-budget
    truncation points therefore legitimately differ between
    executors. *)
