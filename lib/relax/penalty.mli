(** Predicate weights, penalties and structural scores (§4.3).

    All penalties are computed against the {e original} query's closure:
    the weight function is keyed by predicates of that closure, and the
    penalty of a relaxed query is the sum of the penalties of the
    closure predicates it no longer implies.  Because the sum only
    depends on the set of dropped predicates, scores are
    order-invariant (Theorem 3). *)

type weights = Tpq.Pred.t -> float

val uniform : weights
(** Weight 1 for every predicate — the assignment of Example 1. *)

type t
(** Penalty environment: the original query, its closure, tag bindings,
    statistics, weights and (optionally) a type hierarchy.  The scored
    closure is indexed once, in {!scored_preds} order: bit [i] of a
    {!mask} and of the executor's tuple mask is predicate [i], and its
    π is computed here, once. *)

val make : ?hierarchy:Tpq.Hierarchy.t -> Stats.t -> weights -> Tpq.Query.t -> t

val original : t -> Tpq.Query.t
val hierarchy : t -> Tpq.Hierarchy.t
val closure : t -> Tpq.Pred.t list

val scored_preds : t -> Tpq.Pred.t list
(** The closure predicates that participate in scoring: structural and
    contains predicates, plus tag predicates that the hierarchy allows
    to be generalized, in ascending {!Tpq.Pred.compare} order.  The
    executor and the termination bounds share this definition. *)

val scored_bits : t -> Tpq.Pred.t array
(** {!scored_preds} as the environment's own array: element [i] is bit
    [i].  Shared, not a copy — callers must not mutate it. *)

val bit_penalties : t -> float array
(** [(bit_penalties env).(i)] is {!predicate_penalty} of bit [i],
    computed once by {!make}.  Shared — callers must not mutate it. *)

val predicate_penalty : t -> Tpq.Pred.t -> float
(** π(p) for a scored predicate of the original closure (§4.3.1):
    - dropping [pc($i,$j)] (keeping ad): [#pc/#ad × w];
    - dropping [ad($i,$j)]: [#ad/(#ti·#tj) × w];
    - dropping [contains($i,F)]: [#contains(ti,F)/#contains(tl,F) × w]
      with [$l] the parent of [$i] in the original query (factor 1 for
      the root);
    - generalizing [$i.tag = t] to its supertype s:
      [#(t)/#(extension of s) × w] (§3.4 analog).
    Attribute predicates have penalty 0 (they are dropped only as a
    side effect of node deletion, §3.3). *)

(** {2 Closure masks}

    A relaxed query keeps the original's variable ids, so the scored
    predicates of the original closure it still implies can be read
    straight off its tree, without a {!Tpq.Closure} fixpoint: [pc] from
    the parent edge, [ad] from ancestry, a positive [contains] from any
    descendant-or-self (a negated one from the node itself only), tags
    from the node. *)

type mask
(** One bit per element of {!scored_bits}: set when the query implies
    that predicate.  Immutable. *)

val mask : t -> Tpq.Query.t -> mask
(** The mask of a relaxation of the original query (any query over the
    original's variable ids): bit [i] is set iff [scored_bits.(i)] lies
    in the query's closure. *)

val mask_equal : mask -> mask -> bool

val mask_penalty : t -> mask -> float
(** Σ π over the cleared bits, summed in ascending bit order — the
    order {!dropped_preds} lists them in. *)

val forced : t -> bool
(** Whether mask equality decides equivalence between a relaxation of
    the original query and the result of applying one more operator to
    it.  True when every variable of the original is tagged, its tags
    are pairwise distinct, the hierarchy is empty and every [contains]
    is positive: a homomorphism between two such relaxations must then
    be the identity, and it exists iff the closures coincide.  False
    otherwise — with a repeated tag a redundant sibling branch can be
    deleted without changing the answers (its closure bits go, the
    query stays equivalent), and a negated [contains] that promotion
    moved off its original node is outside the original closure, so the
    mask no longer sees it move. *)

val dropped_preds : t -> Tpq.Query.t -> Tpq.Pred.t list
(** Predicates of the original closure not implied by the relaxed
    query: [closure(orig) \ closure(relaxed)] restricted to the scored
    predicates, ascending — the cleared bits of its {!mask}. *)

val base_score : t -> float
(** Σ w(p) over the structural predicates present in the original query
    — the structural score of an exact answer (Example 1: 3 for Q1). *)

val max_keyword_score : t -> float
(** Σ w over the contains predicates of the original query, each worth
    at most 1 after IR normalization — the [m] of the §5.1 pruning
    rule. *)

val structural_score : t -> Tpq.Query.t -> float
(** [base_score − Σ π(p) for p dropped]: the structural score shared by
    every answer to the given relaxed query (as evaluated by DPO). *)

val relaxation_penalty : t -> Tpq.Query.t -> float
(** Σ π(p) over [dropped_preds]: {!mask_penalty} of its {!mask}. *)

val unseen_loss : t -> Tpq.Query.t -> float
(** The least Σ π(failed) of an inference-closed set of scored
    predicates that fails at least one predicate the relaxed query
    still implies; [infinity] when it implies none.  An answer's
    satisfied set is always inference-closed, so an answer the relaxed
    query does not return scores at most [base_score − unseen_loss]
    (§5.1's stopping bound).

    It is the minimum, over the query's set mask bits, of a per-bit
    table of least losses: exact by enumerating every closed set when
    the closure has at most 18 scored predicates, a sound lower bound
    by chasing the inference rules beyond that.  The table is computed
    by the environment's first call on a query that implies some
    predicate, and published atomically: a penalty environment shared
    between domains computes it at most once per racing caller and
    always reads a complete table. *)
