(** The space of relaxations of a query (§3.5) and penalty-guided
    traversal of it.

    DPO walks a chain [Q = Q0 ⊂ Q1 ⊂ Q2 ⊂ ...] where each step applies
    the applicable operator with the smallest additional penalty —
    "drop the predicate with the lowest penalty" in the paper's
    predicate view.  SSO consumes the same chain but decides the cut
    point with selectivity estimates instead of evaluation. *)

type entry = {
  query : Tpq.Query.t;
  ops : Op.t list;  (** operators applied to the original, in order. *)
  penalty : float;  (** total penalty of the predicates dropped. *)
  score : float;  (** structural score of its answers (base − penalty). *)
}

val enumerate :
  ?hierarchy:Tpq.Hierarchy.t ->
  ?max_queries:int ->
  Tpq.Query.t ->
  (Tpq.Query.t * Op.t list) list
(** Breadth-first closure of the original query under all applicable
    operators, de-duplicated up to isomorphism; the original comes
    first with [[]].  Stops after [max_queries] distinct queries
    (default 500) — the space is finite but can be exponential in the
    query size. *)

val cheapest_next : Penalty.t -> Tpq.Query.t -> (Op.t * Tpq.Query.t * float) option
(** The applicable operator whose application drops the cheapest
    additional penalty (measured against the original query), with the
    resulting query and its {e total} penalty.  [None] when no operator
    applies.  Deterministic tie-breaking.

    The operators considered are those of {!Op.applicable}, but the
    call does not go through it: each of {!Op.candidates} is applied
    once, and its result's {!Penalty.mask} yields the penalty.  When
    {!Penalty.forced} holds, mask equality with [q] rejects the
    candidates equivalent to [q]; otherwise {!Op.equivalent} does. *)

val sequence : ?max_steps:int -> Penalty.t -> entry list
(** The greedy chain starting at the original query ([ops = []],
    [penalty = 0]), following {!cheapest_next} until exhaustion or
    [max_steps] (default 32).  Scores are non-increasing along the
    chain. *)

val entry_to_string : int -> entry -> string
(** Chain entry [i] in two lines, with no trailing newline: its rank,
    score, penalty and operators, then its query as XPath.  The one
    rendering of a chain, shared by [flexpath relax] and the server's
    [RELAX]. *)
