(** FleXPath: flexible structure and full-text querying for XML
    (Amer-Yahia, Lakshmanan, Pandit — SIGMOD 2004).

    The façade for the whole system.  Typical use:

    {[
      let env = Flexpath.Env.of_string xml_text |> Result.get_ok in
      let result =
        Flexpath.top_k_xpath env ~k:10
          "//article[./section[./algorithm and \
           ./paragraph[.contains(\"XML\" and \"streaming\")]]]"
        |> Result.get_ok
      in
      List.iter
        (fun a -> Format.printf "%a@." (Flexpath.Answer.pp env.doc) a)
        result.answers
    ]}

    The structural part of the query is a template: answers matching it
    exactly come first, answers matching a relaxation follow with
    scores discounted by data-derived penalties (§3, §4).

    {2 Robustness}

    Every failure a user input can provoke is a value of
    {!Error.t} — {!run} never raises on user input.  An optional
    {!Guard.budget} bounds a query's wall-clock time, executor tuples
    and relaxation steps; exhausting it yields a best-effort,
    correctly ordered partial top-K marked
    {!Common.completeness.Truncated}, never an exception
    (§5's early-termination bound makes the truncation sound).
    {!Failpoint} injects deterministic faults for testing every
    failure path. *)

module Ranking = Ranking
module Env = Env
module Answer = Answer
module Common = Common
module Dpo = Dpo
module Sso = Sso
module Hybrid = Hybrid
module Storage = Storage
module Error = Error
module Guard = Guard
module Failpoint = Failpoint
module Monotime = Monotime
module Qcache = Qcache
module Wal = Wal
module Ingest = Ingest
module Corpus = Corpus
module Taskpool = Taskpool

exception Failed of Error.t
(** Raised only by the [_exn] conveniences ({!run_exn}, {!top_k}). *)

type algorithm = Common.algorithm = DPO | SSO | Hybrid

val algorithm_to_string : algorithm -> string
val algorithm_of_string : string -> (algorithm, string) result
val all_algorithms : algorithm list

val run :
  ?algorithm:algorithm ->
  ?scheme:Ranking.scheme ->
  ?budget:Guard.budget ->
  ?cache:Qcache.t ->
  ?executor:Joins.Exec.executor ->
  Env.t ->
  k:int ->
  Tpq.Query.t ->
  (Common.result, Error.t) result
(** Top-K evaluation.  Defaults: [Hybrid], [Structure_first], no
    budget.  Never raises on user input: closure-capacity overflows and
    injected faults come back as [Error], budget exhaustion as a
    [Truncated] {!Common.result}.

    With [cache], the result tier is consulted first (a hit returns the
    memoized [Complete] result without touching the executor at all);
    on a miss the plan tier supplies — or is populated with — the
    penalty environment, relaxation chain and compiled join plans, and
    a [Complete], non-degraded result is stored back.  The cache must
    have been created for {e this} [env] (see {!Qcache}).

    [executor] (default [Auto]) selects the physical join operator per
    evaluation pass — see {!Joins.Exec.executor}.  Results are
    byte-identical across executors; the executor is still part of the
    result-tier key because budget truncation points can differ. *)

val run_exn :
  ?algorithm:algorithm ->
  ?scheme:Ranking.scheme ->
  ?budget:Guard.budget ->
  ?cache:Qcache.t ->
  ?executor:Joins.Exec.executor ->
  Env.t ->
  k:int ->
  Tpq.Query.t ->
  Common.result
(** {!run}, raising {!Failed}. *)

val top_k :
  ?algorithm:algorithm ->
  ?scheme:Ranking.scheme ->
  ?budget:Guard.budget ->
  ?cache:Qcache.t ->
  ?executor:Joins.Exec.executor ->
  Env.t ->
  k:int ->
  Tpq.Query.t ->
  Answer.t list
(** The answers of {!run_exn}. *)

val top_k_xpath :
  ?algorithm:algorithm ->
  ?scheme:Ranking.scheme ->
  ?budget:Guard.budget ->
  ?cache:Qcache.t ->
  ?executor:Joins.Exec.executor ->
  Env.t ->
  k:int ->
  string ->
  (Answer.t list, Error.t) result
(** Parse the XPath fragment, then {!run}; syntax errors come back as
    [Error.Query_error] with a byte offset. *)

val exact_answers : Env.t -> Tpq.Query.t -> Xmldom.Doc.elem list
(** Classical exact-match semantics (no relaxation) — the baseline the
    flexible semantics consistently extends. *)
