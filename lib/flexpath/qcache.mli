(** A size-bounded LRU cache over repeated query shapes (DESIGN.md §4f).

    FleXPath's workload re-derives the same closure, relaxation chain
    and compiled join plans for every repetition of a query shape.
    {!Tpq.Query.canonical_key} identifies shapes up to variable
    renaming, and answers carry no variable ids, so memoization at the
    shape level is sound.  Two tiers share one byte budget and one
    recency list:

    - the {b plan tier} holds {!Common.plan} values — the penalty
      environment, the greedy relaxation chain, and (filled in lazily
      by the algorithms) the relaxation-encoded join plan per chain
      entry.  Callers key it by canonical key + ranking scheme +
      algorithm + chain length;
    - the {b result tier} holds values of the extensible {!ext} type,
      keyed additionally by [k], the effective budget class and the
      executor ({!answer_key}).  {!Flexpath.run} stores its
      {!Common.result} there and the sharded corpus its merged result;
      each brings its own cacheability rule (only complete,
      non-degraded results — a truncated or degraded one reflects the
      budget of the run that produced it, not the query) and its own
      size estimate.

    A cache is bound to one environment: entries embed penalties and
    statistics derived from it.  The server creates a fresh cache per
    snapshot generation, so [RELOAD] invalidates atomically with the
    snapshot swap (see [Flexpath_server.Server]).

    All operations are mutex-serialized; one cache may be shared by
    every worker domain. *)

type t

type counters = {
  hits : int;  (** Lookups answered from either tier. *)
  misses : int;  (** Lookups that found nothing. *)
  evictions : int;  (** Entries dropped to respect the byte budget. *)
  bytes : int;  (** Estimated resident size of live entries. *)
  entries : int;  (** Live entries across both tiers. *)
}

val create : ?max_bytes:int -> unit -> t
(** Default budget 64 MiB.  Sizes are deterministic per-entry estimates
    of retained structures (the shared environment is not charged). *)

val max_bytes : t -> int

(** {2 Keys} — the one key scheme, shared by {!Flexpath.run} and the
    sharded corpus. *)

val plan_key :
  ?scope:string ->
  algorithm:Common.algorithm ->
  scheme:Ranking.scheme ->
  Tpq.Query.t ->
  string
(** The plan-tier key: canonical shape plus everything that shapes the
    chain's evaluation ([algorithm], [scheme]).  [scope] names the data
    the entry was computed from when one cache outlives a single
    environment — the corpus passes its generation vector, so any
    change to any shard misses. *)

val answer_key :
  plan_key:string ->
  k:int ->
  budget:Guard.budget option ->
  executor:Joins.Exec.executor ->
  string
(** The result-tier key: the plan key extended with [k], the budget
    class and the executor (truncation points under a budget can differ
    per physical operator, so governed results must not cross
    executors; un-truncated results are identical either way). *)

val find_plan : t -> string -> Common.plan option
(** Plan-tier lookup; a hit refreshes recency. *)

val store_plan : t -> string -> Common.plan -> unit
(** Insert or replace; evicts least-recently-used entries (either tier)
    until the budget holds.  An entry larger than the whole budget is
    refused. *)

type ext = ..
(** The {b result tier}'s values: each caller extends this type with
    its own result.  Result keys live in their own namespace and never
    collide with plan keys. *)

val find_ext : t -> string -> ext option
(** Result-tier lookup; a hit refreshes recency. *)

val store_ext : t -> string -> ext -> size:int -> unit
(** Insert or replace; [size] is the caller's deterministic estimate in
    bytes of the retained value (the key is charged on top).  Same
    eviction rules as {!store_plan}. *)

val counters : t -> counters
