(** Fault-isolated sharded corpus (DESIGN.md §4i).

    [N] independent WAL-backed stores ({!Ingest.store}) — one failure
    domain each — served as one logical corpus.  Documents route to
    shards by a stable FNV-1a hash of their id, so a restarted corpus
    re-derives placement from ids alone and no routing table is
    persisted.

    Queries scatter over the live shards and gather the per-shard
    top-K lists into a global top-K.  Every probe runs against a
    {e scoring view} whose statistics and term frequencies are merged
    across the live shards ({!Stats.merged},
    {!Fulltext.Index.overlay_of}), so per-shard scores are
    corpus-global and the healthy N-shard answer is byte-identical to
    a single-shard corpus over the same documents (caveats: phrase and
    window matches never span document boundaries, and cross-shard
    arrival order is reconstructed — not replayed — after a restart).
    The gather is a threshold-algorithm cutoff: the running global
    K-th score floors each probe's relaxation-chain walk, and a shard
    is skipped exactly once the gathered K-th answer reaches
    {!Common.max_total} and wins the node-id tie-break against
    anything the shard could hold.

    A shard that cannot answer — corrupt at load, lost mid-query,
    over budget, or quarantined after {!open_corpus}'s strike
    threshold of repeated losses — contributes a {e sound} score
    bound instead of an error, and the merged result reports
    [Partial] with [served]/[total] attribution.  [max_total] depends
    only on the query's predicate weights, so the bound for a lost
    shard needs no data from it.

    Every write is one routed write: {!ingest} is an [Add] WAL record
    (with an anonymous [doc-N] id minted here, the only place that
    mints one) and {!delete} a [Delete]; each takes the routed shard's
    writer lock, drains its ship queues, commits on the primary with
    {!Ingest}'s durability contract, ships to the followers and
    publishes a new view.

    {b Replication} (DESIGN.md §4l).  With [replicas = R] each shard
    is a replica {e set}: R full stores, each with its own snapshot
    and WAL, kept in sync by WAL shipping — the primary's acked
    records are applied through each follower's own WAL+fsync before
    the ack ([Sync]) or queued and drained shortly after ([Async],
    with a bounded-lag gauge).  Probes fail over: a replica that dies
    mid-query is struck and the next in-sync replica retried under
    the same guard, so single-replica loss yields [Complete] answers
    byte-identical to the healthy run; [Partial] remains as the
    R-failures-out-of-R floor and [served]/[total] counts replica
    sets.  A follower that misses a record is excluded from the view
    until catch-up (primary snapshot copy + WAL tail replay —
    {!reload} with [~replica]). *)

type t

type algorithm = Common.algorithm = DPO | SSO | Hybrid
(** The engine's own type, re-exported: [Corpus.DPO] is [Flexpath.DPO]. *)

val algorithm_to_string : algorithm -> string

type ack_mode =
  | Sync  (** Ship to every in-sync follower before the ack returns. *)
  | Async
      (** Queue per follower; drained on the next write, {!ship_pending}
          or {!merge} of the shard.  A lagging follower is excluded
          from the queryable view until drained (its lag is visible in
          {!replica_health}), so failover never serves a stale copy. *)

val ack_mode_to_string : ack_mode -> string

val route : shards:int -> string -> int
(** The routing function itself (FNV-1a mod [shards]); exposed for
    tests that must place a document on a known shard. *)

val open_corpus :
  ?weights:Relax.Penalty.weights ->
  ?hierarchy:Tpq.Hierarchy.t ->
  ?limits:Ingest.limits ->
  ?strike_threshold:int ->
  ?probe_domains:int ->
  ?replicas:int ->
  ?ack_mode:ack_mode ->
  ?probation_ms:float ->
  ?cache_mb:int option ->
  shards:int ->
  prefix:string ->
  unit ->
  (t, Error.t) result
(** Open [shards] replica sets of [replicas] (default 1, max 8) stores
    each.  Replica 0 of shard [i] keeps the PR-7 single-copy layout
    [<prefix>.shard<i>] / [<prefix>.shard<i>.wal]; follower [j > 0]
    lives at [<prefix>.shard<i>.r<j>](.wal), so an existing corpus
    reopened with [--replicas R] finds its data as replica 0 and the
    followers catch up.  A replica whose snapshot fails integrity
    checks opens {e down} with the error recorded in its health — the
    rest of the set still serves.  At open the replica with the
    largest recovered acked set is the sync reference; live replicas
    that differ are out-of-sync until caught up ({!reload}).
    [strike_threshold] (default 3) is the number of mid-query losses
    after which a {e replica} is quarantined until {!reload}.
    [probe_domains > 0] opens a {!Taskpool} of that many domains
    (capped at [shards - 1]) and {!query} scatters its shard probes
    across them plus the calling domain; [0] (the default) or less
    opens a pool of no domains, which runs every probe in the calling
    domain in shard order (the sequential scatter).  Either way a
    query runs only its own probes.  A server passes only the domains
    its workers leave of its domain budget — none at its defaults.
    Healthy merged answers are byte-identical either way — the
    threshold-algorithm floor is a sound monotone cutoff, so a
    concurrently-read stale floor only reduces pruning.
    [probation_ms] scopes each store's read-only degrade ({!Ingest}).
    [cache_mb] budgets the corpus's query cache (default [Some 64]);
    [None] opens the corpus without one — {!query} then never looks up
    or stores anything. *)

val close : t -> unit

val shard_count : t -> int
val replica_count : t -> int
val ack_mode : t -> ack_mode
val shard_of_id : t -> string -> int
val doc_count : t -> int

val probe_parallelism : t -> int
(** How many shard probes one query can run at once ([pool domains +
    1] for the caller; [1] means the sequential scatter). *)

val ids : t -> string list
(** Document ids in global arrival order (upserts move to the end). *)

val generation_vector : t -> string
(** One ['.']-joined component per shard, each a [':']-joined component
    per replica — ["<generation>"], or ["<generation>!"] for a down,
    quarantined or out-of-sync replica.  At [R = 1] this is exactly the
    PR-7 per-shard format.  Scopes every cache key. *)

(** {2 Writes} *)

val ingest : t -> ?id:string -> string -> (string, Error.t) result
(** Route (auto-assigning [doc-N] when [id] is omitted), apply to the
    routed shard's primary under the shard's writer lock with the
    durability contract of {!Ingest.ingest}, ship the acked record to
    the in-sync followers (per {!ack_mode}), and publish a new view.
    A follower whose ship fails is marked out-of-sync — the ack
    stands on the surviving copies.  [Io_error] when the whole
    replica set is down or quarantined; [Error.Readonly] when the
    primary's store is inside its read-only probation. *)

val delete : t -> id:string -> (unit, Error.t) result

val ship_pending : t -> int -> unit
(** Drain one shard's async ship queues outside a write (the server's
    merge-loop tick calls this).  No-op in [Sync] mode or when nothing
    is queued. *)

val merge : t -> int -> (unit, Error.t) result
(** Durable compaction of one shard's replica set ({!Ingest.merge} on
    the primary, then each in-sync follower — every copy's own
    snapshot must keep pace or its WAL grows without bound); shards
    merge independently, so one shard's backlog never blocks
    another's.  Drains async queues first. *)

val reload : t -> ?replica:int -> int -> (unit, Error.t) result
(** [reload t ord] swaps shard [ord]'s whole replica set for its
    on-disk state: each replica closes and reopens from its own
    snapshot + WAL (with the corpus's own weights, hierarchy and
    limits), the largest recovered acked set becomes the sync
    reference, stragglers catch up from it, strikes and quarantine
    clear, and a new view publishes.  In-flight queries keep the
    previous immutable view and are never dropped.  Documents the
    reference recovers keep their place in the global arrival order —
    tie-breaks, and therefore answers, are unchanged by a reload that
    recovers the same documents; ids it no longer holds drop out and
    newly recovered ones append.

    [reload t ~replica:j ord] addresses one replica: if a distinct
    primary is live the replica {e catches up} — the primary's
    snapshot and WAL files are copied over and reopened, i.e. a real
    snapshot copy + WAL tail replay to the primary's acked set (the
    recovery path for a torn follower WAL or a quarantined replica);
    otherwise it reopens from its own files. *)

val merge_backlog : t -> int -> int
(** Worst backlog across one shard's replica set — unmerged WAL
    records plus queued async ships — the write-lane backpressure
    signal ([retry-after] hints reflect the {e routed} shard's replica
    set, not a global queue). *)

(** {2 Health} *)

type replica_role = Primary | Follower

val role_to_string : replica_role -> string

type replica_health = {
  rh_idx : int;
  rh_role : replica_role;  (** [Primary] is the first usable replica. *)
  rh_live : bool;
  rh_quarantined : bool;
  rh_synced : bool;  (** Holds exactly the primary's acked set. *)
  rh_generation : int;
  rh_docs : int;
  rh_strikes : int;
  rh_unmerged : int;
  rh_staleness_ms : float;
  rh_wal_bytes : int;
  rh_replayed : int;
  rh_lag : int;  (** Queued-but-unapplied shipped records (async). *)
  rh_lag_ms : float;  (** Age of the oldest queued record. *)
  rh_readonly : bool;  (** Store inside (or awaiting re-probe of) its read-only degrade. *)
  rh_readonly_retry_ms : int;
  rh_last_error : string option;
}

type shard_health = {
  h_ord : int;
  h_live : bool;  (** Some replica can serve. *)
  h_quarantined : bool;  (** Every replica is quarantined. *)
  h_generation : int;
  h_docs : int;
  h_strikes : int;  (** Summed over the replica set. *)
  h_unmerged : int;  (** The primary's merge backlog (WAL records). *)
  h_staleness_ms : float;  (** Age of the primary's oldest unmerged write. *)
  h_wal_bytes : int;
  h_replayed : int;  (** WAL records replayed when the primary last opened. *)
  h_last_error : string option;
  h_replicas : replica_health array;  (** Per-replica detail, index order. *)
}

val health : t -> shard_health array
(** The one description of the corpus's shards and replicas, one
    record per shard in ordinal order.  A shard's docs, unmerged,
    staleness, WAL and replay fields are its primary's replica record
    (zero while the set has no primary).  The server renders [SHARDS]
    and [STATS] from it. *)

val scoring_env : t -> Env.t
(** The merged scoring view — any live shard's environment, whose
    statistics and term frequencies span the whole live corpus — or
    the empty corpus's when every shard is down.  Penalty chains
    introspected against it (server [RELAX]) match what {!query}
    scores with. *)

(** {2 Scatter-gather query} *)

type completeness =
  | Complete  (** Every shard fully accounted for: the true global top-K. *)
  | Partial of { reason : string; score_bound : float }
      (** Some shard contributed a bound instead of answers ([reason =
          "shard-loss"]) or a probe was budget-truncated ([reason] the
          guard's).  No unreported answer can score above
          [score_bound] on the scheme's primary key. *)

type answer = {
  a_doc : string;  (** Document id; [""] only for the synthetic corpus root. *)
  a_path : string;  (** Doc-relative path; [""] when the answer is the document itself. *)
  a_node : int;  (** Pre-order id in the combined corpus — the deterministic tie-break. *)
  a_sscore : float;
  a_kscore : float;
  a_dropped : int;
}

type shard_status =
  | Served
  | Skipped
      (** Exact threshold-algorithm skip: nothing on this shard could
          enter the top-K.  Counts as served. *)
  | Budget of Guard.reason
      (** The shared guard tripped.  Budget truncation does {e not}
          fail over: the guard spans the whole scatter, so a retry on
          a value-identical replica would truncate identically. *)
  | Lost of string
      (** Every replica of the set failed mid-query; each was struck.
          With [R > 1] a single replica loss is absorbed by failover
          and reports [Served] instead. *)
  | Down of string  (** No replica was available before the query began. *)

type shard_report = {
  r_ord : int;
  r_replica : int;  (** Replica that served ([-1] when none did). *)
  r_status : shard_status;
  r_bound : float;
  r_found : int;
}

type result = {
  answers : answer list;
  served : int;
      (** Replica {e sets} fully or partially accounted for
          ([Served]/[Skipped]/[Budget]); [total] counts sets, not
          copies. *)
  total : int;
  completeness : completeness;
  degraded : bool;
  reports : shard_report list;
  failovers : int;  (** Probes retried on another replica during this query. *)
  relaxations_evaluated : int;
  passes : int;
  restarts : int;
  tuples_produced : int;
}

type Qcache.ext += Cached_result of result

val query :
  t ->
  ?budget:Guard.budget ->
  ?algorithm:algorithm ->
  ?scheme:Ranking.scheme ->
  ?use_cache:bool ->
  ?executor:Joins.Exec.executor ->
  k:int ->
  Tpq.Query.t ->
  (result, Error.t) Stdlib.result
(** One guard governs the whole scatter (the deadline and tuple budget
    span all probes).  Cache keys are the engine's
    ({!Qcache.plan_key}, {!Qcache.answer_key}) scoped by the full
    generation vector, so any write to, loss of, or recovery of any
    shard invalidates them; only [Complete], non-degraded, fully
    served results are cached, and [use_cache:false] bypasses the
    cache for one query.  [executor] selects the physical join
    operator used by every probe (default [Auto]); merged results are
    byte-identical across executors. *)

val answer_line : answer -> string
(** ["<doc-id>/<relpath>  ss=... ks=...  exact"] — the wire rendering,
    shared by server and tests so equivalence checks are byte-level. *)

val cache_counters : t -> Qcache.counters
(** All zero when the corpus was opened without a cache. *)
