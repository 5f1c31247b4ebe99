(** The [flexpath serve] engine: a long-lived multi-domain TCP query
    server over either one shared, immutable {!Flexpath.Env} (the
    read-only slot) or a writable {!Flexpath.Corpus} ([config.ingest]).

    Architecture (DESIGN.md §4e, §4j): the calling domain runs the
    {!Eventloop} — a single poll/epoll-driven I/O domain owning
    accept, request reassembly, response flushing and every
    idle/read/write deadline, so an idle connection costs an fd and a
    buffer rather than a domain.  Fully parsed requests pass through
    admission control (an {!Admission} bounded queue, plus a
    total-connections cap at accept — over either limit the client is
    told [OVERLOADED] immediately and disconnected, never left to
    hang) and are evaluated by a pool of worker domains speaking
    {!Protocol}; workers never touch a socket, they settle each
    request back through the loop.  All workers read the same
    environment snapshot through an [Atomic.t]; a
    [RELOAD] verifies the new snapshot's checksums {e before} swapping
    the atomic, so in-flight queries keep the environment they started
    with (the old value stays live until its last request drains, then
    the GC collects it) and a corrupt snapshot never replaces a good
    one.

    Every query runs under a {!Flexpath.Guard} budget: the server's
    default budget, with any axis overridden by the request's own
    [timeout_ms=]/[tuples=]/[steps=]/[restarts=] options.  Budget
    exhaustion is not a failure — the client gets [PARTIAL] with the
    best answers found and the sound [score_bound] of
    {!Flexpath.Common.completeness}.

    Graceful shutdown ([SHUTDOWN], or {!stop} — which the CLI wires to
    SIGTERM/SIGINT): the listener stops accepting, already-admitted
    connections drain (one final response each; idle ones get at most
    a second), workers join, {!serve} returns.  The
    [server_accept]/[server_read]/[server_worker] failpoints
    deterministically exercise the accept, connection-read and
    dispatcher error paths. *)

type ingest_config = {
  merge_interval_ms : float;
      (** Cadence of the background merge domain, which folds
          acknowledged deltas into the snapshot and truncates the WAL;
          it bounds the [staleness_ms] gauge while the domain is
          healthy.  [<= 0] disables the domain — deltas then
          accumulate until a [MERGE] request. *)
  max_doc_bytes : int;  (** Per-document byte budget for [INGEST]. *)
  max_doc_elems : int;
      (** Per-document element budget, enforced by a streaming SAX
          pre-pass before any tree is built. *)
  write_lane : int;
      (** Write admission class: [INGEST]/[DELETE] requests in flight
          beyond this depth are answered [OVERLOADED] immediately, so a
          write burst (or a merge holding a shard's writer lock) cannot
          starve queries of workers.  [0] rejects every write.  The
          reject's [retry-after-ms] hint scales with the merge backlog
          of the shard the write routes to — the signal that actually
          governs how soon the writer path clears. *)
  shards : int;
      (** The corpus's shard count ([>= 1], default 1;
          {!Flexpath.Corpus}, DESIGN.md §4i): shard [i] keeps its
          snapshot at [<snapshot>.shard<i>] and its WAL at
          [<snapshot>.shard<i>.wal], documents route to shards by a
          stable hash of their id, queries scatter-gather over the live
          shards, and a shard that cannot answer degrades the response
          to [PARTIAL] with [shards=served/total] and a sound
          [score_bound] instead of failing it.  [SHARDS] reports
          per-shard health; [RELOAD <ord>] swaps one shard; background
          merges are scheduled per shard. *)
  replicas : int;
      (** [> 1] keeps that many copies of each shard (DESIGN.md §4l):
          a primary plus followers, each a full WAL-backed store
          (follower [j] at [<prefix>.shard<i>.r<j>]), kept in sync by
          WAL shipping.  Probes fail over to the next in-sync replica,
          so a single replica loss still yields [Complete] answers;
          [SHARDS]/[STATS] gain per-replica lines and
          [RELOAD <ord>.<replica>] catches one replica up from its
          primary.  [1] (the default) is the unreplicated layout. *)
  ack_mode : Flexpath.Corpus.ack_mode;
      (** [Sync] (default): acked records reach every in-sync follower
          (through its own WAL + fsync) before the ack returns.
          [Async]: ships are queued per follower and drained on the
          merge loop's tick, bounding follower lag by the tick rather
          than adding it to write latency; a lagging follower is
          excluded from the queryable view until drained. *)
  probation_ms : float;
      (** Read-only degrade window after a disk fault
          ({!Flexpath.Ingest}): writes are answered [READONLY] with a
          [retry-after-ms] hint until a post-probation write re-probes
          the disk successfully. *)
}

val ingest_defaults : ingest_config
(** 2 s merge interval, {!Flexpath.Ingest.default_limits} document
    budgets, write lane 4, one shard, unreplicated ([Sync] ack,
    {!Flexpath.Ingest.default_probation_ms} probation). *)

type config = {
  host : string;  (** Listen address, default ["127.0.0.1"]. *)
  port : int;  (** 0 picks an ephemeral port; see {!port}. *)
  workers : int;
      (** Worker-domain pool size.  A corpus's probe domains get only
          what the workers leave of the domain budget. *)
  queue_depth : int;  (** Admission queue capacity. *)
  max_connections : int;
      (** Cap on connections admitted and not yet closed (queued plus
          in service); beyond it clients are fast-rejected. *)
  read_timeout_s : float;
      (** Idle limit per request read; an expired connection is
          dropped. *)
  write_timeout_s : float;  (** Send-buffer stall limit per response write. *)
  default_k : int;  (** [k] when a [QUERY] does not pass [k=]. *)
  default_budget : Flexpath.Guard.budget;
      (** Per-request governance defaults; request options override
          per axis. *)
  snapshot : string option;
      (** The snapshot the environment came from; the target of a bare
          [RELOAD].  With [ingest] set, the corpus's per-shard file
          prefix instead. *)
  cache_mb : int option;
      (** Query-cache budget in MiB; [None] disables caching.  The
          cache ({!Flexpath.Qcache}) lives inside the snapshot slot — a
          successful [RELOAD] swaps in a fresh one atomically with the
          new environment — or, with [ingest] set, inside the corpus,
          keyed by its generation vector.  [STATS] reports its
          counters. *)
  supervise : bool;
      (** Run the supervision scan ({!Supervisor}, DESIGN.md §4g) on
          the event loop every [max 10 (hard_wall_ms / 4)] ms: a worker
          busy past [hard_wall_ms], or whose domain died, is declared
          lost (its domain is leaked; OCaml domains cannot be killed)
          and a fresh worker takes its place, retried each tick until
          a spawn succeeds.  Off, nothing is scheduled and a wedged
          worker shrinks the pool permanently. *)
  hard_wall_ms : float;
      (** How long a worker may stay busy on one request before the
          supervisor declares it lost.  Set well above the largest
          legitimate request budget: a slow-but-governed query should
          always finish (or truncate) before the wall. *)
  quarantine_strikes : int;
      (** Worker losses a query fingerprint may cause before matching
          queries are fast-rejected with [QUARANTINED] (never reaching
          evaluation).  [<= 0] disables quarantining. *)
  queue_deadline_ms : float option;
      (** Bound on a connection's sojourn in the admission queue: a
          worker coming free sheds older entries with
          [OVERLOADED retry-after-ms=…] instead of serving them
          (CoDel-style — under sustained overload, work the client has
          likely given up on is not worth starting).  [None] disables
          shedding. *)
  ingest : ingest_config option;
      (** Live ingestion (DESIGN.md §4h, §4i).  Requires [snapshot]
          (the shard file prefix).  The server then serves a
          {!Flexpath.Corpus} — each shard its snapshot plus its
          replayed WAL tail — and [INGEST]/[DELETE]/[MERGE]/[SHARDS]
          become live; each acknowledged write is WAL-durable
          {e before} its ack and is published as a new corpus view, so
          queries never block on writes.  Answers render through
          {!Flexpath.Corpus.answer_line}.  [None] (the default) serves
          the read-only slot. *)
}

val default_config : config
(** [127.0.0.1:0], the whole domain budget as workers
    ([Domain.recommended_domain_count ()] capped at 64, so a corpus
    opens no probe domain), queue 64, 256 connections, 30s/30s
    timeouts, [k]=10, unlimited budget, no snapshot, 64 MiB cache,
    supervision on with a 5 s hard wall and 2 quarantine strikes, no
    queue deadline, no ingestion. *)

type t

val create : config -> env:Flexpath.Env.t -> (t, Flexpath.Error.t) result
(** Binds and listens (so {!port} is known before {!serve} runs);
    failures surface as [Error.Io_error].  With [cfg.ingest] set, the
    corpus is opened here — each shard's snapshot loaded if present,
    its WAL replayed — and {e its} documents are served; [env] then
    only donates weights and hierarchy for shards starting from
    nothing. *)

val port : t -> int
(** The actually bound port — the ephemeral choice when [cfg.port] was 0. *)

val serve : t -> unit
(** Runs the event loop, with the supervision tick on it, in the
    calling domain and the worker pool in spawned domains; returns
    after a graceful shutdown completes (all admitted connections
    settled, workers joined, listener closed).  Call at most once per
    {!t}. *)

val stop : t -> unit
(** Initiates graceful shutdown from any domain (or a signal handler);
    idempotent.  {!serve} returns once the drain completes. *)

val generation : t -> int
(** The environment's generation: 1 at start, bumped by each
    successful [RELOAD] of the read-only slot.  A corpus server stays
    at 1; its shards carry their own generations. *)

val active_connections : t -> int
(** Connections admitted and not yet settled (served, shed, or
    charged to a lost worker).  Zero once traffic has drained — the
    chaos-soak test asserts admission capacity cannot leak. *)

val metrics : t -> Metrics.t
(** The server's live counters (what [STATS] renders).  Exposed for
    invariant checks in tests and for co-located {!Client}s to count
    their retries into. *)

val corpus : t -> Flexpath.Corpus.t option
(** The writable corpus, whenever [cfg.ingest] is set — exposed so
    tests can compare it against an offline rebuild of the acked
    document set after a quiesce, arm shard-level chaos, and assert
    per-shard health without going through the wire. *)
