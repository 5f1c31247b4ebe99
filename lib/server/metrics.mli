(** The server-side stats surface backing the [STATS] verb.

    One value per server, shared by every worker domain; a single lock
    serializes the counter bumps and reservoir inserts (all
    sub-microsecond, far off the query hot path).  Latency is sampled
    per endpoint into a fixed-size {!Reservoir}, so percentiles stay
    exact-memory-bounded however long the server runs. *)

type endpoint = Ping | Query | Relax | Stats | Shards | Reload | Ingest | Delete | Merge

val endpoint_to_string : endpoint -> string

type t

val create : unit -> t

val connection_admitted : t -> unit

val connection_rejected : t -> unit
(** [OVERLOADED] fast-rejects. *)

val connection_dropped : t -> unit
(** Read timeouts, oversized or unterminated request lines, injected
    [server_read] faults — anything that ends a connection abnormally. *)

val record : t -> endpoint -> latency_ms:float -> outcome:[ `Ok | `Truncated | `Error ] -> unit
(** One served request: bumps the endpoint's counter, the global
    served/truncated/failed counters and the latency reservoir. *)

val reloads : t -> unit

val worker_lost : t -> unit
(** The supervisor claimed a worker (stale heartbeat or dead domain);
    its domain is leaked. *)

val worker_respawned : t -> unit
(** A replacement worker took the lost worker's pool position. *)

val quarantined : t -> unit
(** A request was fast-rejected [QUARANTINED] before evaluation. *)

val shed_queue_deadline : t -> unit
(** A queued connection exceeded the sojourn bound and was shed with
    [OVERLOADED retry-after-ms=…] instead of being served. *)

val client_retry : t -> unit
(** One retry attempt by a {!Client} that was handed this metrics
    value (test harnesses co-located with the server); the server
    itself never bumps this. *)

val ingested : t -> unit
(** One acknowledged [INGEST] (the document is durably in the WAL). *)

val deleted : t -> unit
(** One acknowledged [DELETE]. *)

val write_rejected : t -> unit
(** A write refused before any evaluation: the write lane was full
    ([OVERLOADED]), or ingestion is not enabled. *)

val merged : t -> unit
(** One durable delta merge (snapshot renamed, WAL truncated). *)

val merge_failed : t -> unit
(** A merge attempt returned an error (or tripped a failpoint); the
    WAL keeps the deltas, so no write is lost. *)

val merge_respawned : t -> unit
(** The supervision tick replaced a dead merge domain. *)

type snapshot = {
  admitted : int;
  rejected : int;
  dropped : int;
  served : int;
  truncated : int;
  failed : int;
  lost : int;
  respawned : int;
  quarantine_rejects : int;
  shed : int;
  retries : int;
  ingests : int;
  deletes : int;
  writes_rejected : int;
  merges : int;
  merge_failures : int;
  merge_respawns : int;
}

val snapshot : t -> snapshot
(** A consistent copy of every counter, for invariant checks
    (chaos-soak asserts [lost = respawned] and the connection
    conservation identity without parsing the [STATS] rendering). *)

type loop_gauges = {
  open_connections : int;  (** Connections the event loop currently owns. *)
  fds_in_use : int;  (** Those plus the loop's own descriptors. *)
  bytes_buffered : int;
      (** Unparsed input plus unflushed output across all connections —
          the loop's memory exposure to slow or flooding peers. *)
  loop_lag_count : int;
  loop_lag_p50_ms : float;
  loop_lag_p99_ms : float;
      (** Loop iteration processing time: how long readiness waits on
          the I/O domain before being acted on. *)
}
(** Point-in-time event-loop gauges, sampled from {!Eventloop.stats}
    when rendering [STATS]. *)

type data =
  | Snapshot of { generation : int }
      (** A read-only server's slot: [generation] is 1 at start and
          bumped by each [RELOAD]. *)
  | Corpus of string list
      (** A writable server's corpus, as the lines the server renders
          from {!Flexpath.Corpus.health}; this module never looks
          inside them. *)

val render :
  t ->
  ?loop:loop_gauges ->
  queue_depth:int ->
  queue_capacity:int ->
  uptime_s:float ->
  cache:Flexpath.Qcache.counters option ->
  data:data ->
  unit ->
  string
(** The [STATS] response body: [key: value] lines — counters, queue
    occupancy, the event-loop gauges when [loop] is given
    ([open_connections], [fds_in_use], [bytes_buffered] and
    [loop_lag_ms count=N p50=… p99=…]), the current query-cache
    counters or [cache: off] — followed by one latency line per
    endpoint: [latency_ms <endpoint> count=N p50=… p90=… p99=…], or
    just [latency_ms <endpoint> count=0] while the endpoint has no
    samples (never [nan]).  A [Snapshot] adds [generation:] and
    [snapshot_generation:] lines and [ingest: off]; a [Corpus] adds
    the write counters followed by its own lines verbatim. *)
