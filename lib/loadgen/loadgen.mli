(** The [flexpath bench serve] engine: an open-loop load generator for
    the {!Flexpath_server} wire protocol (DESIGN.md §4j).

    One domain multiplexes every client connection over a {!Poller}
    (the same readiness layer the server's event loop uses), so
    thousands of mostly-idle connections cost the generator an fd and
    a buffer each — mirroring what they cost the server.  Arrivals
    are an open-loop Poisson process at the target rate: each request
    is stamped with its {e scheduled} arrival time and its latency is
    measured from that stamp, not from the moment a connection came
    free, so a stalling server inflates the tail instead of silently
    throttling the generator (no coordinated omission).

    The request mix is Zipf-weighted over a fixed query set, with
    optional [PING] and framed idempotent-[INGEST] fractions.  A
    connection the server closes (request-level [OVERLOADED] reject,
    read-timeout drop, chaos) is transparently reopened while the
    measurement window is live, so the pool size — the knob under
    test — stays constant. *)

type workload = {
  rate : float;  (** Offered load in requests/second (open loop). *)
  duration_s : float;  (** Measured window, after warmup. *)
  warmup_s : float;
      (** Requests scheduled before the window opens are sent and
          settled but never counted. *)
  queries : string list;
      (** [QUERY]/[RELAX]/... request lines, most-popular first; drawn
          with Zipf([zipf_s]) weights by rank. *)
  zipf_s : float;  (** Zipf exponent; [0.0] is uniform. *)
  ping_fraction : float;  (** Share of arrivals that are [PING]. *)
  ingest_fraction : float;
      (** Share of arrivals that are framed [INGEST] upserts over a
          small rotating id set (so the corpus stays bounded);
          requires a write-enabled server, otherwise they count as
          [errors]. *)
  seed : int;  (** PRNG seed: arrivals and mix are reproducible. *)
}

val default_workload : workload
(** 100 req/s for 5 s after 1 s of warmup, the {!default_queries}
    mix, Zipf 1.1, 20% [PING], no ingest, seed 42. *)

val default_queries : string list
(** A rank-ordered query set over the synthetic article collection
    ({!Xmark.Articles}): mixed selectivity, some with budgets, one
    [STATS] probe. *)

type result = {
  connections : int;  (** Pool size this scale ran with. *)
  target_rate : float;
  duration_s : float;
  sent : int;  (** Requests scheduled inside the measured window. *)
  completed : int;  (** Responses received for measured requests. *)
  ok : int;
  partial : int;
  overloaded : int;
  quarantined : int;
  errors : int;  (** [ERR] responses. *)
  dropped : int;
      (** Measured requests whose connection died before a response
          (plus any still unsettled when the drain deadline hit). *)
  reconnects : int;  (** Connections reopened during the whole run. *)
  achieved_rps : float;  (** [completed / duration_s]. *)
  goodput_rps : float;  (** [(ok + partial) / duration_s]. *)
  samples : int;  (** Latency samples = [ok + partial]. *)
  p50_ms : float;
  p90_ms : float;
  p99_ms : float;
  p999_ms : float;
  max_ms : float;
  mean_ms : float;  (** All 0 when [samples = 0]. *)
}

val run :
  host:string -> port:int -> connections:int -> workload -> (result, string) Stdlib.result
(** Open the pool, run warmup + the measured window, drain in-flight
    requests (10 s bound), close everything.  [Error] only for setup
    failures (connect refused, fd budget); server-side misbehavior is
    data, reported in the counters. *)

val percentile : float array -> float -> float
(** [percentile sorted p] is the nearest-rank [p]th percentile (0 < [p]
    <= 100) of an ascending array: the smallest sample with at least
    [p]% of the samples at or below it.  [0.0] when empty. *)

(** {2 Bench artifacts}

    Every [BENCH_*.json] file is a {!Json.t} under one envelope,
    written by {!write_artifact} and gated by {!check_report}. *)

val artifact : bench:string -> (string * Json.t) list -> Json.t
(** [artifact ~bench body] is [body] behind the envelope: a
    [schema_version] and the [bench] tag {!check_report} dispatches
    on. *)

val write_artifact : string -> Json.t -> unit
(** Render pretty-printed with a trailing newline to a file; ["-"] is
    stdout.  Raises [Sys_error] when the file cannot be written. *)

val report : config:(string * Json.t) list -> results:result list -> Json.t
(** The [bench serve] artifact ([BENCH_serve.json], bench ["serve"]):
    [created_unix_s], the [config] fields verbatim, one [scales] entry
    per result, and a [summary] comparing the largest scale's p99
    against the smallest's (the depth-8 baseline ratio the roadmap
    tracks). *)

val check_report : Json.t -> (string, string) Stdlib.result
(** The schema gate [flexpath bench check] and CI enforce.  Every
    artifact needs a positive [schema_version] and a known [bench]
    tag; a missing or unknown tag is an error naming the known ones.
    [Ok] carries the summary the CLI prints after "ok".  Per tag:
    - ["serve"]: non-empty [scales], each with a positive
      [connections], numeric [goodput_rps] and [latency_ms] with
      numeric [p50]/[p99]/[p999];
    - ["twig"] ([BENCH_twig.json], holistic vs binary): a non-empty
      [series] whose entries carry a [query] label and numeric
      [binary_ms]/[holistic_ms]/[speedup];
    - ["replica"] ([BENCH_replica.json], DESIGN.md §4l):
      [query.healthy]/[query.replica_lost] p50/p99 with
      [replica_lost.partials] exactly 0 (failover absorbs the loss),
      numeric [ingest.sync_docs_per_s]/[async_docs_per_s], and a
      [catchup] object with [records_behind] and [ms];
    - ["shard"] ([BENCH_shard.json], DESIGN.md §4i): an integer
      [queries_per_pass] and a non-empty [series] of shard counts,
      each with [healthy]/[degraded] p50/p99 and partials — healthy
      0, degraded exactly [queries_per_pass], since a lost shard
      always answers PARTIAL;
    - ["ingest"] ([BENCH_ingest.json], DESIGN.md §4h): numeric
      [merge_interval_ms], [ingest.*] and [mixed.*] fields with
      [ingest.docs] > 0, [mixed.queries] > 0 and [mixed.merges] >= 1. *)
