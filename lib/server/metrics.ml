type endpoint = Ping | Query | Relax | Stats | Shards | Reload | Ingest | Delete | Merge

let endpoint_to_string = function
  | Ping -> "ping"
  | Query -> "query"
  | Relax -> "relax"
  | Stats -> "stats"
  | Shards -> "shards"
  | Reload -> "reload"
  | Ingest -> "ingest"
  | Delete -> "delete"
  | Merge -> "merge"

let all_endpoints = [ Ping; Query; Relax; Stats; Shards; Reload; Ingest; Delete; Merge ]

type t = {
  lock : Mutex.t;
  mutable connections_admitted : int;
  mutable connections_rejected : int;
  mutable connections_dropped : int;
  mutable requests_served : int;
  mutable requests_truncated : int;
  mutable requests_failed : int;
  mutable reloads : int;
  mutable workers_lost : int;
  mutable workers_respawned : int;
  mutable quarantined : int;
  mutable shed_queue_deadline : int;
  mutable client_retries : int;
  mutable ingests : int;
  mutable deletes : int;
  mutable writes_rejected : int;
  mutable merges : int;
  mutable merge_failures : int;
  mutable merge_respawns : int;
  latency : (endpoint * Reservoir.t) list;
}

let create () =
  {
    lock = Mutex.create ();
    connections_admitted = 0;
    connections_rejected = 0;
    connections_dropped = 0;
    requests_served = 0;
    requests_truncated = 0;
    requests_failed = 0;
    reloads = 0;
    workers_lost = 0;
    workers_respawned = 0;
    quarantined = 0;
    shed_queue_deadline = 0;
    client_retries = 0;
    ingests = 0;
    deletes = 0;
    writes_rejected = 0;
    merges = 0;
    merge_failures = 0;
    merge_respawns = 0;
    latency = List.map (fun e -> (e, Reservoir.create ())) all_endpoints;
  }

let with_lock t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let connection_admitted t =
  with_lock t (fun () -> t.connections_admitted <- t.connections_admitted + 1)

let connection_rejected t =
  with_lock t (fun () -> t.connections_rejected <- t.connections_rejected + 1)

let connection_dropped t =
  with_lock t (fun () -> t.connections_dropped <- t.connections_dropped + 1)

let record t endpoint ~latency_ms ~outcome =
  with_lock t (fun () ->
      t.requests_served <- t.requests_served + 1;
      (match outcome with
      | `Ok -> ()
      | `Truncated -> t.requests_truncated <- t.requests_truncated + 1
      | `Error -> t.requests_failed <- t.requests_failed + 1);
      Reservoir.add (List.assq endpoint t.latency) latency_ms)

let reloads t = with_lock t (fun () -> t.reloads <- t.reloads + 1)
let worker_lost t = with_lock t (fun () -> t.workers_lost <- t.workers_lost + 1)
let worker_respawned t = with_lock t (fun () -> t.workers_respawned <- t.workers_respawned + 1)
let quarantined t = with_lock t (fun () -> t.quarantined <- t.quarantined + 1)

let shed_queue_deadline t =
  with_lock t (fun () -> t.shed_queue_deadline <- t.shed_queue_deadline + 1)

let client_retry t = with_lock t (fun () -> t.client_retries <- t.client_retries + 1)
let ingested t = with_lock t (fun () -> t.ingests <- t.ingests + 1)
let deleted t = with_lock t (fun () -> t.deletes <- t.deletes + 1)
let write_rejected t = with_lock t (fun () -> t.writes_rejected <- t.writes_rejected + 1)
let merged t = with_lock t (fun () -> t.merges <- t.merges + 1)
let merge_failed t = with_lock t (fun () -> t.merge_failures <- t.merge_failures + 1)
let merge_respawned t = with_lock t (fun () -> t.merge_respawns <- t.merge_respawns + 1)

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

let snapshot t =
  with_lock t (fun () ->
      {
        admitted = t.connections_admitted;
        rejected = t.connections_rejected;
        dropped = t.connections_dropped;
        served = t.requests_served;
        truncated = t.requests_truncated;
        failed = t.requests_failed;
        lost = t.workers_lost;
        respawned = t.workers_respawned;
        quarantine_rejects = t.quarantined;
        shed = t.shed_queue_deadline;
        retries = t.client_retries;
        ingests = t.ingests;
        deletes = t.deletes;
        writes_rejected = t.writes_rejected;
        merges = t.merges;
        merge_failures = t.merge_failures;
        merge_respawns = t.merge_respawns;
      })

type loop_gauges = {
  open_connections : int;
  fds_in_use : int;
  bytes_buffered : int;
  loop_lag_count : int;
  loop_lag_p50_ms : float;
  loop_lag_p99_ms : float;
}

type data = Snapshot of { generation : int } | Corpus of string list

let render t ?loop ~queue_depth ~queue_capacity ~uptime_s ~cache ~data () =
  with_lock t (fun () ->
      let b = Buffer.create 512 in
      let line fmt = Printf.ksprintf (fun s -> Buffer.add_string b s; Buffer.add_char b '\n') fmt in
      line "uptime_s: %.1f" uptime_s;
      (match data with
      | Snapshot { generation } ->
        line "generation: %d" generation;
        line "snapshot_generation: %d" generation
      | Corpus _ -> ());
      line "queue_depth: %d/%d" queue_depth queue_capacity;
      line "connections_admitted: %d" t.connections_admitted;
      line "connections_rejected: %d" t.connections_rejected;
      line "connections_dropped: %d" t.connections_dropped;
      line "requests_served: %d" t.requests_served;
      line "requests_truncated: %d" t.requests_truncated;
      line "requests_failed: %d" t.requests_failed;
      line "reloads: %d" t.reloads;
      line "workers_lost: %d" t.workers_lost;
      line "workers_respawned: %d" t.workers_respawned;
      line "quarantined: %d" t.quarantined;
      line "shed_queue_deadline: %d" t.shed_queue_deadline;
      line "client_retries: %d" t.client_retries;
      (match (loop : loop_gauges option) with
      | None -> ()
      | Some g ->
        line "open_connections: %d" g.open_connections;
        line "fds_in_use: %d" g.fds_in_use;
        line "bytes_buffered: %d" g.bytes_buffered;
        (* Same empty-reservoir rule as the latency lines: never [nan]. *)
        if g.loop_lag_count = 0 then line "loop_lag_ms count=0"
        else
          line "loop_lag_ms count=%d p50=%.3f p99=%.3f" g.loop_lag_count g.loop_lag_p50_ms
            g.loop_lag_p99_ms);
      (match data with
      | Snapshot _ -> line "ingest: off"
      | Corpus lines ->
        line "ingests: %d" t.ingests;
        line "deletes: %d" t.deletes;
        line "writes_rejected: %d" t.writes_rejected;
        line "merges: %d" t.merges;
        line "merge_failures: %d" t.merge_failures;
        line "merge_respawns: %d" t.merge_respawns;
        List.iter (line "%s") lines);
      (match (cache : Flexpath.Qcache.counters option) with
      | None -> line "cache: off"
      | Some c ->
        line "cache_hits: %d" c.Flexpath.Qcache.hits;
        line "cache_misses: %d" c.Flexpath.Qcache.misses;
        line "cache_evictions: %d" c.Flexpath.Qcache.evictions;
        line "cache_bytes: %d" c.Flexpath.Qcache.bytes;
        line "cache_entries: %d" c.Flexpath.Qcache.entries);
      List.iter
        (fun (e, r) ->
          (* An empty reservoir has no percentiles: never render [nan]
             (it breaks numeric parsing on clients), but keep the line so
             every endpoint is always enumerable. *)
          if Reservoir.filled r = 0 then line "latency_ms %s count=0" (endpoint_to_string e)
          else
            line "latency_ms %s count=%d p50=%.3f p90=%.3f p99=%.3f" (endpoint_to_string e)
              (Reservoir.count r) (Reservoir.percentile r 50.0) (Reservoir.percentile r 90.0)
              (Reservoir.percentile r 99.0))
        t.latency;
      Buffer.contents b)
