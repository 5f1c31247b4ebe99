module Guard = Flexpath.Guard
module Error = Flexpath.Error
module Failpoint = Flexpath.Failpoint
module Monotime = Flexpath.Monotime
module Corpus = Flexpath.Corpus

type ingest_config = {
  merge_interval_ms : float;
  max_doc_bytes : int;
  max_doc_elems : int;
  write_lane : int;
  shards : int;
  replicas : int;
  ack_mode : Corpus.ack_mode;
  probation_ms : float;
}

let ingest_defaults =
  {
    merge_interval_ms = 2000.0;
    max_doc_bytes = Flexpath.Ingest.default_limits.Flexpath.Ingest.max_bytes;
    max_doc_elems = Flexpath.Ingest.default_limits.Flexpath.Ingest.max_elems;
    write_lane = 4;
    shards = 1;
    replicas = 1;
    ack_mode = Corpus.Sync;
    probation_ms = Flexpath.Ingest.default_probation_ms;
  }

type config = {
  host : string;
  port : int;
  workers : int;
  queue_depth : int;
  max_connections : int;
  read_timeout_s : float;
  write_timeout_s : float;
  default_k : int;
  default_budget : Guard.budget;
  snapshot : string option;
  cache_mb : int option;
  supervise : bool;
  hard_wall_ms : float;
  quarantine_strikes : int;
  queue_deadline_ms : float option;
  ingest : ingest_config option;
}

(* The domain budget that worker and probe counts share: one per core,
   capped at half the runtime's limit of 128 domains so the loop, the
   merge domain and leaked lost workers still fit on a many-core host. *)
let domain_budget = min (Domain.recommended_domain_count ()) 64

let default_config =
  {
    host = "127.0.0.1";
    port = 0;
    workers = domain_budget;
    queue_depth = 64;
    max_connections = 256;
    read_timeout_s = 30.0;
    write_timeout_s = 30.0;
    default_k = 10;
    default_budget = Guard.unlimited;
    snapshot = None;
    cache_mb = Some 64;
    supervise = true;
    hard_wall_ms = 5000.0;
    quarantine_strikes = 2;
    queue_deadline_ms = None;
    ingest = None;
  }

(* A slot binds an environment to the cache built for it: swapping the
   atomic replaces both at once, so a query dispatched against the old
   snapshot can never be answered from — or populate — the new
   snapshot's cache, and vice versa.  In-flight queries hold the slot
   they started with until they finish. *)
type slot = { env : Flexpath.Env.t; generation : int; cache : Flexpath.Qcache.t option }

let fresh_cache (cfg : config) =
  Option.map (fun mb -> Flexpath.Qcache.create ~max_bytes:(mb * 1024 * 1024) ()) cfg.cache_mb

(* The writable runtime: a {!Flexpath.Corpus} of [shards >= 1] replica
   sets (DESIGN.md §4h, §4i).  The corpus serializes writers per shard
   internally, so only the write lane (admission) lives here:
   [writers] counts requests inside it, so the lane can fast-reject
   beyond its depth instead of queueing writes without bound behind a
   slow merge.  The merge domain walks the shards independently — one
   shard's backlog never delays another's compaction — and publishes
   its liveness through [merge_dead]: set when the domain body ends
   abnormally (the [merge_publish] failpoint escapes deliberately),
   read by the supervision tick to respawn it. *)
type corpus_rt = {
  corpus : Flexpath.Corpus.t;
  icfg : ingest_config;
  writers : int Atomic.t;
  merge_dead : bool Atomic.t;
  merge_domain : unit Domain.t option Atomic.t;
}

(* One parsed request in flight: the event loop hands it to the
   admission queue, a worker evaluates it and settles it back through
   {!Eventloop.respond}/{!Eventloop.drop}.  Workers never see the
   socket — [conn] is an opaque settlement handle.  The enqueue
   timestamp lets a worker coming free shed entries whose queue
   sojourn exceeded the bound. *)
type job = {
  conn : Eventloop.conn;
  req : Protocol.request;
  body : string option;
  enqueued_ms : float;
}

type t = {
  cfg : config;
  listen_fd : Unix.file_descr;
  bound_port : int;
  loop : Eventloop.t;
  queue : job Admission.t;
  current : slot Atomic.t;
  active : int Atomic.t;  (* connections admitted and not yet closed *)
  metrics : Metrics.t;
  sup : Supervisor.t;
  (* Touched only on the loop domain: written by [serve] at startup
     and by the supervision tick on respawn, read by [serve]'s shutdown
     join once the loop has returned. *)
  domains : unit Domain.t option array;
  (* [inflight.(i)] is the job worker [i] is evaluating, set before its
     heartbeat goes Busy and cleared only after a successful retire.
     When the supervisor claims worker [i] as lost, it exchanges the
     slot to settle the orphaned job's connection exactly once —
     either the worker retired first (slot already cleared) or the
     supervisor's claim won (the worker sees the failed retire and
     exits without touching the slot). *)
  inflight : job option Atomic.t array;
  reload_lock : Mutex.t;
  started_wall : float;
  corpus : corpus_rt option;
}

let port t = t.bound_port
let generation t = (Atomic.get t.current).generation
let active_connections t = Atomic.get t.active
let metrics t = t.metrics
let corpus t = Option.map (fun (rt : corpus_rt) -> rt.corpus) t.corpus

(* With ingestion enabled the served data is the corpus's — per-shard
   snapshots plus their replayed WAL tails — not the caller's; [env]
   then only donates weights and hierarchy for shards starting from
   nothing.  The snapshot path is the per-shard file prefix
   ([<prefix>.shard<i>] / [.wal], followers at [.r<j>]).  The corpus
   opens even when some replica is corrupt — that replica is down, the
   rest serve. *)
let open_corpus (cfg : config) ~env =
  match cfg.ingest with
  | None -> Ok None
  | Some icfg -> (
    match cfg.snapshot with
    | None ->
      Error
        (Error.Config_error
           {
             what = "ingest";
             message = "live ingestion needs a snapshot path (--env) as its shard prefix";
           })
    | Some prefix ->
      let limits =
        {
          Flexpath.Ingest.max_bytes = icfg.max_doc_bytes;
          Flexpath.Ingest.max_elems = icfg.max_doc_elems;
        }
      in
      (* Scatter parallelism: probe domains only from what the workers
         leave of the budget; the corpus caps them at its shards. *)
      let probe_domains = domain_budget - cfg.workers in
      Result.map
        (fun corpus ->
          Some
            {
              corpus;
              icfg;
              writers = Atomic.make 0;
              merge_dead = Atomic.make false;
              merge_domain = Atomic.make None;
            })
        (Corpus.open_corpus ~weights:env.Flexpath.Env.weights
           ~hierarchy:env.Flexpath.Env.hierarchy ~limits ~probe_domains ~replicas:icfg.replicas
           ~ack_mode:icfg.ack_mode ~probation_ms:icfg.probation_ms ~cache_mb:cfg.cache_mb
           ~shards:icfg.shards ~prefix ()))

let create cfg ~env =
  if cfg.workers < 1 then invalid_arg "Server.create: workers must be at least 1";
  match open_corpus cfg ~env with
  | Error e -> Error e
  | Ok corpus -> (
    (* A corpus owns its cache, answers QUERY and RELAX itself and
       reports its own generation vector; its slot goes unused. *)
    let cache = if Option.is_none corpus then fresh_cache cfg else None in
    let close_store () = Option.iter (fun (crt : corpus_rt) -> Corpus.close crt.corpus) corpus in
    let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
    match
      Unix.setsockopt fd Unix.SO_REUSEADDR true;
      let addr = Unix.ADDR_INET (Unix.inet_addr_of_string cfg.host, cfg.port) in
      Unix.bind fd addr;
      Unix.listen fd 128;
      Unix.set_nonblock fd;
      match Unix.getsockname fd with
      | Unix.ADDR_INET (_, p) -> p
      | Unix.ADDR_UNIX _ -> assert false
    with
    | bound_port ->
      Ok
        {
          cfg;
          listen_fd = fd;
          bound_port;
          loop =
            Eventloop.create ~listen_fd:fd ~max_connections:cfg.max_connections
              ~read_timeout_s:cfg.read_timeout_s ~write_timeout_s:cfg.write_timeout_s;
          queue = Admission.create ~capacity:cfg.queue_depth;
          current = Atomic.make { env; generation = 1; cache };
          active = Atomic.make 0;
          metrics = Metrics.create ();
          sup =
            Supervisor.create ~workers:cfg.workers ~hard_wall_ms:cfg.hard_wall_ms
              ~quarantine_threshold:cfg.quarantine_strikes;
          domains = Array.make cfg.workers None;
          inflight = Array.init cfg.workers (fun _ -> Atomic.make None);
          reload_lock = Mutex.create ();
          started_wall = Unix.gettimeofday ();
          corpus;
        }
    | exception Unix.Unix_error (err, _, _) ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      close_store ();
      Error
        (Error.Io_error
           {
             path = Printf.sprintf "%s:%d" cfg.host cfg.port;
             message = Printf.sprintf "cannot listen: %s" (Unix.error_message err);
           })
    | exception Failure msg ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      close_store ();
      Error (Error.Io_error { path = cfg.host; message = msg }))

(* Stopping is observed in two places: the event loop (which drains
   connections and returns from [run]) and the merge domain and wedged
   workers (which poll {!Eventloop.stopping}).  The admission queue
   stays open until the loop has drained — a request already parsed
   and queued is served, not abandoned. *)
let stop t = Eventloop.stop t.loop

(* ------------------------------------------------------------------ *)
(* Request execution *)

let merge_budget (cfg : config) ~deadline_ms ~tuple_budget ~step_budget ~restart_cap =
  let d = cfg.default_budget in
  let pick req dflt = match req with Some _ -> req | None -> dflt in
  let b =
    {
      Guard.deadline_ms = pick deadline_ms d.Guard.deadline_ms;
      tuple_budget = pick tuple_budget d.Guard.tuple_budget;
      step_budget = pick step_budget d.Guard.step_budget;
      restart_cap = pick restart_cap d.Guard.restart_cap;
    }
  in
  if b = Guard.unlimited then None else Some b

let render_answers doc answers =
  List.mapi
    (fun i (a : Flexpath.Answer.t) ->
      Format.asprintf "%2d. %a" (i + 1) (Flexpath.Answer.pp doc) a)
    answers

let parse_error_response { Tpq.Xpath.offset; message } =
  (Protocol.Err, Error.to_string (Error.Query_error { offset; message }), `Error)

let exec_query (slot : slot) ~q ~k ~algorithm ~scheme ~budget =
  match Flexpath.run ?algorithm ?scheme ?budget ?cache:slot.cache slot.env ~k q with
  | Error e -> (Protocol.Err, Error.to_string e, `Error)
  | Ok result -> (
    let doc = slot.env.Flexpath.Env.doc in
    let lines = render_answers doc result.Flexpath.Common.answers in
    match result.Flexpath.Common.completeness with
    | Flexpath.Common.Complete -> (Protocol.Ok_, String.concat "\n" lines, `Ok)
    | Flexpath.Common.Truncated { reason; score_bound } ->
      let hdr =
        Printf.sprintf "# truncated reason=%s score_bound=%.4f"
          (Guard.reason_to_string reason) score_bound
      in
      (Protocol.Partial, String.concat "\n" (hdr :: lines), `Truncated))

let exec_relax env ~q ~steps =
  match
    let penv = Flexpath.Env.penalty_env env q in
    Relax.Space.sequence ?max_steps:steps penv
  with
  | exception Failpoint.Injected p -> (Protocol.Err, Error.to_string (Error.Fault p), `Error)
  | chain -> (Protocol.Ok_, String.concat "\n" (List.mapi Relax.Space.entry_to_string chain), `Ok)

let exec_reload t path_opt =
  let path =
    match path_opt with Some p -> Some p | None -> t.cfg.snapshot
  in
  match path with
  | None ->
    ( Protocol.Err,
      "reload: no snapshot path given and the server was not started from one",
      `Error )
  | Some path -> (
    (* Serialized so concurrent RELOADs cannot interleave their
       generation bumps; queries never take this lock. *)
    Mutex.lock t.reload_lock;
    let weights = (Atomic.get t.current).env.Flexpath.Env.weights in
    let finish r =
      Mutex.unlock t.reload_lock;
      r
    in
    match Flexpath.Storage.load ~weights path with
    | exception e -> finish (Protocol.Err, Printexc.to_string e, `Error)
    | Error e -> finish (Protocol.Err, Error.to_string e, `Error)
    | Ok (env, outcome) ->
      let generation = (Atomic.get t.current).generation + 1 in
      (* A fresh cache per generation: the swap below invalidates every
         cached plan and answer atomically with the snapshot itself. *)
      Atomic.set t.current { env; generation; cache = fresh_cache t.cfg };
      Metrics.reloads t.metrics;
      finish
        ( Protocol.Ok_,
          Printf.sprintf "reloaded %s (%s); generation %d" path
            (Flexpath.Storage.outcome_to_string outcome)
            generation,
          `Ok ))

let uptime_s t = Float.max 0.0 (Unix.gettimeofday () -. t.started_wall)

(* The OVERLOADED backoff hint for {e connection} admission: deeper
   queues mean longer waits, so scale the hint with the current depth
   (a rough 50 ms nominal service time per queued entry), clamped to a
   sane range. *)
let retry_after_hint_ms t = min 5000 (50 * (1 + Admission.length t.queue))

(* The backoff hint for a {e write-lane} reject.  A refused write waits
   on the writer path clearing, not on the connection queue: the
   governing signal is the merge backlog of the shard the write routes
   to — a deep backlog means the next merge pass holds that shard's
   writer lock longer.  The global connection-queue depth says nothing
   about that and used to produce flat hints under write-heavy load
   with an idle read queue. *)
let backlog_hint_ms backlog = min 5000 (50 * (1 + backlog))

(* ------------------------------------------------------------------ *)
(* Corpus serving (DESIGN.md §4h, §4i).  Queries scatter over the live
   shards and gather under one guard; a shard that cannot answer
   degrades the response to PARTIAL with [shards=served/total] and a
   sound bound instead of failing it.  Writes route by id; RELOAD
   swaps one shard. *)

(* A write to a server without a corpus is refused, naming the flag
   that makes it writable. *)
let read_only t verb =
  Metrics.write_rejected t.metrics;
  (Protocol.Err, verb ^ ": the server is read-only (start it with --shards N)", `Error)

(* The write-class error mapping: a read-only degrade (disk fault,
   DESIGN.md §4l) is its own wire status so clients can distinguish
   "the store protects durability, retry after probation" from a
   deterministic ERR; everything else stays ERR. *)
let write_error_response e =
  match e with
  | Error.Readonly { retry_after_ms; _ } ->
    ( Protocol.Readonly,
      Printf.sprintf "%s %s" (Protocol.retry_after_body retry_after_ms) (Error.to_string e),
      `Error )
  | e -> (Protocol.Err, Error.to_string e, `Error)

(* The one rendering of {!Corpus.health}: SHARDS's body and the tail
   of STATS's corpus section.  One line per shard; past one replica
   each shard line is followed by one indented line per replica (role,
   sync/lag, read-only state). *)
let health_lines health =
  let replica_lines (s : Corpus.shard_health) =
    if Array.length s.h_replicas <= 1 then []
    else
      Array.to_list
        (Array.map
           (fun (r : Corpus.replica_health) ->
             let state =
               if r.rh_quarantined then "quarantined"
               else if not r.rh_live then "down"
               else if r.rh_synced then "synced"
               else "catching-up"
             in
             Printf.sprintf
               "  replica %d.%d: %s %s generation=%d docs=%d strikes=%d lag=%d lag_ms=%.0f \
                readonly=%s%s%s"
               s.h_ord r.rh_idx
               (Corpus.role_to_string r.rh_role)
               state r.rh_generation r.rh_docs r.rh_strikes r.rh_lag r.rh_lag_ms
               (if r.rh_readonly then "yes" else "no")
               (if r.rh_readonly then Printf.sprintf " retry_after_ms=%d" r.rh_readonly_retry_ms
                else "")
               (match r.rh_last_error with None -> "" | Some e -> "  error=" ^ e))
           s.h_replicas)
  in
  List.concat_map
    (fun (s : Corpus.shard_health) ->
      let state =
        if s.h_quarantined then "quarantined" else if s.h_live then "live" else "down"
      in
      Printf.sprintf
        "shard %d: %s generation=%d docs=%d strikes=%d unmerged=%d staleness_ms=%.0f \
         wal_bytes=%d replayed=%d%s"
        s.h_ord state s.h_generation s.h_docs s.h_strikes s.h_unmerged s.h_staleness_ms
        s.h_wal_bytes s.h_replayed
        (match s.h_last_error with None -> "" | Some e -> "  error=" ^ e)
      :: replica_lines s)
    (Array.to_list health)

let exec_shards (crt : corpus_rt) =
  (Protocol.Ok_, String.concat "\n" (health_lines (Corpus.health crt.corpus)), `Ok)

(* STATS's corpus section, from one health snapshot: the live count,
   the generation vector that scopes every cache key, corpus-wide sums
   (the max staleness — the slowest shard bounds the corpus's merge
   freshness), then the SHARDS lines. *)
let corpus_stats_lines c =
  let h = Corpus.health c in
  let sum f = Array.fold_left (fun a (s : Corpus.shard_health) -> a + f s) 0 h in
  let readonly_stores =
    sum (fun s ->
        Array.fold_left
          (fun a (r : Corpus.replica_health) -> if r.rh_readonly then a + 1 else a)
          0 s.h_replicas)
  in
  [
    Printf.sprintf "shards: %d/%d" (sum (fun s -> Bool.to_int s.h_live)) (Array.length h);
    "generation_vector: " ^ Corpus.generation_vector c;
    Printf.sprintf "corpus_docs: %d" (sum (fun s -> s.h_docs));
    Printf.sprintf "delta_docs: %d" (sum (fun s -> s.h_unmerged));
    Printf.sprintf "wal_bytes: %d" (sum (fun s -> s.h_wal_bytes));
    Printf.sprintf "staleness_ms: %.0f"
      (Array.fold_left (fun a (s : Corpus.shard_health) -> Float.max a s.h_staleness_ms) 0.0 h);
    Printf.sprintf "wal_replayed_records: %d" (sum (fun s -> s.h_replayed));
    Printf.sprintf "readonly: %s" (if readonly_stores > 0 then "yes" else "no");
  ]
  @ (if readonly_stores > 0 then [ Printf.sprintf "readonly_stores: %d" readonly_stores ]
     else [])
  @ health_lines h

(* The write lane: admission control for the write class (the corpus
   serializes actual writers per shard itself).  Past the lane depth a
   write is told OVERLOADED immediately — queries are admitted by the
   ordinary queue and never wait here, so a burst of writes (or a merge
   holding a shard's writer lock) cannot starve reads of workers.  The
   reject hint reflects the backlog of the shard this write {e routes
   to} — other shards' queues are irrelevant to it. *)
let with_corpus_write_lane t (crt : corpus_rt) ~id f =
  let pos = Atomic.fetch_and_add crt.writers 1 in
  Fun.protect
    ~finally:(fun () -> Atomic.decr crt.writers)
    (fun () ->
      if pos >= crt.icfg.write_lane then begin
        Metrics.write_rejected t.metrics;
        let backlog =
          match id with
          | Some id -> Corpus.merge_backlog crt.corpus (Corpus.shard_of_id crt.corpus id)
          | None ->
            (* An auto-id INGEST routes only once the id is minted:
               bound the wait by the deepest shard backlog. *)
            Array.fold_left
              (fun a (s : Corpus.shard_health) -> max a s.h_unmerged)
              0 (Corpus.health crt.corpus)
        in
        (Protocol.Overloaded, Protocol.retry_after_body (backlog_hint_ms backlog), `Error)
      end
      else f ())

let exec_corpus_ingest t (crt : corpus_rt) ~id body =
  match Corpus.ingest crt.corpus ?id body with
  | Error e -> write_error_response e
  | Ok doc_id ->
    (* The WAL append and fsync succeeded and the corpus published the
       write: ack with the id (the client needs it to address upserts
       and deletes), its shard and the generation vector serving it. *)
    Metrics.ingested t.metrics;
    ( Protocol.Ok_,
      Printf.sprintf "ingested %s; shard %d; generations %s" doc_id
        (Corpus.shard_of_id crt.corpus doc_id)
        (Corpus.generation_vector crt.corpus),
      `Ok )

let exec_corpus_delete t (crt : corpus_rt) ~id =
  match Corpus.delete crt.corpus ~id with
  | Error e -> write_error_response e
  | Ok () ->
    Metrics.deleted t.metrics;
    ( Protocol.Ok_,
      Printf.sprintf "deleted %s; generations %s" id (Corpus.generation_vector crt.corpus),
      `Ok )

(* A foreground MERGE compacts every live shard with a backlog; the
   first failure is reported but does not undo the shards already
   merged (their WALs are truncated durably). *)
let exec_corpus_merge t (crt : corpus_rt) =
  let c = crt.corpus in
  let shards_merged = ref 0 and records = ref 0 and failed = ref [] in
  Array.iter
    (fun (s : Corpus.shard_health) ->
      if s.h_live && s.h_unmerged > 0 then
        match Corpus.merge c s.h_ord with
        | Ok () ->
          incr shards_merged;
          records := !records + s.h_unmerged;
          Metrics.merged t.metrics
        | Error e ->
          failed := (s.h_ord, e) :: !failed;
          Metrics.merge_failed t.metrics
        | exception Failpoint.Injected p ->
          failed := (s.h_ord, Error.Fault p) :: !failed;
          Metrics.merge_failed t.metrics)
    (Corpus.health c);
  match List.rev !failed with
  | [] ->
    ( Protocol.Ok_,
      Printf.sprintf "merged %d delta record(s) across %d shard(s); wals truncated" !records
        !shards_merged,
      `Ok )
  | (ord, e) :: _ ->
    let status, body, outcome = write_error_response e in
    (status, Printf.sprintf "shard %d: %s" ord body, outcome)

(* RELOAD over a corpus: the argument is a shard ordinal (one replica
   set swaps; the others keep serving), [<ord>.<replica>] for a single
   replica (catch-up from the primary — the recovery path for a torn
   follower WAL or a quarantined copy), or absent — every shard
   reloads, stopping at the first failure. *)
let exec_corpus_reload t (crt : corpus_rt) arg =
  let c = crt.corpus in
  let n = Corpus.shard_count c in
  let r = Corpus.replica_count c in
  let parse_target s =
    let parse_ord tok =
      match int_of_string_opt tok with
      | Some ord when ord >= 0 && ord < n -> Ok ord
      | Some ord -> Error (Printf.sprintf "reload: shard %d out of range (0..%d)" ord (n - 1))
      | None ->
        Error
          (Printf.sprintf
             "reload: expected a shard ordinal 0..%d (or <shard>.<replica>) on a sharded \
              server, got %S"
             (n - 1) s)
    in
    match String.split_on_char '.' (String.trim s) with
    | [ tok ] -> Result.map (fun ord -> (ord, None)) (parse_ord tok)
    | [ tok; rep ] -> (
      Result.bind (parse_ord tok) (fun ord ->
          match int_of_string_opt rep with
          | Some j when j >= 0 && j < r -> Ok (ord, Some j)
          | Some j -> Error (Printf.sprintf "reload: replica %d out of range (0..%d)" j (r - 1))
          | None -> Error (Printf.sprintf "reload: bad replica ordinal %S" rep)))
    | _ -> Error (Printf.sprintf "reload: bad target %S (expected <shard> or <shard>.<replica>)" s)
  in
  let targets =
    match arg with
    | None -> Ok (List.init n (fun ord -> (ord, None)))
    | Some s -> Result.map (fun t -> [ t ]) (parse_target s)
  in
  match targets with
  | Error msg -> (Protocol.Err, msg, `Error)
  | Ok targets -> (
    let rec go = function
      | [] -> Ok ()
      | (ord, replica) :: rest -> (
        match Corpus.reload c ?replica ord with
        | Ok () -> go rest
        | Error e -> Error (ord, Error.to_string e))
    in
    match go targets with
    | Ok () ->
      Metrics.reloads t.metrics;
      ( Protocol.Ok_,
        (match targets with
        | [ (ord, Some j) ] ->
          Printf.sprintf "reloaded replica %d.%d; generations %s" ord j
            (Corpus.generation_vector c)
        | _ ->
          Printf.sprintf "reloaded shard(s) %s; generations %s"
            (String.concat "," (List.map (fun (ord, _) -> string_of_int ord) targets))
            (Corpus.generation_vector c)),
        `Ok )
    | Error (ord, e) -> (Protocol.Err, Printf.sprintf "shard %d: %s" ord e, `Error))

let exec_corpus_query (crt : corpus_rt) ~q ~k ~algorithm ~scheme ~budget =
  match Corpus.query crt.corpus ?budget ?algorithm ?scheme ~k q with
  | Error e -> (Protocol.Err, Error.to_string e, `Error)
  | Ok r -> (
    let lines =
      List.mapi
        (fun i a -> Printf.sprintf "%2d. %s" (i + 1) (Corpus.answer_line a))
        r.Corpus.answers
    in
    match r.Corpus.completeness with
    | Corpus.Complete -> (Protocol.Ok_, String.concat "\n" lines, `Ok)
    | Corpus.Partial { reason; score_bound } ->
      (* The partial wire contract: what is missing ([shards=]), why
         ([reason=]), and how good it could have been ([score_bound=],
         sound on the scheme's primary key). *)
      let hdr =
        Printf.sprintf "# partial reason=%s score_bound=%.4f shards=%d/%d" reason score_bound
          r.Corpus.served r.Corpus.total
      in
      (Protocol.Partial, String.concat "\n" (hdr :: lines), `Truncated))

(* The background merge domain: wake every tick; per shard, merge once
   that shard's own cadence clock has elapsed and it has something to
   fold, so a shard with a deep backlog (or a failing disk) never
   delays the others' compaction.  An escaping exception (the
   [merge_publish] failpoint simulating a crash in the snapshot/WAL
   overlap window) ends the domain with the shard's writer lock
   released and [merge_dead] raised; the supervision tick respawns it.
   Replay idempotency makes the overlap window safe: the snapshot is
   durable and the WAL still holds the same records, so a restart — of
   the domain or the process — converges to the same corpus. *)
let corpus_merge_loop t (crt : corpus_rt) () =
  let interval_ms = Float.max 50.0 crt.icfg.merge_interval_ms in
  let n = Corpus.shard_count crt.corpus in
  let last = Array.make n (Monotime.now_ms ()) in
  while not (Eventloop.stopping t.loop) do
    Unix.sleepf 0.05;
    for ord = 0 to n - 1 do
      (* Async replication: drain queued ships every tick (not on the
         merge cadence) so follower lag stays bounded by the tick, not
         by the merge interval. *)
      Corpus.ship_pending crt.corpus ord;
      if
        Monotime.now_ms () -. last.(ord) >= interval_ms
        && Corpus.merge_backlog crt.corpus ord > 0
      then begin
        last.(ord) <- Monotime.now_ms ();
        (* A read-only shard (disk-fault probation) fails its merge
           with [Readonly] until the probation re-probe succeeds;
           that is the degrade working, not a merge-domain fault. *)
        match Corpus.merge crt.corpus ord with
        | Ok () -> Metrics.merged t.metrics
        | Error (Error.Readonly _) -> ()
        | Error _ -> Metrics.merge_failed t.metrics
      end
    done
  done

let corpus_merge_domain_body t (crt : corpus_rt) () =
  match corpus_merge_loop t crt () with
  | () -> ()
  | exception _ ->
    Metrics.merge_failed t.metrics;
    Atomic.set crt.merge_dead true

(* A spawn that fails (the runtime's domain limit) leaves [merge_dead]
   set, for the supervision tick to retry. *)
let spawn_corpus_merge_domain t (crt : corpus_rt) =
  if crt.icfg.merge_interval_ms > 0.0 then begin
    Atomic.set crt.merge_dead false;
    match Domain.spawn (corpus_merge_domain_body t crt) with
    | d -> Atomic.set crt.merge_domain (Some d)
    | exception Failure _ -> Atomic.set crt.merge_dead true
  end

(* ------------------------------------------------------------------ *)
(* Supervised dispatch.

   A worker evaluates one job and settles it with a step: [Respond]
   (answer, connection keeps reading), [Respond_close] (answer, then
   close — BYE, frame desync), [Drop] (abnormal per-request failure —
   satellite of DESIGN.md §4g: contain it, close this connection, keep
   the worker), [Exit_superseded] (the supervisor claimed this worker
   as lost while it was busy; the replacement owns the pool position
   and the supervisor settles the orphaned job from the inflight
   slot), and [Exit_dead] (a [worker_die] crash: the domain body
   terminates and the supervisor recovers it — and the job — on the
   next scan).  Responses travel through {!Eventloop.respond}; a
   worker never writes to a socket. *)

type step =
  | Respond of Protocol.status * string
  | Respond_close of Protocol.status * string
  | Drop
  | Exit_superseded
  | Exit_dead of string option

let loop_gauges t =
  let s = Eventloop.stats t.loop in
  {
    Metrics.open_connections = s.Eventloop.open_connections;
    fds_in_use = s.Eventloop.fds_in_use;
    bytes_buffered = s.Eventloop.bytes_buffered;
    loop_lag_count = s.Eventloop.lag_count;
    loop_lag_p50_ms = s.Eventloop.lag_p50_ms;
    loop_lag_p99_ms = s.Eventloop.lag_p99_ms;
  }

(* Fingerprint a request before dispatch: the canonical key of the
   parsed XPath for QUERY/RELAX (what the heartbeat publishes and the
   quarantine table matches on), nothing for control verbs.  The parse
   result is reused by the executors below. *)
let pre_parse (req : Protocol.request) =
  match req with
  | Protocol.Query { xpath; _ } | Protocol.Relax { xpath; _ } -> (
    match Tpq.Xpath.parse xpath with
    | Ok q -> (Some (Tpq.Query.canonical_key q), Some (Ok q))
    | Error e -> (None, Some (Error e)))
  | Protocol.Ping | Protocol.Stats | Protocol.Shards | Protocol.Reload _ | Protocol.Shutdown
  | Protocol.Ingest _ | Protocol.Delete _ | Protocol.Merge ->
    (None, None)

(* A wedged worker spins here until the supervisor supersedes it, the
   server stops, or a last-resort cap expires (a real wedge would spin
   forever; the cap keeps tests and benches finite). *)
let wedge t handle =
  let clock = Monotime.create () in
  let rec go () =
    if not (Supervisor.alive t.sup handle) then `Superseded
    else if Eventloop.stopping t.loop then `Stopped
    else if Monotime.elapsed_s clock > 60.0 then `Stopped
    else begin
      Unix.sleepf 0.02;
      go ()
    end
  in
  go ()

(* Dispatch one parsed request into a settlement step.  [body] is
   [Some] exactly for [Ingest] (already reassembled by the loop). *)
let dispatch t handle (req : Protocol.request) parsed ~body =
  match Failpoint.hit "server_worker" with
  | exception Failpoint.Injected p -> Respond (Protocol.Err, Error.to_string (Error.Fault p))
  | () -> (
    match req with
    | Protocol.Shutdown ->
      stop t;
      Respond_close (Protocol.Bye, "")
    | req -> (
      match Failpoint.hit "worker_die" with
      | exception Failpoint.Injected _ ->
        Exit_dead (match parsed with Some (Ok q) -> Some (Tpq.Query.canonical_key q) | _ -> None)
      | () -> (
        match Failpoint.hit "worker_wedge" with
        | exception Failpoint.Injected _ -> (
          match wedge t handle with `Superseded -> Exit_superseded | `Stopped -> Drop)
        | () ->
          let clock = Monotime.create () in
          let endpoint, (status, body, outcome) =
            match req with
            | Protocol.Ping -> (Metrics.Ping, (Protocol.Ok_, "pong", `Ok))
            | Protocol.Stats ->
              let cache, data =
                match t.corpus with
                | Some crt ->
                  ( Option.map (fun _ -> Corpus.cache_counters crt.corpus) t.cfg.cache_mb,
                    Metrics.Corpus (corpus_stats_lines crt.corpus) )
                | None ->
                  let slot = Atomic.get t.current in
                  ( Option.map Flexpath.Qcache.counters slot.cache,
                    Metrics.Snapshot { generation = slot.generation } )
              in
              ( Metrics.Stats,
                ( Protocol.Ok_,
                  Metrics.render t.metrics ~loop:(loop_gauges t)
                    ~queue_depth:(Admission.length t.queue)
                    ~queue_capacity:(Admission.capacity t.queue) ~uptime_s:(uptime_s t) ~cache
                    ~data (),
                  `Ok ) )
            | Protocol.Shards -> (
              ( Metrics.Shards,
                match t.corpus with
                | Some crt -> exec_shards crt
                | None ->
                  ( Protocol.Err,
                    "shards: the server is not sharded (start with --shards N)",
                    `Error ) ))
            | Protocol.Reload path -> (
              ( Metrics.Reload,
                match t.corpus with
                | Some crt -> exec_corpus_reload t crt path
                | None -> exec_reload t path ))
            | Protocol.Ingest { id; _ } -> (
              ( Metrics.Ingest,
                match (t.corpus, body) with
                | None, _ -> read_only t "ingest"
                | Some crt, Some b ->
                  with_corpus_write_lane t crt ~id (fun () -> exec_corpus_ingest t crt ~id b)
                | Some _, None -> assert false ))
            | Protocol.Delete { id } -> (
              ( Metrics.Delete,
                match t.corpus with
                | None -> read_only t "delete"
                | Some crt ->
                  with_corpus_write_lane t crt ~id:(Some id) (fun () ->
                      exec_corpus_delete t crt ~id) ))
            | Protocol.Merge -> (
              ( Metrics.Merge,
                match t.corpus with
                | None -> (Protocol.Err, "merge: live ingestion is not enabled", `Error)
                | Some crt -> exec_corpus_merge t crt ))
            | Protocol.Relax { steps; _ } ->
              ( Metrics.Relax,
                match parsed with
                | Some (Error e) -> parse_error_response e
                | Some (Ok q) ->
                  let env =
                    match t.corpus with
                    | Some crt -> Corpus.scoring_env crt.corpus
                    | None -> (Atomic.get t.current).env
                  in
                  exec_relax env ~q ~steps
                | None -> assert false )
            | Protocol.Query { k; algorithm; scheme; deadline_ms; tuple_budget; step_budget; restart_cap; _ }
              -> (
              ( Metrics.Query,
                match parsed with
                | Some (Error e) -> parse_error_response e
                | Some (Ok q) ->
                  let budget =
                    merge_budget t.cfg ~deadline_ms ~tuple_budget ~step_budget ~restart_cap
                  in
                  let k = Option.value ~default:t.cfg.default_k k in
                  (match t.corpus with
                  | Some crt -> exec_corpus_query crt ~q ~k ~algorithm ~scheme ~budget
                  | None -> exec_query (Atomic.get t.current) ~q ~k ~algorithm ~scheme ~budget)
                | None -> assert false ))
            | Protocol.Shutdown -> assert false
          in
          Metrics.record t.metrics endpoint ~latency_ms:(Monotime.elapsed_ms clock) ~outcome;
          Respond (status, body))))

(* One request under supervision: publish the heartbeat (fingerprint +
   timestamp), quarantine-check, dispatch with per-request
   containment, retire the heartbeat.  A failed retire means the
   supervisor claimed this worker while the request ran — the
   replacement owns the pool position now and the supervisor settles
   the job, so this worker must exit without touching the accounting
   again. *)
let dispatch_supervised t handle req ~body =
  let fingerprint, parsed = pre_parse req in
  match fingerprint with
  | Some key when Supervisor.quarantined t.sup key ->
    Metrics.quarantined t.metrics;
    Respond
      ( Protocol.Quarantined,
        Printf.sprintf "query quarantined after %d worker loss(es); not executed"
          (Supervisor.strikes t.sup key) )
  | _ -> (
    let token = Supervisor.busy handle ~fingerprint in
    let result =
      (* Satellite fix of §4g: an unexpected exception while serving
         one request must cost that request's connection, not the
         worker domain. *)
      match dispatch t handle req parsed ~body with
      | r -> r
      | exception _ -> Drop
    in
    match result with
    | Exit_superseded | Exit_dead _ -> result
    | Respond _ | Respond_close _ | Drop ->
      if Supervisor.retire handle token then result else Exit_superseded)

(* Shed one queued job whose sojourn exceeded the deadline: tell the
   client to back off and move on — a worker never spends query
   execution on it.  The loop flushes the reject and closes. *)
let shed_stale t (job : job) =
  Metrics.shed_queue_deadline t.metrics;
  Eventloop.respond t.loop job.conn ~status:Protocol.Overloaded
    ~body:(Protocol.retry_after_body (retry_after_hint_ms t))
    ~close:true

let pop_job t =
  match t.cfg.queue_deadline_ms with
  | None -> Admission.pop t.queue
  | Some bound ->
    Admission.pop_until t.queue
      ~fresh:(fun job -> Monotime.now_ms () -. job.enqueued_ms <= bound)
      ~shed:(shed_stale t)

(* Worker [i]: pop a job, publish it in the inflight slot, evaluate,
   settle through the loop.  The slot is populated before the
   heartbeat goes Busy and cleared only after a successful retire, so
   whichever of worker and supervisor wins the retire race finds
   exactly the settlement duty it owns. *)
let worker t i handle () =
  let slot = t.inflight.(i) in
  let rec loop () =
    match pop_job t with
    | None -> ()
    | Some job -> (
      Atomic.set slot (Some job);
      match dispatch_supervised t handle job.req ~body:job.body with
      | Respond (status, body) ->
        Atomic.set slot None;
        Eventloop.respond t.loop job.conn ~status ~body ~close:false;
        loop ()
      | Respond_close (status, body) ->
        Atomic.set slot None;
        Eventloop.respond t.loop job.conn ~status ~body ~close:true;
        loop ()
      | Drop ->
        Atomic.set slot None;
        Metrics.connection_dropped t.metrics;
        Eventloop.drop t.loop job.conn;
        loop ()
      | Exit_superseded ->
        (* The supervisor claimed this worker: it owns the slot's job
           now (or already settled it); the replacement is running. *)
        ()
      | Exit_dead fp ->
        (* Leave the slot populated — the supervisor's scan claims the
           dead worker and settles the job from it. *)
        Supervisor.mark_dead handle ~fingerprint:fp)
  in
  try loop ()
  with _ ->
    (* A crash outside any request (nothing in flight to settle): flag
       it so the supervisor restores pool capacity. *)
    Supervisor.mark_dead handle ~fingerprint:None

(* ------------------------------------------------------------------ *)
(* Supervision, one tick of the event loop: scan heartbeats, replace
   casualties. *)

let supervise t =
  List.iter
    (fun i ->
      Metrics.worker_lost t.metrics;
      (* The lost domain is leaked — OCaml domains cannot be killed —
         but its in-flight job must not leak its connection: claim
         the job from the inflight slot (the lost worker's retire
         already failed, so it cannot settle it too) and drop it
         through the loop, which closes the fd and releases
         admission. *)
      (match Atomic.exchange t.inflight.(i) None with
      | Some job -> Eventloop.drop t.loop job.conn
      | None -> ());
      t.domains.(i) <- None)
    (Supervisor.scan t.sup ~now_ms:(Monotime.now_ms ()));
  (* Respawn into every empty position.  A spawn fails at the runtime's
     domain limit (lost workers keep their slots); the position then
     waits for the next tick, counted by [lost - respawned]. *)
  Array.iteri
    (fun i slot ->
      if Option.is_none slot then
        match
          Failpoint.hit "worker_respawn";
          Domain.spawn (worker t i (Supervisor.occupant t.sup i))
        with
        | d ->
          t.domains.(i) <- Some d;
          Metrics.worker_respawned t.metrics
        | exception (Failure _ | Failpoint.Injected _) -> ())
    t.domains;
  (* The merge domain is supervised too: a death in the snapshot/WAL
     overlap window (the [merge_publish] failpoint) leaves the shard's
     writer lock released and its WAL intact, so a replacement picks
     the same deltas up and converges shard by shard. *)
  match t.corpus with
  | Some crt when Atomic.get crt.merge_dead ->
    Option.iter Domain.join (Atomic.exchange crt.merge_domain None);
    spawn_corpus_merge_domain t crt;
    if Option.is_some (Atomic.get crt.merge_domain) then Metrics.merge_respawned t.metrics
  | Some _ | None -> ()

(* ------------------------------------------------------------------ *)
(* The event loop ↔ worker-pool seam *)

(* Request admission, on the loop domain: a parsed frame either enters
   the bounded queue or is told OVERLOADED immediately — the loop
   flushes the reject and closes, so an overloaded server still
   answers in microseconds instead of leaving clients to hang. *)
let on_request t conn req ~body =
  let job = { conn; req; body; enqueued_ms = Monotime.now_ms () } in
  match Admission.try_push t.queue job with
  | `Admitted -> ()
  | `Full | `Closed ->
    Metrics.connection_rejected t.metrics;
    Eventloop.respond t.loop conn ~status:Protocol.Overloaded
      ~body:(Protocol.retry_after_body (retry_after_hint_ms t))
      ~close:true

let callbacks t =
  {
    Eventloop.on_request = (fun conn req ~body -> on_request t conn req ~body);
    on_admitted =
      (fun () ->
        Atomic.incr t.active;
        Metrics.connection_admitted t.metrics);
    on_rejected =
      (fun () ->
        Metrics.connection_rejected t.metrics;
        Protocol.retry_after_body (retry_after_hint_ms t));
    on_dropped = (fun () -> Metrics.connection_dropped t.metrics);
    on_closed = (fun () -> Atomic.decr t.active);
    tick =
      ( (if t.cfg.supervise then Float.max 10.0 (t.cfg.hard_wall_ms /. 4.0) else infinity),
        fun () -> supervise t );
  }

let serve t =
  (* A client closing mid-response must not kill the server. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  Array.iteri
    (fun i _ -> t.domains.(i) <- Some (Domain.spawn (worker t i (Supervisor.occupant t.sup i))))
    t.domains;
  Option.iter (spawn_corpus_merge_domain t) t.corpus;
  Eventloop.run t.loop (callbacks t);
  (* The loop returned: every admitted connection is settled, so no
     job remains queued or in flight, and the supervision tick, which
     ran on the loop, can respawn nothing more.  Close the queue so
     the workers' blocking pops return, then join.  Workers lost
     before shutdown were superseded (their domains are leaked, their
     replacements are in [t.domains]) and exit on their own once their
     wedge notices the stop flag.  The merge domain's last respawn, if
     any, is in [merge_domain]; the corpus closes last — the WALs it
     leaves behind replay on the next start. *)
  Admission.close t.queue;
  Array.iter (Option.iter Domain.join) t.domains;
  (match t.corpus with
  | Some crt ->
    (match Atomic.get crt.merge_domain with Some d -> Domain.join d | None -> ());
    Corpus.close crt.corpus
  | None -> ());
  Eventloop.dispose t.loop;
  try Unix.close t.listen_fd with Unix.Unix_error _ -> ()
