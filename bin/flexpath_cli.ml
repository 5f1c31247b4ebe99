(* flexpath — command-line interface.

   Subcommands:
     query     run a top-K query against a document
     relax     show the penalty-ordered relaxation chain of a query
     stats     show document statistics
     generate  emit synthetic XMark-style or article-collection XML
     index     build / verify a checksummed environment snapshot
     serve     run the multi-domain TCP query server
     client    drive a running server over the line protocol
     bench     load-test a server, persist the latency trajectory *)

open Cmdliner

(* ------------------------------------------------------------------ *)
(* Exit codes: 0 success, 1 usage / I/O / internal errors, 2 parse
   errors (document or query), 3 budget exhausted (partial results were
   printed; for the client, its retry budget ran out), 4 snapshot
   corruption (a saved environment failed its integrity checks),
   5 server overloaded (the client's retries were all answered
   OVERLOADED), 6 query quarantined (the server fast-rejects this
   query shape; retrying cannot help), 7 store read-only (a disk fault
   degraded the write path; the server's retry-after-ms hint says when
   the probation re-probe opens).

   Write idempotency under retries: the server fsyncs an INGEST into
   its WAL before acking, so a connection that dies mid-request leaves
   the write's fate ambiguous.  An INGEST with an explicit id is an
   upsert — retrying it converges — but without one each resend could
   mint a fresh doc-N, so the client never retries it past that
   ambiguity (it fails with exit code 1); pass --ingest-id whenever
   --retries is nonzero.  OVERLOADED (exit 5) and QUARANTINED (exit 6)
   are definitive server verdicts, never ambiguous, for writes and
   queries alike.  READONLY (exit 7) is retried with the hint only for
   idempotent writes (an INGEST with id=, a DELETE); an anonymous
   INGEST fails fast under the same policy as ambiguous outcomes — a
   resend that later dies mid-flight could double-ingest once the
   store recovers.  Everything that is not an answer goes to
   stderr. *)

let exit_usage = 1
let exit_budget = 3
let exit_snapshot = 4
let exit_overloaded = 5
let exit_quarantined = 6
let exit_readonly = 7

module Error = Flexpath.Error

(* The subcommands' result binding: an [Error] prints its diagnostic
   and becomes the exit code. *)
let ( let* ) r f =
  match r with
  | Error e ->
    Printf.eprintf "error: %s\n" (Error.to_string e);
    Error.exit_code e
  | Ok v -> f v

(* ------------------------------------------------------------------ *)
(* Document sources *)

let load_doc ~file ~xmark_items ~articles_count =
  match (file, xmark_items, articles_count) with
  | Some path, None, None -> (
    match Xmldom.Doc.of_file path with
    | Ok doc -> Ok doc
    | Error e when e.Xmldom.Xml_parser.line = 0 ->
      (* I/O errors already carry the path *)
      Error (Error.Io_error { path = ""; message = e.message })
    | Error e ->
      Error
        (Error.Xml_error
           { path = Some path; line = e.line; column = e.column; message = e.message }))
  | None, Some items, None -> Ok (Xmark.Auction.doc ~items ())
  | None, None, Some count -> Ok (Xmark.Articles.doc ~count ())
  | None, None, None ->
    Error (Error.Config_error { what = "input"; message = "pass --file, --xmark or --articles" })
  | _ ->
    Error
      (Error.Config_error
         { what = "input"; message = "pass exactly one of --file, --xmark, --articles" })

let load_hierarchy = function
  | None -> Ok Tpq.Hierarchy.empty
  | Some path ->
    Result.map_error
      (fun message -> Error.Config_error { what = "hierarchy"; message })
      (Tpq.Hierarchy.parse_file path)

let load_thesaurus = function
  | None -> Ok Fulltext.Thesaurus.empty
  | Some path ->
    Result.map_error
      (fun message -> Error.Config_error { what = "thesaurus"; message })
      (Fulltext.Thesaurus.parse_file path)

(* Rewrite every contains predicate of the query through the
   thesaurus. *)
let expand_query thesaurus q =
  if Fulltext.Thesaurus.is_empty thesaurus then q
  else
    List.fold_left
      (fun q v ->
        Tpq.Query.update_node q v (fun n ->
            { n with contains = List.map (Fulltext.Thesaurus.expand thesaurus) n.contains }))
      q (Tpq.Query.vars q)

let file_arg =
  Arg.(value & opt (some string) None & info [ "f"; "file" ] ~docv:"PATH" ~doc:"XML document to query.")

let hierarchy_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "hierarchy" ] ~docv:"PATH"
        ~doc:"Type hierarchy file: one 'sub < super' declaration per line (enables tag generalization).")

let thesaurus_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "thesaurus" ] ~docv:"PATH"
        ~doc:"Thesaurus file: one comma-separated synonym ring per line (expands keywords).")

let weights_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "weights" ] ~docv:"SPEC"
        ~doc:"Predicate weights, e.g. 'structural=2,contains=0.5,var3=4'.")

let load_weights = function
  | None -> Ok Relax.Weights.uniform
  | Some spec ->
    Result.map_error
      (fun message -> Error.Config_error { what = "weights"; message })
      (Relax.Weights.parse spec)

let xmark_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "xmark" ] ~docv:"ITEMS" ~doc:"Generate an XMark-style document with $(docv) items.")

let articles_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "articles" ] ~docv:"COUNT" ~doc:"Generate an article collection with $(docv) articles.")

(* ------------------------------------------------------------------ *)
(* query *)

let conv_of_parser name parse to_string =
  let parser s = match parse s with Ok v -> Ok v | Error msg -> Error (`Msg msg) in
  let printer fmt v = Format.pp_print_string fmt (to_string v) in
  Arg.conv ~docv:name (parser, printer)

let algo_conv =
  conv_of_parser "ALGO" Flexpath.algorithm_of_string Flexpath.algorithm_to_string

(* serve's in-process plan/answer cache (DESIGN.md §4f). *)
let cache_mb_arg =
  Arg.(
    value & opt int 64
    & info [ "cache-mb" ] ~docv:"MB"
        ~doc:
          "Budget of the in-process query cache (memoized relaxation chains, compiled join plans \
           and complete top-K answers), in MiB.")

let no_cache_arg =
  Arg.(value & flag & info [ "no-cache" ] ~doc:"Disable the query cache entirely.")

let cache_of ~cache_mb ~no_cache =
  if no_cache || cache_mb <= 0 then None else Some cache_mb

let scheme_conv =
  conv_of_parser "SCHEME" Flexpath.Ranking.of_string Flexpath.Ranking.to_string

let query_cmd =
  let query_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"XPATH" ~doc:"Query expression.")
  in
  let k_arg = Arg.(value & opt int 10 & info [ "k" ] ~doc:"Number of answers.") in
  let algo_arg =
    Arg.(value & opt algo_conv Flexpath.Hybrid & info [ "algo" ] ~doc:"dpo, sso or hybrid.")
  in
  let scheme_arg =
    Arg.(
      value
      & opt scheme_conv Flexpath.Ranking.Structure_first
      & info [ "scheme" ] ~doc:"structure-first, keyword-first or combined.")
  in
  let verbose_arg = Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Print metrics.") in
  let text_arg =
    Arg.(value & flag & info [ "text" ] ~doc:"Print the matched element's text content.")
  in
  let env_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "env" ] ~docv:"PATH" ~doc:"Load a saved environment (see the index subcommand).")
  in
  let timeout_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "timeout-ms" ] ~docv:"MS"
          ~doc:
            "Wall-clock budget in milliseconds; on expiry the best answers found so far are \
             printed and the exit code is 3.")
  in
  let tuple_budget_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "tuple-budget" ] ~docv:"N"
          ~doc:"Executor tuple budget (cumulative over all passes); exceeded means exit code 3.")
  in
  let step_budget_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "step-budget" ] ~docv:"N"
          ~doc:"Relaxation steps (evaluation passes) allowed before truncating.")
  in
  let restart_cap_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "restart-cap" ] ~docv:"N"
          ~doc:
            "SSO/Hybrid restarts allowed after an underestimated cut before falling back to \
             DPO's per-step evaluation.")
  in
  let run file xmark articles query k algo scheme verbose text hierarchy_file thesaurus_file
      weights_spec env_file timeout_ms tuple_budget step_budget restart_cap =
    let* thesaurus = load_thesaurus thesaurus_file in
    let* weights = load_weights weights_spec in
    let env_result =
      match env_file with
      | Some path ->
        Result.map
          (fun (env, outcome) ->
            (match outcome with
            | Flexpath.Storage.Intact -> ()
            | Flexpath.Storage.Recovered { rebuilt = [] } ->
              Printf.eprintf "warning: %s: snapshot footer damaged; all sections verified\n" path
            | Flexpath.Storage.Recovered { rebuilt } ->
              Printf.eprintf
                "warning: %s: corrupt snapshot recovered; rebuilt from the document section: %s\n"
                path (String.concat ", " rebuilt)
            | Flexpath.Storage.Migrated { version } ->
              Printf.eprintf
                "warning: %s: deprecated format v%d (no integrity protection); re-run 'flexpath \
                 index' to upgrade\n"
                path version);
            env)
          (Flexpath.Storage.load ~weights path)
      | None ->
        Result.bind (load_doc ~file ~xmark_items:xmark ~articles_count:articles) (fun doc ->
            Result.bind (load_hierarchy hierarchy_file) (fun hierarchy ->
                Flexpath.Env.build ~weights ~hierarchy doc))
    in
    let* env = env_result in
    let doc = env.Flexpath.Env.doc in
    match Tpq.Xpath.parse query with
    | Error { offset; message } ->
      let e = Error.Query_error { offset; message } in
      Printf.eprintf "query error: %s\n" (Error.to_string e);
      Error.exit_code e
    | Ok q -> (
      let q = expand_query thesaurus q in
      let budget =
        match (timeout_ms, tuple_budget, step_budget, restart_cap) with
        | None, None, None, None -> None
        | deadline_ms, tuple_budget, step_budget, restart_cap ->
          Some { Flexpath.Guard.deadline_ms; tuple_budget; step_budget; restart_cap }
      in
      match Flexpath.run ~algorithm:algo ~scheme ?budget env ~k q with
      | Error e ->
        Printf.eprintf "error: %s\n" (Error.to_string e);
        Error.exit_code e
      | Ok result ->
        List.iteri
          (fun i (a : Flexpath.Answer.t) ->
            Format.printf "%2d. %a@." (i + 1) (Flexpath.Answer.pp doc) a;
            if text then begin
              let body = Xmldom.Doc.deep_text doc a.node in
              let body =
                if String.length body > 160 then String.sub body 0 160 ^ "..." else body
              in
              Format.printf "      %s@." body
            end)
          result.answers;
        if verbose then
          Format.printf
            "-- %d answers; %d relaxations; %d passes; %d restarts; %d tuples (%d pruned, %d \
             score-sorted)%s@."
            (List.length result.answers)
            result.relaxations_evaluated result.passes result.restarts
            result.metrics.tuples_produced result.metrics.tuples_pruned
            result.metrics.score_sorted_tuples
            (if result.degraded then "; degraded to dpo" else "");
        (match result.completeness with
        | Flexpath.Common.Complete -> 0
        | Flexpath.Common.Truncated { reason; score_bound } ->
          Format.pp_print_flush Format.std_formatter ();
          flush stdout;
          Printf.eprintf
            "budget exceeded (%s): %d partial answers shown; unreported answers score at most \
             %.4f\n"
            (Flexpath.Guard.reason_to_string reason)
            (List.length result.answers) score_bound;
          exit_budget))
  in
  let term =
    Term.(
      const run $ file_arg $ xmark_arg $ articles_arg $ query_arg $ k_arg $ algo_arg $ scheme_arg
      $ verbose_arg $ text_arg $ hierarchy_arg $ thesaurus_arg $ weights_arg $ env_arg
      $ timeout_arg $ tuple_budget_arg $ step_budget_arg $ restart_cap_arg)
  in
  Cmd.v (Cmd.info "query" ~doc:"Run a top-K query with structural relaxation.") term

(* ------------------------------------------------------------------ *)
(* relax *)

let relax_cmd =
  let query_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"XPATH" ~doc:"Query expression.")
  in
  let steps_arg = Arg.(value & opt int 16 & info [ "steps" ] ~doc:"Maximum chain length.") in
  let run file xmark articles query steps hierarchy_file =
    let* doc = load_doc ~file ~xmark_items:xmark ~articles_count:articles in
    match Tpq.Xpath.parse query with
    | Error { offset; message } ->
      let e = Error.Query_error { offset; message } in
      Printf.eprintf "query error: %s\n" (Error.to_string e);
      Error.exit_code e
    | Ok q ->
      let* hierarchy = load_hierarchy hierarchy_file in
      let* env = Flexpath.Env.build ~hierarchy doc in
      let penv = Flexpath.Env.penalty_env env q in
      let chain = Relax.Space.sequence ~max_steps:steps penv in
      List.iteri (fun i entry -> print_endline (Relax.Space.entry_to_string i entry)) chain;
      0
  in
  let term =
    Term.(const run $ file_arg $ xmark_arg $ articles_arg $ query_arg $ steps_arg $ hierarchy_arg)
  in
  Cmd.v (Cmd.info "relax" ~doc:"Show the penalty-ordered relaxation chain.") term

(* ------------------------------------------------------------------ *)
(* stats *)

let stats_cmd =
  let run file xmark articles =
    match load_doc ~file ~xmark_items:xmark ~articles_count:articles with
    | Error e ->
      Printf.eprintf "error: %s\n" (Error.to_string e);
      Error.exit_code e
    | Ok doc -> (
      match
        let stats = Stats.build doc in
        let idx = Fulltext.Index.build doc in
        (stats, idx)
      with
      | exception Flexpath.Failpoint.Injected point ->
        let e = Error.Fault point in
        Printf.eprintf "error: %s\n" (Error.to_string e);
        Error.exit_code e
      | stats, idx ->
        Format.printf "%a@." Stats.pp stats;
        Format.printf "elements: %d@." (Xmldom.Doc.size doc);
        Format.printf "serialized size: %d bytes@." (Xmldom.Doc.serialized_size doc);
        Format.printf "indexed tokens: %d (%d distinct terms)@." (Fulltext.Index.n_tokens idx)
          (Fulltext.Index.distinct_terms idx);
        0)
  in
  let term = Term.(const run $ file_arg $ xmark_arg $ articles_arg) in
  Cmd.v (Cmd.info "stats" ~doc:"Show document statistics.") term

(* ------------------------------------------------------------------ *)
(* generate *)

let generate_cmd =
  let out_arg =
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"PATH" ~doc:"Output file.")
  in
  let seed_arg = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Generator seed.") in
  let run xmark articles out seed =
    let tree =
      match (xmark, articles) with
      | Some items, None -> Some (Xmark.Auction.site ~seed ~items ())
      | None, Some count -> Some (Xmark.Articles.collection ~seed ~count ())
      | _ -> None
    in
    match tree with
    | None ->
      Printf.eprintf "error: pass exactly one of --xmark ITEMS, --articles COUNT\n";
      exit_usage
    | Some tree -> (
      let s = Xmldom.Xml.to_string ~decl:true tree in
      match out with
      | None ->
        print_string s;
        0
      | Some path ->
        let oc = open_out path in
        output_string oc s;
        close_out oc;
        Printf.printf "wrote %d bytes to %s\n" (String.length s) path;
        0)
  in
  let term = Term.(const run $ xmark_arg $ articles_arg $ out_arg $ seed_arg) in
  Cmd.v (Cmd.info "generate" ~doc:"Emit synthetic XML.") term

(* ------------------------------------------------------------------ *)
(* index: build and save an environment *)

let index_cmd =
  let out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"PATH" ~doc:"Where to write the environment.")
  in
  let verify_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "verify" ] ~docv:"PATH"
          ~doc:
            "Verify an existing snapshot instead of building one: recompute every checksum and \
             report per-section status.  Exit code 0 when intact, 4 on any corruption.")
  in
  let verify path =
    match Flexpath.Storage.verify path with
    | Error e ->
      Printf.eprintf "error: %s\n" (Error.to_string e);
      Error.exit_code e
    | Ok report ->
      Format.printf "%s:@.%a@." path Flexpath.Storage.pp_report report;
      if report.Flexpath.Storage.intact then 0 else exit_snapshot
  in
  let run file xmark articles hierarchy_file out verify_file =
    match (verify_file, out) with
    | Some path, None -> verify path
    | Some _, Some _ ->
      Printf.eprintf "error: pass either --verify or -o, not both\n";
      exit_usage
    | None, None ->
      Printf.eprintf "error: pass -o PATH to build a snapshot or --verify PATH to check one\n";
      exit_usage
    | None, Some out ->
      let* doc = load_doc ~file ~xmark_items:xmark ~articles_count:articles in
      let* hierarchy = load_hierarchy hierarchy_file in
      let* env = Flexpath.Env.build ~hierarchy doc in
      let* () = Flexpath.Storage.save env out in
      Printf.printf "indexed %d elements into %s\n" (Xmldom.Doc.size doc) out;
      0
  in
  let term =
    Term.(const run $ file_arg $ xmark_arg $ articles_arg $ hierarchy_arg $ out_arg $ verify_arg)
  in
  Cmd.v
    (Cmd.info "index"
       ~doc:
         "Build the index and statistics once, save them as a checksummed snapshot for later \
          queries; or verify an existing snapshot's integrity (--verify).")
    term

(* ------------------------------------------------------------------ *)
(* serve: the long-lived multi-domain query server *)

module Server = Flexpath_server.Server
module Protocol = Flexpath_server.Protocol

(* The server's worker-pool size, for [serve] and [bench serve]. *)
let workers_arg what =
  Arg.(
    value
    & opt int Server.default_config.workers
    & info [ "workers" ] ~docv:"N"
        ~doc:(what ^ "; the default is the recommended domain count, at most 64."))

let serve_cmd =
  let env_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "env" ] ~docv:"PATH"
          ~doc:
            "Serve a saved environment snapshot (see the index subcommand); also the target of a \
             bare RELOAD.")
  in
  let host_arg =
    Arg.(value & opt string "127.0.0.1" & info [ "host" ] ~docv:"ADDR" ~doc:"Listen address.")
  in
  let port_arg =
    Arg.(
      value & opt int 7625
      & info [ "p"; "port" ] ~docv:"PORT" ~doc:"Listen port; 0 picks an ephemeral port.")
  in
  let port_file_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "port-file" ] ~docv:"PATH"
          ~doc:"Write the actually bound port here once listening (for scripts with --port 0).")
  in
  let queue_arg =
    Arg.(
      value & opt int 64
      & info [ "queue-depth" ] ~docv:"N"
          ~doc:
            "Admission queue capacity: connections waiting for a worker beyond it are \
             fast-rejected with OVERLOADED.")
  in
  let max_conns_arg =
    Arg.(
      value & opt int 256
      & info [ "max-conns" ] ~docv:"N" ~doc:"Cap on connections admitted and not yet closed.")
  in
  let read_timeout_arg =
    Arg.(
      value & opt float 30000.0
      & info [ "read-timeout-ms" ] ~docv:"MS"
          ~doc:"Idle limit while waiting for a request line; expired connections are dropped.")
  in
  let write_timeout_arg =
    Arg.(
      value & opt float 30000.0
      & info [ "write-timeout-ms" ] ~docv:"MS" ~doc:"Send-buffer stall limit per response.")
  in
  let k_arg =
    Arg.(value & opt int 10 & info [ "k" ] ~doc:"Default answer count for QUERY without k=.")
  in
  let timeout_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "timeout-ms" ] ~docv:"MS"
          ~doc:
            "Default per-request wall-clock budget; a request's timeout_ms= option overrides it.")
  in
  let tuple_budget_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "tuple-budget" ] ~docv:"N" ~doc:"Default per-request executor tuple budget.")
  in
  let step_budget_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "step-budget" ] ~docv:"N" ~doc:"Default per-request relaxation-step budget.")
  in
  let restart_cap_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "restart-cap" ] ~docv:"N" ~doc:"Default per-request SSO/Hybrid restart cap.")
  in
  let hard_wall_arg =
    Arg.(
      value & opt float 5000.0
      & info [ "hard-wall-ms" ] ~docv:"MS"
          ~doc:
            "Supervision hard wall: a worker busy on one request for longer is declared lost and \
             replaced.  Set it above the largest legitimate request budget.")
  in
  let no_supervise_arg =
    Arg.(
      value & flag
      & info [ "no-supervise" ]
          ~doc:
            "Disable worker supervision: a wedged or dead worker then shrinks the pool \
             permanently.")
  in
  let quarantine_arg =
    Arg.(
      value & opt int 2
      & info [ "quarantine-strikes" ] ~docv:"N"
          ~doc:
            "Worker losses a query fingerprint may cause before matching queries are \
             fast-rejected QUARANTINED; 0 disables quarantining.")
  in
  let queue_deadline_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "queue-deadline-ms" ] ~docv:"MS"
          ~doc:
            "Bound on a connection's admission-queue sojourn: older entries are shed with \
             OVERLOADED retry-after-ms instead of being served.")
  in
  let merge_interval_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "merge-interval-ms" ] ~docv:"MS"
          ~doc:
            "Cadence of the background merge domain folding acknowledged deltas into the \
             snapshot (default 2000); <= 0 disables it — deltas then accumulate until a MERGE \
             request.")
  in
  let max_doc_bytes_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "max-doc-bytes" ] ~docv:"N"
          ~doc:"Per-document byte budget for INGEST (default 8 MiB).")
  in
  let max_doc_elems_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "max-doc-elems" ] ~docv:"N"
          ~doc:
            "Per-document element budget for INGEST, enforced by a streaming pre-pass (default \
             262144).")
  in
  let write_lane_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "write-lane" ] ~docv:"N"
          ~doc:
            "Write admission class: INGEST/DELETE beyond this many concurrent writers are \
             answered OVERLOADED immediately (default 4; 0 rejects every write).")
  in
  let shards_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "shards" ] ~docv:"N"
          ~doc:
            "Serve a writable corpus of $(docv) >= 1 WAL-backed shards at <env>.shard<i> (WAL \
             <env>.shard<i>.wal): INGEST/DELETE/MERGE become live, documents route by a stable \
             hash of their id and queries scatter-gather over the live shards.  A shard that \
             cannot answer degrades the response to PARTIAL (shards=served/total, sound \
             score_bound) instead of failing it; SHARDS reports per-shard health and RELOAD <i> \
             swaps one shard.  Without --shards or --replicas the server is read-only.")
  in
  let replicas_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "replicas" ] ~docv:"R"
          ~doc:
            "Keep $(docv) copies of each shard (DESIGN.md §4l): a primary plus followers, each \
             a full WAL-backed store (follower j at <env>.shard<i>.r<j>), kept in sync by WAL \
             shipping.  Queries fail over to the next in-sync replica, so losing one copy still \
             yields Complete answers; SHARDS/STATS gain per-replica lines and RELOAD \
             <shard>.<replica> catches one copy up from its primary.  Implies the writable \
             corpus (one shard unless --shards says otherwise).  Default 1: unreplicated.")
  in
  let ack_mode_arg =
    Arg.(
      value
      & opt (enum [ ("sync", Flexpath.Corpus.Sync); ("async", Flexpath.Corpus.Async) ])
          Flexpath.Corpus.Sync
      & info [ "ack-mode" ] ~docv:"sync|async"
          ~doc:
            "Replication ack mode.  $(b,sync) (default): acked records reach every in-sync \
             follower (through its own WAL and fsync) before the ack returns.  $(b,async): \
             ships queue per follower and drain on the background tick — lower write latency, \
             bounded follower lag (a lagging follower is excluded from the queryable view \
             until drained).")
  in
  let probation_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "probation-ms" ] ~docv:"MS"
          ~doc:
            "Read-only probation after a disk fault (ENOSPC/EIO on the durability path): \
             writes are answered READONLY with a retry-after-ms hint until a post-probation \
             write re-probes the disk successfully (default 2000).")
  in
  let run file xmark articles hierarchy_file weights_spec env_file host port port_file workers
      queue_depth max_conns read_timeout_ms write_timeout_ms k timeout_ms tuple_budget step_budget
      restart_cap cache_mb no_cache hard_wall_ms no_supervise quarantine_strikes queue_deadline_ms
      merge_interval_ms max_doc_bytes max_doc_elems write_lane shards replicas ack_mode
      probation_ms =
    let* weights = load_weights weights_spec in
    let writable = shards <> None || replicas <> None in
    let* env =
      match (writable, env_file) with
      | true, _ ->
        (* The corpus (opened inside Server.create) loads each shard's
           snapshot and replays its WAL itself; this env only donates
           weights and hierarchy for shards starting from nothing, so
           no snapshot file needs to exist yet. *)
        Result.bind (load_hierarchy hierarchy_file) (fun hierarchy ->
            Result.map Flexpath.Ingest.env (Flexpath.Ingest.empty ~weights ~hierarchy ()))
      | false, Some path ->
        Result.map
          (fun (env, outcome) ->
            (match outcome with
            | Flexpath.Storage.Intact -> ()
            | outcome ->
              Printf.eprintf "warning: %s: %s\n" path (Flexpath.Storage.outcome_to_string outcome));
            env)
          (Flexpath.Storage.load ~weights path)
      | false, None ->
        Result.bind (load_doc ~file ~xmark_items:xmark ~articles_count:articles) (fun doc ->
            Result.bind (load_hierarchy hierarchy_file) (fun hierarchy ->
                Flexpath.Env.build ~weights ~hierarchy doc))
    in
    let cfg =
      {
        Server.host;
        port;
        workers;
        queue_depth;
        max_connections = max_conns;
        read_timeout_s = read_timeout_ms /. 1000.0;
        write_timeout_s = write_timeout_ms /. 1000.0;
        default_k = k;
        default_budget =
          { Flexpath.Guard.deadline_ms = timeout_ms; tuple_budget; step_budget; restart_cap };
        snapshot = env_file;
        cache_mb = cache_of ~cache_mb ~no_cache;
        supervise = not no_supervise;
        hard_wall_ms;
        quarantine_strikes;
        queue_deadline_ms;
        ingest =
          (if not writable then None
           else
             let d = Server.ingest_defaults in
             Some
               {
                 Server.merge_interval_ms =
                   Option.value merge_interval_ms ~default:d.Server.merge_interval_ms;
                 max_doc_bytes = Option.value max_doc_bytes ~default:d.Server.max_doc_bytes;
                 max_doc_elems = Option.value max_doc_elems ~default:d.Server.max_doc_elems;
                 write_lane = Option.value write_lane ~default:d.Server.write_lane;
                 shards = Option.value shards ~default:1;
                 replicas = Option.value replicas ~default:1;
                 ack_mode;
                 probation_ms = Option.value probation_ms ~default:d.Server.probation_ms;
               });
      }
    in
    match Server.create cfg ~env with
    | Error e ->
      Printf.eprintf "error: %s\n" (Error.to_string e);
      Error.exit_code e
    | Ok srv ->
      let graceful _ = Server.stop srv in
      Sys.set_signal Sys.sigterm (Sys.Signal_handle graceful);
      Sys.set_signal Sys.sigint (Sys.Signal_handle graceful);
      let bound = Server.port srv in
      (match port_file with
      | None -> ()
      | Some path ->
        let oc = open_out path in
        output_string oc (string_of_int bound);
        close_out oc);
      Printf.eprintf "flexpath: listening on %s:%d (workers=%d, queue=%d, max-conns=%d)\n%!" host
        bound workers queue_depth max_conns;
      Server.serve srv;
      Printf.eprintf "flexpath: server stopped\n%!";
      0
  in
  let term =
    Term.(
      const run $ file_arg $ xmark_arg $ articles_arg $ hierarchy_arg $ weights_arg $ env_arg
      $ host_arg $ port_arg $ port_file_arg
      $ workers_arg "Worker domains executing queries"
      $ queue_arg $ max_conns_arg
      $ read_timeout_arg $ write_timeout_arg $ k_arg $ timeout_arg $ tuple_budget_arg
      $ step_budget_arg $ restart_cap_arg $ cache_mb_arg $ no_cache_arg $ hard_wall_arg
      $ no_supervise_arg $ quarantine_arg $ queue_deadline_arg $ merge_interval_arg
      $ max_doc_bytes_arg $ max_doc_elems_arg $ write_lane_arg $ shards_arg $ replicas_arg
      $ ack_mode_arg $ probation_arg)
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Serve queries over TCP from a resident environment: newline-delimited \
          PING/QUERY/RELAX/STATS/RELOAD/SHUTDOWN requests, length-framed responses, a domain \
          worker pool with heartbeat supervision (lost workers are replaced, poison queries \
          quarantined), admission control with queue-deadline shedding and per-request budgets \
          (DESIGN.md §4e, §4g).  With --shards N (N >= 1), the corpus is writable and split \
          into N independent failure domains: framed INGEST plus DELETE/MERGE, WAL-durable \
          acks and a background delta-merge domain (DESIGN.md §4h); queries scatter-gather over \
          the live shards, a lost shard degrades answers to PARTIAL with a sound bound instead \
          of failing them, and SHARDS/RELOAD <i> expose per-shard health and recovery \
          (DESIGN.md §4i).  With --replicas R, each shard is a replica set kept \
          in sync by WAL shipping: probes fail over to the next in-sync copy (losing one \
          replica keeps answers Complete), RELOAD <i>.<j> catches one copy up from its \
          primary, and a disk fault degrades the store to READONLY instead of crashing \
          (DESIGN.md §4l).")
    term

(* ------------------------------------------------------------------ *)
(* client: drive a running server over the line protocol *)

module Client = Flexpath_server.Client

let client_cmd =
  let host_arg =
    Arg.(value & opt string "127.0.0.1" & info [ "host" ] ~docv:"ADDR" ~doc:"Server address.")
  in
  let port_arg =
    Arg.(required & opt (some int) None & info [ "p"; "port" ] ~docv:"PORT" ~doc:"Server port.")
  in
  let cmd_arg =
    Arg.(
      value & opt_all string []
      & info [ "e" ] ~docv:"REQUEST"
          ~doc:"Request line to send (repeatable, in order).  Without -e, stdin lines are sent.")
  in
  let retries_arg =
    Arg.(
      value & opt int 0
      & info [ "retries" ] ~docv:"N"
          ~doc:
            "Additional attempts per request after the first, with full-jitter exponential \
             backoff, honoring the server's retry-after-ms hint.  Connect failures, dead or \
             timed-out connections and OVERLOADED are retried; QUARANTINED is not (it is \
             deterministic), and neither is an INGEST without --ingest-id once its connection \
             dies mid-request (the write may already be durable; see the exit-code notes).")
  in
  let ingest_file_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "ingest-file" ] ~docv:"PATH"
          ~doc:
            "Send the file's bytes ('-' reads stdin) as one framed INGEST, after any -e \
             requests.  With --ingest-file, stdin is never interpreted as request lines.")
  in
  let ingest_id_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "ingest-id" ] ~docv:"ID"
          ~doc:
            "Document id for --ingest-file, making the write an idempotent upsert; required when \
             --retries is nonzero so an ambiguous outcome can be retried safely.")
  in
  let budget_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "retry-budget-ms" ] ~docv:"MS"
          ~doc:
            "End-to-end deadline over the whole run, attempts and backoff included.  Each QUERY \
             is sent with timeout_ms set to the remaining budget (an explicit timeout_ms is \
             tightened, never loosened), so no server-side work outlives this client.")
  in
  let run host port commands retries budget_ms ingest_file ingest_id =
    let slurp_bytes ic =
      let buf = Buffer.create 65536 in
      let chunk = Bytes.create 65536 in
      let rec go () =
        let n = input ic chunk 0 (Bytes.length chunk) in
        if n > 0 then begin
          Buffer.add_subbytes buf chunk 0 n;
          go ()
        end
      in
      go ();
      Buffer.contents buf
    in
    let lines =
      match (commands, ingest_file) with
      | [], None ->
        let rec slurp acc =
          match input_line stdin with
          | line -> slurp (line :: acc)
          | exception End_of_file -> List.rev acc
        in
        slurp []
      | cs, _ -> cs
    in
    let print_response (status, body) =
      print_string (Protocol.status_to_string status);
      print_newline ();
      if body <> "" then begin
        print_string body;
        print_newline ()
      end
    in
    let retry = { Client.default_retry with retries; budget_ms } in
    let code_of responses =
      if List.exists (fun (s, _) -> s = Protocol.Quarantined) responses then exit_quarantined
      else 0
    in
    match (ingest_file, ingest_id, retries) with
    | None, Some _, _ ->
      Printf.eprintf "error: --ingest-id needs --ingest-file\n";
      exit_usage
    | Some _, None, r when r > 0 ->
      Printf.eprintf
        "error: --retries with --ingest-file needs --ingest-id (an anonymous INGEST cannot be \
         retried safely: the write may already be durable)\n";
      exit_usage
    | _ -> (
      let requests = List.map (fun line -> { Client.line; body = None }) lines in
      let requests =
        match ingest_file with
        | None -> requests
        | Some path ->
          let xml =
            if path = "-" then slurp_bytes stdin
            else begin
              let ic = open_in_bin path in
              Fun.protect ~finally:(fun () -> close_in ic) (fun () -> slurp_bytes ic)
            end
          in
          requests @ [ Client.ingest_request ?id:ingest_id xml ]
      in
      match Client.run_requests ~host ~port ~retry requests with
      | Ok responses ->
        List.iter print_response responses;
        code_of responses
      | Error (failure, completed) ->
        List.iter print_response completed;
        Printf.eprintf "error: %s\n" (Client.failure_to_string failure);
        let code =
          match failure with
          | Client.Overloaded -> exit_overloaded
          | Client.Budget_exhausted -> exit_budget
          | Client.Store_readonly -> exit_readonly
          | Client.Connect_failed _ | Client.No_response -> exit_usage
        in
        (* A quarantined response earlier in the run still names the more
           actionable condition. *)
        let quarantine = code_of completed in
        if quarantine <> 0 then quarantine else code)
  in
  let term =
    Term.(
      const run $ host_arg $ port_arg $ cmd_arg $ retries_arg $ budget_arg $ ingest_file_arg
      $ ingest_id_arg)
  in
  Cmd.v
    (Cmd.info "client"
       ~doc:
         "Send request lines to a running flexpath server and print each framed response \
          (status line, then body), optionally retrying with jittered backoff under an \
          end-to-end deadline propagated to the server.")
    term

(* ------------------------------------------------------------------ *)
(* bench: the open-loop load generator and its artifact gate *)

module Loadgen = Flexpath_loadgen.Loadgen
module Ljson = Flexpath_loadgen.Json

(* Remove a directory that holds only files (a store's snapshot and
   WAL); best effort. *)
let remove_flat_dir dir =
  try
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
    Sys.rmdir dir
  with Sys_error _ -> ()

let bench_serve_cmd =
  let scales_arg =
    Arg.(
      value & opt string "8,256,1024"
      & info [ "scales" ] ~docv:"N,N,..."
          ~doc:
            "Comma-separated connection-pool sizes, one measured run per size.  The smallest is \
             the baseline the summary's p99 ratio compares against.")
  in
  let rate_arg =
    Arg.(
      value & opt float 150.0
      & info [ "rate" ] ~docv:"RPS"
          ~doc:
            "Offered load in requests/second at every scale (open loop: arrivals are scheduled \
             by a Poisson process and never wait for capacity, so latency includes any \
             client-side queueing — no coordinated omission).")
  in
  let duration_arg =
    Arg.(value & opt float 5.0 & info [ "duration-s" ] ~docv:"S" ~doc:"Measured window per scale.")
  in
  let warmup_arg =
    Arg.(
      value & opt float 1.0
      & info [ "warmup-s" ] ~docv:"S" ~doc:"Uncounted lead-in per scale (cache and JIT warm).")
  in
  let zipf_arg =
    Arg.(
      value & opt float 1.1
      & info [ "zipf" ] ~docv:"S" ~doc:"Zipf exponent of the query-popularity mix; 0 is uniform.")
  in
  let ping_frac_arg =
    Arg.(
      value & opt float 0.2
      & info [ "ping-frac" ] ~docv:"F" ~doc:"Fraction of arrivals that are PING.")
  in
  let ingest_frac_arg =
    Arg.(
      value & opt float 0.0
      & info [ "ingest-frac" ] ~docv:"F"
          ~doc:
            "Fraction of arrivals that are framed idempotent INGEST upserts (in-process mode \
             serves a writable one-shard corpus when nonzero).")
  in
  let seed_arg = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Workload PRNG seed.") in
  let out_arg =
    Arg.(
      value & opt string "BENCH_serve.json"
      & info [ "o"; "output" ] ~docv:"PATH" ~doc:"Artifact path; '-' writes to stdout.")
  in
  let port_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "p"; "port" ] ~docv:"PORT"
          ~doc:
            "Drive an already-running server on $(docv) instead of spawning one in-process \
             (needed to push past half the fd budget, e.g. 10k connections).")
  in
  let host_arg =
    Arg.(value & opt string "127.0.0.1" & info [ "host" ] ~docv:"ADDR" ~doc:"Server address.")
  in
  let articles_arg =
    Arg.(
      value & opt int 200
      & info [ "articles" ] ~docv:"COUNT"
          ~doc:"Size of the synthetic article corpus served in in-process mode.")
  in
  let queue_arg =
    Arg.(
      value & opt int 64
      & info [ "queue-depth" ] ~docv:"N" ~doc:"In-process server admission-queue capacity.")
  in
  let run scales_s rate duration_s warmup_s zipf ping_frac ingest_frac seed out port host articles
      workers queue_depth =
    let scales =
      List.filter_map
        (fun s -> match String.trim s with "" -> None | s -> Some (int_of_string_opt s))
        (String.split_on_char ',' scales_s)
    in
    let all_some opts =
      List.fold_right
        (fun o acc -> Option.bind acc (fun xs -> Option.map (fun x -> x :: xs) o))
        opts (Some [])
    in
    match all_some scales with
    | None | Some [] ->
      Printf.eprintf "error: --scales wants a comma-separated list of positive integers\n";
      exit_usage
    | Some scales when List.exists (fun n -> n <= 0) scales ->
      Printf.eprintf "error: --scales wants a comma-separated list of positive integers\n";
      exit_usage
    | Some scales -> (
      let top = List.fold_left max 0 scales in
      (* Each client connection costs this process one fd; in-process
         mode the server end costs another. *)
      let need = (match port with Some _ -> top + 64 | None -> (2 * top) + 64) in
      let eff = Flexpath_server.Poller.raise_nofile need in
      if eff < need then begin
        Printf.eprintf
          "error: need %d fds for %d connections but the limit allows %d; lower --scales or \
           split client and server across processes (--port)\n"
          need top eff;
        exit_usage
      end
      else begin
        let workload =
          {
            Loadgen.default_workload with
            rate;
            duration_s;
            warmup_s;
            zipf_s = zipf;
            ping_fraction = ping_frac;
            ingest_fraction = ingest_frac;
            seed;
          }
        in
        let with_target f =
          match port with
          | Some p -> f p
          | None ->
            (* In-process server over a synthetic article corpus.  A
               writable one serves a store seeded in a fresh directory,
               removed once the server has stopped. *)
            let store_dir =
              if ingest_frac <= 0.0 then None else Some (Filename.temp_dir "flexpath-bench-" "")
            in
            Fun.protect
              ~finally:(fun () -> Option.iter remove_flat_dir store_dir)
              (fun () ->
                let build =
                  match store_dir with
                  | None ->
                    Result.map
                      (fun env -> (env, None, None))
                      (Flexpath.Env.build ~weights:Relax.Weights.uniform
                         ~hierarchy:Tpq.Hierarchy.empty
                         (Xmark.Articles.doc ~count:articles ()))
                  | Some dir ->
                    (* Live ingestion serves the corpus's own documents, so
                       seed it: build an ingest corpus from the article trees
                       and persist it as the snapshot its one shard will
                       load. *)
                    let article_trees =
                      List.filter
                        (fun t -> Xmldom.Xml.tag t = Some "article")
                        (Xmldom.Xml.children (Xmark.Articles.collection ~count:articles ()))
                    in
                    let docs =
                      List.mapi (fun i t -> (Printf.sprintf "article%d" i, t)) article_trees
                    in
                    let prefix = Filename.concat dir "corpus" in
                    Result.bind (Flexpath.Ingest.of_docs docs) (fun corpus ->
                        let env = Flexpath.Ingest.env corpus in
                        Result.map
                          (fun () -> (env, Some prefix, Some Server.ingest_defaults))
                          (Flexpath.Storage.save env (prefix ^ ".shard0")))
                in
                match build with
                | Error e ->
                  Printf.eprintf "error: %s\n" (Error.to_string e);
                  Error.exit_code e
                | Ok (env, snapshot, ingest) -> (
                  let cfg =
                    {
                      Server.default_config with
                      host;
                      port = 0;
                      workers;
                      queue_depth;
                      max_connections = top + 64;
                      read_timeout_s = 120.0;
                      snapshot;
                      ingest;
                    }
                  in
                  match Server.create cfg ~env with
                  | Error e ->
                    Printf.eprintf "error: %s\n" (Error.to_string e);
                    Error.exit_code e
                  | Ok srv ->
                    let d = Domain.spawn (fun () -> Server.serve srv) in
                    Fun.protect
                      ~finally:(fun () ->
                        Server.stop srv;
                        Domain.join d)
                      (fun () -> f (Server.port srv))))
        in
        with_target (fun bound_port ->
            Printf.eprintf "bench serve: %s:%d, %.0f req/s offered, scales %s\n%!" host bound_port
              rate
              (String.concat "," (List.map string_of_int scales));
            let rec measure acc = function
              | [] -> Ok (List.rev acc)
              | conns :: rest -> (
                Printf.eprintf "bench serve: scale %d...\n%!" conns;
                match Loadgen.run ~host ~port:bound_port ~connections:conns workload with
                | Error msg -> Result.Error msg
                | Ok r ->
                  Printf.eprintf
                    "bench serve: scale %d: goodput %.1f rps, p50 %.2f ms, p99 %.2f ms, p999 \
                     %.2f ms (ok=%d partial=%d overloaded=%d quarantined=%d err=%d dropped=%d \
                     reconnects=%d)\n\
                     %!"
                    conns r.Loadgen.goodput_rps r.Loadgen.p50_ms r.Loadgen.p99_ms
                    r.Loadgen.p999_ms r.Loadgen.ok r.Loadgen.partial r.Loadgen.overloaded
                    r.Loadgen.quarantined r.Loadgen.errors r.Loadgen.dropped
                    r.Loadgen.reconnects;
                  measure (r :: acc) rest)
            in
            match measure [] scales with
            | Error msg ->
              Printf.eprintf "error: %s\n" msg;
              exit_usage
            | Ok results ->
              let config =
                [
                  ("mode", Ljson.Str (match port with Some _ -> "external" | None -> "in-process"));
                  ("rate_rps", Ljson.Num rate);
                  ("duration_s", Ljson.Num duration_s);
                  ("warmup_s", Ljson.Num warmup_s);
                  ("zipf_s", Ljson.Num zipf);
                  ("ping_fraction", Ljson.Num ping_frac);
                  ("ingest_fraction", Ljson.Num ingest_frac);
                  ("seed", Ljson.Num (float_of_int seed));
                  ("articles", Ljson.Num (float_of_int articles));
                  ("workers", Ljson.Num (float_of_int workers));
                  ("queue_depth", Ljson.Num (float_of_int queue_depth));
                ]
              in
              Loadgen.write_artifact out (Loadgen.report ~config ~results);
              if out <> "-" then Printf.eprintf "bench serve: wrote %s\n%!" out;
              0)
      end)
  in
  let term =
    Term.(
      const run $ scales_arg $ rate_arg $ duration_arg $ warmup_arg $ zipf_arg $ ping_frac_arg
      $ ingest_frac_arg $ seed_arg $ out_arg $ port_arg $ host_arg $ articles_arg
      $ workers_arg "In-process server worker domains"
      $ queue_arg)
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Load-test a flexpath server with open-loop Poisson arrivals over a fixed connection \
          pool, one measured run per --scales entry, and persist goodput and latency \
          percentiles (p50/p99/p999) as a JSON artifact (DESIGN.md §4j).  By default a server \
          is spawned in-process over a synthetic article corpus; --port drives an external one.")
    term

let bench_check_cmd =
  let file_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"PATH" ~doc:"Artifact to check.")
  in
  let run path =
    match
      let ic = open_in_bin path in
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () -> really_input_string ic (in_channel_length ic))
    with
    | exception Sys_error msg ->
      Printf.eprintf "error: %s\n" msg;
      exit_usage
    | text -> (
      match Result.bind (Ljson.parse text) Loadgen.check_report with
      | Error msg ->
        Printf.eprintf "error: %s: %s\n" path msg;
        exit_usage
      | Ok summary ->
        Printf.printf "%s: ok (%s)\n" path summary;
        0)
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Validate a bench artifact against the schema its bench tag names (serve, twig, \
          replica, shard or ingest; DESIGN.md §4j) and print a one-line summary.  A missing or \
          unknown tag is an error.  Exit 0 when well-formed; CI gates every BENCH_*.json on \
          this.")
    Term.(const run $ file_arg)

let bench_cmd =
  Cmd.group
    (Cmd.info "bench"
       ~doc:
         "Load-generation benchmarks and their persisted artifacts: 'serve' measures the query \
          server's latency/goodput trajectory across connection scales, 'check' validates an \
          artifact's schema.")
    [ bench_serve_cmd; bench_check_cmd ]

let () =
  let info =
    Cmd.info "flexpath" ~version:"1.0.0"
      ~doc:"Flexible structure and full-text querying for XML (FleXPath, SIGMOD 2004)."
  in
  exit
    (Cmd.eval'
       (Cmd.group info
          [ query_cmd; relax_cmd; stats_cmd; generate_cmd; index_cmd; serve_cmd; client_cmd; bench_cmd ]))
