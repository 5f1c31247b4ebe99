(* The query server end to end, over real sockets:

   - lifecycle: start from a snapshot, PING/QUERY/STATS, graceful
     SHUTDOWN with the listener actually released;
   - admission control: a full queue answers OVERLOADED immediately
     instead of hanging the client;
   - per-request governance: budgets truncate to PARTIAL with a sound
     bound, request options override server defaults per axis;
   - hot reload: RELOAD swaps the environment mid-traffic with zero
     failed in-flight requests, and a corrupt snapshot never replaces
     the serving one;
   - concurrent determinism: parallel connections over the shared
     environment produce byte-identical answers to a sequential run;
   - the server_accept / server_read / server_worker failpoints each
     exercise their error path without killing the server;
   - self-healing (DESIGN.md §4g): a wedged or dead worker is declared
     lost and replaced within the hard wall, a query shape that keeps
     costing workers is quarantined, queued connections past their
     sojourn deadline are shed with a retry hint, the retrying client
     survives injected faults and overload within its budget, and a
     randomized chaos soak proves none of it leaks capacity;
   - live ingestion (DESIGN.md §4h): framed INGEST/DELETE/MERGE over
     the wire, WAL-durable acks visible to the next QUERY, restart
     replay to exactly the acked set, the wal_append / wal_fsync /
     merge_publish failpoints each leaving a consistent store, and a
     mixed query+write chaos soak whose quiesced corpus answers
     byte-identically to an offline rebuild of the acked documents. *)

module Server = Flexpath_server.Server
module Protocol = Flexpath_server.Protocol
module Admission = Flexpath_server.Admission
module Reservoir = Flexpath_server.Reservoir
module Metrics = Flexpath_server.Metrics
module Client = Flexpath_server.Client
module Env = Flexpath.Env
module Error = Flexpath.Error
module Guard = Flexpath.Guard
module Failpoint = Flexpath.Failpoint
module Monotime = Flexpath.Monotime

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

(* [String.is_infix]/[is_prefix] without an [Astring] dependency. *)
let has_prefix ~prefix s =
  String.length s >= String.length prefix && String.sub s 0 (String.length prefix) = prefix

let has_infix ~affix s =
  let n = String.length affix and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = affix || go (i + 1)) in
  n = 0 || go 0

(* The value of STATS's [key: value] line, if it has one. *)
let stats_value body key =
  let prefix = key ^ ": " in
  String.split_on_char '\n' body
  |> List.find_map (fun l ->
         if has_prefix ~prefix l then
           Some (String.sub l (String.length prefix) (String.length l - String.length prefix))
         else None)

let make_env ?(seed = 7) ?(count = 30) () = Env.make (Xmark.Articles.doc ~seed ~count ())

let save_snapshot env =
  let path = Filename.temp_file "flexpath_server_test" ".env" in
  (match Flexpath.Storage.save env path with
  | Ok () -> ()
  | Error e -> Alcotest.fail (Error.to_string e));
  path

let with_server ?(cfg = Server.default_config) env f =
  match Server.create cfg ~env with
  | Error e -> Alcotest.fail (Error.to_string e)
  | Ok srv ->
    let d = Domain.spawn (fun () -> Server.serve srv) in
    Fun.protect
      ~finally:(fun () ->
        Server.stop srv;
        Domain.join d)
      (fun () -> f srv)

(* ------------------------------------------------------------------ *)
(* A minimal blocking client *)

type client = { fd : Unix.file_descr; ic : in_channel }

let connect port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  { fd; ic = Unix.in_channel_of_descr fd }

let send c line =
  let s = line ^ "\n" in
  let n = String.length s in
  let rec go off = if off < n then go (off + Unix.write_substring c.fd s off (n - off)) in
  go 0

(* A dropped connection may arrive as EOF or, when the server closed
   with our request bytes unread, as a reset ([Sys_error]); both mean
   "no response". *)
let recv c =
  let read_line () =
    match input_line c.ic with
    | l -> Some l
    | exception (End_of_file | Sys_error _) -> None
  in
  let read_bytes n =
    let b = Bytes.create n in
    match really_input c.ic b 0 n with
    | () -> Some (Bytes.to_string b)
    | exception (End_of_file | Sys_error _) -> None
  in
  Protocol.read_response ~read_line ~read_bytes

let request c line =
  send c line;
  recv c

let request_exn c line =
  match request c line with
  | Some r -> r
  | None -> Alcotest.fail (Printf.sprintf "connection closed before a response to %S" line)

(* [in_channel_of_descr] owns the descriptor: closing the channel
   closes the socket. *)
let close c = try close_in c.ic with Sys_error _ -> ()

(* ------------------------------------------------------------------ *)
(* Writable servers: a corpus whose shard files live in a scratch
   directory (DESIGN.md §4h, §4i) *)

module Ingest = Flexpath.Ingest
module Corpus = Flexpath.Corpus

let rm_rf dir =
  if Sys.file_exists dir then begin
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
    Unix.rmdir dir
  end

let with_ingest_dir f =
  let dir = Filename.temp_file "flexpath_ingest_srv" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f ~prefix:(Filename.concat dir "corpus"))

(* A writable one-shard corpus server. *)
let ingest_cfg ?(merge_interval_ms = 0.0) ?(write_lane = 4) ~prefix () =
  {
    Server.default_config with
    workers = 2;
    snapshot = Some prefix;
    ingest = Some { Server.ingest_defaults with Server.merge_interval_ms; write_lane };
  }

let placeholder_env () =
  match Ingest.empty () with
  | Ok c -> Ingest.env c
  | Error e -> Alcotest.fail (Error.to_string e)

(* A framed INGEST, raw on the wire: the line, then the body and its
   framing newline ([send] appends exactly one). *)
let request_ingest c ?id xml =
  let id_tok = match id with None -> "" | Some i -> " id=" ^ i in
  send c (Printf.sprintf "INGEST %d%s" (String.length xml) id_tok);
  send c xml;
  recv c

let request_ingest_exn c ?id xml =
  match request_ingest c ?id xml with
  | Some r -> r
  | None -> Alcotest.fail "connection closed before a response to INGEST"

let article body =
  Printf.sprintf "<article><title>live</title><section><paragraph>%s</paragraph></section></article>"
    body

(* ------------------------------------------------------------------ *)
(* Substrate units: the admission queue and the latency reservoir *)

let test_admission_queue () =
  let q = Admission.create ~capacity:2 in
  check_bool "push 1" true (Admission.try_push q 1 = `Admitted);
  check_bool "push 2" true (Admission.try_push q 2 = `Admitted);
  check_bool "push over capacity is rejected" true (Admission.try_push q 3 = `Full);
  check_int "depth" 2 (Admission.length q);
  Admission.close q;
  check_bool "push after close" true (Admission.try_push q 4 = `Closed);
  check_bool "drain 1" true (Admission.pop q = Some 1);
  check_bool "drain 2" true (Admission.pop q = Some 2);
  check_bool "drained queue reports closed" true (Admission.pop q = None)

let test_reservoir () =
  let r = Reservoir.create ~capacity:128 () in
  check_bool "empty percentile is nan" true (Float.is_nan (Reservoir.percentile r 50.0));
  for i = 1 to 100 do
    Reservoir.add r (float_of_int i)
  done;
  check_int "count" 100 (Reservoir.count r);
  check_bool "p0 is the minimum" true (Reservoir.percentile r 0.0 = 1.0);
  check_bool "p100 is the maximum" true (Reservoir.percentile r 100.0 = 100.0);
  let p50 = Reservoir.percentile r 50.0 in
  check_bool "p50 is central" true (p50 > 45.0 && p50 < 56.0);
  (* Overflow the capacity: percentiles stay in range, memory stays
     fixed. *)
  for i = 101 to 10_000 do
    Reservoir.add r (float_of_int i)
  done;
  let p50 = Reservoir.percentile r 50.0 in
  check_bool "sampled p50 within the stream's range" true (p50 >= 1.0 && p50 <= 10_000.0)

let test_reservoir_divergence () =
  (* Each reservoir seeds its own sampler: two instances fed the same
     over-capacity stream must keep different samples — identical
     percentiles across endpoints under identical load would mean the
     old shared-state bias is back. *)
  let a = Reservoir.create ~capacity:128 () in
  let b = Reservoir.create ~capacity:128 () in
  for i = 1 to 10_000 do
    let x = float_of_int i in
    Reservoir.add a x;
    Reservoir.add b x
  done;
  let differs =
    List.exists
      (fun p -> Reservoir.percentile a p <> Reservoir.percentile b p)
      [ 10.0; 25.0; 50.0; 75.0; 90.0 ]
  in
  check_bool "independently seeded reservoirs sample differently" true differs

(* ------------------------------------------------------------------ *)
(* Lifecycle *)

let query_line = "QUERY k=3 //article[.contains(\"xml\" and \"streaming\")]"

let test_lifecycle () =
  let env = make_env () in
  let snap = save_snapshot env in
  let env, _ = Result.get_ok (Flexpath.Storage.load snap) in
  let cfg = { Server.default_config with workers = 2; snapshot = Some snap } in
  let port = ref 0 in
  with_server ~cfg env (fun srv ->
      port := Server.port srv;
      let c = connect !port in
      let status, body = request_exn c "PING" in
      check_string "ping status" "OK" (Protocol.status_to_string status);
      check_string "ping body" "pong" body;
      let status, body = request_exn c query_line in
      check_string "query status" "OK" (Protocol.status_to_string status);
      check_bool "query body has answers" true (String.length body > 0);
      let status, body = request_exn c "STATS" in
      check_string "stats status" "OK" (Protocol.status_to_string status);
      check_bool "stats reports served requests" true
        (String.length body > 0
        && has_infix ~affix:"requests_served" body
        && has_infix ~affix:"latency_ms query" body);
      (* Endpoints with no samples yet render a bare count, never nan
         percentiles. *)
      check_bool "unsampled endpoint renders count=0" true
        (has_infix ~affix:"latency_ms relax count=0" body);
      check_bool "stats is nan-free" false (has_infix ~affix:"nan" body);
      let status, _ = request_exn c "SHUTDOWN" in
      check_string "shutdown status" "BYE" (Protocol.status_to_string status);
      close c);
  (* [with_server]'s finally joined the serve domain, so the listener
     is released: a fresh connection must be refused, not served. *)
  (match connect !port with
  | c ->
    close c;
    Alcotest.fail "connection accepted after shutdown"
  | exception Unix.Unix_error (Unix.ECONNREFUSED, _, _) -> ());
  Sys.remove snap

(* A stop waits on no fixed sleep: with a 20 s hard wall the
   supervision scan runs every 5 s, yet [serve] returns within 2 s of
   [stop]. *)
let test_prompt_stop () =
  let cfg = { Server.default_config with hard_wall_ms = 20_000.0 } in
  match Server.create cfg ~env:(make_env ()) with
  | Error e -> Alcotest.fail (Error.to_string e)
  | Ok srv ->
    let d = Domain.spawn (fun () -> Server.serve srv) in
    let c = connect (Server.port srv) in
    let status, _ = request_exn c "PING" in
    check_string "ping status" "OK" (Protocol.status_to_string status);
    close c;
    let clock = Monotime.create () in
    Server.stop srv;
    Domain.join d;
    let elapsed = Monotime.elapsed_s clock in
    check_bool (Printf.sprintf "serve returned within 2 s of stop (%.2f s)" elapsed) true
      (elapsed < 2.0)

let test_protocol_errors () =
  with_server (make_env ()) (fun srv ->
      let c = connect (Server.port srv) in
      let status, body = request_exn c "NONSENSE" in
      check_string "unknown verb is ERR" "ERR" (Protocol.status_to_string status);
      check_bool "names the verb" true (has_infix ~affix:"NONSENSE" body);
      let status, body = request_exn c "QUERY //[" in
      check_string "bad xpath is ERR" "ERR" (Protocol.status_to_string status);
      check_bool "query error names the offset" true
        (has_infix ~affix:"offset" body);
      let status, _ = request_exn c "QUERY k=nope //a" in
      check_string "bad option is ERR" "ERR" (Protocol.status_to_string status);
      let status, _ = request_exn c "PING extra" in
      check_string "ping with arguments is ERR" "ERR" (Protocol.status_to_string status);
      (* The connection survives protocol errors. *)
      let status, _ = request_exn c "PING" in
      check_string "still serving" "OK" (Protocol.status_to_string status);
      close c)

(* ------------------------------------------------------------------ *)
(* Governance: per-request budgets and server defaults *)

let test_budget_truncation () =
  with_server (make_env ()) (fun srv ->
      let c = connect (Server.port srv) in
      let status, body = request_exn c "QUERY steps=0 //article[./section/paragraph]" in
      check_string "exhausted budget is PARTIAL" "PARTIAL" (Protocol.status_to_string status);
      check_bool "PARTIAL opens with the truncation header" true
        (has_prefix ~prefix:"# truncated reason=" body);
      check_bool "reports a score bound" true
        (has_infix ~affix:"score_bound=" body);
      close c)

let test_budget_override () =
  (* Server default: step budget 0, so every query truncates — unless
     the request raises its own step budget, which must win. *)
  let cfg =
    {
      Server.default_config with
      default_budget = Guard.budget ~step_budget:0 ();
      workers = 1;
    }
  in
  with_server ~cfg (make_env ()) (fun srv ->
      let c = connect (Server.port srv) in
      let status, _ = request_exn c "QUERY //article[./section/paragraph]" in
      check_string "server default budget applies" "PARTIAL" (Protocol.status_to_string status);
      let status, _ = request_exn c "QUERY steps=64 //article[./section/paragraph]" in
      check_string "request override wins" "OK" (Protocol.status_to_string status);
      close c)

(* ------------------------------------------------------------------ *)
(* Admission control *)

let test_overload_fast_reject () =
  (* Under the event loop an idle connection costs nothing — requests,
     not connections, occupy workers.  Saturate deterministically:
     [a]'s request wedges the only worker, [b]'s request fills the
     queue, and [c]'s request must then be told OVERLOADED immediately
     rather than hang.  Supervision later clears the wedge so [b]'s
     queued request still drains. *)
  let cfg =
    {
      Server.default_config with
      workers = 1;
      queue_depth = 1;
      hard_wall_ms = 1000.0;
      quarantine_strikes = 0;
    }
  in
  with_server ~cfg (make_env ()) (fun srv ->
      let port = Server.port srv in
      (match Failpoint.activate_n "worker_wedge" 1 with
      | Ok () -> ()
      | Error msg -> Alcotest.fail msg);
      let a = connect port in
      send a query_line;
      (* Let the worker pop and wedge on [a]'s request before [b]
         queues, so the roles cannot swap. *)
      Unix.sleepf 0.2;
      let b = connect port in
      send b "PING";
      let c = connect port in
      send c "PING";
      (match recv c with
      | Some (Protocol.Overloaded, _) -> ()
      | Some (status, _) ->
        Alcotest.fail ("expected OVERLOADED, got " ^ Protocol.status_to_string status)
      | None -> Alcotest.fail "expected an OVERLOADED response, got EOF");
      check_bool "rejected connection is closed" true (recv c = None);
      close c;
      (* The supervisor claims the wedged worker ([a]'s connection is
         dropped) and its replacement drains [b]'s queued request. *)
      check_bool "wedged connection is closed unanswered" true (recv a = None);
      close a;
      (match recv b with
      | Some (Protocol.Ok_, body) -> check_string "queued connection drains" "pong" body
      | Some (status, _) ->
        Alcotest.fail ("expected the queued PING served, got " ^ Protocol.status_to_string status)
      | None -> Alcotest.fail "queued connection was dropped instead of served");
      let status, body = request_exn b "STATS" in
      check_string "stats ok" "OK" (Protocol.status_to_string status);
      check_bool "the reject was counted" true
        (has_infix ~affix:"connections_rejected: 1" body);
      check_bool "the loop gauges are rendered" true
        (has_infix ~affix:"open_connections:" body && has_infix ~affix:"loop_lag_ms" body);
      close b)

(* ------------------------------------------------------------------ *)
(* Concurrent determinism: N parallel connections issuing the same
   query set must produce byte-identical bodies to a sequential run. *)

let determinism_queries =
  [
    "QUERY k=5 //article[.contains(\"xml\" and \"streaming\")]";
    "QUERY k=3 algo=dpo //article[./section/paragraph]";
    "QUERY k=3 algo=sso //article[./section/paragraph]";
    "QUERY k=10 scheme=combined //article[./section[./algorithm]]";
    "RELAX steps=3 //article[./section/paragraph]";
    "QUERY k=4 steps=1 //article[./section[./paragraph[.contains(\"query\")]]]";
  ]

let run_query_set port =
  let c = connect port in
  let results =
    List.map
      (fun q ->
        let status, body = request_exn c q in
        Protocol.status_to_string status ^ "\n" ^ body)
      determinism_queries
  in
  close c;
  results

let test_concurrent_determinism () =
  let cfg = { Server.default_config with workers = 4 } in
  with_server ~cfg (make_env ~count:60 ()) (fun srv ->
      let port = Server.port srv in
      let sequential = run_query_set port in
      let domains = Array.init 4 (fun _ -> Domain.spawn (fun () -> run_query_set port)) in
      let parallel = Array.map Domain.join domains in
      Array.iteri
        (fun d results ->
          List.iteri
            (fun i (expected, got) ->
              check_string (Printf.sprintf "domain %d, query %d" d i) expected got)
            (List.combine sequential results))
        parallel)

(* ------------------------------------------------------------------ *)
(* Hot reload *)

let test_reload_mid_traffic () =
  let env1 = make_env ~seed:7 ~count:30 () in
  let env2 = make_env ~seed:8 ~count:50 () in
  let snap1 = save_snapshot env1 in
  let snap2 = save_snapshot env2 in
  let cfg = { Server.default_config with workers = 3; snapshot = Some snap1 } in
  with_server ~cfg env1 (fun srv ->
      let port = Server.port srv in
      (* Three domains of continuous traffic; the main thread swaps the
         environment twice underneath them.  Every in-flight request
         must complete with OK or PARTIAL — never an error, never a
         dropped connection. *)
      let traffic () =
        let c = connect port in
        let failures = ref 0 in
        for _ = 1 to 25 do
          match request c query_line with
          | Some ((Protocol.Ok_ | Protocol.Partial), _) -> ()
          | Some _ | None -> incr failures
        done;
        close c;
        !failures
      in
      let domains = Array.init 3 (fun _ -> Domain.spawn traffic) in
      let ctl = connect port in
      let status, body = request_exn ctl (Printf.sprintf "RELOAD %s" snap2) in
      check_string "reload to snap2" "OK" (Protocol.status_to_string status);
      check_bool "reload reports its generation" true
        (has_infix ~affix:"generation 2" body);
      (* A bare RELOAD re-reads the snapshot the server started from. *)
      let status, body = request_exn ctl "RELOAD" in
      check_string "bare reload" "OK" (Protocol.status_to_string status);
      check_bool "bare reload targets the origin snapshot" true
        (has_infix ~affix:snap1 body);
      let failed = Array.fold_left (fun acc d -> acc + Domain.join d) 0 domains in
      check_int "zero failed in-flight requests across both reloads" 0 failed;
      check_int "generation reflects both reloads" 3 (Server.generation srv);
      (* A corrupt snapshot is rejected and the serving environment
         survives. *)
      let garbage = Filename.temp_file "flexpath_server_test" ".env" in
      let oc = open_out garbage in
      output_string oc "not a snapshot";
      close_out oc;
      let status, _ = request_exn ctl (Printf.sprintf "RELOAD %s" garbage) in
      check_string "corrupt snapshot is ERR" "ERR" (Protocol.status_to_string status);
      check_int "generation unchanged after failed reload" 3 (Server.generation srv);
      let status, _ = request_exn ctl query_line in
      check_string "still serving after failed reload" "OK" (Protocol.status_to_string status);
      Sys.remove garbage);
  Sys.remove snap1;
  Sys.remove snap2

(* ------------------------------------------------------------------ *)
(* Failpoints: every server error path, deterministically *)

let with_failpoint name f =
  (match Failpoint.activate name with
  | Ok () -> ()
  | Error msg -> Alcotest.fail msg);
  Fun.protect ~finally:(fun () -> Failpoint.deactivate name) f

(* ------------------------------------------------------------------ *)
(* The query cache behind the server *)

(* A writable one-shard corpus holding documents the cache tests'
   query matches. *)
let with_seeded_corpus_server ?(cache_mb = Some 64) f =
  with_ingest_dir (fun ~prefix ->
      let cfg = { (ingest_cfg ~prefix ()) with Server.workers = 1; cache_mb } in
      with_server ~cfg (placeholder_env ()) (fun srv ->
          let corpus = Option.get (Server.corpus srv) in
          List.iter
            (fun (id, text) ->
              match Corpus.ingest corpus ~id (article text) with
              | Ok _ -> ()
              | Error e -> Alcotest.fail (Error.to_string e))
            [ ("a", "xml streaming"); ("b", "streaming xml engines"); ("c", "plain text") ];
          f srv))

let test_cache_serves_repeat_without_executor () =
  (* [uncached] checks the reply to a shape the cache has not seen,
     issued with the executor failpoint armed: the read-only slot
     fails the request, the corpus loses its only shard's probe. *)
  let check_repeat ~uncached srv =
    let c = connect (Server.port srv) in
    let status, cold = request_exn c query_line in
    check_string "cold query" "OK" (Protocol.status_to_string status);
    (* With the executor failpoint armed, the repeated query can only
       succeed if it never reaches the executor — i.e. it is served
       from the answer tier. *)
    with_failpoint "exec.run" (fun () ->
        let status, warm = request_exn c query_line in
        check_string "repeat served from the cache" "OK" (Protocol.status_to_string status);
        check_string "cached body is byte-identical" cold warm;
        let status, body = request_exn c "QUERY k=3 //section[./algorithm]" in
        uncached (Protocol.status_to_string status) body);
    let status, body = request_exn c "STATS" in
    check_string "stats ok" "OK" (Protocol.status_to_string status);
    check_bool "the hit was counted" true (has_infix ~affix:"cache_hits: 1" body);
    close c
  in
  let cfg = { Server.default_config with workers = 1 } in
  with_server ~cfg (make_env ())
    (check_repeat ~uncached:(fun status body ->
         check_string "uncached shape does reach the executor" "ERR" status;
         check_bool "and trips the armed failpoint" true (has_infix ~affix:"exec.run" body)));
  with_seeded_corpus_server
    (check_repeat ~uncached:(fun status body ->
         check_string "uncached shape does reach the executor" "PARTIAL" status;
         check_bool "and loses the probe to the armed failpoint" true
           (has_infix ~affix:"shards=0/1" body)));
  (* --no-cache: the corpus neither looks up nor stores, so the repeat
     reaches the armed executor too, and STATS says so. *)
  with_seeded_corpus_server ~cache_mb:None (fun srv ->
      let c = connect (Server.port srv) in
      let status, _ = request_exn c query_line in
      check_string "cold query" "OK" (Protocol.status_to_string status);
      with_failpoint "exec.run" (fun () ->
          let status, _ = request_exn c query_line in
          check_string "the repeat is evaluated again" "PARTIAL"
            (Protocol.status_to_string status));
      let _, body = request_exn c "STATS" in
      check_bool "STATS reports the cache off" true (has_infix ~affix:"cache: off" body);
      check_bool "and counts no hits" false (has_infix ~affix:"cache_hits" body);
      close c)

let test_reload_invalidates_cache () =
  let env1 = make_env ~seed:7 ~count:30 () in
  let env2 = make_env ~seed:8 ~count:50 () in
  let snap1 = save_snapshot env1 in
  let snap2 = save_snapshot env2 in
  let cfg = { Server.default_config with workers = 1; snapshot = Some snap1 } in
  with_server ~cfg env1 (fun srv ->
      let c = connect (Server.port srv) in
      let status, body1 = request_exn c query_line in
      check_string "query against snap1" "OK" (Protocol.status_to_string status);
      let _, warm = request_exn c query_line in
      check_string "repeat is the cached answer" body1 warm;
      let _, body = request_exn c "STATS" in
      check_bool "warm hit counted before the reload" true
        (has_infix ~affix:"cache_hits: 1" body);
      let status, _ = request_exn c (Printf.sprintf "RELOAD %s" snap2) in
      check_string "reload" "OK" (Protocol.status_to_string status);
      (* Same query line, new snapshot: the answer must come from the
         new environment, not the old generation's cache. *)
      let status, body2 = request_exn c query_line in
      check_string "query against snap2" "OK" (Protocol.status_to_string status);
      check_bool "answers reflect the new snapshot" true (body1 <> body2);
      let _, body = request_exn c "STATS" in
      check_bool "zero stale hits after the swap" true (has_infix ~affix:"cache_hits: 0" body);
      close c);
  Sys.remove snap1;
  Sys.remove snap2

let test_failpoint_worker () =
  with_server (make_env ()) (fun srv ->
      let port = Server.port srv in
      with_failpoint "server_worker" (fun () ->
          let c = connect port in
          let status, body = request_exn c "PING" in
          check_string "dispatch fault is ERR" "ERR" (Protocol.status_to_string status);
          check_bool "names the failpoint" true
            (has_infix ~affix:"server_worker" body);
          close c);
      let c = connect port in
      let status, _ = request_exn c "PING" in
      check_string "recovers once disarmed" "OK" (Protocol.status_to_string status);
      close c)

let test_failpoint_read () =
  with_server (make_env ()) (fun srv ->
      let port = Server.port srv in
      with_failpoint "server_read" (fun () ->
          let c = connect port in
          send c "PING";
          check_bool "connection is dropped" true (recv c = None);
          close c);
      let c = connect port in
      let status, _ = request_exn c "PING" in
      check_string "recovers once disarmed" "OK" (Protocol.status_to_string status);
      close c)

let test_failpoint_accept () =
  with_server (make_env ()) (fun srv ->
      let port = Server.port srv in
      with_failpoint "server_accept" (fun () ->
          let c = connect port in
          send c "PING";
          check_bool "connection is closed unserved" true (recv c = None);
          close c);
      let c = connect port in
      let status, _ = request_exn c "PING" in
      check_string "accept loop survives" "OK" (Protocol.status_to_string status);
      close c)

(* ------------------------------------------------------------------ *)
(* Self-healing: supervision, quarantine, shedding (DESIGN.md §4g) *)

let arm_n point n =
  match Failpoint.activate_n point n with
  | Ok () -> ()
  | Error msg -> Alcotest.fail msg

let wait_for ?(timeout_ms = 5000.0) pred =
  let clock = Monotime.create () in
  let rec go () =
    pred ()
    ||
    if Monotime.elapsed_ms clock > timeout_ms then false
    else begin
      Unix.sleepf 0.01;
      go ()
    end
  in
  go ()

let snapshot srv = Metrics.snapshot (Server.metrics srv)

(* One worker loss, end to end: the wedged worker's connection is
   closed unanswered, the supervisor claims the worker within the hard
   wall and a replacement restores full pool capacity. *)
let test_wedge_recovery () =
  let cfg =
    {
      Server.default_config with
      workers = 2;
      hard_wall_ms = 500.0;
      quarantine_strikes = 0 (* isolate supervision from quarantining *);
    }
  in
  with_server ~cfg (make_env ()) (fun srv ->
      let port = Server.port srv in
      arm_n "worker_wedge" 1;
      let clock = Monotime.create () in
      let c = connect port in
      send c query_line;
      (* The wedged worker notices it was superseded and closes this
         connection; the client must never be left hanging. *)
      check_bool "wedged connection is closed unanswered" true (recv c = None);
      close c;
      check_bool "lost worker replaced within 2x the hard wall" true
        (wait_for
           ~timeout_ms:(Float.max 0.0 ((2.0 *. cfg.hard_wall_ms) -. Monotime.elapsed_ms clock))
           (fun () ->
             let s = snapshot srv in
             s.lost = 1 && s.respawned = 1));
      (* Full capacity: both pool positions serve simultaneously held
         connections. *)
      let a = connect port in
      let b = connect port in
      send a "PING";
      send b "PING";
      check_bool "slot 1 serves" true (recv a <> None);
      check_bool "slot 2 serves" true (recv b <> None);
      close a;
      close b;
      check_bool "admission capacity drains" true
        (wait_for (fun () -> Server.active_connections srv = 0)))

(* A dying worker domain (uncaught-crash mode) is recovered without
   waiting out the hard wall: Dead heartbeats are claimed on the next
   scan. *)
let test_worker_die_recovery () =
  let cfg = { Server.default_config with workers = 1; hard_wall_ms = 400.0 } in
  with_server ~cfg (make_env ()) (fun srv ->
      let port = Server.port srv in
      arm_n "worker_die" 1;
      let c = connect port in
      send c query_line;
      check_bool "dying worker's connection is closed unanswered" true (recv c = None);
      close c;
      check_bool "dead domain claimed and replaced" true
        (wait_for (fun () ->
             let s = snapshot srv in
             s.lost = 1 && s.respawned = 1));
      (* With a one-worker pool, any service at all proves the
         replacement took the position. *)
      let c = connect port in
      let status, _ = request_exn c "PING" in
      check_string "replacement serves" "OK" (Protocol.status_to_string status);
      close c;
      check_bool "admission capacity drains" true
        (wait_for (fun () -> Server.active_connections srv = 0)))

(* A respawn that cannot spawn (the runtime's domain limit, simulated
   by the [worker_respawn] point) leaves the position empty, and the
   next supervision tick tries again: the dead worker's replacement
   arrives after two failed attempts, and serves. *)
let test_failpoint_respawn () =
  let cfg = { Server.default_config with workers = 1; hard_wall_ms = 400.0 } in
  Fun.protect ~finally:Failpoint.reset (fun () ->
      with_server ~cfg (make_env ()) (fun srv ->
          let port = Server.port srv in
          arm_n "worker_respawn" 2;
          arm_n "worker_die" 1;
          let c = connect port in
          send c query_line;
          check_bool "dying worker's connection is closed unanswered" true (recv c = None);
          close c;
          check_bool "replaced once the respawn succeeds" true
            (wait_for (fun () ->
                 let s = snapshot srv in
                 s.lost = 1 && s.respawned = 1));
          check_bool "both failed respawns were retried" false
            (Failpoint.is_active "worker_respawn");
          let c = connect port in
          let status, _ = request_exn c "PING" in
          check_string "replacement serves" "OK" (Protocol.status_to_string status);
          close c))

(* The same query shape costing [quarantine_strikes] workers is then
   fast-rejected QUARANTINED — provably before evaluation: with the
   executor failpoint armed, the quarantined shape still answers
   QUARANTINED while a different shape trips the injected fault. *)
let test_quarantine () =
  let cfg =
    { Server.default_config with workers = 1; hard_wall_ms = 300.0; quarantine_strikes = 2 }
  in
  with_server ~cfg (make_env ()) (fun srv ->
      let port = Server.port srv in
      arm_n "worker_wedge" 2;
      for i = 1 to 2 do
        let c = connect port in
        send c query_line;
        check_bool (Printf.sprintf "loss %d closes the connection" i) true (recv c = None);
        close c;
        check_bool
          (Printf.sprintf "loss %d repaired" i)
          true
          (wait_for (fun () -> (snapshot srv).respawned = i))
      done;
      with_failpoint "exec.run" (fun () ->
          let c = connect port in
          let status, body = request_exn c query_line in
          check_string "third attempt is QUARANTINED" "QUARANTINED"
            (Protocol.status_to_string status);
          check_bool "body reports the strike count" true
            (has_infix ~affix:"2 worker loss" body);
          (* The connection survives a quarantine reject, and a
             different shape still reaches the (faulted) executor. *)
          let status, body = request_exn c "QUERY k=3 //section[./algorithm]" in
          check_string "different shape reaches evaluation" "ERR"
            (Protocol.status_to_string status);
          check_bool "and trips the armed executor fault" true (has_infix ~affix:"exec.run" body);
          close c);
      check_int "quarantine reject counted" 1 (snapshot srv).quarantine_rejects)

(* Queue-deadline shedding: a connection whose queue sojourn exceeded
   the bound is answered OVERLOADED with a retry hint instead of being
   served — the worker never spends execution on it. *)
let test_queue_deadline_shed () =
  let cfg =
    {
      Server.default_config with
      workers = 1;
      queue_depth = 4;
      queue_deadline_ms = Some 100.0;
      hard_wall_ms = 400.0;
      quarantine_strikes = 0;
    }
  in
  with_server ~cfg (make_env ()) (fun srv ->
      let port = Server.port srv in
      (* [a]'s request wedges the only worker; [b]'s request queues and
         goes stale behind it.  The replacement worker spawned after
         the hard wall finds [b]'s job over its sojourn bound and sheds
         it instead of serving it. *)
      (match Failpoint.activate_n "worker_wedge" 1 with
      | Ok () -> ()
      | Error msg -> Alcotest.fail msg);
      let a = connect port in
      send a query_line;
      Unix.sleepf 0.15;
      let b = connect port in
      send b "PING";
      check_bool "wedged connection is closed unanswered" true (recv a = None);
      close a;
      (match recv b with
      | Some (Protocol.Overloaded, body) -> (
        match Protocol.parse_retry_after body with
        | Some ms -> check_bool "retry hint is positive" true (ms > 0)
        | None -> Alcotest.fail "shed response carries no retry-after-ms")
      | Some (status, _) ->
        Alcotest.fail ("expected OVERLOADED, got " ^ Protocol.status_to_string status)
      | None -> Alcotest.fail "expected an OVERLOADED response, got EOF");
      check_bool "shed connection is closed" true (recv b = None);
      close b;
      (* A fresh connection is served promptly afterwards. *)
      let c = connect port in
      let status, _ = request_exn c "PING" in
      check_string "fresh connection served" "OK" (Protocol.status_to_string status);
      close c;
      check_int "the shed was counted" 1 (snapshot srv).shed;
      check_bool "admission capacity drains" true
        (wait_for (fun () -> Server.active_connections srv = 0)))

(* ------------------------------------------------------------------ *)
(* The retrying client *)

let test_client_deadline_rewrite () =
  check_string "inserted when absent" "QUERY timeout_ms=500.000 k=3 //a"
    (Client.with_deadline "QUERY k=3 //a" 500.0);
  check_string "loose explicit value tightened" "QUERY timeout_ms=200.000 //a"
    (Client.with_deadline "QUERY timeout_ms=9000 //a" 200.0);
  check_string "tighter explicit value kept" "QUERY timeout_ms=50.000 //a"
    (Client.with_deadline "QUERY timeout_ms=50 //a" 200.0);
  check_string "xpath internals untouched"
    "QUERY timeout_ms=100.000 //a[.contains(\"x\" and \"y\")]"
    (Client.with_deadline "QUERY //a[.contains(\"x\" and \"y\")]" 100.0);
  check_string "non-QUERY lines verbatim" "PING" (Client.with_deadline "PING" 100.0);
  check_string "RELAX lines verbatim" "RELAX steps=2 //a"
    (Client.with_deadline "RELAX steps=2 //a" 100.0)

(* An injected send fault costs one attempt, not the run: the client
   reconnects, retries, and the retry is counted. *)
let test_client_send_retry () =
  with_server (make_env ()) (fun srv ->
      arm_n "client_send" 1;
      let retry =
        { Client.default_retry with retries = 2; budget_ms = Some 5000.0; base_backoff_ms = 5.0 }
      in
      (match
         Client.run ~metrics:(Server.metrics srv)
           ~rng:(Random.State.make [| 42 |])
           ~port:(Server.port srv) ~retry [ "PING"; "PING" ]
       with
      | Ok [ (s1, b1); (s2, b2) ] ->
        check_string "first response" "OK" (Protocol.status_to_string s1);
        check_string "first body" "pong" b1;
        check_string "second response" "OK" (Protocol.status_to_string s2);
        check_string "second body" "pong" b2
      | Ok rs -> Alcotest.failf "expected 2 responses, got %d" (List.length rs)
      | Error (f, _) -> Alcotest.fail (Client.failure_to_string f));
      check_int "exactly one retry" 1 (snapshot srv).retries)

(* OVERLOADED is retried with backoff honoring the server's hint: once
   the saturation clears, the same run completes successfully. *)
let test_client_overload_retry () =
  let cfg =
    {
      Server.default_config with
      workers = 1;
      queue_depth = 1;
      hard_wall_ms = 400.0;
      quarantine_strikes = 0;
    }
  in
  with_server ~cfg (make_env ()) (fun srv ->
      let port = Server.port srv in
      (* [a]'s request wedges the only worker, [b]'s request fills the
         queue: the client's first attempt is fast-rejected.
         Supervision clears the saturation (replacement worker drains
         [b]) while the client is backing off. *)
      (match Failpoint.activate_n "worker_wedge" 1 with
      | Ok () -> ()
      | Error msg -> Alcotest.fail msg);
      let a = connect port in
      send a query_line;
      Unix.sleepf 0.2;
      let b = connect port in
      send b "PING";
      let retry =
        {
          Client.retries = 8;
          budget_ms = Some 8000.0;
          base_backoff_ms = 20.0;
          max_backoff_ms = 200.0;
        }
      in
      (match
         Client.run ~metrics:(Server.metrics srv)
           ~rng:(Random.State.make [| 7 |])
           ~port ~retry [ "PING" ]
       with
      | Ok [ (s, body) ] ->
        check_string "eventually served" "OK" (Protocol.status_to_string s);
        check_string "served body" "pong" body
      | Ok _ -> Alcotest.fail "expected exactly one response"
      | Error (f, _) -> Alcotest.fail (Client.failure_to_string f));
      check_bool "wedged connection is closed unanswered" true (recv a = None);
      close a;
      close b;
      check_bool "the overloaded attempts were counted as retries" true
        ((snapshot srv).retries >= 1))

(* A budget with no capacity fails fast as Budget_exhausted rather
   than hanging or spinning. *)
let test_client_budget_exhausted () =
  with_server (make_env ()) (fun srv ->
      let retry = { Client.default_retry with retries = 5; budget_ms = Some 0.0 } in
      match Client.run ~port:(Server.port srv) ~retry [ "PING" ] with
      | Ok _ -> Alcotest.fail "a zero budget must not complete"
      | Error (Client.Budget_exhausted, completed) ->
        check_int "nothing completed" 0 (List.length completed)
      | Error (f, _) -> Alcotest.failf "expected Budget_exhausted, got %s"
                          (Client.failure_to_string f))

(* ------------------------------------------------------------------ *)
(* Chaos soak: randomized worker losses, read faults and snapshot
   faults under 500+ concurrent requests.  The assertions are about
   what must never happen — a hang, leaked admission capacity, a
   permanently shrunk pool, or a loss without a replacement. *)

let test_chaos_soak () =
  let env = make_env ~count:40 () in
  let snap_path = save_snapshot env in
  let cfg =
    {
      Server.default_config with
      workers = 4;
      queue_depth = 64;
      max_connections = 256;
      hard_wall_ms = 300.0;
      quarantine_strikes = 3;
      queue_deadline_ms = Some 2000.0;
      read_timeout_s = 5.0;
      snapshot = Some snap_path;
    }
  in
  with_server ~cfg env (fun srv ->
      let port = Server.port srv in
      let stop_inject = Atomic.make false in
      (* Counted arming (one hit per activation) is what keeps an
         injected wedge from also wedging the replacement worker. *)
      let injector =
        Domain.spawn (fun () ->
            let rng = Random.State.make [| 0xC0FFEE |] in
            let points =
              [| "worker_wedge"; "worker_die"; "server_read"; "storage_read_section" |]
            in
            while not (Atomic.get stop_inject) do
              Unix.sleepf (0.02 +. Random.State.float rng 0.08);
              ignore (Failpoint.activate_n points.(Random.State.int rng 4) 1)
            done)
      in
      let request_pool =
        [|
          query_line;
          "QUERY k=3 algo=dpo //article[./section/paragraph]";
          "RELAX steps=2 //article[./section/paragraph]";
          "PING";
          "RELOAD";
        |]
      in
      let drive seed () =
        let rng = Random.State.make [| seed |] in
        let settled = ref 0 in
        for _ = 1 to 64 do
          let line = request_pool.(Random.State.int rng (Array.length request_pool)) in
          match connect port with
          | exception Unix.Unix_error _ -> incr settled (* refused is a deterministic end too *)
          | c ->
            (* Any framed response — or a clean close — is acceptable;
               what is not acceptable is hanging (the run would never
               finish) or a protocol-level corruption (recv would
               produce garbage statuses, caught below as None). *)
            (match request c line with Some _ | None -> incr settled);
            close c
        done;
        !settled
      in
      let drivers = Array.init 8 (fun i -> Domain.spawn (drive (100 + i))) in
      let settled = Array.fold_left (fun acc d -> acc + Domain.join d) 0 drivers in
      Atomic.set stop_inject true;
      Domain.join injector;
      Failpoint.reset ();
      check_int "all 512 concurrent requests reached a deterministic end" 512 settled;
      (* Conservation: once traffic drains, no admitted connection may
         still be counted — sheds, losses and serves all settle the
         accounting exactly once. *)
      check_bool "admission capacity drains to zero" true
        (wait_for ~timeout_ms:10_000.0 (fun () -> Server.active_connections srv = 0));
      check_bool "every lost worker was replaced" true
        (wait_for ~timeout_ms:10_000.0 (fun () ->
             let s = snapshot srv in
             s.lost = s.respawned));
      (* Pool capacity is fully restored: [workers] simultaneously held
         connections must all be served. *)
      let held = Array.init cfg.workers (fun _ -> connect port) in
      Array.iter (fun c -> send c "PING") held;
      Array.iter
        (fun c ->
          match recv c with
          | Some (Protocol.Ok_, "pong") -> ()
          | _ -> Alcotest.fail "a worker position did not survive the soak")
        held;
      Array.iter close held;
      (* Deterministic quarantine coda on a shape the soak never used:
         three injected losses in a row, then the shape is refused. *)
      let poison = "QUERY k=2 //article[./title]" in
      for i = 1 to 3 do
        let before = (snapshot srv).respawned in
        arm_n "worker_wedge" 1;
        let c = connect port in
        send c poison;
        check_bool (Printf.sprintf "poison loss %d closes the connection" i) true (recv c = None);
        close c;
        check_bool
          (Printf.sprintf "poison loss %d repaired" i)
          true
          (wait_for (fun () -> (snapshot srv).respawned = before + 1))
      done;
      let c = connect port in
      let status, _ = request_exn c poison in
      check_string "poison shape quarantined" "QUARANTINED" (Protocol.status_to_string status);
      close c;
      let s = snapshot srv in
      check_bool "quarantine fired" true (s.quarantine_rejects >= 1);
      check_bool "losses and respawns balance after the coda" true (s.lost = s.respawned);
      check_bool "soak actually served traffic" true (s.served > 0);
      check_bool "final drain leaves zero active connections" true
        (wait_for (fun () -> Server.active_connections srv = 0)));
  Sys.remove snap_path

(* ------------------------------------------------------------------ *)
(* Live ingestion over the wire (DESIGN.md §4h) *)

let test_ingest_wire () =
  with_ingest_dir (fun ~prefix ->
      with_server ~cfg:(ingest_cfg ~prefix ()) (placeholder_env ()) (fun srv ->
          let c = connect (Server.port srv) in
          (* An acked write is visible to the very next QUERY. *)
          let status, body = request_ingest_exn c ~id:"a" (article "xml streaming") in
          check_string "ingest acked" "OK" (Protocol.status_to_string status);
          check_string "ack names the id, the shard and the generation vector"
            "ingested a; shard 0; generations 1" body;
          let status, body = request_exn c "QUERY k=3 //article[.contains(\"streaming\")]" in
          check_string "query sees the new document" "OK" (Protocol.status_to_string status);
          check_bool "the answer is inside the ingested document" true
            (has_infix ~affix:"a/article[1]" body);
          (* Anonymous ingest auto-assigns doc-N. *)
          let status, body = request_ingest_exn c (article "anonymous") in
          check_string "anonymous ingest acked" "OK" (Protocol.status_to_string status);
          check_bool "auto id assigned" true (has_infix ~affix:"ingested doc-" body);
          let auto_id = Scanf.sscanf body "ingested %s@;" Fun.id in
          (* Upsert: re-ingesting an id replaces its content. *)
          let _ = request_ingest_exn c ~id:"a" (article "replacement text") in
          let status, body = request_exn c "QUERY k=3 //article[.contains(\"streaming\")]" in
          check_string "upsert query ok" "OK" (Protocol.status_to_string status);
          check_bool "old content no longer matches exactly" true
            (body = "" || not (has_infix ~affix:"exact" body));
          (* DELETE. *)
          let status, _ = request_exn c ("DELETE " ^ auto_id) in
          check_string "delete acked" "OK" (Protocol.status_to_string status);
          let status, body = request_exn c "DELETE nope" in
          check_string "unknown id is ERR" "ERR" (Protocol.status_to_string status);
          check_bool "delete error names the id" true (has_infix ~affix:"nope" body);
          (* STATS gauges: the generation vector, staleness_ms and
             wal_replayed_records. *)
          let _, body = request_exn c "STATS" in
          List.iter
            (fun needle ->
              check_bool (Printf.sprintf "stats has %s" needle) true (has_infix ~affix:needle body))
            [
              "generation_vector: ";
              "staleness_ms: ";
              "wal_replayed_records: 0";
              "delta_docs: 4";
              "wal_bytes: ";
              "corpus_docs: 1";
              "ingests: 3";
              "deletes: 1";
            ];
          (* RELOAD reopens shard 0 from its snapshot + WAL; the
             replayed corpus answers exactly as before. *)
          let query = "QUERY k=3 //article[.contains(\"replacement\")]" in
          let _, before = request_exn c query in
          let status, body = request_exn c "RELOAD" in
          check_string "reload ok under ingestion" "OK" (Protocol.status_to_string status);
          check_bool "reload names shard 0" true (has_infix ~affix:"reloaded shard(s) 0" body);
          let status, after = request_exn c query in
          check_string "post-reload query ok" "OK" (Protocol.status_to_string status);
          check_string "post-reload answers unchanged" before after;
          (* MERGE folds the deltas and truncates the WAL. *)
          let status, body = request_exn c "MERGE" in
          check_string "merge ok" "OK" (Protocol.status_to_string status);
          check_bool "merge reports the folded records" true
            (has_infix ~affix:"4 delta record(s)" body);
          let _, body = request_exn c "STATS" in
          check_bool "no deltas after merge" true (has_infix ~affix:"delta_docs: 0" body);
          check_bool "snapshot exists after merge" true (Sys.file_exists (prefix ^ ".shard0"));
          (* Merged state serves identically. *)
          let status, _ = request_exn c "QUERY k=3 //article[.contains(\"replacement\")]" in
          check_string "post-merge query ok" "OK" (Protocol.status_to_string status);
          close c))

let test_ingest_not_enabled () =
  with_server (make_env ()) (fun srv ->
      let c = connect (Server.port srv) in
      (* The body is read and discarded even though the write is
         refused, so the connection stays line-synchronized. *)
      let status, body = request_ingest_exn c ~id:"a" "<doc/>" in
      check_string "ingest without a store is ERR" "ERR" (Protocol.status_to_string status);
      check_bool "error names the flag" true (has_infix ~affix:"--shards" body);
      let status, _ = request_exn c "MERGE" in
      check_string "merge without a store is ERR" "ERR" (Protocol.status_to_string status);
      let status, _ = request_exn c "PING" in
      check_string "connection survives in sync" "OK" (Protocol.status_to_string status);
      close c)

let test_ingest_write_lane_zero () =
  with_ingest_dir (fun ~prefix ->
      with_server ~cfg:(ingest_cfg ~write_lane:0 ~prefix ()) (placeholder_env ()) (fun srv ->
          let c = connect (Server.port srv) in
          (match request_ingest c ~id:"a" "<doc/>" with
          | Some (Protocol.Overloaded, body) ->
            check_bool "write reject carries a retry hint" true
              (Protocol.parse_retry_after body <> None)
          | Some (status, _) ->
            Alcotest.fail ("expected OVERLOADED, got " ^ Protocol.status_to_string status)
          | None -> Alcotest.fail "expected an OVERLOADED response, got EOF");
          let status, _ = request_exn c "PING" in
          check_string "reads unaffected by the write lane" "OK"
            (Protocol.status_to_string status);
          check_int "the reject was counted" 1 (snapshot srv).writes_rejected;
          close c))

let test_ingest_restart_replay () =
  with_ingest_dir (fun ~prefix ->
      let cfg = ingest_cfg ~prefix () in
      with_server ~cfg (placeholder_env ()) (fun srv ->
          let c = connect (Server.port srv) in
          let _ = request_ingest_exn c ~id:"a" (article "first") in
          let _ = request_ingest_exn c ~id:"b" (article "second") in
          let _ = request_exn c "DELETE a" in
          close c);
      (* No merge ran: every acked write lives only in the WAL.  A
         fresh server over the same paths must replay to exactly the
         acked set. *)
      with_server ~cfg (placeholder_env ()) (fun srv ->
          let c = connect (Server.port srv) in
          let _, body = request_exn c "STATS" in
          check_bool "all three records replayed" true
            (has_infix ~affix:"wal_replayed_records: 3" body);
          check_bool "replay reaches the acked document set" true
            (has_infix ~affix:"corpus_docs: 1" body);
          let corpus =
            match Server.corpus srv with
            | Some c -> c
            | None -> Alcotest.fail "corpus missing"
          in
          check_bool "only b survives" true (Corpus.ids corpus = [ "b" ]);
          let status, body = request_exn c "QUERY k=3 //article[.contains(\"second\")]" in
          check_string "replayed document serves" "OK" (Protocol.status_to_string status);
          check_bool "replayed document matches" true (has_infix ~affix:"b/article[1]" body);
          close c))

let test_ingest_failpoints () =
  with_ingest_dir (fun ~prefix ->
      with_server ~cfg:(ingest_cfg ~prefix ()) (placeholder_env ()) (fun srv ->
          let c = connect (Server.port srv) in
          let _ = request_ingest_exn c ~id:"keep" (article "durable baseline") in
          (* A WAL fault fails the write — and MUST leave it out of both
             the corpus and the log (the ack is the commit point). *)
          List.iter
            (fun point ->
              arm_n point 1;
              let status, body = request_ingest_exn c ~id:"ghost" (article "never lands") in
              check_string (point ^ " fails the write") "ERR" (Protocol.status_to_string status);
              check_bool (point ^ " is named") true (has_infix ~affix:point body);
              let status, body = request_exn c "QUERY k=5 //article[.contains(\"never\")]" in
              check_string "rejected write is invisible" "OK" (Protocol.status_to_string status);
              check_bool "no ghost answers" true (not (has_infix ~affix:"ghost" body)))
            [ "wal_append"; "wal_fsync" ];
          (* A merge-publish fault loses nothing: the snapshot/WAL
             overlap window is replay-idempotent, and the next merge
             completes. *)
          arm_n "merge_publish" 1;
          let status, _ = request_exn c "MERGE" in
          check_string "faulted merge is ERR" "ERR" (Protocol.status_to_string status);
          let status, body = request_exn c "QUERY k=3 //article[.contains(\"durable\")]" in
          check_string "corpus intact after the faulted merge" "OK"
            (Protocol.status_to_string status);
          check_bool "baseline still answers" true (has_infix ~affix:"keep/article[1]" body);
          let status, _ = request_exn c "MERGE" in
          check_string "retried merge succeeds" "OK" (Protocol.status_to_string status);
          let _, body = request_exn c "STATS" in
          check_bool "merge failure was counted" true (has_infix ~affix:"merge_failures: 1" body);
          check_bool "wal empty after the retried merge" true
            (has_infix ~affix:"delta_docs: 0" body);
          close c;
          Failpoint.reset ()))

(* The write-idempotency rule, end to end: after an ambiguous outcome
   (connection died before any response), an anonymous INGEST must
   fail fast — only an explicit id may be retried. *)
let test_ingest_retry_idempotency () =
  with_ingest_dir (fun ~prefix ->
      with_server ~cfg:(ingest_cfg ~prefix ()) (placeholder_env ()) (fun srv ->
          let port = Server.port srv in
          let retry =
            { Client.default_retry with retries = 3; budget_ms = Some 5000.0; base_backoff_ms = 5.0 }
          in
          arm_n "server_read" 1;
          (match
             Client.run_requests ~metrics:(Server.metrics srv)
               ~rng:(Random.State.make [| 3 |])
               ~port ~retry
               [ Client.ingest_request (article "anonymous") ]
           with
          | Ok _ -> Alcotest.fail "an ambiguous anonymous INGEST must not be retried"
          | Error (Client.No_response, completed) ->
            check_int "nothing completed" 0 (List.length completed)
          | Error (f, _) ->
            Alcotest.failf "expected No_response, got %s" (Client.failure_to_string f));
          check_int "no retry was attempted" 0 (snapshot srv).retries;
          arm_n "server_read" 1;
          (match
             Client.run_requests ~metrics:(Server.metrics srv)
               ~rng:(Random.State.make [| 4 |])
               ~port ~retry
               [ Client.ingest_request ~id:"idem" (article "retried upsert") ]
           with
          | Ok [ (Protocol.Ok_, body) ] ->
            check_bool "retried upsert acked" true (has_infix ~affix:"ingested idem" body)
          | Ok _ -> Alcotest.fail "expected exactly one OK response"
          | Error (f, _) -> Alcotest.fail (Client.failure_to_string f));
          check_bool "the identified write was retried" true ((snapshot srv).retries >= 1)))

(* ------------------------------------------------------------------ *)
(* Mixed query+write chaos soak (the PR's acceptance gate): writers
   upserting and deleting under WAL/merge/worker faults, readers
   querying throughout, for FLEXPATH_SOAK_S seconds (default 5, as in
   CI; set it higher for a long soak).
   Nothing may be dropped or answered ERR; after quiescing, the served
   corpus must answer byte-identically to an offline rebuild of its
   own acked document set, and every certainly-acked write must be
   present (and every certainly-acked delete absent). *)

let soak_seconds () =
  match Sys.getenv_opt "FLEXPATH_SOAK_S" with
  | Some s -> ( match float_of_string_opt s with Some v when v > 0.0 -> v | _ -> 5.0)
  | None -> 5.0

(* Node id and float bits of each answer, in rank order. *)
let fingerprint answers =
  String.concat ";"
    (List.map
       (fun (node, sscore, kscore) ->
         Printf.sprintf "%d:%Lx:%Lx" node (Int64.bits_of_float sscore) (Int64.bits_of_float kscore))
       answers)

let soak_queries =
  [
    "QUERY k=5 //article[.contains(\"xml\" and \"soak\")]";
    "QUERY k=3 algo=dpo //article[./section/paragraph]";
    "QUERY k=3 algo=sso //article[./section/paragraph]";
    "QUERY k=4 scheme=combined //article[./title]";
    "PING";
    "STATS";
  ]

let test_ingest_chaos_soak () =
  with_ingest_dir (fun ~prefix ->
      let cfg =
        {
          (ingest_cfg ~merge_interval_ms:300.0 ~write_lane:8 ~prefix ()) with
          Server.workers = 4;
          queue_depth = 64;
          max_connections = 256;
          hard_wall_ms = 500.0;
          quarantine_strikes = 0;
          read_timeout_s = 5.0;
        }
      in
      with_server ~cfg (placeholder_env ()) (fun srv ->
          let port = Server.port srv in
          let deadline = soak_seconds () *. 1000.0 in
          let clock = Monotime.create () in
          let running () = Monotime.elapsed_ms clock < deadline in
          let stop_inject = Atomic.make false in
          let injector =
            Domain.spawn (fun () ->
                let rng = Random.State.make [| 0xFEED |] in
                let points =
                  [| "wal_append"; "wal_fsync"; "merge_publish"; "worker_wedge"; "worker_die" |]
                in
                while not (Atomic.get stop_inject) do
                  Unix.sleepf (0.05 +. Random.State.float rng 0.15);
                  ignore (Failpoint.activate_n points.(Random.State.int rng (Array.length points)) 1)
                done)
          in
          (* Each writer owns a disjoint id pool, so its own sequential
             acks are the ground truth for those ids.  [certain] maps
             id -> Some xml (last acked content) / None (acked delete);
             an exhausted retry run leaves the fate ambiguous, so the
             id moves to [uncertain] and is excluded from the final
             presence check (the equivalence check below covers it
             regardless, since it rebuilds from the server's own
             corpus). *)
          let writer w () =
            let rng = Random.State.make [| 0xAB + w |] in
            let certain : (string, string option) Hashtbl.t = Hashtbl.create 16 in
            let uncertain : (string, unit) Hashtbl.t = Hashtbl.create 16 in
            let retry =
              {
                Client.retries = 6;
                budget_ms = Some 8000.0;
                base_backoff_ms = 10.0;
                max_backoff_ms = 200.0;
              }
            in
            let n = ref 0 in
            while running () do
              incr n;
              let id = Printf.sprintf "w%d-%d" w (Random.State.int rng 8) in
              let delete = Hashtbl.mem certain id && Random.State.int rng 4 = 0 in
              if delete then begin
                match
                  Client.run_requests ~metrics:(Server.metrics srv) ~rng ~port ~retry
                    [ { Client.line = "DELETE " ^ id; body = None } ]
                with
                | Ok [ (Protocol.Ok_, _) ] -> Hashtbl.replace certain id None
                | Ok _ -> () (* ERR: definitive, nothing changed *)
                | Error _ ->
                  Hashtbl.remove certain id;
                  Hashtbl.replace uncertain id ()
              end
              else begin
                let xml = article (Printf.sprintf "xml soak writer %d revision %d" w !n) in
                match
                  Client.run_requests ~metrics:(Server.metrics srv) ~rng ~port ~retry
                    [ Client.ingest_request ~id xml ]
                with
                | Ok [ (Protocol.Ok_, _) ] -> Hashtbl.replace certain id (Some xml)
                | Ok _ -> () (* ERR (e.g. an injected WAL fault): not applied *)
                | Error _ ->
                  Hashtbl.remove certain id;
                  Hashtbl.replace uncertain id ()
              end
            done;
            (certain, uncertain)
          in
          (* Readers: every query must settle OK or PARTIAL — an ERR or
             an exhausted retry run is a dropped query, and the soak
             fails. *)
          let reader r () =
            let rng = Random.State.make [| 0xCD + r |] in
            let retry =
              {
                Client.retries = 6;
                budget_ms = Some 8000.0;
                base_backoff_ms = 10.0;
                max_backoff_ms = 200.0;
              }
            in
            let bad = ref 0 and done_ = ref 0 in
            while running () do
              let q = List.nth soak_queries (Random.State.int rng (List.length soak_queries)) in
              (match Client.run ~metrics:(Server.metrics srv) ~rng ~port ~retry [ q ] with
              | Ok [ ((Protocol.Ok_ | Protocol.Partial), _) ] -> incr done_
              | Ok _ | Error _ -> incr bad);
              Unix.sleepf 0.002
            done;
            (!done_, !bad)
          in
          (* Staleness monitor: sample the gauge through the soak. *)
          let max_staleness = Atomic.make 0.0 in
          let corpus = Option.get (Server.corpus srv) in
          let monitor () =
            while running () do
              let s = (Corpus.health corpus).(0).Corpus.h_staleness_ms in
              if s > Atomic.get max_staleness then Atomic.set max_staleness s;
              Unix.sleepf 0.05
            done
          in
          let writers = Array.init 3 (fun w -> Domain.spawn (writer w)) in
          let readers = Array.init 3 (fun r -> Domain.spawn (reader r)) in
          let mon = Domain.spawn monitor in
          let states = Array.map Domain.join writers in
          let reads = Array.map Domain.join readers in
          Domain.join mon;
          Atomic.set stop_inject true;
          Domain.join injector;
          Failpoint.reset ();
          (* Zero dropped or erroneous queries, and real coverage. *)
          let served = Array.fold_left (fun acc (d, _) -> acc + d) 0 reads in
          let bad = Array.fold_left (fun acc (_, b) -> acc + b) 0 reads in
          check_int "zero dropped or erroneous queries" 0 bad;
          check_bool "the soak actually served queries" true (served > 50);
          (* Quiesce: a final MERGE must land and zero the lag. *)
          let c = connect port in
          let status, _ = request_exn c "MERGE" in
          check_string "quiescing merge" "OK" (Protocol.status_to_string status);
          check_int "no deltas after the quiescing merge" 0 (Corpus.merge_backlog corpus 0);
          check_bool "staleness returns to zero" true
            ((Corpus.health corpus).(0).Corpus.h_staleness_ms = 0.0);
          (* Staleness stayed bounded while the merge domain was under
             fault injection: well under the soak length, and within a
             modest multiple of the merge interval + the write burst. *)
          check_bool "staleness bounded through the soak" true
            (Atomic.get max_staleness < Float.min deadline 20_000.0);
          (* Every certainly-acked write present with its last content;
             every certainly-acked delete absent — unless a later
             outcome for that id was ambiguous. *)
          let docs = Ingest.docs (Result.get_ok (Ingest.of_env (Corpus.scoring_env corpus))) in
          let served_tbl = Hashtbl.create 64 in
          List.iter (fun (id, tree) -> Hashtbl.replace served_tbl id tree) docs;
          Array.iter
            (fun (certain, uncertain) ->
              Hashtbl.iter
                (fun id fate ->
                  if not (Hashtbl.mem uncertain id) then
                    match fate with
                    | Some xml ->
                      let expected =
                        Xmldom.Xml.to_string (Result.get_ok (Ingest.parse_doc xml))
                      in
                      (match Hashtbl.find_opt served_tbl id with
                      | None -> Alcotest.failf "acked document %s missing after the soak" id
                      | Some tree ->
                        check_string
                          (Printf.sprintf "acked content of %s" id)
                          expected (Xmldom.Xml.to_string tree))
                    | None ->
                      check_bool
                        (Printf.sprintf "deleted document %s absent" id)
                        false (Hashtbl.mem served_tbl id))
                certain)
            states;
          (* Merge-equivalence at full scale: the incrementally grown,
             fault-injected, merged corpus must answer byte-identically
             to an offline rebuild of the same documents. *)
          let rebuilt =
            match Ingest.of_docs docs with
            | Ok c -> Ingest.env c
            | Error e -> Alcotest.fail (Error.to_string e)
          in
          List.iter
            (fun q ->
              match Tpq.Xpath.parse q with
              | Error _ -> Alcotest.fail "bad soak query"
              | Ok query ->
                List.iter
                  (fun algorithm ->
                    let offline =
                      match Flexpath.run ~algorithm rebuilt ~k:5 query with
                      | Ok r ->
                        fingerprint
                          (List.map
                             (fun (a : Flexpath.Answer.t) -> (a.node, a.sscore, a.kscore))
                             r.Flexpath.Common.answers)
                      | Error e -> Alcotest.fail (Error.to_string e)
                    in
                    let served =
                      match Corpus.query corpus ~use_cache:false ~algorithm ~k:5 query with
                      | Ok r ->
                        fingerprint
                          (List.map
                             (fun (a : Corpus.answer) -> (a.a_node, a.a_sscore, a.a_kscore))
                             r.Corpus.answers)
                      | Error e -> Alcotest.fail (Error.to_string e)
                    in
                    check_string
                      (Printf.sprintf "offline rebuild equivalence (%s)"
                         (Flexpath.algorithm_to_string algorithm))
                      offline served)
                  [ Flexpath.DPO; Flexpath.SSO; Flexpath.Hybrid ])
            [
              "//article[.contains(\"xml\" and \"soak\")]";
              "//article[./section/paragraph]";
              "//article[./title]";
            ];
          close c;
          (* The standing robustness invariants hold here too. *)
          let s = snapshot srv in
          check_bool "every lost worker was replaced" true
            (wait_for (fun () ->
                 let s = snapshot srv in
                 s.lost = s.respawned));
          check_bool "soak exercised the write path" true (s.ingests > 10);
          check_bool "admission capacity drains to zero" true
            (wait_for ~timeout_ms:10_000.0 (fun () -> Server.active_connections srv = 0))))

(* ------------------------------------------------------------------ *)

(* ------------------------------------------------------------------ *)
(* Sharded corpus over the wire (DESIGN.md §4i): scatter-gather
   serving, SHARDS health, per-shard RELOAD, the PARTIAL shards=s/t
   wire contract under shard loss, and write-lane retry hints that
   reflect the routed shard's merge backlog. *)

let shard_cfg ?(merge_interval_ms = 0.0) ?(write_lane = 4) ?(shards = 3) ?(replicas = 1)
    ?probation_ms ~prefix () =
  let d = Server.ingest_defaults in
  {
    Server.default_config with
    workers = 2;
    snapshot = Some prefix;
    ingest =
      Some
        {
          d with
          Server.merge_interval_ms;
          write_lane;
          shards;
          replicas;
          probation_ms = Option.value probation_ms ~default:d.Server.probation_ms;
        };
  }

(* An id that the 3-shard router places on [shard]. *)
let id_on ?(shards = 3) shard =
  let rec go i =
    let id = Printf.sprintf "w%d" i in
    if Corpus.route ~shards id = shard then id else go (i + 1)
  in
  go 0

let arm_probe n =
  match Failpoint.activate_n "shard_probe" n with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

let shard_article i =
  Printf.sprintf
    "<article><title>shard</title><section><paragraph>xml payload %d</paragraph></section></article>"
    i

let test_shard_wire () =
  with_ingest_dir (fun ~prefix ->
      with_server ~cfg:(shard_cfg ~prefix ()) (placeholder_env ()) (fun srv ->
          let c = connect (Server.port srv) in
          (* Writes route by id; the ack names the shard and the
             generation vector. *)
          for i = 0 to 8 do
            let id = Printf.sprintf "w%d" i in
            let status, body = request_ingest_exn c ~id (shard_article i) in
            check_string (Printf.sprintf "ingest %s acked" id) "OK"
              (Protocol.status_to_string status);
            check_bool "ack names the routed shard" true
              (has_infix ~affix:(Printf.sprintf "shard %d" (Corpus.route ~shards:3 id)) body)
          done;
          (* A healthy scatter-gather is COMPLETE: plain OK, no header. *)
          let status, answers1 = request_exn c "QUERY k=5 //article[.contains(\"xml\")]" in
          check_string "healthy query is OK" "OK" (Protocol.status_to_string status);
          check_bool "no partial header" true (not (has_infix ~affix:"# partial" answers1));
          check_bool "answers carry doc-relative locations" true (has_infix ~affix:"w" answers1);
          (* SHARDS: one health line per shard, all live. *)
          let status, body = request_exn c "SHARDS" in
          check_string "shards verb ok" "OK" (Protocol.status_to_string status);
          List.iter
            (fun ord ->
              check_bool
                (Printf.sprintf "shard %d reported live" ord)
                true
                (has_infix ~affix:(Printf.sprintf "shard %d: live" ord) body))
            [ 0; 1; 2 ];
          (* STATS grows the shard gauges. *)
          let _, body = request_exn c "STATS" in
          List.iter
            (fun needle ->
              check_bool (Printf.sprintf "stats has %s" needle) true (has_infix ~affix:needle body))
            [ "shards: 3/3"; "generation_vector: "; "shard 0: live"; "corpus_docs: 9" ];
          (* MERGE compacts every shard with a backlog, independently. *)
          let status, body = request_exn c "MERGE" in
          check_string "merge ok" "OK" (Protocol.status_to_string status);
          check_bool "merge reports records and shards" true
            (has_infix ~affix:"9 delta record(s)" body && has_infix ~affix:"3 shard(s)" body);
          check_bool "per-shard snapshots exist" true
            (Sys.file_exists (prefix ^ ".shard0") && Sys.file_exists (prefix ^ ".shard2"));
          (* RELOAD <ord> swaps exactly one shard. *)
          let status, body = request_exn c "RELOAD 1" in
          check_string "single-shard reload ok" "OK" (Protocol.status_to_string status);
          check_bool "reload names the shard" true (has_infix ~affix:"reloaded shard(s) 1" body);
          let status, _ = request_exn c "RELOAD 99" in
          check_string "out-of-range shard is ERR" "ERR" (Protocol.status_to_string status);
          (* The reloaded corpus serves identically. *)
          let status, answers2 = request_exn c "QUERY k=5 //article[.contains(\"xml\")]" in
          check_string "post-reload query ok" "OK" (Protocol.status_to_string status);
          check_string "post-reload answers unchanged" answers1 answers2;
          close c))

let test_shard_loss_partial_wire () =
  with_ingest_dir (fun ~prefix ->
      with_server ~cfg:(shard_cfg ~prefix ()) (placeholder_env ()) (fun srv ->
          let c = connect (Server.port srv) in
          for i = 0 to 8 do
            ignore (request_ingest_exn c ~id:(Printf.sprintf "w%d" i) (shard_article i))
          done;
          (* Lose the first probed shard (ord 0) mid-query: the answer
             degrades to PARTIAL with attribution and a sound bound —
             never an error.  Distinct k values keep each armed query
             off the answer cache. *)
          arm_probe 1;
          let status, body = request_exn c "QUERY k=6 //article[.contains(\"xml\")]" in
          check_string "shard loss is PARTIAL, not ERR" "PARTIAL"
            (Protocol.status_to_string status);
          List.iter
            (fun needle ->
              check_bool (Printf.sprintf "partial header has %s" needle) true
                (has_infix ~affix:needle body))
            [ "# partial"; "reason=shard-loss"; "score_bound="; "shards=2/3" ];
          (* A healthy query afterwards is COMPLETE again (the loss was
             transient) and clears the strike. *)
          let status, _ = request_exn c "QUERY k=6 //article[.contains(\"xml\")]" in
          check_string "next query complete" "OK" (Protocol.status_to_string status);
          (* Three consecutive losses quarantine the shard. *)
          List.iter
            (fun k ->
              arm_probe 1;
              let status, _ =
                request_exn c (Printf.sprintf "QUERY k=%d //article[.contains(\"xml\")]" k)
              in
              check_string "strike query is PARTIAL" "PARTIAL" (Protocol.status_to_string status))
            [ 2; 3; 4 ];
          let _, body = request_exn c "SHARDS" in
          check_bool "shard 0 quarantined after repeated losses" true
            (has_infix ~affix:"shard 0: quarantined" body);
          (* Quarantined: queries stay PARTIAL without any failpoint,
             writes routed to the shard are refused, other shards'
             writes are unaffected. *)
          let status, body = request_exn c "QUERY k=7 //article[.contains(\"xml\")]" in
          check_string "quarantined shard degrades queries" "PARTIAL"
            (Protocol.status_to_string status);
          check_bool "quarantine attributed" true (has_infix ~affix:"shards=2/3" body);
          let status, _ = request_ingest_exn c ~id:(id_on 0) (shard_article 90) in
          check_string "write to the quarantined shard refused" "ERR"
            (Protocol.status_to_string status);
          let status, _ = request_ingest_exn c ~id:(id_on 1) (shard_article 91) in
          check_string "write to a live shard unaffected" "OK" (Protocol.status_to_string status);
          (* RELOAD <ord> restores the quarantined shard to service. *)
          let status, _ = request_exn c "RELOAD 0" in
          check_string "reload clears quarantine" "OK" (Protocol.status_to_string status);
          let status, body = request_exn c "QUERY k=8 //article[.contains(\"xml\")]" in
          check_string "complete after recovery" "OK" (Protocol.status_to_string status);
          check_bool "no partial header after recovery" true
            (not (has_infix ~affix:"# partial" body));
          close c))

let test_shard_corrupt_at_load () =
  with_ingest_dir (fun ~prefix ->
      (* Build a merged 3-shard corpus, then stop the server. *)
      with_server ~cfg:(shard_cfg ~prefix ()) (placeholder_env ()) (fun srv ->
          let c = connect (Server.port srv) in
          for i = 0 to 8 do
            ignore (request_ingest_exn c ~id:(Printf.sprintf "w%d" i) (shard_article i))
          done;
          let status, _ = request_exn c "MERGE" in
          check_string "merge ok" "OK" (Protocol.status_to_string status);
          close c);
      (* Bit-flip one byte of shard 1's snapshot. *)
      let path = prefix ^ ".shard1" in
      let bytes =
        let ic = open_in_bin path in
        let n = in_channel_length ic in
        let b = really_input_string ic n in
        close_in ic;
        Bytes.of_string b
      in
      let off = min 100 (Bytes.length bytes - 1) in
      Bytes.set bytes off (Char.chr (Char.code (Bytes.get bytes off) lxor 0x40));
      let oc = open_out_bin path in
      output_bytes oc bytes;
      close_out oc;
      (* The server still starts: the corrupt shard is down, the rest
         serve, and queries are PARTIAL with attribution. *)
      with_server ~cfg:(shard_cfg ~prefix ()) (placeholder_env ()) (fun srv ->
          let c = connect (Server.port srv) in
          let _, body = request_exn c "SHARDS" in
          check_bool "corrupt shard reported down with its error" true
            (has_infix ~affix:"shard 1: down" body && has_infix ~affix:"error=" body);
          let status, body = request_exn c "QUERY k=6 //article[.contains(\"xml\")]" in
          check_string "query under shard loss is PARTIAL" "PARTIAL"
            (Protocol.status_to_string status);
          check_bool "loss attributed" true
            (has_infix ~affix:"shards=2/3" body && has_infix ~affix:"reason=shard-loss" body);
          check_bool "surviving shards still answer" true (has_infix ~affix:"ss=" body);
          close c))

let test_shard_write_hint_tracks_backlog () =
  with_ingest_dir (fun ~prefix ->
      with_server
        ~cfg:(shard_cfg ~shards:2 ~write_lane:0 ~prefix ())
        (placeholder_env ())
        (fun srv ->
          let corpus =
            match Server.corpus srv with
            | Some c -> c
            | None -> Alcotest.fail "sharded server exposes its corpus"
          in
          (* Build a 3-record backlog on shard 0 directly (the wire
             write lane is closed), none on shard 1. *)
          for i = 0 to 2 do
            match Corpus.ingest corpus ~id:(id_on ~shards:2 0) (shard_article i) with
            | Ok _ -> ()
            | Error e -> Alcotest.fail (Error.to_string e)
          done;
          let hint_for id =
            let c = connect (Server.port srv) in
            Fun.protect
              ~finally:(fun () -> close c)
              (fun () ->
                match request_ingest c ~id (shard_article 9) with
                | Some (Protocol.Overloaded, body) -> (
                  match Protocol.parse_retry_after body with
                  | Some ms -> ms
                  | None -> Alcotest.fail "write reject carries no retry hint")
                | Some (status, _) ->
                  Alcotest.fail ("expected OVERLOADED, got " ^ Protocol.status_to_string status)
                | None -> Alcotest.fail "expected OVERLOADED, got EOF")
          in
          (* Satellite fix: the hint reflects the routed shard's merge
             backlog — 3 records behind on shard 0, clear on shard 1 —
             not the (idle) global connection queue. *)
          check_int "hint scales with the routed shard's backlog" (50 * (1 + 3))
            (hint_for (id_on ~shards:2 0));
          check_int "a clear shard's hint is the floor" 50 (hint_for (id_on ~shards:2 1))))

(* Replication over the wire (DESIGN.md §4l): per-replica SHARDS/STATS
   lines, RELOAD <ord>.<replica>, probe failover keeping queries
   COMPLETE, and the READONLY disk-fault degrade with its retry hint
   and recovery. *)
let test_replica_wire () =
  with_ingest_dir (fun ~prefix ->
      with_server
        ~cfg:(shard_cfg ~shards:2 ~replicas:2 ~probation_ms:400.0 ~prefix ())
        (placeholder_env ())
        (fun srv ->
          Fun.protect ~finally:Failpoint.reset (fun () ->
              let c = connect (Server.port srv) in
              let corpus = Option.get (Server.corpus srv) in
              let last_ack = ref "" in
              for i = 0 to 5 do
                let id = Printf.sprintf "w%d" i in
                let status, body = request_ingest_exn c ~id (shard_article i) in
                check_string "ingest acked" "OK" (Protocol.status_to_string status);
                last_ack := body
              done;
              (* STATS reports the corpus's own generation vector — the
                 one every ack names and every cache key is scoped by —
                 and no read-only slot generation. *)
              let _, body = request_exn c "STATS" in
              let ack_vector =
                Scanf.sscanf !last_ack "ingested %_s@; shard %_d; generations %s" Fun.id
              in
              check_string "STATS's vector is the last ack's" ack_vector
                (Option.value ~default:"" (stats_value body "generation_vector"));
              check_string "STATS's vector is the corpus's" (Corpus.generation_vector corpus)
                (Option.value ~default:"" (stats_value body "generation_vector"));
              check_bool "no slot generation" true (stats_value body "generation" = None);
              check_bool "no snapshot generation" true
                (stats_value body "snapshot_generation" = None);
              (* SHARDS: each shard line is followed by per-replica lines
                 with role, sync state and read-only flag. *)
              let _, body = request_exn c "SHARDS" in
              List.iter
                (fun needle ->
                  check_bool
                    (Printf.sprintf "SHARDS has %s" needle)
                    true (has_infix ~affix:needle body))
                [
                  "replica 0.0: primary synced";
                  "replica 0.1: follower synced";
                  "replica 1.0: primary synced";
                  "readonly=no";
                ];
              (* STATS gains the same per-replica gauges. *)
              let _, body = request_exn c "STATS" in
              List.iter
                (fun needle ->
                  check_bool
                    (Printf.sprintf "STATS has %s" needle)
                    true (has_infix ~affix:needle body))
                [
                  "replica 0.0: primary synced";
                  "replica 0.1: follower synced";
                  "readonly: no";
                ];
              (* RELOAD 0 bumps shard 0's replicas; STATS follows the
                 reply's vector.  Once MERGE has folded every WAL the
                 health is quiescent, and STATS's shard section is the
                 SHARDS body line for line. *)
              let status, body = request_exn c "RELOAD 0" in
              check_string "shard reload ok" "OK" (Protocol.status_to_string status);
              let reload_vector =
                Scanf.sscanf body "reloaded shard(s) %_s@; generations %s" Fun.id
              in
              let _, stats = request_exn c "STATS" in
              check_string "STATS's vector is the RELOAD reply's" reload_vector
                (Option.value ~default:"" (stats_value stats "generation_vector"));
              let status, _ = request_exn c "MERGE" in
              check_string "merge ok" "OK" (Protocol.status_to_string status);
              let _, shards = request_exn c "SHARDS" in
              let _, stats = request_exn c "STATS" in
              Alcotest.(check (list string))
                "STATS's shard section is the SHARDS body"
                (String.split_on_char '\n' shards)
                (String.split_on_char '\n' stats
                |> List.filter (fun l ->
                       has_prefix ~prefix:"shard " l || has_prefix ~prefix:"  replica " l));
              check_string "STATS's vector is still the corpus's" (Corpus.generation_vector corpus)
                (Option.value ~default:"" (stats_value stats "generation_vector"));
              (* RELOAD <ord>.<replica> addresses one replica (the
                 catch-up path); a bad replica ordinal is refused. *)
              let status, body = request_exn c "RELOAD 0.1" in
              check_string "replica reload ok" "OK" (Protocol.status_to_string status);
              check_bool "reload names the replica" true
                (has_infix ~affix:"reloaded replica 0.1" body);
              let status, _ = request_exn c "RELOAD 0.7" in
              check_string "out-of-range replica is ERR" "ERR" (Protocol.status_to_string status);
              (* A replica lost mid-query fails over inside the probe:
                 the response stays OK with no partial header. *)
              arm_probe 1;
              let status, body = request_exn c "QUERY k=6 //article[.contains(\"xml\")]" in
              check_string "failover keeps the query COMPLETE" "OK"
                (Protocol.status_to_string status);
              check_bool "no partial header" true (not (has_infix ~affix:"# partial" body));
              (* ENOSPC on the primary's WAL: the failing write is ERR
                 (in neither the corpus nor the log), the store degrades,
                 and the next write gets READONLY with a retry hint — on
                 a connection that stays open. *)
              let ord0_id = id_on ~shards:2 0 in
              (match Failpoint.activate_errno "wal_append" Unix.ENOSPC 1 with
              | Ok () -> ()
              | Error e -> Alcotest.fail e);
              let status, _ = request_ingest_exn c ~id:ord0_id (shard_article 90) in
              check_string "ENOSPC write is ERR" "ERR" (Protocol.status_to_string status);
              let status, body = request_ingest_exn c ~id:ord0_id (shard_article 90) in
              check_string "degraded write is READONLY" "READONLY"
                (Protocol.status_to_string status);
              (match Protocol.parse_retry_after body with
              | Some ms -> check_bool "positive retry hint" true (ms >= 1)
              | None -> Alcotest.fail "READONLY carries no retry-after-ms hint");
              (* the connection survived the refusal; reads still serve *)
              let status, _ = request_exn c "QUERY k=5 //article[.contains(\"xml\")]" in
              check_string "reads unaffected" "OK" (Protocol.status_to_string status);
              let _, body = request_exn c "STATS" in
              check_bool "STATS flags the degrade" true (has_infix ~affix:"readonly: yes" body);
              check_bool "STATS counts degraded stores" true
                (has_infix ~affix:"readonly_stores: 1" body);
              let _, body = request_exn c "SHARDS" in
              check_bool "SHARDS shows the degraded replica" true
                (has_infix ~affix:"readonly=yes retry_after_ms=" body);
              (* past probation the next write is the re-probe; recovery
                 is visible in STATS *)
              Unix.sleepf 0.5;
              let status, _ = request_ingest_exn c ~id:ord0_id (shard_article 90) in
              check_string "post-probation write recovers" "OK" (Protocol.status_to_string status);
              let _, body = request_exn c "STATS" in
              check_bool "degrade cleared" true (has_infix ~affix:"readonly: no" body);
              close c)))

(* The client's READONLY policy (DESIGN.md §4l): an id= upsert retries
   with the server's hint as its backoff floor and converges after
   probation; an anonymous INGEST fails fast — never auto-resent, since
   a resend dying mid-flight after recovery could double-ingest. *)
let test_client_readonly_policy () =
  with_ingest_dir (fun ~prefix ->
      with_server
        ~cfg:(shard_cfg ~shards:1 ~replicas:2 ~probation_ms:250.0 ~prefix ())
        (placeholder_env ())
        (fun srv ->
          Fun.protect ~finally:Failpoint.reset (fun () ->
              let port = Server.port srv in
              let rng = Random.State.make [| 42 |] in
              (* trip the degrade with a direct armed write *)
              (match Server.corpus srv with
              | None -> Alcotest.fail "replicated server exposes its corpus"
              | Some corpus -> (
                (match Failpoint.activate_errno "wal_append" Unix.ENOSPC 1 with
                | Ok () -> ()
                | Error e -> Alcotest.fail e);
                match Corpus.ingest corpus ~id:"seed" (shard_article 1) with
                | Error (Error.Io_error _) -> ()
                | Error e -> Alcotest.failf "expected Io_error, got %s" (Error.to_string e)
                | Ok _ -> Alcotest.fail "armed write must fail"));
              let retry = { Client.default_retry with retries = 5; base_backoff_ms = 5.0 } in
              (match
                 Client.run_requests ~rng ~port ~retry [ Client.ingest_request (shard_article 2) ]
               with
              | Error (Client.Store_readonly, done_) ->
                check_int "nothing completed before the fail-fast" 0 (List.length done_)
              | Error (f, _) ->
                Alcotest.fail ("expected Store_readonly, got " ^ Client.failure_to_string f)
              | Ok _ -> Alcotest.fail "anonymous INGEST must fail fast on READONLY");
              match
                Client.run_requests ~rng ~port ~retry
                  [ Client.ingest_request ~id:"retry-doc" (shard_article 3) ]
              with
              | Ok [ (Protocol.Ok_, _) ] -> ()
              | Ok rs -> Alcotest.failf "unexpected responses (%d)" (List.length rs)
              | Error (f, _) ->
                Alcotest.fail ("idempotent upsert should converge: " ^ Client.failure_to_string f))))

let test_shards_verb_unsharded () =
  with_server (make_env ()) (fun srv ->
      let c = connect (Server.port srv) in
      let status, body = request_exn c "SHARDS" in
      check_string "SHARDS on an unsharded server is ERR" "ERR"
        (Protocol.status_to_string status);
      check_bool "error names the flag" true (has_infix ~affix:"--shards" body);
      close c)

(* ------------------------------------------------------------------ *)
(* The event loop at scale (DESIGN.md §4j): a thousand mostly-idle
   connections against a two-worker pool — each costs the server an fd
   and a buffer, never a domain — while interleaved requests keep
   getting correct per-connection responses, including under injected
   read faults and a wedged worker. *)

let stats_gauge body key =
  let prefix = key ^ ": " in
  List.find_map
    (fun line ->
      if has_prefix ~prefix line then
        int_of_string_opt (String.sub line (String.length prefix) (String.length line - String.length prefix))
      else None)
    (String.split_on_char '\n' body)

let test_thousand_idle_connections () =
  ignore (Flexpath_server.Poller.raise_nofile 8192);
  let n = 1024 in
  let cfg =
    {
      Server.default_config with
      workers = 2;
      queue_depth = 64;
      max_connections = n + 32;
      hard_wall_ms = 1000.0;
      quarantine_strikes = 0;
    }
  in
  with_server ~cfg (make_env ()) (fun srv ->
      let port = Server.port srv in
      let conns = Array.init n (fun _ -> connect port) in
      check_bool "all connections admitted" true
        (wait_for ~timeout_ms:20_000.0 (fun () -> Server.active_connections srv >= n));
      (* Interleaved batches from connections scattered across the pool:
         every response must come back on the connection that asked —
         pings get pong, queries get answers. *)
      for batch = 0 to 5 do
        let idxs = List.init 8 (fun i -> ((batch * 131) + (i * 127)) mod n) in
        List.iter
          (fun i ->
            if i mod 2 = 0 then send conns.(i) "PING" else send conns.(i) query_line)
          idxs;
        List.iter
          (fun i ->
            match recv conns.(i) with
            | None -> Alcotest.fail (Printf.sprintf "conn %d dropped mid-batch" i)
            | Some (status, body) ->
              check_string
                (Printf.sprintf "conn %d status" i)
                "OK" (Protocol.status_to_string status);
              if i mod 2 = 0 then check_string (Printf.sprintf "conn %d pong" i) "pong" body
              else check_bool (Printf.sprintf "conn %d answers" i) true (body <> ""))
          idxs
      done;
      (* The STATS gauges see the pool: >= n open connections, and the
         loop-lag reservoir has samples. *)
      let _, stats_body = request_exn conns.(7) "STATS" in
      (match stats_gauge stats_body "open_connections" with
      | None -> Alcotest.fail "open_connections gauge missing from STATS"
      | Some open_conns -> check_bool "open_connections >= pool" true (open_conns >= n));
      check_bool "loop lag gauge present" true (has_infix ~affix:"loop_lag_ms" stats_body);
      (* Chaos 1: injected read faults drop exactly the connections they
         hit; the rest of the pool is untouched. *)
      arm_n "server_read" 2;
      send conns.(100) "PING";
      check_bool "faulted conn 100 dropped" true (recv conns.(100) = None);
      send conns.(200) "PING";
      check_bool "faulted conn 200 dropped" true (recv conns.(200) = None);
      let status, body = request_exn conns.(300) "PING" in
      check_string "pool survives read faults" "OK" (Protocol.status_to_string status);
      check_string "pong after read faults" "pong" body;
      (* Chaos 2: a wedged worker is declared lost within the hard wall;
         its connection is dropped, the replacement keeps serving. *)
      let before = (snapshot srv).respawned in
      arm_n "worker_wedge" 1;
      send conns.(400) query_line;
      check_bool "replacement spawned" true
        (wait_for (fun () -> (snapshot srv).respawned = before + 1));
      check_bool "wedged conn dropped" true (recv conns.(400) = None);
      let status, body = request_exn conns.(500) query_line in
      check_string "replacement serves" "OK" (Protocol.status_to_string status);
      check_bool "replacement answers" true (body <> "");
      Array.iter close conns;
      check_bool "pool drains to zero" true
        (wait_for ~timeout_ms:20_000.0 (fun () -> Server.active_connections srv = 0)))

let () =
  Alcotest.run "server"
    [
      ( "substrate",
        [
          Alcotest.test_case "admission queue" `Quick test_admission_queue;
          Alcotest.test_case "latency reservoir" `Quick test_reservoir;
          Alcotest.test_case "reservoirs seed independently" `Quick test_reservoir_divergence;
        ] );
      ( "lifecycle",
        [
          Alcotest.test_case "snapshot start, query, stats, shutdown" `Quick test_lifecycle;
          Alcotest.test_case "protocol errors" `Quick test_protocol_errors;
          Alcotest.test_case "stop returns promptly" `Quick test_prompt_stop;
        ] );
      ( "governance",
        [
          Alcotest.test_case "budget truncation is PARTIAL" `Quick test_budget_truncation;
          Alcotest.test_case "request overrides server default" `Quick test_budget_override;
        ] );
      ( "admission",
        [ Alcotest.test_case "full queue fast-rejects" `Quick test_overload_fast_reject ] );
      ( "determinism",
        [
          Alcotest.test_case "parallel connections match sequential" `Quick
            test_concurrent_determinism;
        ] );
      ( "reload",
        [ Alcotest.test_case "hot swap mid-traffic" `Quick test_reload_mid_traffic ] );
      ( "cache",
        [
          Alcotest.test_case "repeat query skips the executor" `Quick
            test_cache_serves_repeat_without_executor;
          Alcotest.test_case "reload invalidates the cache" `Quick test_reload_invalidates_cache;
        ] );
      ( "failpoints",
        [
          Alcotest.test_case "server_worker" `Quick test_failpoint_worker;
          Alcotest.test_case "server_read" `Quick test_failpoint_read;
          Alcotest.test_case "server_accept" `Quick test_failpoint_accept;
          Alcotest.test_case "worker_respawn is retried" `Quick test_failpoint_respawn;
        ] );
      ( "supervision",
        [
          Alcotest.test_case "wedged worker is lost and replaced" `Quick test_wedge_recovery;
          Alcotest.test_case "dead worker domain is recovered" `Quick test_worker_die_recovery;
          Alcotest.test_case "poison query is quarantined" `Quick test_quarantine;
          Alcotest.test_case "stale queued connections are shed" `Quick test_queue_deadline_shed;
        ] );
      ( "client",
        [
          Alcotest.test_case "deadline propagation rewrite" `Quick test_client_deadline_rewrite;
          Alcotest.test_case "send fault is retried" `Quick test_client_send_retry;
          Alcotest.test_case "overload is retried with backoff" `Quick test_client_overload_retry;
          Alcotest.test_case "zero budget fails fast" `Quick test_client_budget_exhausted;
        ] );
      ("chaos", [ Alcotest.test_case "randomized loss soak" `Quick test_chaos_soak ]);
      ( "ingestion",
        [
          Alcotest.test_case "framed INGEST/DELETE/MERGE over the wire" `Quick test_ingest_wire;
          Alcotest.test_case "writes refused without a store" `Quick test_ingest_not_enabled;
          Alcotest.test_case "write lane zero rejects deterministically" `Quick
            test_ingest_write_lane_zero;
          Alcotest.test_case "restart replays to the acked set" `Quick test_ingest_restart_replay;
          Alcotest.test_case "wal and merge failpoints leave a consistent store" `Quick
            test_ingest_failpoints;
          Alcotest.test_case "anonymous INGEST is never retried past ambiguity" `Quick
            test_ingest_retry_idempotency;
        ] );
      ( "ingestion-chaos",
        [ Alcotest.test_case "mixed query+write soak" `Slow test_ingest_chaos_soak ] );
      ( "eventloop",
        [
          Alcotest.test_case "a thousand idle connections cost fds, not domains" `Quick
            test_thousand_idle_connections;
        ] );
      ( "sharding",
        [
          Alcotest.test_case "scatter-gather lifecycle over the wire" `Quick test_shard_wire;
          Alcotest.test_case "shard loss degrades to PARTIAL with attribution" `Quick
            test_shard_loss_partial_wire;
          Alcotest.test_case "corrupt shard is isolated at load" `Quick
            test_shard_corrupt_at_load;
          Alcotest.test_case "write hints track the routed shard's backlog" `Quick
            test_shard_write_hint_tracks_backlog;
          Alcotest.test_case "SHARDS refused unsharded" `Quick test_shards_verb_unsharded;
        ] );
      ( "replication",
        [
          Alcotest.test_case "replica wire: SHARDS/STATS, RELOAD ord.replica, READONLY" `Quick
            test_replica_wire;
          Alcotest.test_case "client READONLY policy: retry upserts, fail-fast anonymous" `Quick
            test_client_readonly_policy;
        ] );
    ]
