module Poller = Flexpath_server.Poller
module Protocol = Flexpath_server.Protocol

let now = Unix.gettimeofday

(* ------------------------------------------------------------------ *)
(* Workload *)

type workload = {
  rate : float;
  duration_s : float;
  warmup_s : float;
  queries : string list;
  zipf_s : float;
  ping_fraction : float;
  ingest_fraction : float;
  seed : int;
}

let default_queries =
  [
    "QUERY k=3 //article[.contains(\"xml\" and \"streaming\")]";
    "QUERY k=5 //article[./section/title and .contains(\"query\")]";
    "QUERY k=3 //section[./algorithm]/title";
    "QUERY k=10 //article[.contains(\"database\" and \"index\")]";
    "QUERY k=3 timeout_ms=200 //article[./abstract and .contains(\"ranking\")]";
    "QUERY k=5 //article/title[.contains(\"retrieval\")]";
    "RELAX steps=4 //article[./section/algorithm]";
    "STATS";
  ]

let default_workload =
  {
    rate = 100.0;
    duration_s = 5.0;
    warmup_s = 1.0;
    queries = default_queries;
    zipf_s = 1.1;
    ping_fraction = 0.2;
    ingest_fraction = 0.0;
    seed = 42;
  }

(* ------------------------------------------------------------------ *)
(* Results *)

type result = {
  connections : int;
  target_rate : float;
  duration_s : float;
  sent : int;
  completed : int;
  ok : int;
  partial : int;
  overloaded : int;
  quarantined : int;
  errors : int;
  dropped : int;
  reconnects : int;
  achieved_rps : float;
  goodput_rps : float;
  samples : int;
  p50_ms : float;
  p90_ms : float;
  p99_ms : float;
  p999_ms : float;
  max_ms : float;
  mean_ms : float;
}

(* ------------------------------------------------------------------ *)
(* Connection state: the generator mirrors the server's event loop in
   miniature — one domain, one poller, nonblocking everything. *)

type phase =
  | Connecting
  | Idle
  | Busy  (** A request is written (or being written); its response is owed. *)

(* An in-flight request: when it was scheduled to arrive (the
   latency origin) and whether it falls inside the measured window. *)
type inflight = { scheduled : float; measured : bool }

type conn = {
  mutable fd : Unix.file_descr;
  mutable phase : phase;
  mutable out : string;  (** Unsent bytes of the current request. *)
  mutable opos : int;
  mutable inb : string;  (** Received, not yet deframed. *)
  mutable cur : inflight option;
  mutable alive : bool;
}

let fd_int (fd : Unix.file_descr) : int = Obj.magic fd

(* ------------------------------------------------------------------ *)
(* Sampling *)

type kind = Kping | Kquery of int | Kingest

let make_sampler w =
  let queries = Array.of_list w.queries in
  let nq = Array.length queries in
  (* Zipf CDF by rank: weight(i) = 1 / (i+1)^s. *)
  let cdf =
    if nq = 0 then [||]
    else begin
      let weights = Array.init nq (fun i -> 1.0 /. Float.pow (float_of_int (i + 1)) w.zipf_s) in
      let total = Array.fold_left ( +. ) 0.0 weights in
      let acc = ref 0.0 in
      Array.map
        (fun wt ->
          acc := !acc +. (wt /. total);
          !acc)
        weights
    end
  in
  let ingest_serial = ref 0 in
  fun rng ->
    let u = Random.State.float rng 1.0 in
    if u < w.ping_fraction || nq = 0 then Kping
    else if u < w.ping_fraction +. w.ingest_fraction then begin
      incr ingest_serial;
      Kingest
    end
    else begin
      let v = Random.State.float rng 1.0 in
      let rec find i = if i >= nq - 1 || cdf.(i) >= v then i else find (i + 1) in
      Kquery (find 0)
    end

let ingest_ids = 64

let render_request w rng kind serial =
  match kind with
  | Kping -> "PING\n"
  | Kquery i -> List.nth w.queries i ^ "\n"
  | Kingest ->
    (* A rotating id set keeps the corpus bounded: retransmissions of
       the same id are upserts, so the bench never grows the server
       without bound. *)
    let id = Printf.sprintf "bench-%d" (serial mod ingest_ids) in
    let filler = Random.State.int rng 1000 in
    let body =
      Printf.sprintf
        "<article><title>bench %d</title><abstract><paragraph>xml streaming bench \
         document</paragraph></abstract></article>"
        filler
    in
    Printf.sprintf "INGEST %d id=%s\n%s\n" (String.length body) id body

(* ------------------------------------------------------------------ *)
(* Percentiles over the full sample set (bench windows are short
   enough that exact beats a reservoir here). *)

let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0.0
  else begin
    let idx = int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)) - 1 in
    sorted.(max 0 (min (n - 1) idx))
  end

(* ------------------------------------------------------------------ *)
(* The run *)

type counters = {
  mutable c_sent : int;
  mutable c_ok : int;
  mutable c_partial : int;
  mutable c_overloaded : int;
  mutable c_quarantined : int;
  mutable c_errors : int;
  mutable c_dropped : int;
  mutable c_reconnects : int;
}

let drain_timeout_s = 10.0
let setup_timeout_s = 30.0
let connect_window = 256

let run ~host ~port ~connections w =
  if w.rate <= 0.0 then Error "rate must be positive"
  else if connections <= 0 then Error "connections must be positive"
  else begin
    let addr = Unix.ADDR_INET (Unix.inet_addr_of_string host, port) in
    let poller = Poller.create () in
    let conns : (int, conn) Hashtbl.t = Hashtbl.create (2 * connections) in
    let rng = Random.State.make [| w.seed; connections |] in
    let sample = make_sampler w in
    let counters =
      {
        c_sent = 0;
        c_ok = 0;
        c_partial = 0;
        c_overloaded = 0;
        c_quarantined = 0;
        c_errors = 0;
        c_dropped = 0;
        c_reconnects = 0;
      }
    in
    let latencies = ref (Array.make 4096 0.0) in
    let n_lat = ref 0 in
    let add_latency ms =
      if !n_lat >= Array.length !latencies then begin
        let bigger = Array.make (2 * Array.length !latencies) 0.0 in
        Array.blit !latencies 0 bigger 0 !n_lat;
        latencies := bigger
      end;
      !latencies.(!n_lat) <- ms;
      incr n_lat
    in
    let idle : conn Queue.t = Queue.create () in
    let scratch = Bytes.create 65536 in
    let outstanding = ref 0 in
    let ingest_serial = ref 0 in
    (* -------------------------------------------------------------- *)
    let start_connect c =
      let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.set_nonblock fd;
      c.fd <- fd;
      c.phase <- Connecting;
      c.out <- "";
      c.opos <- 0;
      c.inb <- "";
      c.cur <- None;
      c.alive <- true;
      Hashtbl.replace conns (fd_int fd) c;
      match Unix.connect fd addr with
      | () ->
        c.phase <- Idle;
        Poller.set poller fd ~read:true ~write:false;
        Queue.push c idle;
        true
      | exception Unix.Unix_error (Unix.EINPROGRESS, _, _) ->
        Poller.set poller fd ~read:false ~write:true;
        true
      | exception Unix.Unix_error _ ->
        Hashtbl.remove conns (fd_int fd);
        (try Unix.close fd with Unix.Unix_error _ -> ());
        c.alive <- false;
        false
    in
    let kill c =
      if c.alive then begin
        c.alive <- false;
        Hashtbl.remove conns (fd_int c.fd);
        (try Poller.remove poller c.fd with _ -> ());
        try Unix.close c.fd with Unix.Unix_error _ -> ()
      end
    in
    let settle_lost c =
      (* The connection died with a request owed: the request is lost,
         never retried (open loop). *)
      match c.cur with
      | None -> ()
      | Some infl ->
        c.cur <- None;
        decr outstanding;
        if infl.measured then counters.c_dropped <- counters.c_dropped + 1
    in
    (* Flush as much of c.out as the socket takes; false = conn died. *)
    let rec flush_out c =
      let remaining = String.length c.out - c.opos in
      if remaining = 0 then true
      else
        match Unix.write_substring c.fd c.out c.opos remaining with
        | 0 -> true
        | n ->
          c.opos <- c.opos + n;
          flush_out c
        | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> true
        | exception Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) -> false
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> flush_out c
    in
    let start_request c infl line =
      c.cur <- Some infl;
      c.phase <- Busy;
      c.out <- line;
      c.opos <- 0;
      incr outstanding;
      if infl.measured then counters.c_sent <- counters.c_sent + 1;
      if flush_out c then
        Poller.set poller c.fd ~read:true ~write:(c.opos < String.length c.out)
      else begin
        settle_lost c;
        kill c;
        counters.c_reconnects <- counters.c_reconnects + 1;
        ignore (start_connect c)
      end
    in
    let record_response c status =
      match c.cur with
      | None -> () (* unsolicited frame (accept-level reject); close follows *)
      | Some infl ->
        c.cur <- None;
        decr outstanding;
        if infl.measured then begin
          let lat_ms = (now () -. infl.scheduled) *. 1000.0 in
          (match (status : Protocol.status) with
          | Ok_ ->
            counters.c_ok <- counters.c_ok + 1;
            add_latency lat_ms
          | Partial ->
            counters.c_partial <- counters.c_partial + 1;
            add_latency lat_ms
          | Overloaded | Readonly ->
            (* Both are retry-with-hint shed classes: admission backoff
               and the disk-fault read-only degrade. *)
            counters.c_overloaded <- counters.c_overloaded + 1
          | Quarantined -> counters.c_quarantined <- counters.c_quarantined + 1
          | Err | Bye -> counters.c_errors <- counters.c_errors + 1)
        end
    in
    (* Deframe complete responses out of c.inb; false = protocol
       violation (treated like a dead conn). *)
    let max_status_line = 256 in
    let rec consume_responses c =
      match String.index_opt c.inb '\n' with
      | None -> String.length c.inb <= max_status_line
      | Some nl -> (
        let line = String.sub c.inb 0 nl in
        let line =
          if String.length line > 0 && line.[String.length line - 1] = '\r' then
            String.sub line 0 (String.length line - 1)
          else line
        in
        match String.index_opt line ' ' with
        | None -> false
        | Some sp -> (
          let status_s = String.sub line 0 sp in
          let len_s = String.sub line (sp + 1) (String.length line - sp - 1) in
          match (Protocol.status_of_string status_s, int_of_string_opt len_s) with
          | Error _, _ | _, None -> false
          | Ok status, Some len ->
            if len < 0 then false
            else begin
              let frame_end = nl + 1 + len + 1 in
              if String.length c.inb < frame_end then true (* need more bytes *)
              else begin
                c.inb <- String.sub c.inb frame_end (String.length c.inb - frame_end);
                record_response c status;
                c.phase <- Idle;
                Queue.push c idle;
                Poller.set poller c.fd ~read:true ~write:false;
                consume_responses c
              end
            end))
    in
    let reconnect ?(quiet = false) c =
      settle_lost c;
      kill c;
      if not quiet then counters.c_reconnects <- counters.c_reconnects + 1;
      ignore (start_connect c)
    in
    let handle_readable c =
      match Unix.read c.fd scratch 0 (Bytes.length scratch) with
      | 0 -> reconnect c
      | n ->
        c.inb <- c.inb ^ Bytes.sub_string scratch 0 n;
        if c.phase = Busy then begin
          if not (consume_responses c) then reconnect c
        end
        else
          (* Data on an idle conn is an accept-level reject's farewell
             frame; drop it, the EOF follows. *)
          c.inb <- ""
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
      | exception Unix.Unix_error _ -> reconnect c
    in
    let handle_writable c =
      match c.phase with
      | Connecting -> (
        match Unix.getsockopt_error c.fd with
        | None ->
          c.phase <- Idle;
          Poller.set poller c.fd ~read:true ~write:false;
          Queue.push c idle
        | Some _ ->
          kill c;
          counters.c_reconnects <- counters.c_reconnects + 1;
          ignore (start_connect c))
      | Busy ->
        if flush_out c then begin
          if c.opos >= String.length c.out then
            Poller.set poller c.fd ~read:true ~write:false
        end
        else reconnect c
      | Idle -> ()
    in
    (* -------------------------------------------------------------- *)
    (* Phase 1: establish the pool, a bounded window at a time so the
       listener's backlog is never swamped. *)
    let pool = Array.init connections (fun _ ->
        { fd = Unix.stdin; phase = Connecting; out = ""; opos = 0; inb = ""; cur = None;
          alive = false })
    in
    let setup_deadline = now () +. setup_timeout_s in
    let next_to_start = ref 0 in
    let established () =
      Array.for_all (fun c -> c.alive && c.phase <> Connecting) pool
    in
    let setup_error = ref None in
    while (not (established ())) && !setup_error = None do
      if now () > setup_deadline then
        setup_error := Some (Printf.sprintf "could not establish %d connections in %.0fs"
                               connections setup_timeout_s)
      else begin
        let connecting =
          Array.fold_left (fun n c -> if c.alive && c.phase = Connecting then n + 1 else n) 0 pool
        in
        let budget = ref (connect_window - connecting) in
        while !budget > 0 && !next_to_start < connections do
          let c = pool.(!next_to_start) in
          incr next_to_start;
          if start_connect c then decr budget
          else setup_error := Some "connect failed during pool setup";
          if !setup_error <> None then budget := 0
        done;
        (* Retry conns whose nonblocking connect failed asynchronously. *)
        Array.iter
          (fun c ->
            if (not c.alive) && !next_to_start >= connections && !setup_error = None then
              if not (start_connect c) then
                setup_error := Some "connect failed during pool setup")
          pool;
        if !setup_error = None then
          Array.iter
            (fun ev ->
              match Hashtbl.find_opt conns (fd_int ev.Poller.fd) with
              | None -> ()
              | Some c ->
                if ev.Poller.error && c.phase = Connecting then begin
                  kill c;
                  counters.c_reconnects <- counters.c_reconnects + 1
                end
                else if ev.Poller.writable then handle_writable c
                else if ev.Poller.readable then handle_readable c)
            (Poller.wait poller ~timeout_ms:100)
      end
    done;
    match !setup_error with
    | Some msg ->
      Hashtbl.iter (fun _ c -> kill c) (Hashtbl.copy conns);
      Poller.close poller;
      Error msg
    | None ->
      (* ------------------------------------------------------------ *)
      (* Phase 2: warmup + measured window + drain. *)
      let t0 = now () in
      let warm_from = t0 +. w.warmup_s in
      let t_gen_end = warm_from +. w.duration_s in
      let drain_by = t_gen_end +. drain_timeout_s in
      let pending : (inflight * string) Queue.t = Queue.create () in
      let next_arrival = ref (t0 +. (-.log (Random.State.float rng 1.0 +. epsilon_float) /. w.rate)) in
      let finished = ref false in
      while not !finished do
        let t = now () in
        (* Generate every arrival now due (open loop: the schedule
           never waits for capacity). *)
        while !next_arrival <= t && !next_arrival < t_gen_end do
          let scheduled = !next_arrival in
          let kind = sample rng in
          (match kind with Kingest -> incr ingest_serial | _ -> ());
          let line = render_request w rng kind !ingest_serial in
          Queue.push ({ scheduled; measured = scheduled >= warm_from }, line) pending;
          next_arrival :=
            !next_arrival +. (-.log (Random.State.float rng 1.0 +. epsilon_float) /. w.rate)
        done;
        (* Assign pendings to idle conns (FIFO: latency includes the
           client-side queue wait). *)
        let rec assign () =
          if not (Queue.is_empty pending) then
            match Queue.take_opt idle with
            | None -> ()
            | Some c ->
              if c.alive && c.phase = Idle then begin
                let infl, line = Queue.pop pending in
                start_request c infl line
              end;
              (* Stale queue entries (reconnected or busy conns) are
                 simply skipped. *)
              assign ()
        in
        assign ();
        let t = now () in
        if t >= t_gen_end && Queue.is_empty pending && !outstanding = 0 then finished := true
        else if t > drain_by then begin
          (* Give up on stragglers: they count as dropped. *)
          Queue.iter
            (fun ((infl : inflight), _) ->
              if infl.measured then counters.c_dropped <- counters.c_dropped + 1)
            pending;
          Queue.clear pending;
          Array.iter (fun c -> if c.cur <> None then settle_lost c) pool;
          finished := true
        end
        else begin
          let timeout_ms =
            if t >= t_gen_end then 100
            else max 0 (min 100 (int_of_float (Float.ceil ((!next_arrival -. t) *. 1000.0))))
          in
          Array.iter
            (fun ev ->
              match Hashtbl.find_opt conns (fd_int ev.Poller.fd) with
              | None -> ()
              | Some c ->
                if c.alive then begin
                  if ev.Poller.writable then handle_writable c;
                  if c.alive && (ev.Poller.readable || ev.Poller.error) then handle_readable c
                end)
            (Poller.wait poller ~timeout_ms)
        end
      done;
      (* ------------------------------------------------------------ *)
      Array.iter kill pool;
      Poller.close poller;
      let sorted = Array.sub !latencies 0 !n_lat in
      Array.sort compare sorted;
      let samples = !n_lat in
      let completed =
        counters.c_ok + counters.c_partial + counters.c_overloaded + counters.c_quarantined
        + counters.c_errors
      in
      let mean =
        if samples = 0 then 0.0
        else Array.fold_left ( +. ) 0.0 sorted /. float_of_int samples
      in
      Ok
        {
          connections;
          target_rate = w.rate;
          duration_s = w.duration_s;
          sent = counters.c_sent;
          completed;
          ok = counters.c_ok;
          partial = counters.c_partial;
          overloaded = counters.c_overloaded;
          quarantined = counters.c_quarantined;
          errors = counters.c_errors;
          dropped = counters.c_dropped;
          reconnects = counters.c_reconnects;
          achieved_rps = float_of_int completed /. w.duration_s;
          goodput_rps = float_of_int (counters.c_ok + counters.c_partial) /. w.duration_s;
          samples;
          p50_ms = percentile sorted 50.0;
          p90_ms = percentile sorted 90.0;
          p99_ms = percentile sorted 99.0;
          p999_ms = percentile sorted 99.9;
          max_ms = (if samples = 0 then 0.0 else sorted.(samples - 1));
          mean_ms = mean;
        }
  end

(* ------------------------------------------------------------------ *)
(* Artifacts: one envelope, one writer, one gate *)

let schema_version = 1

let artifact ~bench body =
  Json.Obj
    (("schema_version", Json.Num (float_of_int schema_version)) :: ("bench", Json.Str bench) :: body)

let write_artifact path json =
  let body = Json.to_string json ^ "\n" in
  if path = "-" then print_string body
  else Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc body)

let result_to_json r =
  Json.Obj
    [
      ("connections", Json.Num (float_of_int r.connections));
      ("target_rate_rps", Json.Num r.target_rate);
      ("duration_s", Json.Num r.duration_s);
      ("sent", Json.Num (float_of_int r.sent));
      ("completed", Json.Num (float_of_int r.completed));
      ("ok", Json.Num (float_of_int r.ok));
      ("partial", Json.Num (float_of_int r.partial));
      ("overloaded", Json.Num (float_of_int r.overloaded));
      ("quarantined", Json.Num (float_of_int r.quarantined));
      ("errors", Json.Num (float_of_int r.errors));
      ("dropped", Json.Num (float_of_int r.dropped));
      ("reconnects", Json.Num (float_of_int r.reconnects));
      ("achieved_rps", Json.Num r.achieved_rps);
      ("goodput_rps", Json.Num r.goodput_rps);
      ( "latency_ms",
        Json.Obj
          [
            ("samples", Json.Num (float_of_int r.samples));
            ("p50", Json.Num r.p50_ms);
            ("p90", Json.Num r.p90_ms);
            ("p99", Json.Num r.p99_ms);
            ("p999", Json.Num r.p999_ms);
            ("max", Json.Num r.max_ms);
            ("mean", Json.Num r.mean_ms);
          ] );
    ]

let report ~config ~results =
  let summary =
    match results with
    | [] -> []
    | _ ->
      let by_conns = List.sort (fun a b -> compare a.connections b.connections) results in
      let baseline = List.hd by_conns in
      let top = List.hd (List.rev by_conns) in
      let ratio = if baseline.p99_ms > 0.0 then top.p99_ms /. baseline.p99_ms else 0.0 in
      [
        ( "summary",
          Json.Obj
            [
              ("baseline_connections", Json.Num (float_of_int baseline.connections));
              ("baseline_p99_ms", Json.Num baseline.p99_ms);
              ("top_connections", Json.Num (float_of_int top.connections));
              ("top_p99_ms", Json.Num top.p99_ms);
              ("top_p99_over_baseline", Json.Num ratio);
            ] );
      ]
  in
  artifact ~bench:"serve"
    ([
       ("created_unix_s", Json.Num (Float.of_int (int_of_float (Unix.time ()))));
       ("config", Json.Obj config);
       ("scales", Json.List (List.map result_to_json results));
     ]
    @ summary)

(* Schema checks.  Each returns the summary [flexpath bench check]
   prints after "ok"; errors name the offending path. *)

let ( let* ) = Result.bind
let require what = function Some v -> Ok v | None -> Error ("missing or mistyped " ^ what)
let num obj key what = require what (Option.bind (Json.member key obj) Json.to_float)
let int obj key what = require what (Option.bind (Json.member key obj) Json.to_int)

let nums obj prefix keys =
  List.fold_left
    (fun acc key ->
      let* () = acc in
      let* _ = num obj key (prefix ^ key) in
      Ok ())
    (Ok ()) keys

(* The non-empty array under [key], every entry passing [check] (which
   gets the entry's path prefix); [Ok] carries the entry count. *)
let entries key json check =
  let* arr = require (key ^ " array") (Json.member key json) in
  let rec go i = function
    | [] -> Ok i
    | entry :: rest ->
      let* () = check (fun what -> Printf.sprintf "%s[%d].%s" key i what) entry in
      go (i + 1) rest
  in
  match Json.to_list arr with [] -> Error (key ^ " must be non-empty") | l -> go 0 l

(* A measured query pass: p50/p99 latency plus its PARTIAL count. *)
let pass_partials obj name at =
  let* p = require (at name) (Json.member name obj) in
  let* () = nums p (at name ^ ".") [ "p50_ms"; "p99_ms" ] in
  int p "partials" (at (name ^ ".partials"))

(* [bench serve]'s load trajectory ([BENCH_serve.json]). *)
let check_serve json =
  let* n =
    entries "scales" json (fun at entry ->
        let* conns = int entry "connections" (at "connections") in
        let* () = if conns > 0 then Ok () else Error (at "connections must be positive") in
        let* _ = num entry "goodput_rps" (at "goodput_rps") in
        let* lat = require (at "latency_ms") (Json.member "latency_ms" entry) in
        nums lat (at "latency_ms.") [ "p50"; "p99"; "p999" ])
  in
  Ok (Printf.sprintf "%d scales" n)

(* The twig ablation ([BENCH_twig.json]): per query label, the binary
   and holistic timings and the speedup ratio. *)
let check_twig json =
  let* n =
    entries "series" json (fun at entry ->
        let* _ =
          require (at "query")
            (match Json.member "query" entry with Some (Json.Str s) -> Some s | _ -> None)
        in
        nums entry (at "") [ "binary_ms"; "holistic_ms"; "speedup" ])
  in
  Ok (Printf.sprintf "%d series entries" n)

(* The replication ablation ([BENCH_replica.json]): healthy and
   replica-lost passes, sync/async ingest rates and the follower
   catch-up.  The failover claim is part of the schema: losing one
   replica per query must report zero partials. *)
let check_replica json =
  let* query = require "query object" (Json.member "query" json) in
  let at name = "query." ^ name in
  let* _ = pass_partials query "healthy" at in
  let* lost_partials = pass_partials query "replica_lost" at in
  let* () =
    if lost_partials = 0 then Ok ()
    else Error "query.replica_lost.partials must be 0 (failover must absorb the loss)"
  in
  let* ingest = require "ingest object" (Json.member "ingest" json) in
  let* () = nums ingest "ingest." [ "sync_docs_per_s"; "async_docs_per_s" ] in
  let* catchup = require "catchup object" (Json.member "catchup" json) in
  let* _ = num catchup "ms" "catchup.ms" in
  let* _ = int catchup "records_behind" "catchup.records_behind" in
  Ok "replica: healthy and replica-lost passes, 0 lost-pass partials"

(* The sharding ablation ([BENCH_shard.json]): healthy and degraded
   passes per shard count.  The degraded pass loses one shard on every
   query and a lost shard always answers PARTIAL, so the schema pins
   both counts: none healthy, one per query degraded. *)
let check_shard json =
  let* per_pass = int json "queries_per_pass" "queries_per_pass" in
  let* n =
    entries "series" json (fun at entry ->
        let* _ = int entry "shards" (at "shards") in
        let* healthy = pass_partials entry "healthy" at in
        let* degraded = pass_partials entry "degraded" at in
        if healthy <> 0 then Error (at "healthy.partials must be 0")
        else if degraded <> per_pass then
          Error
            (Printf.sprintf "%s must equal queries_per_pass (%d), got %d" (at "degraded.partials")
               per_pass degraded)
        else Ok ())
  in
  Ok
    (Printf.sprintf "shard: %d series entries, degraded passes PARTIAL on %d/%d queries" n per_pass
       per_pass)

(* The live-ingestion ablation ([BENCH_ingest.json]): ingest
   throughput, then query latency and staleness under background
   merges.  A run that ingested nothing, answered no query or never
   merged measured nothing. *)
let check_ingest json =
  let* _ = num json "merge_interval_ms" "merge_interval_ms" in
  let* ingest = require "ingest object" (Json.member "ingest" json) in
  let* docs = int ingest "docs" "ingest.docs" in
  let* () = nums ingest "ingest." [ "bytes"; "wall_ms"; "docs_per_s" ] in
  let* mixed = require "mixed object" (Json.member "mixed" json) in
  let* queries = int mixed "queries" "mixed.queries" in
  let* () =
    nums mixed "mixed."
      [
        "query_p50_ms";
        "query_p99_ms";
        "staleness_p50_ms";
        "staleness_p95_ms";
        "staleness_max_ms";
        "ingests";
      ]
  in
  let* merges = int mixed "merges" "mixed.merges" in
  if docs <= 0 then Error "ingest.docs must be positive"
  else if queries <= 0 then Error "mixed.queries must be positive"
  else if merges < 1 then Error "mixed.merges must be >= 1"
  else Ok (Printf.sprintf "ingest: %d docs, %d mixed queries, %d merges" docs queries merges)

let schemas =
  [
    ("serve", check_serve);
    ("twig", check_twig);
    ("replica", check_replica);
    ("shard", check_shard);
    ("ingest", check_ingest);
  ]

let check_report json =
  let* version = int json "schema_version" "schema_version" in
  let* () = if version >= 1 then Ok () else Error "schema_version must be >= 1" in
  let known = String.concat ", " (List.map fst schemas) in
  match Json.member "bench" json with
  | Some (Json.Str tag) -> (
    match List.assoc_opt tag schemas with
    | Some check -> check json
    | None -> Error (Printf.sprintf "unknown bench tag %S (known: %s)" tag known))
  | Some _ | None -> Error (Printf.sprintf "missing or mistyped bench tag (known: %s)" known)
