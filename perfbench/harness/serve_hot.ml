(* serve_hot: the real `flexpath serve` binary in its own process,
   driven by one closed-loop client thread over two connections.

   After warm-up every QUERY line is an answer-tier cache hit, so the
   wire, the event loop, the admission queue and the cache lookup do
   the work; RELAX lines rebuild their (short) chain on every request.
   A separate process keeps OCaml 5's stop-the-world minor collections
   of this client from pausing the server's domains. *)

open Rec

let articles_count = 2000
let data_seed = 2004
let workers = 2
let connections = 2
let setup_reps = 11

(* Loadgen's default mix without STATS and without budget options, so
   that no reply depends on timing.  Most popular first. *)
let lines () =
  List.filter_map
    (fun line ->
      if line = "STATS" then None
      else
        Some
          (String.split_on_char ' ' line
          |> List.filter (fun w -> not (String.starts_with ~prefix:"timeout_ms=" w))
          |> String.concat " "))
    Flexpath_loadgen.Loadgen.default_queries
  |> Array.of_list

let cls line = if String.starts_with ~prefix:"RELAX" line then "relax" else "query"

(* Zipf(s) draws over ranks, by inverse CDF. *)
let zipf_schedule ~seed ~s ~n count =
  let w = Array.init n (fun i -> 1.0 /. (float_of_int (i + 1) ** s)) in
  let total = Array.fold_left ( +. ) 0.0 w in
  let rng = Xmark.Prng.create seed in
  Array.init count (fun _ ->
      let u = Xmark.Prng.float rng total in
      let rec pick i acc = if i = n - 1 || u < acc +. w.(i) then i else pick (i + 1) (acc +. w.(i)) in
      pick 0 0.0)

(* ------------------------------------------------------------------ *)
(* A connection with an incremental response parser. *)

type conn = { mutable fd : Unix.file_descr; mutable acc : string; chunk : Bytes.t }

let connect port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port)) with
  | () ->
    Unix.setsockopt fd Unix.TCP_NODELAY true;
    Ok { fd; acc = ""; chunk = Bytes.create 65536 }
  | exception Unix.Unix_error (e, _, _) ->
    Unix.close fd;
    Error (Unix.error_message e)

let send c line =
  let s = line ^ "\n" in
  ignore (Unix.write_substring c.fd s 0 (String.length s))

(* One complete "<STATUS> <len>\n<body>\n" frame off the buffer. *)
let take_frame c =
  match String.index_opt c.acc '\n' with
  | None -> None
  | Some nl -> (
    match String.split_on_char ' ' (String.sub c.acc 0 nl) with
    | [ status; len ] ->
      let len = int_of_string len in
      if String.length c.acc < nl + 1 + len + 1 then None
      else begin
        let body = String.sub c.acc (nl + 1) len in
        c.acc <- String.sub c.acc (nl + len + 2) (String.length c.acc - nl - len - 2);
        Some (status, body)
      end
    | _ -> failwith ("malformed status line: " ^ String.sub c.acc 0 nl))

(* Read what is available; [false] on EOF. *)
let fill c =
  match Unix.read c.fd c.chunk 0 (Bytes.length c.chunk) with
  | 0 -> false
  | n ->
    c.acc <- c.acc ^ Bytes.sub_string c.chunk 0 n;
    true
  | exception Unix.Unix_error (Unix.ECONNRESET, _, _) -> false

let rec recv c = match take_frame c with Some f -> Some f | None -> if fill c then recv c else None

let call c line =
  send c line;
  recv c

(* ------------------------------------------------------------------ *)
(* The server process *)

type server = { pid : int; port : int }

let spawn ~cli ~work ~snapshot ~rep =
  let port_file = Filename.concat work (Printf.sprintf "port.%d" rep) in
  let log = Unix.openfile (Filename.concat work (Printf.sprintf "server.%d.log" rep)) [ O_WRONLY; O_CREAT; O_TRUNC ] 0o644 in
  let devnull = Unix.openfile "/dev/null" [ O_RDONLY ] 0 in
  let args =
    [| cli; "serve"; "--env"; snapshot; "--port"; "0"; "--port-file"; port_file; "--workers"; string_of_int workers |]
  in
  let pid = Unix.create_process cli args devnull log log in
  Unix.close devnull;
  Unix.close log;
  (pid, port_file)

(* Spawn, then poll until a PING returns OK: the set-up time. *)
let start ~cli ~work ~snapshot ~rep =
  let t0 = now_ns () in
  let pid, port_file = spawn ~cli ~work ~snapshot ~rep in
  let deadline = Int64.add t0 60_000_000_000L in
  let rec wait () =
    if now_ns () > deadline then failwith "server did not answer PING within 60 s";
    (match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ -> ()
    | _ -> failwith "server exited during start-up");
    let port =
      match read_file port_file with Some s -> int_of_string_opt (String.trim s) | None -> None
    in
    match Option.map connect port with
    | Some (Ok c) -> (
      match call c "PING" with
      | Some ("OK", _) -> (c, Option.get port)
      | _ ->
        Unix.close c.fd;
        Unix.sleepf 0.0005;
        wait ())
    | Some (Error _) | None ->
      Unix.sleepf 0.0005;
      wait ()
  in
  let c, port = wait () in
  (s_since t0, { pid; port }, c)

let stop srv c =
  ignore (call c "SHUTDOWN");
  Unix.close c.fd;
  ignore (Unix.waitpid [] srv.pid)

(* ------------------------------------------------------------------ *)
(* STATS (traced runs) *)

let stats c =
  match call c "STATS" with
  | Some ("OK", body) -> String.split_on_char '\n' body
  | _ -> failwith "STATS failed"

let counter lines name =
  List.fold_left
    (fun acc l ->
      match String.split_on_char ':' l with
      | [ k; v ] when k = name -> float_of_string (String.trim v)
      | _ -> acc)
    0.0 lines

(* "latency_ms query count=N p50=.. p90=.. p99=.." -> the [key=] value. *)
let field lines ~prefix key =
  List.fold_left
    (fun acc l ->
      if String.starts_with ~prefix l then
        List.fold_left
          (fun acc w ->
            match String.split_on_char '=' w with
            | [ k; v ] when k = key -> float_of_string v
            | _ -> acc)
          acc (String.split_on_char ' ' l)
      else acc)
    0.0 lines

(* ------------------------------------------------------------------ *)

let run ~seed ~seconds ~tiny ~out ~tr ~work ~cli =
  let snapshot = Filename.concat work "articles.env" in
  (let env = Flexpath.Env.make (Xmark.Articles.doc ~seed:data_seed ~count:articles_count ()) in
   match Flexpath.Storage.save env snapshot with
   | Ok () -> ()
   | Error e -> failwith ("Storage.save: " ^ Flexpath.Error.to_string e));
  Gc.full_major ();
  let reps = if tiny then 1 else setup_reps in
  let rec boot rep =
    let s, srv, c = start ~cli ~work ~snapshot ~rep in
    setup out s;
    if rep < reps then begin
      stop srv c;
      boot (rep + 1)
    end
    else (srv, c)
  in
  let srv, first = boot 1 in
  let lines = lines () in
  (* Warm-up: every line answered once; the first reply of each line is
     the reference every later reply must match byte for byte. *)
  let reference =
    Array.map
      (fun line ->
        match call first line with
        | Some ("OK", body) -> body
        | Some (status, body) -> failwith (Printf.sprintf "warm-up %s: %s %s" line status body)
        | None -> failwith ("warm-up: connection closed on " ^ line))
      lines
  in
  let second = match connect srv.port with Ok c -> c | Error e -> failwith e in
  let conns = [| first; second |] in
  let stats0 = if tr.on then stats first else [] in
  let count = if tiny then 2000 else int_of_float (seconds *. 8000.0) in
  let schedule = zipf_schedule ~seed ~s:1.1 ~n:(Array.length lines) count in
  Gc.full_major ();
  let steal0 = steal_ticks () and cpu0 = cpu_s_self () and scpu0 = cpu_s_of_pid srv.pid in
  (* Closed loop: each connection carries one request at a time; the
     next scheduled line goes to whichever connection answers first. *)
  let next = ref 0 and done_ = ref 0 in
  let inflight = Array.make connections (-1) and sent_at = Array.make connections 0L in
  let send_next i =
    if !next < count then begin
      let id = !next in
      incr next;
      inflight.(i) <- id;
      sent_at.(i) <- now_ns ();
      send conns.(i) lines.(schedule.(id))
    end
    else inflight.(i) <- -1
  in
  let complete i result =
    let t1 = now_ns () in
    let id = inflight.(i) in
    let line = schedule.(id) in
    let ms = Int64.to_float (Int64.sub t1 sent_at.(i)) /. 1e6 in
    add_span tr ~op:id "wire.request" ~start:sent_at.(i) ~stop:t1;
    let ok =
      match result with
      | Some ("OK", body) when body = reference.(line) -> true
      | Some ("OK", _) ->
        fail out (Printf.sprintf "reply to %S differs from its first reply" lines.(line));
        false
      | Some (status, body) ->
        fail out (Printf.sprintf "%s on %S: %s" status lines.(line) body);
        false
      | None ->
        fail out (Printf.sprintf "connection dropped on %S" lines.(line));
        false
    in
    op out ~cls:(cls lines.(line)) ~kind:"query" ~ms ~ok;
    incr done_
  in
  let t0 = now_ns () in
  Array.iteri (fun i _ -> send_next i) conns;
  while !done_ < count do
    let fds = List.filter_map (fun i -> if inflight.(i) >= 0 then Some conns.(i).fd else None) [ 0; 1 ] in
    let ready, _, _ = Unix.select fds [] [] 10.0 in
    if ready = [] then failwith "no reply within 10 s";
    Array.iteri
      (fun i c ->
        if inflight.(i) >= 0 && List.mem c.fd ready then
          if fill c then (
            match take_frame c with
            | Some f ->
              complete i (Some f);
              send_next i
            | None -> ())
          else begin
            complete i None;
            Unix.close c.fd;
            (match connect srv.port with
            | Ok c' ->
              c.fd <- c'.fd;
              c.acc <- ""
            | Error e -> failwith ("reconnect: " ^ e));
            send_next i
          end)
      conns
  done;
  let window = s_since t0 in
  let cpu = cpu_s_self () -. cpu0 and scpu = cpu_s_of_pid srv.pid -. scpu0 in
  let steal = steal_ticks () - steal0 in
  record out [ "window_s"; Printf.sprintf "%.9f" window ];
  record out [ "cpu_s"; Printf.sprintf "%.3f" (cpu +. scpu) ];
  record out [ "steal"; string_of_int steal ];
  note out (Printf.sprintf "client cpu %.3f s, server cpu %.3f s" cpu scpu);
  record out [ "rss_mb"; Printf.sprintf "%.3f" (peak_rss_mb (string_of_int srv.pid)) ];
  if tr.on then begin
    let stats1 = stats first in
    let delta name = counter stats1 name -. counter stats0 name in
    let hits = delta "cache_hits" and misses = delta "cache_misses" in
    layer out "server.query_p50_ms" (field stats1 ~prefix:"latency_ms query" "p50") "ms";
    layer out "server.query_p99_ms" (field stats1 ~prefix:"latency_ms query" "p99") "ms";
    layer out "server.loop_lag_p99_ms" (field stats1 ~prefix:"loop_lag_ms" "p99") "ms";
    layer out "qcache.hit_ratio" (if hits +. misses = 0.0 then 0.0 else hits /. (hits +. misses)) "ratio";
    layer out "qcache.bytes" (counter stats1 "cache_bytes") "bytes";
    layer out "server.requests_failed" (delta "requests_failed") "count";
    layer out "server.connections_dropped" (delta "connections_dropped") "count";
    (* Side probe: the snapshot load the server did at start-up. *)
    let loads =
      List.init 3 (fun _ ->
          let t0 = now_ns () in
          (match Flexpath.Storage.load snapshot with
          | Ok _ -> ()
          | Error e -> failwith ("Storage.load: " ^ Flexpath.Error.to_string e));
          s_since t0)
    in
    layer out "storage.load_s" (median loads) "s"
  end;
  Unix.close second.fd;
  stop srv first
