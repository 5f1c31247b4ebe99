(* The event-loop connection core (DESIGN.md §4j).

   One domain owns every connection: accept, line/frame reassembly,
   write flushing, idle/read/write deadlines.  Parsed requests are
   handed to the owner's [on_request] callback (the server pushes them
   at its admission queue); evaluation happens on worker domains that
   never touch a socket — they settle each request by pushing a
   {!respond}/{!drop} completion that the loop applies.  An idle
   connection therefore costs one fd and one buffer, not a domain, and
   there is no 250 ms [SO_RCVTIMEO] wake-up tax anywhere: all timing
   comes from the loop's timer heap feeding the poll timeout.

   Ownership rules, which is what makes the core race-free:
   - connection records are touched ONLY by the loop domain;
   - workers reach a connection exclusively through the completion
     queue ({!respond}/{!drop} enqueue under a mutex and wake the loop
     through a self-pipe);
   - at most one request per connection is in flight, and an inflight
     connection has read interest disarmed and no deadlines — the loop
     will not close it under the worker; every settlement path
     (worker retire, supervisor casualty claim) produces exactly one
     completion, so [open_] guards are belt-and-braces, not load-
     bearing.

   Backpressure: a client that floods bytes while its request is in
   flight fills the connection's input buffer to a high-water mark,
   after which read interest is dropped and TCP pushes back.  Frame
   caps ([max_line_bytes], [max_body_bytes]) bound what a single
   request may buffer. *)

module Failpoint = Flexpath.Failpoint
module Monotime = Flexpath.Monotime

let max_line_bytes = 65536

(* Hard cap on an [INGEST] frame, over and above the store's own
   document budget: a length the server would not even consider is
   answered with [ERR] and the connection closed rather than being
   read-and-discarded. *)
let max_body_bytes = 64 * 1024 * 1024

(* Stop reading (let TCP backpressure the peer) once this many
   unparsed bytes are buffered on one connection; request frames
   themselves may exceed it (an INGEST body is read through it). *)
let inbuf_highwater = 256 * 1024

let read_chunk = 16384

(* ------------------------------------------------------------------ *)
(* A growable input byte window: append at the tail, consume from the
   head.  [scanned] memoizes how far newline scanning got, so line
   reassembly over many small reads stays linear. *)

module Inbuf = struct
  type t = {
    mutable buf : Bytes.t;
    mutable start : int;
    mutable len : int;
    mutable scanned : int;  (* offsets < scanned (relative to start) hold no '\n' *)
  }

  let create () = { buf = Bytes.create 4096; start = 0; len = 0; scanned = 0 }
  let length b = b.len

  let compact b =
    if b.start > 0 then begin
      Bytes.blit b.buf b.start b.buf 0 b.len;
      b.start <- 0
    end

  let ensure b n =
    if b.start + b.len + n > Bytes.length b.buf then begin
      compact b;
      if b.len + n > Bytes.length b.buf then begin
        let cap = ref (max 4096 (Bytes.length b.buf)) in
        while b.len + n > !cap do
          cap := !cap * 2
        done;
        let nb = Bytes.create !cap in
        Bytes.blit b.buf 0 nb 0 b.len;
        b.buf <- nb
      end
    end

  (* One read(2) into the tail; returns the count (0 = EOF). *)
  let read_into b fd n =
    ensure b n;
    let r = Unix.read fd b.buf (b.start + b.len) n in
    if r > 0 then b.len <- b.len + r;
    r

  let find_newline b =
    let rec go i =
      if i >= b.len then begin
        b.scanned <- b.len;
        None
      end
      else if Bytes.get b.buf (b.start + i) = '\n' then Some i
      else go (i + 1)
    in
    go b.scanned

  let take b n =
    let s = Bytes.sub_string b.buf b.start n in
    b.start <- b.start + n;
    b.len <- b.len - n;
    b.scanned <- 0;
    if b.len = 0 then b.start <- 0;
    s
end

(* ------------------------------------------------------------------ *)

type parse_state =
  | Lines
  | Body of Protocol.request * int  (* an INGEST awaiting [len + 1] framed bytes *)

type conn = {
  fd : Unix.file_descr;
  inbuf : Inbuf.t;
  mutable pstate : parse_state;
  mutable inflight : bool;  (* a request is with the worker pool *)
  mutable wbuf : Bytes.t;
  mutable wpos : int;
  mutable wlen : int;
  mutable open_ : bool;
  mutable eof : bool;
  mutable close_after_flush : bool;
  mutable want_read : bool;
  mutable want_write : bool;
  mutable read_deadline : float;  (* ms; [infinity] = none armed *)
  mutable write_deadline : float;
  mutable buffered_acct : int;  (* this conn's contribution to the gauge *)
}

(* Lazy-deletion timer heap: deadlines are pushed freely (every
   activity re-arms), and an entry is honored only if it still equals
   the connection's current deadline when it fires.  Entries hold the
   connection record itself, so a recycled fd number can never match a
   stale timer. *)
module Theap = struct
  type kind = Kread | Kwrite
  type entry = { time : float; conn : conn; kind : kind }
  type t = { mutable a : entry option array; mutable n : int }

  let create () = { a = Array.make 256 None; n = 0 }
  let get h i = match h.a.(i) with Some e -> e | None -> assert false

  let push h e =
    if h.n = Array.length h.a then begin
      let na = Array.make (2 * h.n) None in
      Array.blit h.a 0 na 0 h.n;
      h.a <- na
    end;
    h.a.(h.n) <- Some e;
    let i = ref h.n in
    h.n <- h.n + 1;
    while
      !i > 0
      &&
      let p = (!i - 1) / 2 in
      if (get h p).time > (get h !i).time then begin
        let tmp = h.a.(p) in
        h.a.(p) <- h.a.(!i);
        h.a.(!i) <- tmp;
        i := p;
        true
      end
      else false
    do
      ()
    done

  let peek_time h = if h.n = 0 then None else Some (get h 0).time

  let pop h =
    if h.n = 0 then None
    else begin
      let top = get h 0 in
      h.n <- h.n - 1;
      h.a.(0) <- h.a.(h.n);
      h.a.(h.n) <- None;
      let i = ref 0 in
      let continue = ref (h.n > 1) in
      while !continue do
        let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
        let smallest = ref !i in
        if l < h.n && (get h l).time < (get h !smallest).time then smallest := l;
        if r < h.n && (get h r).time < (get h !smallest).time then smallest := r;
        if !smallest <> !i then begin
          let tmp = h.a.(!smallest) in
          h.a.(!smallest) <- h.a.(!i);
          h.a.(!i) <- tmp;
          i := !smallest
        end
        else continue := false
      done;
      Some top
    end
end

type completion =
  | Respond of { conn : conn; status : Protocol.status; body : string; close : bool }
  | Dropped of conn

type callbacks = {
  on_request : conn -> Protocol.request -> body:string option -> unit;
      (** A fully-reassembled frame, delivered on the loop domain.  The
          connection is already marked inflight; the callee must
          guarantee exactly one eventual {!respond}/{!drop}. *)
  on_admitted : unit -> unit;
  on_rejected : unit -> string;
      (** Accept-level overload; returns the [OVERLOADED] body to send. *)
  on_dropped : unit -> unit;  (** abnormal end: timeout, bad frame, fault, I/O error *)
  on_closed : unit -> unit;  (** every admitted connection's close, normal or not *)
  tick : float * (unit -> unit);  (** period (ms; [infinity] never) and callback, on the loop *)
}

type t = {
  poller : Poller.t;
  listen_fd : Unix.file_descr;
  pipe_r : Unix.file_descr;
  pipe_w : Unix.file_descr;
  max_connections : int;
  read_timeout_s : float;
  write_timeout_s : float;
  conns : (int, conn) Hashtbl.t;
  timers : Theap.t;
  comp_lock : Mutex.t;
  completions : completion Queue.t;
  stopping : bool Atomic.t;
  mutable draining : bool;  (* loop-local: the stop flag has been acted on *)
  (* gauges, readable from any domain *)
  g_open : int Atomic.t;
  g_buffered : int Atomic.t;
  lag_lock : Mutex.t;
  lag : Reservoir.t;
}

let fd_int : Unix.file_descr -> int = Obj.magic

let create ~listen_fd ~max_connections ~read_timeout_s ~write_timeout_s =
  let pipe_r, pipe_w = Unix.pipe ~cloexec:true () in
  Unix.set_nonblock pipe_r;
  Unix.set_nonblock pipe_w;
  {
    poller = Poller.create ();
    listen_fd;
    pipe_r;
    pipe_w;
    max_connections;
    read_timeout_s;
    write_timeout_s;
    conns = Hashtbl.create 1024;
    timers = Theap.create ();
    comp_lock = Mutex.create ();
    completions = Queue.create ();
    stopping = Atomic.make false;
    draining = false;
    g_open = Atomic.make 0;
    g_buffered = Atomic.make 0;
    lag_lock = Mutex.create ();
    lag = Reservoir.create ();
  }

let wake t =
  match Unix.write_substring t.pipe_w "!" 0 1 with
  | _ -> ()
  | exception Unix.Unix_error _ -> ()

let stop t =
  Atomic.set t.stopping true;
  wake t

let stopping t = Atomic.get t.stopping

let push_completion t c =
  Mutex.lock t.comp_lock;
  Queue.push c t.completions;
  Mutex.unlock t.comp_lock;
  wake t

let respond t conn ~status ~body ~close =
  push_completion t (Respond { conn; status; body; close })

let drop t conn = push_completion t (Dropped conn)

type stats = {
  open_connections : int;
  fds_in_use : int;
  bytes_buffered : int;
  lag_count : int;
  lag_p50_ms : float;
  lag_p99_ms : float;
}

let stats t =
  let open_connections = Atomic.get t.g_open in
  Mutex.lock t.lag_lock;
  let lag_count = Reservoir.filled t.lag in
  let lag_p50_ms = if lag_count = 0 then 0.0 else Reservoir.percentile t.lag 50.0 in
  let lag_p99_ms = if lag_count = 0 then 0.0 else Reservoir.percentile t.lag 99.0 in
  Mutex.unlock t.lag_lock;
  {
    open_connections;
    (* listen + poller + both self-pipe ends, alongside the conns *)
    fds_in_use = open_connections + 4;
    bytes_buffered = Atomic.get t.g_buffered;
    lag_count;
    lag_p50_ms;
    lag_p99_ms;
  }

(* ------------------------------------------------------------------ *)
(* Loop internals.  Everything below runs on the loop domain only. *)

let sync_acct t c =
  let now_acct = if c.open_ then Inbuf.length c.inbuf + c.wlen else 0 in
  if now_acct <> c.buffered_acct then begin
    ignore (Atomic.fetch_and_add t.g_buffered (now_acct - c.buffered_acct));
    c.buffered_acct <- now_acct
  end

let set_interest t c =
  if c.open_ then Poller.set t.poller c.fd ~read:c.want_read ~write:c.want_write

let arm_read_deadline t c ~now =
  let limit =
    if t.draining then Float.min t.read_timeout_s 1.0 else t.read_timeout_s
  in
  let dl = now +. (limit *. 1000.0) in
  if dl <> c.read_deadline then begin
    c.read_deadline <- dl;
    Theap.push t.timers { Theap.time = dl; conn = c; kind = Theap.Kread }
  end

let close_conn t cbs c =
  if c.open_ then begin
    c.open_ <- false;
    Poller.remove t.poller c.fd;
    (try Unix.close c.fd with Unix.Unix_error _ -> ());
    Hashtbl.remove t.conns (fd_int c.fd);
    Atomic.decr t.g_open;
    sync_acct t c;
    cbs.on_closed ()
  end

let abandon t cbs c =
  if c.open_ then begin
    cbs.on_dropped ();
    close_conn t cbs c
  end

let render status body =
  let buf = Buffer.create (String.length body + 32) in
  Protocol.write_response buf status body;
  Buffer.contents buf

let queue_output c s =
  let n = String.length s in
  if n > 0 then
    if c.wlen = 0 then begin
      if Bytes.length c.wbuf < n then c.wbuf <- Bytes.create (max n 4096);
      Bytes.blit_string s 0 c.wbuf 0 n;
      c.wpos <- 0;
      c.wlen <- n
    end
    else begin
      let need = c.wlen + n in
      if c.wpos + need > Bytes.length c.wbuf then begin
        let nb = Bytes.create (max need (2 * Bytes.length c.wbuf)) in
        Bytes.blit c.wbuf c.wpos nb 0 c.wlen;
        c.wbuf <- nb;
        c.wpos <- 0
      end;
      Bytes.blit_string s 0 c.wbuf (c.wpos + c.wlen) n;
      c.wlen <- c.wlen + n
    end

(* [flush] and [parse_progress] are mutually recursive through the
   post-flush re-arm: a drained write buffer turns the connection back
   to reading and immediately parses whatever the client pipelined. *)
let rec flush t cbs c ~now =
  if c.open_ && c.wlen > 0 then begin
    match Unix.write c.fd c.wbuf c.wpos c.wlen with
    | n ->
      c.wpos <- c.wpos + n;
      c.wlen <- c.wlen - n;
      if c.wlen > 0 then flush t cbs c ~now else after_flush t cbs c ~now
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
      if not c.want_write then begin
        c.want_write <- true;
        set_interest t c
      end;
      let dl = now +. (t.write_timeout_s *. 1000.0) in
      c.write_deadline <- dl;
      Theap.push t.timers { Theap.time = dl; conn = c; kind = Theap.Kwrite };
      sync_acct t c
    | exception Unix.Unix_error (_, _, _) -> close_conn t cbs c
  end
  else if c.open_ && c.wlen = 0 then after_flush t cbs c ~now

and after_flush t cbs c ~now =
  c.write_deadline <- infinity;
  if c.want_write then begin
    c.want_write <- false;
    set_interest t c
  end;
  sync_acct t c;
  if c.close_after_flush then close_conn t cbs c
  else if not c.inflight then begin
    if not c.want_read then begin
      c.want_read <- true;
      set_interest t c
    end;
    arm_read_deadline t c ~now;
    parse_progress t cbs c ~now
  end

(* Reassemble and hand over as much as the one-request-in-flight rule
   allows.  Runs only when the connection is quiet: nothing in flight
   and nothing pending to write. *)
and parse_progress t cbs c ~now =
  if c.open_ && (not c.inflight) && c.wlen = 0 then begin
    match c.pstate with
    | Lines -> (
      match Inbuf.find_newline c.inbuf with
      | Some i ->
        let raw = Inbuf.take c.inbuf (i + 1) in
        process_line t cbs c ~now (String.sub raw 0 i)
      | None ->
        if Inbuf.length c.inbuf > max_line_bytes then abandon t cbs c
        else if c.eof then
          if Inbuf.length c.inbuf = 0 then close_conn t cbs c
          else
            (* A final unterminated line: served, as the blocking core
               always did. *)
            process_line t cbs c ~now (Inbuf.take c.inbuf (Inbuf.length c.inbuf))
        else sync_acct t c)
    | Body (req, want) ->
      if Inbuf.length c.inbuf >= want then begin
        let raw = Inbuf.take c.inbuf want in
        if raw.[want - 1] = '\n' then begin
          c.pstate <- Lines;
          deliver t cbs c req ~body:(Some (String.sub raw 0 (want - 1)))
        end
        else abandon t cbs c
      end
      else if c.eof then abandon t cbs c
      else sync_acct t c
  end

and process_line t cbs c ~now line =
  if String.trim line = "" then parse_progress t cbs c ~now
  else
    match Protocol.parse_request line with
    | Error msg ->
      queue_output c (render Protocol.Err ("protocol: " ^ msg));
      flush t cbs c ~now
    | Ok (Protocol.Ingest { len; _ }) when len > max_body_bytes ->
      (* Too large to even read through; the only way to resynchronize
         the stream is to end the connection. *)
      c.close_after_flush <- true;
      queue_output c
        (render Protocol.Err
           (Printf.sprintf "ingest: %d-byte body exceeds the %d-byte frame cap" len
              max_body_bytes));
      flush t cbs c ~now
    | Ok (Protocol.Ingest { len; _ } as req) ->
      c.pstate <- Body (req, len + 1);
      parse_progress t cbs c ~now
    | Ok req -> deliver t cbs c req ~body:None

and deliver t cbs c req ~body =
  c.inflight <- true;
  c.read_deadline <- infinity;
  if c.want_read then begin
    c.want_read <- false;
    set_interest t c
  end;
  sync_acct t c;
  cbs.on_request c req ~body

let handle_accept t cbs fd =
  match Failpoint.hit "server_accept" with
  | exception Failpoint.Injected _ ->
    cbs.on_dropped ();
    (try Unix.close fd with Unix.Unix_error _ -> ())
  | () ->
    if Hashtbl.length t.conns >= t.max_connections then begin
      let body = cbs.on_rejected () in
      (* Best-effort synchronous reject: the response is a few dozen
         bytes, which a fresh socket's send buffer always takes; if
         not, the close alone carries the message. *)
      (try ignore (Unix.write_substring fd (render Protocol.Overloaded body) 0
                     (String.length (render Protocol.Overloaded body)))
       with Unix.Unix_error _ -> ());
      try Unix.close fd with Unix.Unix_error _ -> ()
    end
    else begin
      Unix.set_nonblock fd;
      let c =
        {
          fd;
          inbuf = Inbuf.create ();
          pstate = Lines;
          inflight = false;
          wbuf = Bytes.create 0;
          wpos = 0;
          wlen = 0;
          open_ = true;
          eof = false;
          close_after_flush = false;
          want_read = true;
          want_write = false;
          read_deadline = infinity;
          write_deadline = infinity;
          buffered_acct = 0;
        }
      in
      Hashtbl.replace t.conns (fd_int fd) c;
      Atomic.incr t.g_open;
      Poller.set t.poller fd ~read:true ~write:false;
      arm_read_deadline t c ~now:(Monotime.now_ms ());
      cbs.on_admitted ()
    end

let accept_burst t cbs =
  let budget = ref 128 in
  let continue = ref true in
  while !continue && !budget > 0 do
    decr budget;
    match Unix.accept ~cloexec:true t.listen_fd with
    | fd, _ -> handle_accept t cbs fd
    | exception
        Unix.Unix_error
          ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR | Unix.ECONNABORTED), _, _) ->
      continue := false
    | exception Unix.Unix_error ((Unix.EMFILE | Unix.ENFILE), _, _) ->
      (* Out of descriptors: stop accepting this round; pending
         connections stay in the kernel backlog. *)
      continue := false
  done

let handle_read t cbs c ~now =
  match Failpoint.hit "server_read" with
  | exception Failpoint.Injected _ -> abandon t cbs c
  | () -> (
    match Inbuf.read_into c.inbuf c.fd read_chunk with
    | 0 ->
      c.eof <- true;
      (* No more read interest to arm; whatever is buffered decides. *)
      if c.want_read then begin
        c.want_read <- false;
        set_interest t c
      end;
      parse_progress t cbs c ~now
    | _ ->
      if (not c.inflight) && c.read_deadline < infinity then arm_read_deadline t c ~now;
      if Inbuf.length c.inbuf >= inbuf_highwater && c.want_read then begin
        c.want_read <- false;
        set_interest t c
      end;
      sync_acct t c;
      parse_progress t cbs c ~now
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
    | exception Unix.Unix_error (_, _, _) -> abandon t cbs c)

let drain_pipe t =
  let buf = Bytes.create 256 in
  let rec go () =
    match Unix.read t.pipe_r buf 0 256 with
    | 256 -> go ()
    | _ -> ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
  in
  go ()

let apply_completion t cbs ~now = function
  | Respond { conn = c; status; body; close } ->
    if c.open_ then begin
      c.inflight <- false;
      (* During the stopping drain a connection gets one response and
         then closes — admitted work completes, nothing more starts. *)
      if close || t.draining then c.close_after_flush <- true;
      queue_output c (render status body);
      flush t cbs c ~now
    end
  | Dropped c ->
    if c.open_ then begin
      c.inflight <- false;
      close_conn t cbs c
    end

let fire_timers t cbs ~now =
  let continue = ref true in
  while !continue do
    match Theap.peek_time t.timers with
    | Some time when time <= now -> (
      match Theap.pop t.timers with
      | None -> continue := false
      | Some { Theap.time; conn = c; kind } ->
        if c.open_ then (
          match kind with
          | Theap.Kread ->
            if c.read_deadline = time && not c.inflight then abandon t cbs c
          | Theap.Kwrite -> if c.write_deadline = time && c.wlen > 0 then abandon t cbs c))
    | _ -> continue := false
  done

let begin_drain t cbs =
  if not t.draining then begin
    t.draining <- true;
    Poller.remove t.poller t.listen_fd;
    let now = Monotime.now_ms () in
    (* Clamp the idle allowance: a connection whose request bytes are
       in flight still gets served (that is the drain), but an idle
       one cannot stall the shutdown beyond a second. *)
    Hashtbl.iter
      (fun _ c ->
        if (not c.inflight) && c.open_ then begin
          let dl = now +. (Float.min t.read_timeout_s 1.0 *. 1000.0) in
          if dl < c.read_deadline then begin
            c.read_deadline <- dl;
            Theap.push t.timers { Theap.time = dl; conn = c; kind = Theap.Kread }
          end
        end)
      t.conns;
    ignore cbs
  end

let run t cbs =
  Poller.set t.poller t.listen_fd ~read:true ~write:false;
  Poller.set t.poller t.pipe_r ~read:true ~write:false;
  let listen_i = fd_int t.listen_fd and pipe_i = fd_int t.pipe_r in
  (* The periodic callback's deadline also feeds the poll timeout. *)
  let period, tick = cbs.tick in
  let next_tick = ref (Monotime.now_ms () +. period) in
  let finished = ref false in
  while not !finished do
    if Atomic.get t.stopping then begin_drain t cbs;
    if t.draining && Hashtbl.length t.conns = 0 then finished := true
    else begin
      let now = Monotime.now_ms () in
      let timeout_ms =
        let next =
          match Theap.peek_time t.timers with
          | Some time -> Float.min time !next_tick
          | None -> !next_tick
        in
        let d = next -. now in
        if d <= 0.0 then 0 else int_of_float (Float.min d 999.0) + 1
      in
      let events = Poller.wait t.poller ~timeout_ms in
      let t0 = Monotime.now_ms () in
      Array.iter
        (fun (e : Poller.event) ->
          let fdi = fd_int e.fd in
          if fdi = listen_i then (if not t.draining then accept_burst t cbs)
          else if fdi = pipe_i then drain_pipe t
          else
            match Hashtbl.find_opt t.conns fdi with
            | None -> ()
            | Some c ->
              if e.writable && c.open_ && c.wlen > 0 then flush t cbs c ~now:t0;
              if e.readable && c.open_ then handle_read t cbs c ~now:t0
              else if e.error && c.open_ && not c.inflight then abandon t cbs c)
        events;
      (* Completions next: they can both close connections and re-arm
         reads, so they run before timers judge staleness. *)
      let pending =
        Mutex.lock t.comp_lock;
        let q = Queue.create () in
        Queue.transfer t.completions q;
        Mutex.unlock t.comp_lock;
        q
      in
      let tnow = Monotime.now_ms () in
      Queue.iter (fun comp -> apply_completion t cbs ~now:tnow comp) pending;
      if Atomic.get t.stopping then begin_drain t cbs;
      fire_timers t cbs ~now:(Monotime.now_ms ());
      if Monotime.now_ms () >= !next_tick then begin
        tick ();
        next_tick := Monotime.now_ms () +. period
      end;
      (* Loop lag: how long this iteration spent processing — the time
         readiness waited on this domain, the precursor to shedding. *)
      let lag = Monotime.now_ms () -. t0 in
      Mutex.lock t.lag_lock;
      Reservoir.add t.lag lag;
      Mutex.unlock t.lag_lock
    end
  done

(* Called once the worker pool is joined: nothing can push completions
   or wakes anymore, so the pipe and poller can go. *)
let dispose t =
  (try Unix.close t.pipe_r with Unix.Unix_error _ -> ());
  (try Unix.close t.pipe_w with Unix.Unix_error _ -> ());
  try Poller.close t.poller with _ -> ()
