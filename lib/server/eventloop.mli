(** Event-loop connection core (DESIGN.md §4j).

    One I/O domain owns every connection: accept, line/frame
    reassembly into requests, write flushing, and all idle/read/write
    deadlines via a timer heap feeding the poll timeout — no
    [SO_RCVTIMEO] cooperative polling anywhere.  A periodic callback
    (the server's supervision scan) is one more deadline in that
    timeout, so it needs no domain of its own.  Parsed requests are
    handed to [on_request] (the server enqueues them for its worker
    pool); workers never touch a socket, they settle each request with
    exactly one {!respond} or {!drop}, which the loop applies on its
    own domain (completion queue + self-pipe wake-up).

    At most one request per connection is in flight; while it is, read
    interest is disarmed and no deadline can fire, so the loop never
    closes a connection out from under a worker.  An idle connection
    costs an fd and a buffer, not a domain. *)

type t
type conn

val max_line_bytes : int
(** Longest accepted request line; longer input drops the connection. *)

val max_body_bytes : int
(** Largest [INGEST] frame the loop will read; a larger declared
    length is answered with [ERR] and the connection closed. *)

type callbacks = {
  on_request : conn -> Protocol.request -> body:string option -> unit;
      (** Runs on the loop domain — must not block; hand off and return. *)
  on_admitted : unit -> unit;
  on_rejected : unit -> string;
      (** Accept-level overload (connection table full); the returned
          string is sent as the [OVERLOADED] body before closing. *)
  on_dropped : unit -> unit;
      (** Abnormal end the loop decided on: timeout, oversized or
          malformed frame, injected fault, I/O error.  {!drop}
          completions do not come through here — the worker side
          accounts for those. *)
  on_closed : unit -> unit;
      (** Every admitted connection's close, normal or abnormal. *)
  tick : float * (unit -> unit);
      (** [(period_ms, f)]: [f] runs on the loop domain every
          [period_ms] until {!run} returns, drain included; a period of
          [infinity] schedules nothing.  Like [on_request] it must not
          block; a rare domain spawn or join (the server's respawns)
          stalls every connection for its milliseconds and shows in the
          loop lag. *)
}

val create :
  listen_fd:Unix.file_descr ->
  max_connections:int ->
  read_timeout_s:float ->
  write_timeout_s:float ->
  t

val run : t -> callbacks -> unit
(** Run the loop on the calling domain until {!stop} plus drain: the
    listener is deregistered, idle connections get at most one second,
    in-flight requests are answered (one final response per
    connection) and the loop returns once the table is empty. *)

val stop : t -> unit
(** Signal shutdown from any domain; returns immediately. *)

val stopping : t -> bool

val respond :
  t -> conn -> status:Protocol.status -> body:string -> close:bool -> unit
(** Settle an in-flight request from any domain.  [close:false] turns
    the connection back to reading (unless draining, which allows one
    response and then closes). *)

val drop : t -> conn -> unit
(** Settle an in-flight request by closing its connection without a
    response (supervisor casualty claims, worker [Drop] steps). *)

type stats = {
  open_connections : int;
  fds_in_use : int;
  bytes_buffered : int;  (** unparsed input + unflushed output, all conns *)
  lag_count : int;
  lag_p50_ms : float;
  lag_p99_ms : float;  (** loop iteration processing time — readiness delay *)
}

val stats : t -> stats
(** Safe from any domain (gauges are atomics, the lag reservoir is
    behind its own mutex). *)

val dispose : t -> unit
(** Close the self-pipe and poller.  Only after every domain that
    could call {!respond}/{!drop}/{!stop} has been joined. *)
