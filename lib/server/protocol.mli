(** The wire protocol of [flexpath serve] (DESIGN.md §4e).

    {2 Requests}

    One request per line, terminated by ['\n'] (a trailing ['\r'] is
    tolerated for telnet-style clients).  The verb is case-insensitive;
    everything after it is verb-specific:

    {v
    PING
    QUERY [k=N] [algo=A] [scheme=S] [timeout_ms=F] [tuples=N]
          [steps=N] [restarts=N] <xpath>
    RELAX [steps=N] <xpath>
    INGEST <len> [id=<id>]
    DELETE <id>
    MERGE
    STATS
    RELOAD [<path>]
    SHUTDOWN
    v}

    [QUERY]/[RELAX] options are [key=value] tokens recognized {e only}
    before the first token that is not one — the remainder of the line,
    verbatim, is the XPath fragment (which may itself contain [=]).
    Options missing from the request fall back to the server's
    defaults; a [QUERY] budget option overrides the corresponding
    server default budget axis.

    [INGEST] is the one framed request: its line announces the length
    in bytes of the XML document body that follows — exactly [len]
    bytes, then one framing newline (not counted), mirroring response
    framing.  The parser here handles the line only; the server reads
    the body.  Without [id=] the server assigns a fresh [doc-N] id;
    with it, the write is an {e upsert} of that id — the idempotent
    form clients must use when they intend to retry (see {!Client}).
    Ids are 1-128 characters of [A-Za-z0-9._-].  [DELETE] removes one
    document by id; [MERGE] forces a durable delta merge (snapshot
    write + WAL truncation) instead of waiting for the merge
    interval.

    {2 Responses}

    Every request gets exactly one response, framed so clients can
    stream bodies without sniffing for terminators:

    {v
    <STATUS> <body-length>\n
    <body-length bytes of body>\n
    v}

    The status line carries the byte length of the body (which may be
    0); the newline after the body is framing, not part of the length.
    Statuses: [OK]; [PARTIAL] (a budget tripped — the body opens with a
    [# truncated ...] line, then the best answers found); [ERR] (the
    body opens with [<error-kind>: ] naming the {!Flexpath.Error.t}
    constructor class); [OVERLOADED] (admission control rejected the
    connection, or its queue sojourn exceeded the deadline — the body
    carries a [retry-after-ms=N] backoff hint; after a
    connection-level reject the connection closes); [QUARANTINED] (the
    query's fingerprint has cost the server too many workers and is
    fast-rejected before any evaluation — deterministic, so clients
    must {e not} retry it); [BYE] (acknowledges [SHUTDOWN], then the
    connection closes). *)

type request =
  | Ping
  | Query of {
      xpath : string;
      k : int option;
      algorithm : Flexpath.algorithm option;
      scheme : Flexpath.Ranking.scheme option;
      deadline_ms : float option;
      tuple_budget : int option;
      step_budget : int option;
      restart_cap : int option;
    }
  | Relax of { xpath : string; steps : int option }
  | Ingest of { len : int; id : string option }
      (** The body ([len] bytes + framing newline) follows the line;
          the server reads it before dispatch. *)
  | Delete of { id : string }
  | Merge
  | Stats
  | Shards
      (** Per-shard health of the writable corpus: one line per shard
          (state, generation, docs, strikes, backlog).  An error on a
          read-only server. *)
  | Reload of string option
      (** [None]: re-load the snapshot the server started from (every
          shard, on a corpus server).  [Some arg]: a snapshot path — or,
          on a corpus server, the shard to swap: [<ord>] for the whole
          replica set, [<ord>.<replica>] for one replica (catch-up from
          the primary when a distinct primary is live). *)
  | Shutdown

val parse_request : string -> (request, string) result
(** Parses one request line (without its terminating newline). *)

type status = Ok_ | Partial | Err | Overloaded | Quarantined | Readonly | Bye
(** [Readonly] is the disk-fault degrade (DESIGN.md §4l): the write
    routed to a store whose durability path failed; the body carries a
    [retry-after-ms=N] probation hint.  Reads keep being served — only
    the write class degrades. *)

val status_to_string : status -> string
val status_of_string : string -> (status, string) result

val retry_after_body : int -> string
(** The [OVERLOADED] response body: [retry-after-ms=N]. *)

val parse_retry_after : string -> int option
(** Extracts the [retry-after-ms=N] hint from a response body, if
    present among its whitespace-separated tokens. *)

val write_response : Buffer.t -> status -> string -> unit
(** [write_response buf status body] appends one framed response. *)

val read_response :
  read_line:(unit -> string option) ->
  read_bytes:(int -> string option) ->
  (status * string) option
(** Client-side deframing: [read_line] supplies the status line
    (without its newline), [read_bytes n] supplies exactly [n] bytes or
    [None] on EOF.  Consumes the framing newline after the body.
    [None] on EOF or a malformed frame. *)
