(** Deterministic fault injection.

    A failpoint is a named place in the engine where a failure can be
    provoked on demand: the executor's plan compiler, its join loop, the
    index builder, environment construction, relaxation-chain building.
    Activating a point makes the next passage through it raise
    {!Injected}; the façade converts that into [Error.Fault], so every
    registered failure path is provable to return a typed error (the
    fault-injection test suite does exactly that).

    Points live below the façade in libraries that cannot depend on this
    module ({!Joins.Exec}, {!Fulltext.Index}); they expose a hook
    reference into which {!install} plants the registry's trigger.
    [install] runs automatically when the [Flexpath] library is
    initialized, and also activates every point named in the
    [FLEXPATH_FAILPOINTS] environment variable (comma-separated), which
    is how the CLI's failure paths are exercised end-to-end. *)

exception Injected of string
(** Raised when execution passes an activated failpoint. *)

val catalog : string list
(** Every registered point:
    ["exec.compile"; "exec.run"; "exec.stage"; "index.build";
     "env.make"; "chain.build"], plus the snapshot I/O points
    ["storage_write"; "storage_fsync"; "storage_rename";
     "storage_read_section"] that {!Storage} consults directly: the
    first three fire inside [save] (before the payload write, the
    fsync and the publishing rename respectively — each proves a crash
    at that stage leaves any pre-existing snapshot untouched), the
    last on every section read inside [load]/[verify].  The ingestion
    points ["wal_append"; "wal_fsync"] fire in {!Wal.append} before the
    record write and before its fsync (a crash at either point loses
    only the unacknowledged record), and ["merge_publish"] fires in
    {!Ingest.merge} between the durable snapshot rename and the WAL
    truncation — the window in which both the snapshot and the log
    describe the acked corpus, so replay must be (and is) idempotent.
    The server
    points ["server_accept"; "server_read"; "server_worker"] fire in
    the query server's accept loop, connection reader and request
    dispatcher respectively (see [Flexpath_server.Server]); the server
    converts each into its corresponding error path — rejected
    connection, dropped connection, [ERR]-framed response — instead of
    dying.  The supervision points ["worker_wedge"; "worker_die"]
    simulate the two worker-loss modes the server's supervisor must
    recover from — a worker that stops making progress mid-request,
    and one whose domain terminates on an uncaught exception — and
    ["worker_respawn"] fails the spawn of a replacement as the
    runtime's domain limit would.  ["client_send"] fails a
    {!Flexpath_server.Client} request send, exercising the retry
    path.  The sharding point ["shard_probe"]
    fires inside {!Corpus.query} at the start of each per-shard probe —
    counted arming loses exactly one {e replica} mid-query, which
    failover absorbs when the set holds another copy and the
    scatter-gather merge otherwise absorbs as a sound [PARTIAL] — and
    ["replica_ship"] fires before each WAL-shipping apply in
    {!Corpus.ingest}/[delete], marking the targeted follower
    out-of-sync while the ack stands on the surviving copies. *)

type flavor =
  | Inject  (** Raise {!Injected} — the classic transient fault. *)
  | Errno of Unix.error
      (** Raise [Unix.Unix_error (e, name, "")] — a simulated disk
          fault ([ENOSPC], [EIO]) that flows through the same
          [Unix_error] → [Error.Io_error] conversions a real syscall
          failure takes, and therefore trips the ingest store's
          read-only degrade where a plain injected fault (transient by
          contract) does not. *)

val activate : string -> (unit, string) result
(** Arms a point; fails on names outside {!catalog}. *)

val activate_n : ?flavor:flavor -> string -> int -> (unit, string) result
(** Arms a point for exactly [n] hits, after which it disarms itself.
    Counted arming is what makes the loss-injection points usable: a
    permanently armed [worker_wedge] would wedge every replacement
    worker too, whereas [activate_n "worker_wedge" 1] wedges exactly
    one request. *)

val activate_errno : string -> Unix.error -> int -> (unit, string) result
(** [activate_errno name e n] = [activate_n ~flavor:(Errno e) name n]:
    the next [n] passages through [name] raise
    [Unix.Unix_error (e, name, "")]. *)

val deactivate : string -> unit
val reset : unit -> unit  (** Disarms every point. *)

val is_active : string -> bool
val active : unit -> string list

val hit : string -> unit
(** The trigger: raises [Injected name] when [name] is active, returns
    otherwise.  Engine code calls this (directly or through an installed
    hook) at each registered point. *)

val install : unit -> unit
(** Plants {!hit} into the lower-layer hooks and arms the points named
    in [FLEXPATH_FAILPOINTS] (comma-separated; each item is [name] for
    unlimited hits, [name:N] for [N] hits, [name:once] for one, or the
    disk-fault flavors [name:enospc[:N]] / [name:eio[:N]] for errno
    injection).  Idempotent; runs at library initialization. *)
