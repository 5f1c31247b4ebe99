(** Live ingestion: a writable corpus served as one environment.

    The corpus is a single synthetic document — an [fx-corpus] root
    whose children are [fx-doc id="..."] wrappers, one per ingested
    document — so there is exactly one index and one statistics table,
    and every score or penalty uses corpus-global counts.  Adding a
    document {e extends} the arena, index and statistics incrementally
    ({!Xmldom.Doc.append_trees}, {!Fulltext.Index.extend},
    {!Stats.extend}); deleting one {e splices} its subtree out of them
    ({!Xmldom.Doc.remove_tree}, {!Fulltext.Index.remove},
    {!Stats.remove}), re-parsing and re-tokenizing nothing; an upsert
    is a splice followed by an append.  Each step is value-identical
    to a fresh build over the resulting corpus, up to the intern
    table's tag numbering, so an incrementally maintained corpus
    answers queries byte-for-byte like an offline rebuild — the
    merge-equivalence property the test suite verifies across
    DPO/SSO/Hybrid.

    The {!store} adds durability: every acknowledged write is first
    appended to a CRC-per-record {!Wal}; {!merge} folds the corpus
    into a Storage v2 snapshot atomically and truncates the log only
    after the snapshot rename is durable; {!open_store} replays the
    log tail over the snapshot, so a crash at any byte recovers to
    exactly the acknowledged document set (WAL replay is idempotent:
    an [Add] of an existing id is an upsert).  Every store write —
    {!ingest}, {!delete}, {!apply_shipped} — goes through one commit
    (read-only gate, successor corpus, WAL append + fsync, install),
    and differs from the others only in how it builds the successor;
    an [Error] from any of them means the write is in neither the
    corpus nor the log.  The store never mints ids; anonymous ones
    come from {!Corpus}.  See DESIGN.md §4h for the ack/durability
    contract and crash matrix.

    Corpora are immutable values; a store is single-writer mutable
    state ({!Corpus} serializes each shard's writers and publishes
    every acknowledged write as a new view).

    This module is the only one that knows the layout.  Callers read a
    corpus's {e document-boundary column} ({!spans}) and render answers
    through {!locate}. *)

val valid_id : string -> bool
(** Ids are 1-128 characters from [A-Za-z0-9._-]: safe on the wire
    verb line, in WAL payloads and as XML attribute values. *)

(** {2 Parse budget} *)

type limits = { max_bytes : int; max_elems : int }
(** Caps on one ingested document.  The element cap is enforced by a
    streaming SAX pre-pass, so an oversized document is rejected after
    one scan without materializing its tree. *)

val default_limits : limits
(** 8 MiB, 262144 elements. *)

val parse_doc : ?limits:limits -> string -> (Xmldom.Xml.t, Error.t) result
(** Budget-checked parse of one ingested document; rejects text-node
    roots.  [Capacity] when over budget, [Xml_error] when malformed. *)

(** {2 Corpus values} *)

type corpus

val empty :
  ?weights:Relax.Penalty.weights ->
  ?hierarchy:Tpq.Hierarchy.t ->
  unit ->
  (corpus, Error.t) result

val of_docs :
  ?weights:Relax.Penalty.weights ->
  ?hierarchy:Tpq.Hierarchy.t ->
  (string * Xmldom.Xml.t) list ->
  (corpus, Error.t) result
(** Offline build over a document list — the comparator the
    merge-equivalence tests rebuild against.  Ids must be distinct and
    valid (not re-checked here; [add] checks on the live path). *)

val of_env : Env.t -> (corpus, Error.t) result
(** Re-derive the registry from a snapshot-loaded corpus env; the
    corpus document is its own registry.  [Config_error] when the root
    is not [fx-corpus] or a wrapper id is missing, invalid or
    duplicated. *)

val env : corpus -> Env.t

type span = { id : string; first : int; stop : int }
(** One row of the document-boundary column: a document's id and the
    pre-order ids [first .. stop - 1] of its subtree in the corpus
    document, wrapper included. *)

val spans : corpus -> span array
(** The column, in corpus order (ascending [first]): built once per
    corpus value by {!of_docs}, {!of_env}, {!add} and {!remove}.
    Shared: do not mutate. *)

val ids : corpus -> string list
(** Document ids in corpus order (ingestion order, upserts moving to
    the end). *)

val mem : corpus -> string -> bool
val doc_count : corpus -> int

val docs : corpus -> (string * Xmldom.Xml.t) list
(** Extract every (id, document tree), in corpus order. *)

val find : corpus -> int -> int option
(** The row of {!spans} whose range holds a node; [None] for a node
    outside every document (the corpus root).  Binary search. *)

val locate : corpus -> int -> string * string
(** [(id, path)]: the document holding a node and the node's path below
    its wrapper, in {!Xmldom.Doc.path_to_root} steps ([""] for the
    wrapper itself).  The corpus root, outside every document, is
    [("", <its tag>)]. *)

val add : corpus -> id:string -> Xmldom.Xml.t -> (corpus, Error.t) result
(** Upsert.  A new id appends; an existing id is spliced out and its
    replacement appended, so it moves to the end (delete + re-ingest
    semantics, so WAL replay is idempotent). *)

val remove : corpus -> id:string -> (corpus, Error.t) result
(** Splice the document out; later rows of {!spans} move down by its
    length.  [Config_error] for unknown ids. *)

(** {2 WAL-backed store} *)

type store

val default_probation_ms : float
(** 2000 ms — the read-only probation interval. *)

val open_store :
  ?weights:Relax.Penalty.weights ->
  ?hierarchy:Tpq.Hierarchy.t ->
  ?limits:limits ->
  ?probation_ms:float ->
  snapshot:string ->
  wal:string ->
  unit ->
  (store, Error.t) result
(** Load the snapshot if present (else start empty), open the WAL and
    replay its valid prefix.  [snapshot] is also where {!merge}
    publishes; [weights]/[hierarchy] apply when starting empty (a
    snapshot carries its own index and hierarchy).
    [probation_ms] scopes the read-only degrade (below). *)

val ingest : store -> id:string -> string -> (unit, Error.t) result
(** Upsert document [id]: parse under the store's budget, then {!add}. *)

val delete : store -> id:string -> (unit, Error.t) result
(** {!remove}: [Config_error] for unknown ids. *)

val apply_shipped : store -> Wal.record -> (unit, Error.t) result
(** Replication: commit one already-acked WAL record shipped from a
    primary, appending it to this store's own WAL (fsync included) so
    the follower is independently durable.  Unlike {!ingest} there is
    no parse budget (the primary enforced it at ack time) and a
    [Delete] of an unknown id is a no-op, so shipping the primary's
    acked sequence from any prefix converges the follower to the
    primary's acked set — the property follower catch-up relies on. *)

(** {2 Read-only degrade}

    A disk error ([Error.Io_error] — real or injected via the
    [enospc]/[eio] failpoint flavors) on the durability path arms a
    read-only flag: subsequent writes fail fast with [Error.Readonly]
    carrying a retry hint instead of risking a non-durable ack, while
    reads keep serving the acked in-memory corpus.  After
    [probation_ms] the next write attempt is the automatic re-probe —
    success clears the flag, another disk error refreshes it.
    Injected [Error.Fault]s never arm the flag; they model transient
    faults, not a failing disk. *)

val readonly : store -> bool
(** The store is currently degraded (flag armed; cleared only by a
    successful post-probation write or merge). *)

val readonly_retry_after_ms : store -> int
(** Remaining probation, in ms (0 when not degraded; ≥ 1 while
    degraded, even past probation — the hint for "retry now"). *)

val probation_ms : store -> float

val merge : store -> (unit, Error.t) result
(** Durable compaction: atomic {!Storage.save} of the corpus, then WAL
    truncation.  No-op when nothing is unmerged and a snapshot exists.
    The [merge_publish] failpoint fires between the two steps and its
    {!Failpoint.Injected} escapes deliberately — it simulates the
    merge domain dying in the one window where snapshot and log
    overlap, which replay handles idempotently. *)

val store_corpus : store -> corpus
(** The current corpus — what {!Corpus} publishes after each
    acknowledged write. *)

val unmerged_records : store -> int
(** The [delta_docs] STATS gauge. *)

val replayed_records : store -> int
(** WAL records replayed at open. *)

val wal_bytes : store -> int

val staleness_ms : store -> float
(** Age of the oldest acknowledged-but-unmerged write; 0 when fully
    merged.  Bounded by the merge interval when the merge domain is
    healthy — the operator-facing lag gauge. *)

val limits : store -> limits
val close : store -> unit
