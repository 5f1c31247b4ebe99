(** Worker supervision and poison-query quarantine (DESIGN.md §4g).

    OCaml domains cannot be killed, so a worker that wedges inside a
    pathological query — or whose domain dies on an uncaught exception
    — would silently shrink the pool forever.  This module is the
    bookkeeping that lets the server detect and replace such workers:

    - Each pool position holds a {!handle} whose single atomic cell is
      the worker's {e heartbeat}: [Busy] (with the request's
      fingerprint and a {!Flexpath.Monotime.now_ms} timestamp) while a
      request executes, [Idle] between requests, [Dead] if the domain
      body crashed.
    - A periodic {!scan} claims cells that are [Busy] past the
      configured hard wall, or [Dead], by CAS-ing them to [Lost], and
      installs a fresh handle in each such position, on which the
      server spawns a replacement worker — the lost domain itself is
      leaked (it may never return) but pool capacity is preserved.
    - Every lost worker's query fingerprint
      ({!Tpq.Query.canonical_key}) receives a {e strike}; at the
      quarantine threshold (default 2) matching queries are
      fast-rejected with [QUARANTINED] before any evaluation work, so
      a poison query cannot eat the pool one replacement at a time.

    Ownership of the busy→idle transition is race-free by
    construction: the worker retires its busy token with a CAS, the
    scan claims staleness with a CAS on the same value — exactly one
    side wins, so the connection held by a lost worker is accounted
    (closed slot, [active] decrement) exactly once. *)

type handle
(** One worker's heartbeat cell plus its pool position.  A handle is
    written by its worker and read by the supervisor; replacements get
    a fresh handle, so a superseded worker's late writes land in a
    cell nobody reads. *)

type t

val create : workers:int -> hard_wall_ms:float -> quarantine_threshold:int -> t
(** [workers] pool positions, all initially [Idle].  A worker [Busy]
    on one request for longer than [hard_wall_ms] is considered lost
    (set it well above the largest legitimate request budget).
    [quarantine_threshold <= 0] disables quarantining. *)

val occupant : t -> int -> handle
(** The current handle at a pool position (the initial one until
    {!scan} installs a successor). *)

val alive : t -> handle -> bool
(** Is [h] still the occupant of its position?  A wedged worker that
    eventually resumes checks this to learn it was superseded and must
    exit instead of competing with its replacement. *)

type phase
(** A busy token: the value published by {!busy}, consumed by
    {!retire}. *)

val busy : handle -> fingerprint:string option -> phase
(** Publishes [Busy] with the current {!Flexpath.Monotime.now_ms} and
    the request's fingerprint ([Query.canonical_key] for QUERY/RELAX,
    [None] for control verbs).  Returns the token for {!retire}. *)

val retire : handle -> phase -> bool
(** CAS the busy token back to [Idle].  [false] means the scan claimed
    this worker as lost in the meantime: the caller no longer owns the
    request's accounting (the supervisor has done it) and must exit. *)

val mark_dead : handle -> fingerprint:string option -> unit
(** The worker domain's body is terminating on a crash ([worker_die]
    or a genuinely uncaught exception): the next {!scan} turns this
    into a casualty without waiting out the hard wall. *)

val strikes : t -> string -> int
(** The strikes recorded against a fingerprint. *)

val quarantined : t -> string -> bool
(** [true] once a fingerprint has reached the quarantine threshold:
    the server fast-rejects matching queries with [QUARANTINED]. *)

val scan : t -> now_ms:float -> int list
(** One supervision pass: claims stale-[Busy] and [Dead] cells as
    [Lost], strikes their fingerprints, supersedes each such worker
    with a fresh {!occupant}, and returns the lost positions in order.
    The caller settles each lost worker's in-flight job and spawns a
    replacement on the new occupant. *)
