(** Crash-safe saving and loading of indexed environments.

    Building the index and statistics is a full pass over the document;
    for repeated querying of the same collection, [save] persists the
    arena document, inverted index, statistics and type hierarchy so
    [load] restores them without re-parsing or re-indexing.  The
    document is stored as {!Xmldom.Doc.portable}, without its derived
    sibling-rank column, which [load] recomputes in one pass.

    The on-disk format (v2) is sectioned and checksummed: a header with
    a CRC-protected table of contents, one independent length-prefixed
    CRC-32-guarded section per component, and a checksummed footer (the
    byte layout is in DESIGN.md §4d).  Every checksum is verified
    {e before} any byte reaches [Marshal], so corrupted or adversarial
    snapshots yield typed {!Error.t} values instead of undefined
    unmarshaling behaviour.  [save] writes atomically (temp file +
    fsync + rename): a crash at any point leaves a pre-existing
    snapshot byte-identical.

    Damage confined to the {e derived} sections — index, statistics,
    hierarchy — is repaired: [load] rebuilds them from the intact
    document section and reports {!Recovered}.  A rebuilt hierarchy
    falls back to empty (it is user input, not derivable from the
    document); re-index to restore it.  Format-v1 files (a bare
    Marshal payload) are still read, reported as {!Migrated} — re-save
    to upgrade; v1 is deprecated and has no integrity protection.

    Predicate weights are functions and cannot be persisted; supply
    them again at load time (default uniform).

    The [storage_write]/[storage_fsync]/[storage_rename]/
    [storage_read_section] failpoints make every failure mode of these
    paths deterministically testable (see {!Failpoint}). *)

type outcome =
  | Intact  (** Every checksum verified; nothing was rebuilt. *)
  | Recovered of { rebuilt : string list }
      (** Corruption was found but confined to recoverable parts; the
          named derived sections (["index"], ["statistics"],
          ["hierarchy"]) were rebuilt from the document section.  An
          empty list means only the footer was damaged. *)
  | Migrated of { version : int }
      (** The file uses a deprecated older format that this build still
          reads; re-save to upgrade. *)

val outcome_to_string : outcome -> string

val save : Env.t -> string -> (unit, Error.t) result
(** [save env path] writes a v2 snapshot atomically: serialize in
    memory, write [path.tmp.<pid>], fsync, rename over [path], fsync
    the directory.  On any failure — I/O error, unmarshalable value,
    injected fault — the temp file is removed and an existing [path] is
    untouched.  Never raises (out-of-memory and other asynchronous
    exceptions excepted, and even those leave no debris). *)

val load : ?weights:Relax.Penalty.weights -> string -> (Env.t * outcome, Error.t) result
(** [load path] verifies the whole container before deserializing
    anything.  Typed failures: [Io_error] (unreadable file) and
    [Snapshot_error] with a {!Error.corruption} classifying bad magic,
    version skew, truncation, checksum mismatches and trailing
    garbage.  Damage limited to derived sections degrades to a rebuild
    ({!Recovered}), not an error.  Never raises on any file content. *)

(** {2 Verification} *)

type section_report = { name : string; offset : int; bytes : int; ok : bool }

type report = {
  version : int;
  sections : section_report list;
  footer_ok : bool;
  intact : bool;  (** every checksum verifies *)
  recoverable : bool;  (** the document section is intact, so {!load} would succeed *)
}

val verify : string -> (report, Error.t) result
(** Integrity check without deserializing (and without the memory cost
    of materializing the environment): parses the container, recomputes
    every CRC and reports per-section status.  Structural damage that
    leaves nothing to report (bad magic, version skew, header damage,
    trailing garbage) comes back as [Error], like {!load}.  For v1
    files the only possible check — does the payload deserialize — is
    performed instead. *)

val pp_report : Format.formatter -> report -> unit

(** {2 Format constants} *)

val magic : string
(** First 12 bytes of every snapshot, any version: ["FLEXPATH-ENV"].
    The byte after it is the format version. *)

val format_version : int
(** The version [save] writes: 2. *)
