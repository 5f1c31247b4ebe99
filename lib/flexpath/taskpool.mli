(** A persistent domain pool for coarse-grained fork-join parallelism
    (the shard scatter of {!Corpus.query}, DESIGN.md §4i/§4j).

    Domains are spawned once and reused; {!run} executes a batch of
    thunks with the {e caller participating} — a pool of [n] domains
    yields [n+1]-way parallelism.  With [domains:0], {!run} is the
    caller's own loop: the batch runs in order in the calling domain,
    never on a shared queue, so concurrent callers neither run each
    other's thunks nor wait on each other.  Thunks communicate results
    through closures over caller-owned state; the pool imposes no
    result-passing discipline of its own.

    The join is total: {!run} returns (or re-raises) only after every
    thunk of its batch has finished, so caller cleanup never races a
    live task.  The first exception a thunk raises is re-raised from
    {!run} after the join; with no domains nothing else is running, so
    it propagates at once and the batch's later thunks do not run. *)

type t

val create : domains:int -> t
(** Spawn [domains] worker domains ([0] is legal and means every
    batch runs in its caller, in order). *)

val size : t -> int
(** The number of pool domains (excluding the donated caller). *)

val run : t -> (unit -> unit) list -> unit
(** Execute every thunk, on pool domains and the calling domain;
    return once all have settled.  Re-raises the first escaped
    exception after the full join (at once, and without running the
    rest, when the pool has no domains). *)

val shutdown : t -> unit
(** Stop and join the pool domains.  Pending batches are drained
    first; calling {!run} after shutdown executes caller-side only. *)
