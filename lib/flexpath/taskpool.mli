(** A persistent domain pool for coarse-grained fork-join parallelism
    (the shard scatter of {!Corpus.query}, DESIGN.md §4i/§4j).

    Domains are spawned once and reused.  {!run} follows one rule at
    every pool size: a batch's thunks are claimed by index, the caller
    claims only from its own batch, and the pool's domains claim
    alongside it — a pool of [n] domains yields [n+1]-way parallelism,
    and with [domains:0] the batch runs in the calling domain, in
    order.  Concurrent callers never run each other's thunks.
    A zero-domain pool never locks: a caller locks only to wake a
    sleeping pool domain or to wait for one running its thunk.  Thunks
    communicate results through closures over caller-owned state; the
    pool imposes no result-passing discipline of its own.

    The join is total: {!run} returns (or re-raises) only after every
    claimed thunk has settled, so caller cleanup never races a live
    task.  Once a thunk raises, the batch's unclaimed thunks settle
    without running, and {!run} re-raises the first exception after
    the join. *)

type t

val create : domains:int -> t
(** Spawn [domains] worker domains ([0] is legal and means every
    batch runs in its caller, in order). *)

val size : t -> int
(** The number of pool domains (excluding the donated caller). *)

val run : t -> (unit -> unit) list -> unit
(** Execute the batch, in the calling domain and on pool domains;
    return once every claimed thunk has settled.  Re-raises the first
    escaped exception after the join; no thunk claimed after it
    runs. *)

val shutdown : t -> unit
(** Stop and join the pool domains.  A pending batch still completes
    in its caller; calling {!run} after shutdown executes caller-side
    only. *)
