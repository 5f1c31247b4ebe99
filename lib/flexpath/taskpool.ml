(* A small persistent domain pool for intra-query parallelism.

   The pool exists for fan-out work whose unit cost is large relative
   to a mutex round-trip — shard probes, not tuple joins.  Domains are
   spawned once at {!create} and live until {!shutdown}: spawning a
   domain costs milliseconds, far too much to pay per query.

   [run] is a structured fork-join with one rule at every pool size:
   the batch's thunks are claimed by index, the caller claims only
   from its own batch, and pool domains claim alongside it.  So a pool
   of [n] domains gives [n+1]-way parallelism, a pool of none runs the
   batch in the caller in order, and concurrent callers never run each
   other's thunks.  A claim is one atomic increment, and offering or
   withdrawing a batch is one compare-and-set: the lock is taken only
   to wake a sleeping pool domain, or to wait for a pool domain still
   running one of the caller's thunks.  Tasks never return values
   through the pool; callers communicate through closures over their
   own (locked) state, which keeps this module free of any marshalling
   policy.

   The first exception a thunk raises is remembered; every thunk
   claimed after it settles without running, and [run] re-raises it in
   the caller's domain once every claimed thunk has settled — the
   batch always joins fully, so caller-side cleanup code never races a
   still-running task. *)

type batch = {
  thunks : (unit -> unit) array;
  next : int Atomic.t;  (* the next unclaimed index *)
  unsettled : int Atomic.t;  (* thunks not yet run or skipped *)
  failure : exn option Atomic.t;  (* first exception; re-raised by [run] *)
}

type t = {
  offered : batch list Atomic.t;  (* newest first; each withdrawn by its caller *)
  sleepers : int Atomic.t;  (* pool domains announced on [work] *)
  lock : Mutex.t;  (* guards the waits below and [stop] *)
  work : Condition.t;  (* broadcast on an offer while a domain sleeps, and on shutdown *)
  settled : Condition.t;  (* broadcast when a pool domain settles a batch's last thunk *)
  mutable stop : bool;
  mutable domains : unit Domain.t list;
}

let broadcast pool cond =
  Mutex.lock pool.lock;
  Condition.broadcast cond;
  Mutex.unlock pool.lock

let rec update pool f =
  let l = Atomic.get pool.offered in
  if not (Atomic.compare_and_set pool.offered l (f l)) then update pool f

(* The oldest offered batch that still has a thunk to claim. *)
let claimable pool =
  List.fold_left
    (fun found b -> if Atomic.get b.next < Array.length b.thunks then Some b else found)
    None (Atomic.get pool.offered)

(* Claim and settle [b]'s thunks until none is left unclaimed; [true]
   when this call settled the batch's last thunk. *)
let rec drain b =
  let i = Atomic.fetch_and_add b.next 1 in
  i < Array.length b.thunks
  && begin
       (if Option.is_none (Atomic.get b.failure) then
          try b.thunks.(i) () with e -> ignore (Atomic.compare_and_set b.failure None (Some e)));
       Atomic.fetch_and_add b.unsettled (-1) = 1 || drain b
     end

let worker pool () =
  let rec loop () =
    match claimable pool with
    | Some b ->
      (* Only the batch's caller waits on it, and only if a pool
         domain settles its last thunk. *)
      if drain b then broadcast pool pool.settled;
      loop ()
    | None ->
      Mutex.lock pool.lock;
      (* Announce, then look again: an offer either lands before this
         look or sees the sleeper and broadcasts after the wait has
         released the lock. *)
      Atomic.incr pool.sleepers;
      if Option.is_none (claimable pool) && not pool.stop then Condition.wait pool.work pool.lock;
      Atomic.decr pool.sleepers;
      let stop = pool.stop in
      Mutex.unlock pool.lock;
      if not stop then loop ()
  in
  loop ()

let create ~domains =
  let pool =
    {
      offered = Atomic.make [];
      sleepers = Atomic.make 0;
      lock = Mutex.create ();
      work = Condition.create ();
      settled = Condition.create ();
      stop = false;
      domains = [];
    }
  in
  pool.domains <- List.init (max 0 domains) (fun _ -> Domain.spawn (worker pool));
  pool

let size pool = List.length pool.domains

let run pool thunks =
  let thunks = Array.of_list thunks in
  let b =
    {
      thunks;
      next = Atomic.make 0;
      unsettled = Atomic.make (Array.length thunks);
      failure = Atomic.make None;
    }
  in
  update pool (fun l -> b :: l);
  if Atomic.get pool.sleepers > 0 then broadcast pool pool.work;
  ignore (drain b);
  update pool (List.filter (fun o -> o != b));
  if Atomic.get b.unsettled > 0 then begin
    Mutex.lock pool.lock;
    while Atomic.get b.unsettled > 0 do
      Condition.wait pool.settled pool.lock
    done;
    Mutex.unlock pool.lock
  end;
  Option.iter raise (Atomic.get b.failure)

let shutdown pool =
  Mutex.lock pool.lock;
  pool.stop <- true;
  Condition.broadcast pool.work;
  Mutex.unlock pool.lock;
  List.iter Domain.join pool.domains;
  pool.domains <- []
