(* A small persistent domain pool for intra-query parallelism.

   The pool exists for fan-out work whose unit cost is large relative
   to a mutex round-trip — shard probes, not tuple joins.  Domains are
   spawned once at {!create} and live until {!shutdown}: spawning a
   domain costs milliseconds, far too much to pay per query.

   [run] is a structured fork-join: the caller donates its own domain
   to the work instead of blocking idle, so a pool of [n] domains
   gives [n+1]-way parallelism.  A pool of zero domains queues
   nothing: [run] is the caller's own loop over its batch, so
   concurrent callers never run each other's tasks or wait on each
   other.  Tasks never return values through the pool; callers
   communicate through closures over their own (locked) state, which
   keeps this module free of any marshalling policy.

   An exception escaping a task is caught, remembered, and re-raised
   from [run] in the caller's domain after every task of that batch
   has settled — the batch always joins fully, so caller-side cleanup
   code never races a still-running task.  In the zero-domain loop
   nothing else is running, so the first exception propagates at once
   and the batch's later tasks do not run. *)

type task = { thunk : unit -> unit; batch : batch }

and batch = {
  mutable remaining : int;
  mutable failure : exn option;  (* first exception; re-raised by [run] *)
}

type t = {
  lock : Mutex.t;
  work : Condition.t;  (* signaled on push and on shutdown *)
  settled : Condition.t;  (* broadcast when any batch counter reaches 0 *)
  queue : task Queue.t;
  mutable stop : bool;
  mutable domains : unit Domain.t list;
}

let exec pool task =
  (match task.thunk () with
  | () -> ()
  | exception e ->
    Mutex.lock pool.lock;
    if task.batch.failure = None then task.batch.failure <- Some e;
    Mutex.unlock pool.lock);
  Mutex.lock pool.lock;
  task.batch.remaining <- task.batch.remaining - 1;
  if task.batch.remaining = 0 then Condition.broadcast pool.settled;
  Mutex.unlock pool.lock

let worker pool () =
  let rec loop () =
    Mutex.lock pool.lock;
    while Queue.is_empty pool.queue && not pool.stop do
      Condition.wait pool.work pool.lock
    done;
    if Queue.is_empty pool.queue then (
      Mutex.unlock pool.lock (* stop && drained *))
    else begin
      let task = Queue.pop pool.queue in
      Mutex.unlock pool.lock;
      exec pool task;
      loop ()
    end
  in
  loop ()

let create ~domains =
  let pool =
    {
      lock = Mutex.create ();
      work = Condition.create ();
      settled = Condition.create ();
      queue = Queue.create ();
      stop = false;
      domains = [];
    }
  in
  pool.domains <- List.init (max 0 domains) (fun _ -> Domain.spawn (worker pool));
  pool

let size pool = List.length pool.domains

let run pool thunks =
  match (pool.domains, thunks) with
  | _, [] -> ()
  | [], thunks -> List.iter (fun thunk -> thunk ()) thunks
  | _ :: _, thunks ->
    let batch = { remaining = List.length thunks; failure = None } in
    Mutex.lock pool.lock;
    List.iter
      (fun thunk ->
        Queue.push { thunk; batch } pool.queue;
        Condition.signal pool.work)
      thunks;
    Mutex.unlock pool.lock;
    (* Donate the calling domain: drain whatever is queued (tasks from
       a concurrent batch are fine — work-conserving either way), then
       wait for this batch's own counter. *)
    let rec help () =
      Mutex.lock pool.lock;
      if Queue.is_empty pool.queue then Mutex.unlock pool.lock
      else begin
        let task = Queue.pop pool.queue in
        Mutex.unlock pool.lock;
        exec pool task;
        help ()
      end
    in
    help ();
    Mutex.lock pool.lock;
    while batch.remaining > 0 do
      Condition.wait pool.settled pool.lock
    done;
    let failure = batch.failure in
    Mutex.unlock pool.lock;
    (match failure with Some e -> raise e | None -> ())

let shutdown pool =
  Mutex.lock pool.lock;
  pool.stop <- true;
  Condition.broadcast pool.work;
  Mutex.unlock pool.lock;
  List.iter Domain.join pool.domains;
  pool.domains <- []
