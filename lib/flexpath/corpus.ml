(* Fault-isolated sharded corpus (DESIGN.md §4i).

   N independent WAL-backed stores — one failure domain each — served
   as one logical corpus.  Documents route to shards by a stable hash
   of their id; each shard keeps its own snapshot, WAL, generation
   counter and strike record, so corruption, a mid-query fault or a
   quarantine on one shard never touches the other N−1.

   Queries scatter over the live shards and gather per-shard top-K
   lists into a global top-K.  Scoring is corpus-global even though
   evaluation is per-shard: every probe runs against a scoring view
   whose statistics ({!Stats.merged}) and term frequencies
   ({!Fulltext.Index.overlay_of}) are merged across the live shards,
   so a score computed inside shard 3 equals the score the same node
   would get in one combined environment — which is what makes the
   per-shard top-K lists mergeable and the healthy N-shard answer
   byte-identical to a single-shard corpus.

   The gather is a threshold-algorithm cutoff: the running global
   K-th score is handed to each probe as its [floor], truncating that
   probe's relaxation-chain walk as soon as no unseen answer can beat
   it, and a shard is skipped outright (exactly — skipping is not a
   partial answer) once the gathered K-th answer reaches
   {!Common.max_total} and wins the node-id tie-break against
   anything the shard could hold.

   A shard that cannot answer — corrupt at load, lost mid-query,
   over budget, or quarantined after repeated losses — contributes a
   sound bound on what its unreported answers could have scored
   instead of an error: budget trips report the engine's own
   truncation bound; a lost or down shard reports [max_total], which
   depends only on the query's predicate weights and so needs no data
   from the lost shard.  The merged result is then [Partial] with
   [served]/[total] attribution.

   Replication (DESIGN.md §4l).  With [replicas = R] each shard is a
   replica *set*: R full stores, each with its own snapshot and WAL.
   The primary is the first in-sync live replica; acked records are
   shipped to the followers — applied through their own WAL+fsync
   before the ack in [Sync] mode, or queued and drained shortly after
   in [Async] mode (bounded-lag gauge).  A follower that misses a
   record (disk fault, probe loss) is marked out-of-sync and excluded
   from the queryable view until catch-up: copy the primary's snapshot
   and WAL files and reopen, i.e. genuine snapshot copy + WAL tail
   replay.  Queries fail over: a probe that dies on one replica
   retries the next in-sync replica under the same guard, so a
   single-replica loss yields a [Complete] answer byte-identical to
   the healthy run; [Partial] remains as the R-failures-out-of-R
   floor, with [served]/[total] counting replica sets. *)

type algorithm = Common.algorithm = DPO | SSO | Hybrid

let algorithm_to_string = Common.algorithm_to_string

type ack_mode = Sync | Async

let ack_mode_to_string = function Sync -> "sync" | Async -> "async"
let default_strike_threshold = 3

(* ------------------------------------------------------------------ *)
(* Routing: FNV-1a over the document id.  Stable across runs and
   builds, so a restarted corpus re-derives the same placement from
   ids alone — no routing table needs to be persisted. *)

let fnv1a id =
  let h = ref 0x811c9dc5 in
  String.iter
    (fun c ->
      h := !h lxor Char.code c;
      h := !h * 0x01000193 land 0xffffffff)
    id;
  !h

let route ~shards id = fnv1a id mod shards

(* ------------------------------------------------------------------ *)
(* State *)

(* One copy of a shard.  [rep_synced = false] means the replica missed
   an acked record (failed ship, disk fault, or it has not finished
   async drain/catch-up); it keeps serving nothing until it converges
   back to the primary's acked set, because an out-of-sync replica's
   node ids may not match the published column. *)
type replica = {
  rep_idx : int;
  rep_snapshot_path : string;
  rep_wal_path : string;
  mutable rep_store : Ingest.store option;  (* [None] while the replica is down *)
  mutable rep_generation : int;
  mutable rep_strikes : int;
  mutable rep_quarantined : bool;
  mutable rep_synced : bool;
  mutable rep_pending : Wal.record list;  (* async ship queue, newest first; drained in reverse *)
  mutable rep_pending_since_ms : float option;  (* arrival of the oldest pending record *)
  mutable rep_last_error : string option;
}

type shard = {
  ord : int;
  replicas : replica array;  (* replica 0 carries the legacy single-copy paths *)
  wlock : Mutex.t;  (* serializes writers (ingest/delete/merge/ship/reload) *)
}

(* A replica that can serve right now: live, unquarantined, in sync
   and with no queued-but-unapplied ships — i.e. value-identical to
   the primary's acked corpus, so any of them can serve a probe
   against the published column. *)
let replica_usable r =
  r.rep_store <> None && (not r.rep_quarantined) && r.rep_synced && r.rep_pending = []

(* The primary is the first usable replica — promotion is implicit in
   the ordering, and a recovered lower replica resumes the primary
   role after catch-up. *)
let primary_of s = Array.to_seq s.replicas |> Seq.find replica_usable

(* Query-usable replicas, primary first. *)
let usable_replicas s = Array.to_list s.replicas |> List.filter replica_usable

type shard_view = {
  sv_ord : int;
  sv_replicas : (int * Env.t) array;
      (* (replica index, scoring view) for every in-sync live replica,
         primary first — the probe's failover order.  Empty when the
         whole replica set is down. *)
  sv_docs : Ingest.corpus;
      (* the primary's corpus (the empty corpus while the set is down):
         its document-boundary column maps answers to documents, and
         every usable replica is value-identical to it *)
  sv_bases : int array;
      (* per column row, the pre-order id the document's first node has
         in the single combined corpus, assigned from the corpus-level
         arrival order — what makes cross-shard tie-breaks, and
         therefore merged output, identical to the unsharded corpus *)
  sv_error : string option;
}

type view = {
  v_shards : shard_view array;
  v_gen_vector : string;
      (* one component per shard, "<generation>" or "<generation>!"
         when down/quarantined — the full cache-key scope *)
  v_planner : Env.t;
      (* any live scoring env, or the empty corpus's when every shard is
         down; plans built here serve every shard *)
}

type t = {
  shards : shard array;
  reg_lock : Mutex.t;
      (* protects [order], [next_auto], replica meta fields and view
         publication; never held while waiting on a [wlock] *)
  mutable order : string list;  (* global arrival order, oldest first *)
  mutable next_auto : int;
  strike_threshold : int;
  ack_mode : ack_mode;
  view : view Atomic.t;
  cache : Qcache.t option;  (* [None]: no lookups, no stores *)
  empty : Ingest.corpus;  (* what a down shard's view and an all-down planner read *)
  pool : Taskpool.t;
      (* probe parallelism for the scatter; with zero domains every
         probe runs in the querying domain, in shard order *)
  reopen : snapshot:string -> wal:string -> (Ingest.store, Error.t) Stdlib.result;
      (* opens a replica store with the corpus's own weights, hierarchy,
         scorer and limits — what [reload] must reuse, or a swapped
         replica would score under different parameters *)
}

let with_lock m f =
  Mutex.lock m;
  Fun.protect ~finally:(fun () -> Mutex.unlock m) f

let shard_count t = Array.length t.shards
let replica_count t = Array.length t.shards.(0).replicas
let ack_mode t = t.ack_mode
let shard_of_id t id = route ~shards:(Array.length t.shards) id

(* ------------------------------------------------------------------ *)
(* View construction.  Called with [reg_lock] held; readers get the
   published view with one [Atomic.get] and never block. *)

let publish t =
  let corpus_of r = Ingest.store_corpus (Option.get r.rep_store) in
  (* Corpus-global statistics merge one env per shard — the primary's.
     In-sync followers are value-identical copies; folding them in too
     would double-count every document.  Forced only when some shard is
     live. *)
  let scoring =
    lazy
      (let live =
         Array.to_list t.shards
         |> List.filter_map (fun s -> Option.map (fun r -> Ingest.env (corpus_of r)) (primary_of s))
       in
       let merged = Stats.merged (List.map (fun (e : Env.t) -> e.Env.stats) live) in
       let ov = Fulltext.Index.overlay_of (List.map (fun (e : Env.t) -> e.Env.index) live) in
       fun (e : Env.t) ->
         { e with Env.index = Fulltext.Index.with_overlay e.Env.index ov; stats = merged })
  in
  let rows : (string, int array * int * int) Hashtbl.t = Hashtbl.create 64 in
  let prefix = ref 0 in
  let shard_views =
    Array.map
      (fun s ->
        match usable_replicas s with
        | [] ->
          let err =
            let any_quarantined = Array.exists (fun r -> r.rep_quarantined) s.replicas in
            match
              Array.to_list s.replicas |> List.find_map (fun r -> r.rep_last_error)
            with
            | Some e -> Some e
            | None -> Some (if any_quarantined then "quarantined" else "down")
          in
          { sv_ord = s.ord; sv_replicas = [||]; sv_docs = t.empty; sv_bases = [||]; sv_error = err }
        | prim :: _ as usable ->
          let docs = corpus_of prim in
          let spans = Ingest.spans docs in
          let bases = Array.make (Array.length spans) 0 in
          Array.iteri
            (fun i (sp : Ingest.span) -> Hashtbl.replace rows sp.id (bases, i, sp.stop - sp.first))
            spans;
          if Array.length spans > 0 then prefix := spans.(0).first;
          let sv_replicas =
            usable
            |> List.map (fun r -> (r.rep_idx, Lazy.force scoring (Ingest.env (corpus_of r))))
            |> Array.of_list
          in
          { sv_ord = s.ord; sv_replicas; sv_docs = docs; sv_bases = bases; sv_error = None })
      t.shards
  in
  (* Global bases follow the corpus-level arrival order, so a node's
     mapped id equals its pre-order id in the single combined document.
     Every shard's documents follow the same prefix (the nodes before
     the first document), so numbering starts where any shard's first
     document does.  Ids living on down shards are skipped (their
     absence is exactly what [Partial] reports). *)
  let next = ref !prefix in
  List.iter
    (fun id ->
      match Hashtbl.find_opt rows id with
      | Some (bases, i, size) ->
        bases.(i) <- !next;
        next := !next + size
      | None -> ())
    t.order;
  let gen_vector =
    (* One ':'-joined component per replica — ["<gen>"] when usable,
       ["<gen>!"] when down, quarantined or out-of-sync — so any change
       to a replica's content or availability invalidates cached
       answers.  At R = 1 this is exactly the PR-7 per-shard format. *)
    t.shards
    |> Array.map (fun s ->
           Array.to_list s.replicas
           |> List.map (fun r ->
                  let g = string_of_int r.rep_generation in
                  if replica_usable r then g else g ^ "!")
           |> String.concat ":")
    |> Array.to_list |> String.concat "."
  in
  let planner =
    match Array.find_opt (fun sv -> Array.length sv.sv_replicas > 0) shard_views with
    | Some sv -> snd sv.sv_replicas.(0)
    | None -> Ingest.env t.empty
  in
  Atomic.set t.view { v_shards = shard_views; v_gen_vector = gen_vector; v_planner = planner };
  (* A write leaves the young heap holding its garbage.  Collecting it
     here charges the collection to the write; otherwise the first
     query on the new view pays it (DESIGN.md §4i, "Who pays for a
     write's garbage"). *)
  Gc.minor ()

let generation_vector t = (Atomic.get t.view).v_gen_vector

(* ------------------------------------------------------------------ *)
(* Open / close *)

(* Anonymous ids are [doc-N], minted here and nowhere else: past every
   [doc-<n>] id the corpus holds, starting at [doc-1]. *)
let auto_seed ids =
  List.fold_left
    (fun acc id ->
      match
        if String.starts_with ~prefix:"doc-" id then
          int_of_string_opt (String.sub id 4 (String.length id - 4))
        else None
      with
      | Some n -> max acc (n + 1)
      | None -> acc)
    1 ids

(* Replica 0 keeps the PR-7 single-copy layout, so an existing corpus
   opened with [--replicas R] finds its data as replica 0 and the
   followers bootstrap empty (catch-up or the first writes sync
   them). *)
let replica_paths ~prefix i j =
  if j = 0 then (Printf.sprintf "%s.shard%d" prefix i, Printf.sprintf "%s.shard%d.wal" prefix i)
  else
    ( Printf.sprintf "%s.shard%d.r%d" prefix i j,
      Printf.sprintf "%s.shard%d.r%d.wal" prefix i j )


(* In-sync here means "holds exactly the primary's acked set".  At open
   every replica recovered its own snapshot+WAL; a follower whose
   recovered ids differ from the primary's missed acked records while
   it was away (or tore its WAL) and must catch up before serving. *)
let store_ids st = Ingest.ids (Ingest.store_corpus st)
let synced_with_primary ~prim_ids st = List.equal String.equal prim_ids (store_ids st)

(* Settle who is in sync after replicas recovered from their own
   files: at open, and under [reg_lock] after a reload.  The recovery
   reference is the live replica with the largest recovered acked set,
   ties to the lowest index: a replica that accepted writes while its
   peers were down must win, or its acked records would be clobbered
   by catch-up.  (Delete-only divergence can still pick the stale
   copy; term/epoch numbers are the named follow-up in DESIGN.md §4l.)
   Every live replica that differs from the reference is out of sync
   until catch-up.  Returns the reference's ids, [[]] when none is
   live. *)
let settle_sync replicas =
  let live =
    Array.to_list replicas
    |> List.filter_map (fun r ->
           match r.rep_store with
           | Some st when not r.rep_quarantined -> Some (r, store_ids st)
           | _ -> None)
  in
  let reference =
    List.fold_left
      (fun acc (_, ids) ->
        match acc with
        | Some best when List.length best >= List.length ids -> acc
        | _ -> Some ids)
      None live
  in
  match reference with
  | None -> []
  | Some prim_ids ->
    List.iter (fun (r, ids) -> r.rep_synced <- List.equal String.equal prim_ids ids) live;
    prim_ids

let open_corpus ?weights ?hierarchy ?limits
    ?(strike_threshold = default_strike_threshold) ?(probe_domains = 0) ?(replicas = 1)
    ?(ack_mode = Sync) ?probation_ms ?(cache_mb = Some 64) ~shards ~prefix () =
  if shards < 1 || shards > 1024 then
    Error
      (Error.Config_error
         { what = "shards"; message = Printf.sprintf "shard count %d outside 1..1024" shards })
  else if replicas < 1 || replicas > 8 then
    Error
      (Error.Config_error
         { what = "replicas"; message = Printf.sprintf "replica count %d outside 1..8" replicas })
  else
    match Ingest.empty ?weights ?hierarchy () with
    | Error e -> Error e
    | Ok empty ->
      let reopen ~snapshot ~wal =
        Ingest.open_store ?weights ?hierarchy ?limits ?probation_ms ~snapshot ~wal ()
      in
      let shard_arr =
        Array.init shards (fun i ->
            let reps =
              Array.init replicas (fun j ->
                  let snapshot_path, wal_path = replica_paths ~prefix i j in
                  let rep =
                    {
                      rep_idx = j;
                      rep_snapshot_path = snapshot_path;
                      rep_wal_path = wal_path;
                      rep_store = None;
                      rep_generation = 0;
                      rep_strikes = 0;
                      rep_quarantined = false;
                      rep_synced = true;
                      rep_pending = [];
                      rep_pending_since_ms = None;
                      rep_last_error = None;
                    }
                  in
                  (* Fault isolation starts at load: a replica whose
                     snapshot fails its integrity checks opens down with
                     the error recorded — the rest of the set still
                     serves. *)
                  (match reopen ~snapshot:snapshot_path ~wal:wal_path with
                  | Ok st -> rep.rep_store <- Some st
                  | Error e -> rep.rep_last_error <- Some (Error.to_string e));
                  rep)
            in
            ignore (settle_sync reps);
            { ord = i; replicas = reps; wlock = Mutex.create () })
      in
      let order =
        Array.to_list shard_arr
        |> List.concat_map (fun s ->
               match primary_of s with
               | Some r -> store_ids (Option.get r.rep_store)
               | None -> [])
      in
      let t =
        {
          shards = shard_arr;
          reg_lock = Mutex.create ();
          order;
          next_auto = auto_seed order;
          strike_threshold;
          ack_mode;
          view = Atomic.make { v_shards = [||]; v_gen_vector = ""; v_planner = Ingest.env empty };
          cache = Option.map (fun mb -> Qcache.create ~max_bytes:(mb * 1024 * 1024) ()) cache_mb;
          empty;
          pool =
            (* Domains only help when more than one shard can be probed
               at once; the cap keeps a many-shard corpus from spawning
               more domains than probes it can overlap. *)
            Taskpool.create ~domains:(min probe_domains (shards - 1));
          reopen;
        }
      in
      with_lock t.reg_lock (fun () -> publish t);
      Ok t

let close t =
  Taskpool.shutdown t.pool;
  Array.iter
    (fun s ->
      with_lock s.wlock (fun () ->
          Array.iter
            (fun r ->
              match r.rep_store with
              | Some st ->
                Ingest.close st;
                r.rep_store <- None
              | None -> ())
            s.replicas))
    t.shards

let probe_parallelism t = Taskpool.size t.pool + 1

(* ------------------------------------------------------------------ *)
(* Writes: route, apply to the primary under the shard's writer lock,
   ship to the followers, publish. *)

let unavailable s =
  let reason =
    if Array.exists (fun r -> r.rep_quarantined) s.replicas then "quarantined" else "down"
  in
  Error.Io_error
    {
      path = s.replicas.(0).rep_snapshot_path;
      message = Printf.sprintf "shard %d is %s" s.ord reason;
    }

(* A follower that missed an acked record is out-of-sync: it stops
   serving (and receiving ships) until catch-up, but the ack stands on
   the surviving copies — losing one replica's durability is the
   failure replication exists to absorb. *)
let mark_out_of_sync t rep why =
  with_lock t.reg_lock (fun () ->
      rep.rep_synced <- false;
      rep.rep_pending <- [];
      rep.rep_pending_since_ms <- None;
      rep.rep_generation <- rep.rep_generation + 1;
      rep.rep_last_error <- Some why)

(* Apply one acked record to a follower through its own WAL (fsync
   included).  [replica_ship] is the fault-injection point for a
   follower that dies mid-ship. *)
let ship_record t rep record =
  match rep.rep_store with
  | None -> mark_out_of_sync t rep "ship: replica down"
  | Some st -> (
    match
      Failpoint.hit "replica_ship";
      Ingest.apply_shipped st record
    with
    | Ok () -> with_lock t.reg_lock (fun () -> rep.rep_generation <- rep.rep_generation + 1)
    | Error e -> mark_out_of_sync t rep ("ship: " ^ Error.to_string e)
    | exception Failpoint.Injected p -> mark_out_of_sync t rep ("ship: fault: " ^ p))

(* Drain a follower's async queue, oldest first.  The queue order is
   the primary's ack order, so a fully drained follower is
   value-identical to the primary again. *)
let drain_replica t rep =
  match List.rev rep.rep_pending with
  | [] -> ()
  | records ->
    with_lock t.reg_lock (fun () ->
        rep.rep_pending <- [];
        rep.rep_pending_since_ms <- None);
    List.iter (fun r -> if rep.rep_synced then ship_record t rep r) records

let drain_shard t s = Array.iter (fun rep -> drain_replica t rep) s.replicas

let enqueue_record t rep record =
  with_lock t.reg_lock (fun () ->
      rep.rep_pending <- record :: rep.rep_pending;
      if rep.rep_pending_since_ms = None then rep.rep_pending_since_ms <- Some (Monotime.now_ms ()))

(* Ship an acked record to every usable follower.  The writer has
   drained the shard's queues first, so "usable" (live, unquarantined,
   in sync, nothing queued) is the one target set for both ack modes.
   Out-of-sync replicas are skipped — they need catch-up, not a record
   from the middle of a sequence they hold a prefix of. *)
let ship t s prim record =
  Array.iter
    (fun rep ->
      if rep != prim && replica_usable rep then
        match t.ack_mode with
        | Sync -> ship_record t rep record
        | Async -> enqueue_record t rep record)
    s.replicas

let with_primary t s f =
  with_lock s.wlock (fun () ->
      drain_shard t s;
      match primary_of s with None -> Error (unavailable s) | Some prim -> f prim)

(* The one routed write: every corpus write is a WAL record taken
   through here, so what a write does changes in one place. *)
let write t record =
  let id = match record with Wal.Add { id; _ } | Wal.Delete { id } -> id in
  let s = t.shards.(shard_of_id t id) in
  with_primary t s (fun prim ->
      let st = Option.get prim.rep_store in
      match
        match record with
        | Wal.Add { id; xml } -> Ingest.ingest st ~id xml
        | Wal.Delete { id } -> Ingest.delete st ~id
      with
      | Error e -> Error e
      | Ok () ->
        ship t s prim record;
        with_lock t.reg_lock (fun () ->
            prim.rep_generation <- prim.rep_generation + 1;
            let rest = List.filter (fun existing -> not (String.equal existing id)) t.order in
            t.order <- (match record with Wal.Add _ -> rest @ [ id ] | Wal.Delete _ -> rest);
            publish t);
        Ok ())

let ingest t ?id xml =
  let id =
    match id with
    | Some id -> id
    | None ->
      with_lock t.reg_lock (fun () ->
          let n = t.next_auto in
          t.next_auto <- n + 1;
          Printf.sprintf "doc-%d" n)
  in
  Result.map (fun () -> id) (write t (Wal.Add { id; xml }))

let delete t ~id = write t (Wal.Delete { id })

let check_ord t ord =
  if ord < 0 || ord >= Array.length t.shards then
    Error
      (Error.Config_error
         { what = "shard"; message = Printf.sprintf "shard %d outside 0..%d" ord (Array.length t.shards - 1) })
  else Ok t.shards.(ord)

(* Drain one shard's async queues outside a write — the server's merge
   loop tick, and the lag-bounding knob the async mode's gauge is
   checked against. *)
let ship_pending t ord =
  match check_ord t ord with
  | Error _ -> ()
  | Ok s ->
    with_lock s.wlock (fun () ->
        if Array.exists (fun r -> r.rep_pending <> []) s.replicas then begin
          drain_shard t s;
          with_lock t.reg_lock (fun () -> publish t)
        end)

let merge t ord =
  match check_ord t ord with
  | Error e -> Error e
  | Ok s ->
    with_primary t s (fun prim ->
        let res = Ingest.merge (Option.get prim.rep_store) in
        (match res with
        | Ok () -> ()
        | Error e ->
          (* A failed merge leaves snapshot+WAL intact and the
             replica serving; record it for SHARDS without
             striking.  (A disk error also armed the store's
             read-only probation — see {!Ingest}.) *)
          with_lock t.reg_lock (fun () -> prim.rep_last_error <- Some (Error.to_string e)));
        (* Compact the in-sync followers too: each replica's own
           snapshot must keep pace or its WAL — and every catch-up
           copy of it — grows without bound. *)
        Array.iter
          (fun r ->
            if r != prim && replica_usable r then
              match Ingest.merge (Option.get r.rep_store) with
              | Ok () -> ()
              | Error e ->
                with_lock t.reg_lock (fun () -> r.rep_last_error <- Some (Error.to_string e)))
          s.replicas;
        res)

(* ------------------------------------------------------------------ *)
(* Catch-up and reload. *)

(* Plain byte copy via a temp file + rename, so a crash mid-copy never
   leaves a half-written snapshot or WAL in place. *)
let copy_file src dst =
  if not (Sys.file_exists src) then begin
    if Sys.file_exists dst then Sys.remove dst;
    Ok ()
  end
  else begin
    match
      let ic = open_in_bin src in
      let n = in_channel_length ic in
      let buf = really_input_string ic n in
      close_in ic;
      let tmp = dst ^ ".cp" in
      let oc = open_out_bin tmp in
      output_string oc buf;
      close_out oc;
      Sys.rename tmp dst
    with
    | () -> Ok ()
    | exception Sys_error m -> Error (Error.Io_error { path = dst; message = m })
    | exception Unix.Unix_error (e, fn, _) ->
      Error (Error.Io_error { path = dst; message = fn ^ ": " ^ Unix.error_message e })
  end

(* Reconcile the arrival order with what the shard actually recovered:
   surviving documents keep their global position — so tie-breaks, and
   therefore answers, are unchanged by a reload that recovers the same
   documents — ids the shard no longer holds drop out, and genuinely
   new (WAL-recovered) ids append.  [reg_lock] held. *)
let reconcile_order t ord recovered =
  let keep id = shard_of_id t id <> ord || List.exists (String.equal id) recovered in
  let fresh = List.filter (fun id -> not (List.exists (String.equal id) t.order)) recovered in
  t.order <- List.filter keep t.order @ fresh;
  t.next_auto <- max t.next_auto (auto_seed t.order)

let close_replica rep =
  match rep.rep_store with
  | Some st ->
    Ingest.close st;
    rep.rep_store <- None
  | None -> ()

(* Install the outcome of reopening a replica's store.  A fresh store
   serves with strikes, quarantine and ship queue cleared; [synced]
   says it was verified against the primary (a plain reopen leaves
   that to [settle_sync]).  A failure leaves the replica down and out
   of sync.  Either way the replica's generation moves. *)
let install t rep ~synced res =
  with_lock t.reg_lock (fun () ->
      rep.rep_generation <- rep.rep_generation + 1;
      match res with
      | Ok st ->
        rep.rep_store <- Some st;
        rep.rep_strikes <- 0;
        rep.rep_quarantined <- false;
        if synced then rep.rep_synced <- true;
        rep.rep_pending <- [];
        rep.rep_pending_since_ms <- None;
        rep.rep_last_error <- None
      | Error e ->
        rep.rep_synced <- false;
        rep.rep_last_error <- Some (Error.to_string e));
  Result.map ignore res

(* Catch a follower up to the primary's acked set: copy the primary's
   snapshot and WAL files over the follower's and reopen — the
   ordinary {!Ingest.open_store} replay machinery then performs the
   snapshot load + WAL tail replay, so catch-up exercises exactly the
   recovery path.  [wlock] held; the lock keeps the primary's files
   quiescent for the duration. *)
let catchup_replica t prim rep =
  close_replica rep;
  let prim_st = Option.get prim.rep_store in
  let ( let* ) = Result.bind in
  let res =
    let* () = copy_file prim.rep_snapshot_path rep.rep_snapshot_path in
    let* () = copy_file prim.rep_wal_path rep.rep_wal_path in
    let* st = t.reopen ~snapshot:rep.rep_snapshot_path ~wal:rep.rep_wal_path in
    if synced_with_primary ~prim_ids:(store_ids prim_st) st then Ok st
    else begin
      Ingest.close st;
      Error
        (Error.Io_error
           {
             path = rep.rep_snapshot_path;
             message = "catch-up copy diverged from the primary's acked set";
           })
    end
  in
  install t rep ~synced:true res

(* Reopen one replica from its own on-disk snapshot + WAL (no copy):
   the restart path.  Sync status is settled by the caller. *)
let reopen_replica t rep =
  close_replica rep;
  install t rep ~synced:false (t.reopen ~snapshot:rep.rep_snapshot_path ~wal:rep.rep_wal_path)

let reload t ?replica ord =
  match check_ord t ord with
  | Error e -> Error e
  | Ok s -> (
    match replica with
    | Some j when j < 0 || j >= Array.length s.replicas ->
      Error
        (Error.Config_error
           {
             what = "replica";
             message =
               Printf.sprintf "replica %d outside 0..%d" j (Array.length s.replicas - 1);
           })
    | Some j ->
      (* One replica: catch up from the primary when a distinct one is
         live (snapshot copy + WAL tail replay to the primary's acked
         set — the quarantine-recovery path); otherwise a plain reopen
         from its own files. *)
      with_lock s.wlock (fun () ->
          drain_shard t s;
          let rep = s.replicas.(j) in
          let res =
            match primary_of s with
            | Some prim when prim != rep -> catchup_replica t prim rep
            | _ -> (
              match reopen_replica t rep with
              | Error e -> Error e
              | Ok () ->
                with_lock t.reg_lock (fun () -> reconcile_order t ord (settle_sync s.replicas));
                Ok ())
          in
          with_lock t.reg_lock (fun () -> publish t);
          res)
    | None ->
      (* Whole replica set: reopen every replica from disk, settle the
         sync reference, reconcile the arrival order against it, then
         catch stragglers up from the new primary. *)
      with_lock s.wlock (fun () ->
          let errors =
            Array.to_list s.replicas
            |> List.filter_map (fun rep ->
                   match reopen_replica t rep with Ok () -> None | Error e -> Some e)
          in
          with_lock t.reg_lock (fun () -> reconcile_order t ord (settle_sync s.replicas));
          (match primary_of s with
          | Some prim ->
            Array.iter
              (fun rep ->
                if rep != prim && rep.rep_store <> None && not rep.rep_synced then
                  ignore (catchup_replica t prim rep))
              s.replicas
          | None -> ());
          with_lock t.reg_lock (fun () -> publish t);
          match (primary_of s, errors) with
          | Some _, _ -> Ok ()
          | None, e :: _ -> Error e
          | None, [] -> Error (unavailable s)))

(* ------------------------------------------------------------------ *)
(* Health *)

type replica_role = Primary | Follower

let role_to_string = function Primary -> "primary" | Follower -> "follower"

type replica_health = {
  rh_idx : int;
  rh_role : replica_role;
  rh_live : bool;
  rh_quarantined : bool;
  rh_synced : bool;
  rh_generation : int;
  rh_docs : int;
  rh_strikes : int;
  rh_unmerged : int;
  rh_staleness_ms : float;
  rh_wal_bytes : int;
  rh_replayed : int;
  rh_lag : int;  (* queued-but-unapplied shipped records (async mode) *)
  rh_lag_ms : float;  (* age of the oldest queued record *)
  rh_readonly : bool;
  rh_readonly_retry_ms : int;
  rh_last_error : string option;
}

type shard_health = {
  h_ord : int;
  h_live : bool;
  h_quarantined : bool;
  h_generation : int;
  h_docs : int;
  h_strikes : int;
  h_unmerged : int;
  h_staleness_ms : float;
  h_wal_bytes : int;
  h_replayed : int;
  h_last_error : string option;
  h_replicas : replica_health array;
}

let health t =
  Array.map
    (fun s ->
      let prim = primary_of s in
      let reps =
        Array.map
          (fun r ->
            let docs, unmerged, staleness, wal_bytes, replayed, ro, ro_retry =
              match r.rep_store with
              | Some st ->
                ( Ingest.doc_count (Ingest.store_corpus st),
                  Ingest.unmerged_records st,
                  Ingest.staleness_ms st,
                  Ingest.wal_bytes st,
                  Ingest.replayed_records st,
                  Ingest.readonly st,
                  Ingest.readonly_retry_after_ms st )
              | None -> (0, 0, 0., 0, 0, false, 0)
            in
            {
              rh_idx = r.rep_idx;
              rh_role = (match prim with Some p when p == r -> Primary | _ -> Follower);
              rh_live = r.rep_store <> None && not r.rep_quarantined;
              rh_quarantined = r.rep_quarantined;
              rh_synced = r.rep_synced && r.rep_pending = [];
              rh_generation = r.rep_generation;
              rh_docs = docs;
              rh_strikes = r.rep_strikes;
              rh_unmerged = unmerged;
              rh_staleness_ms = staleness;
              rh_wal_bytes = wal_bytes;
              rh_replayed = replayed;
              rh_lag = List.length r.rep_pending;
              rh_lag_ms =
                (match r.rep_pending_since_ms with
                | None -> 0.
                | Some ts -> Float.max 0.0 (Monotime.now_ms () -. ts));
              rh_readonly = ro;
              rh_readonly_retry_ms = ro_retry;
              rh_last_error = r.rep_last_error;
            })
          s.replicas
      in
      (* The shard-level line is the primary's replica record; a shard
         is live when any replica can serve. *)
      let p = Array.find_opt (fun r -> r.rh_role = Primary) reps in
      let of_primary f dflt = match p with Some r -> f r | None -> dflt in
      {
        h_ord = s.ord;
        h_live = p <> None;
        h_quarantined = Array.for_all (fun r -> r.rep_quarantined) s.replicas;
        h_generation = of_primary (fun r -> r.rh_generation) reps.(0).rh_generation;
        h_docs = of_primary (fun r -> r.rh_docs) 0;
        h_strikes = Array.fold_left (fun acc r -> acc + r.rep_strikes) 0 s.replicas;
        h_unmerged = of_primary (fun r -> r.rh_unmerged) 0;
        h_staleness_ms = of_primary (fun r -> r.rh_staleness_ms) 0.;
        h_wal_bytes = of_primary (fun r -> r.rh_wal_bytes) 0;
        h_replayed = of_primary (fun r -> r.rh_replayed) 0;
        h_last_error = Array.to_list s.replicas |> List.find_map (fun r -> r.rep_last_error);
        h_replicas = reps;
      })
    t.shards

let doc_count t =
  Array.fold_left
    (fun acc s ->
      match primary_of s with
      | Some r -> acc + Ingest.doc_count (Ingest.store_corpus (Option.get r.rep_store))
      | None -> acc)
    0 t.shards

let ids t = t.order

(* The merged scoring view (any live shard's env: corpus-global stats
   and index), or the empty corpus's when every shard is down.  RELAX
   on a sharded server introspects penalty chains against this. *)
let scoring_env t = (Atomic.get t.view).v_planner

(* Write-lane backpressure: the worst backlog across the replica set —
   unmerged WAL records plus any async ship queue — because an acked
   write is not "clear" until every in-sync copy has applied and can
   compact it. *)
let merge_backlog t ord =
  match check_ord t ord with
  | Error _ -> 0
  | Ok s ->
    Array.fold_left
      (fun acc r ->
        let b =
          (match r.rep_store with Some st -> Ingest.unmerged_records st | None -> 0)
          + List.length r.rep_pending
        in
        max acc b)
      0 s.replicas

(* ------------------------------------------------------------------ *)
(* Scatter-gather query *)

type completeness = Complete | Partial of { reason : string; score_bound : float }

type answer = {
  a_doc : string;  (* document id; [""] only for the synthetic corpus root *)
  a_path : string;  (* doc-relative path ({!Ingest.locate}) *)
  a_node : int;  (* pre-order id in the combined corpus — the tie-break key *)
  a_sscore : float;
  a_kscore : float;
  a_dropped : int;
}

type shard_status =
  | Served  (** Full per-shard top-K gathered. *)
  | Skipped  (** Exact threshold-algorithm skip: nothing on this shard can enter the top-K. *)
  | Budget of Guard.reason  (** Probe truncated by the shared budget; bound is the engine's. *)
  | Lost of string  (** Probe failed mid-query; bound is [max_total]. *)
  | Down of string  (** Shard was unavailable before the query (load failure / quarantine). *)

type shard_report = {
  r_ord : int;
  r_replica : int;  (* replica that served (or -1: none did) *)
  r_status : shard_status;
  r_bound : float;
  r_found : int;
}

type result = {
  answers : answer list;
  served : int;
  total : int;
  completeness : completeness;
  degraded : bool;
  reports : shard_report list;
  failovers : int;  (* probes retried on another replica this query *)
  relaxations_evaluated : int;
  passes : int;
  restarts : int;
  tuples_produced : int;
}

type Qcache.ext += Cached_result of result

let answer_line a =
  let loc = if a.a_path = "" then a.a_doc else a.a_doc ^ "/" ^ a.a_path in
  let suffix =
    if a.a_dropped = 0 then "  exact"
    else Printf.sprintf "  (%d predicates relaxed)" a.a_dropped
  in
  Printf.sprintf "%s  ss=%.4f ks=%.4f%s" loc a.a_sscore a.a_kscore suffix

let result_cost r =
  256
  + List.fold_left
      (fun acc a -> acc + 96 + String.length a.a_doc + String.length a.a_path)
      0 r.answers
  + (64 * List.length r.reports)

let cacheable r =
  (match r.completeness with Complete -> true | Partial _ -> false)
  && (not r.degraded) && r.served = r.total

(* A shard-local node id in the combined corpus's pre-order: a
   document's nodes keep their offset from its first node and move to
   its global base; nodes before the first document (the shared root)
   keep their id. *)
let global_id sv node =
  match Ingest.find sv.sv_docs node with
  | Some i -> sv.sv_bases.(i) + (node - (Ingest.spans sv.sv_docs).(i).first)
  | None -> node

let run_algo algorithm ~guard ~plan ~floor ~executor env ~scheme ~k q =
  match algorithm with
  | DPO -> Dpo.run ~guard ~plan ~floor ~executor env ~scheme ~k q
  | SSO -> Sso.run ~guard ~plan ~floor ~executor env ~scheme ~k q
  | Hybrid -> Hybrid.run ~guard ~plan ~floor ~executor env ~scheme ~k q

let strike t rep reason =
  with_lock t.reg_lock (fun () ->
      rep.rep_strikes <- rep.rep_strikes + 1;
      rep.rep_last_error <- Some reason;
      if rep.rep_strikes >= t.strike_threshold && not rep.rep_quarantined then begin
        rep.rep_quarantined <- true;
        rep.rep_generation <- rep.rep_generation + 1
      end)

let clear_strikes t rep =
  if rep.rep_strikes > 0 then with_lock t.reg_lock (fun () -> rep.rep_strikes <- 0)

let query t ?budget ?(algorithm = Hybrid) ?(scheme = Ranking.Structure_first) ?(use_cache = true)
    ?(executor = Joins.Exec.Auto) ~k q =
  let cache = if use_cache then t.cache else None in
  (* One view serves the whole query, and its generation vector scopes
     both cache keys: any write to, loss of, or recovery of {e any}
     shard changes the vector and therefore misses — a cached merged
     answer can never outlive a change to one of the shards it was
     gathered from. *)
  let v = Atomic.get t.view in
  let pk = lazy (Qcache.plan_key ~scope:v.v_gen_vector ~algorithm ~scheme q) in
  let akey = lazy (Qcache.answer_key ~plan_key:(Lazy.force pk) ~k ~budget ~executor) in
  match Option.bind cache (fun c -> Qcache.find_ext c (Lazy.force akey)) with
  | Some (Cached_result r) -> Ok r
  | Some _ | None -> (
    let total = Array.length v.v_shards in
    let guard = match budget with None -> Guard.none | Some b -> Guard.start b in
    let eval () =
      (* With every shard down the planner is the empty corpus's env:
         each probe then reports [Down] under the same data-independent
         [max_total] bound, and an over-capacity query is refused as on
         a healthy corpus. *)
      let plan =
        match Option.bind cache (fun c -> Qcache.find_plan c (Lazy.force pk)) with
        | Some p -> p
        | None ->
          let p = Common.build_plan v.v_planner q in
          Option.iter (fun c -> Qcache.store_plan c (Lazy.force pk) p) cache;
          p
      in
      let mt = Common.max_total scheme plan.Common.penv in
      (* Global node id -> (shard corpus, local id), for rendering the
         answers that survive the gather. *)
      let origins : (int, Ingest.corpus * int) Hashtbl.t = Hashtbl.create 32 in
      let best = ref [] in
      let degraded = ref false in
      let relax = ref 0 and passes = ref 0 and restarts = ref 0 and tuples = ref 0 in
      let failovers = ref 0 in
      let meta_dirty = ref false in
      (* The scatter runs the probes on the corpus's domain pool
         (DESIGN.md §4j); every piece of gather state — [best],
         [origins], the counters — lives under [glock], and the floor
         each probe reads is the running global K-th under that same
         lock.  The floor is a sound monotone cutoff, so a probe that
         reads a momentarily stale (lower) floor merely prunes less;
         the merged top-K stays byte-identical to the sequential
         gather on healthy runs.  A pool of zero domains runs every
         probe in this domain, in shard order: the sequential
         scatter. *)
      let glock = Mutex.create () in
      let locked f = with_lock glock f in
      let floor_fn () =
        locked (fun () ->
            match Common.kth_total scheme k !best with Some x -> x | None -> neg_infinity)
      in
      let probe sv =
        if Array.length sv.sv_replicas = 0 then
          {
            r_ord = sv.sv_ord;
            r_replica = -1;
            r_status = Down (Option.value sv.sv_error ~default:"down");
            r_bound = mt;
            r_found = 0;
          }
        else begin
          (* Exact threshold-algorithm cutoff, tie-breaks
             included: an unprobed shard's best conceivable
             answer is (score = max_total, node = its smallest
             global id).  Once the K-th gathered answer
             reaches max_total AND out-ranks that node on the
             deterministic tie-break, nothing on this shard
             can displace the top-K — so skipping keeps the
             merge byte-identical to the unsharded corpus.
             (An empty shard is skipped outright.) *)
          let skip_exact () =
            Array.length sv.sv_bases = 0
            || locked (fun () ->
                   match List.nth_opt !best (k - 1) with
                   | Some kth ->
                     Ranking.total scheme (Answer.score kth) >= mt
                     && kth.Answer.node < sv.sv_bases.(0)
                   | None -> false)
          in
          if skip_exact () then
            {
              r_ord = sv.sv_ord;
              r_replica = -1;
              r_status = Skipped;
              r_bound = neg_infinity;
              r_found = 0;
            }
          else begin
            (* Failover walk down the replica set: every usable
               replica is value-identical, so retrying the probe on
               the next one — under the same guard, against the same
               column — reproduces the answer the first would have
               given.  Only when the last replica dies too does the
               shard report [Lost]: the R-failures-out-of-R floor. *)
            let n_reps = Array.length sv.sv_replicas in
            let rec attempt i last_reason =
              if i >= n_reps then begin
                locked (fun () -> meta_dirty := true);
                {
                  r_ord = sv.sv_ord;
                  r_replica = -1;
                  r_status = Lost last_reason;
                  r_bound = mt;
                  r_found = 0;
                }
              end
              else begin
                let rep_idx, senv = sv.sv_replicas.(i) in
                match
                  Failpoint.hit "shard_probe";
                  run_algo algorithm ~guard ~plan ~floor:floor_fn ~executor senv ~scheme ~k q
                with
                | r ->
                  locked (fun () ->
                      let mapped =
                        List.map
                          (fun (a : Answer.t) ->
                            let g = global_id sv a.Answer.node in
                            Hashtbl.replace origins g (sv.sv_docs, a.Answer.node);
                            { a with Answer.node = g })
                          r.Common.answers
                      in
                      best := Answer.sort_and_truncate scheme k (mapped @ !best);
                      relax := !relax + r.Common.relaxations_evaluated;
                      passes := !passes + r.Common.passes;
                      restarts := !restarts + r.Common.restarts;
                      tuples := !tuples + r.Common.metrics.Joins.Exec.tuples_produced;
                      degraded := !degraded || r.Common.degraded);
                  let status, bound =
                    match r.Common.completeness with
                    | Common.Complete ->
                      clear_strikes t t.shards.(sv.sv_ord).replicas.(rep_idx);
                      (Served, neg_infinity)
                    | Common.Truncated { reason; score_bound } -> (Budget reason, score_bound)
                  in
                  {
                    r_ord = sv.sv_ord;
                    r_replica = rep_idx;
                    r_status = status;
                    r_bound = bound;
                    r_found = List.length r.Common.answers;
                  }
                | exception (Joins.Exec.Capacity_exceeded _ as e) -> raise e
                | exception e ->
                  let reason =
                    match e with
                    | Failpoint.Injected p -> "fault: " ^ p
                    | e -> Printexc.to_string e
                  in
                  strike t t.shards.(sv.sv_ord).replicas.(rep_idx) reason;
                  if i + 1 < n_reps then locked (fun () -> incr failovers);
                  attempt (i + 1) reason
              end
            in
            attempt 0 "down"
          end
        end
      in
      let report_slots = Array.make total None in
      (* A probe that raises (only [Capacity_exceeded] escapes the
         per-shard handler) is re-raised here after the full join, so
         no probe is still touching the gather state when the
         exception propagates; a zero-domain pool raises it at once
         and probes no further shard. *)
      Taskpool.run t.pool
        (List.init total (fun i () -> report_slots.(i) <- Some (probe v.v_shards.(i))));
      let reports = Array.to_list report_slots |> List.filter_map Fun.id in
      if !meta_dirty then with_lock t.reg_lock (fun () -> publish t);
      let served =
        List.length
          (List.filter
             (fun r -> match r.r_status with Served | Skipped | Budget _ -> true | _ -> false)
             reports)
      in
      let bound =
        List.fold_left
          (fun acc r ->
            match r.r_status with
            | Served | Skipped -> acc
            | Budget _ | Lost _ | Down _ -> Float.max acc r.r_bound)
          neg_infinity reports
      in
      let any_loss =
        List.exists (fun r -> match r.r_status with Lost _ | Down _ -> true | _ -> false) reports
      in
      let first_budget =
        List.find_map
          (fun r -> match r.r_status with Budget reason -> Some reason | _ -> None)
          reports
      in
      let completeness =
        if any_loss then Partial { reason = "shard-loss"; score_bound = bound }
        else
          match first_budget with
          | Some reason -> Partial { reason = Guard.reason_to_string reason; score_bound = bound }
          | None -> Complete
      in
      (* Only the answers that survived the gather are located and
         rendered. *)
      let answers =
        List.map
          (fun (a : Answer.t) ->
            let docs, local = Hashtbl.find origins a.Answer.node in
            let a_doc, a_path = Ingest.locate docs local in
            {
              a_doc;
              a_path;
              a_node = a.Answer.node;
              a_sscore = a.Answer.sscore;
              a_kscore = a.Answer.kscore;
              a_dropped = a.Answer.dropped_predicates;
            })
          !best
      in
      {
        answers;
        served;
        total;
        completeness;
        degraded = !degraded;
        reports;
        failovers = !failovers;
        relaxations_evaluated = !relax;
        passes = !passes;
        restarts = !restarts;
        tuples_produced = !tuples;
      }
    in
    match eval () with
    | r ->
      (match cache with
      | Some c when cacheable r ->
        Qcache.store_ext c (Lazy.force akey) (Cached_result r) ~size:(result_cost r)
      | Some _ | None -> ());
      Ok r
    | exception Joins.Exec.Capacity_exceeded { what; limit; actual } ->
      Error (Error.Capacity { what; limit; actual })
    | exception Failpoint.Injected point -> Error (Error.Fault point))

let cache_counters t =
  match t.cache with
  | Some c -> Qcache.counters c
  | None -> { Qcache.hits = 0; misses = 0; evictions = 0; bytes = 0; entries = 0 }
