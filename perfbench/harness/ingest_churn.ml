(* ingest_churn: reads under live writes, in-process on Flexpath.Corpus.

   Two shards, one replica, sync acks, sequential probes; the store
   files live under the run's fresh work directory and every fsync the
   store makes stays.  The schedule is rounds of one write (3/4
   appends, 1/8 upserts, 1/8 deletes of ids the benchmark's model holds
   live) followed by one or two queries of the same text, so queries
   are ~60% of ops.  Every write starts a new cache generation: the
   first query after it misses, a second one repeats within the
   generation and hits.  Misses are 2/3 of the queries, so both the
   median and p99 fall among them, well clear of the hits below.
   Corpus.merge runs on both shards after every 50 writes, in the
   timed path, in place of the server's timer-driven merge domain. *)

open Rec
module Corpus = Flexpath.Corpus

let base_docs = 500
let data_seed = 2004
let setup_reps = 11
let epochs = 2
let merge_every = 50

let query_text =
  "//article[./section[./algorithm and ./paragraph[.contains(\"XML\" and \"streaming\")]]]"

(* The merge-equivalence queries of test_corpus.ml, plus the churn query. *)
let checkpoint_queries =
  [ query_text; "//article[.contains(\"xml\")]"; "//section[./title]" ]

let archetypes =
  Xmark.Articles.[| Exact; Title_keywords; Algo_elsewhere; No_algorithm; Keywords_only; Irrelevant |]

(* Document [n] of the benchmark's universe: the same bytes for the same
   [n] on every run and machine. *)
let body n =
  let rng = Xmark.Prng.create (data_seed + n) in
  let archetype = archetypes.(Xmark.Prng.int rng (Array.length archetypes)) in
  Xmldom.Xml.to_string (Xmark.Articles.article rng archetype n)

let get_ok what = function
  | Ok v -> v
  | Error e -> failwith (what ^ ": " ^ Flexpath.Error.to_string e)

let open_corpus dir =
  mkdir_p dir;
  get_ok "open_corpus"
    (Corpus.open_corpus ~shards:2 ~replicas:1 ~ack_mode:Corpus.Sync ~probe_domains:0
       ~prefix:(Filename.concat dir "corpus") ())

(* ------------------------------------------------------------------ *)
(* The model: acked (id, body) pairs in arrival order, upserts moving to
   the end — the order Corpus.ids reports. *)

type model = { mutable docs : (string * string) list (* newest first *) }

let model_ids m = List.rev_map fst m.docs
let model_remove m id = m.docs <- List.filter (fun (i, _) -> i <> id) m.docs
let model_put m id b =
  model_remove m id;
  m.docs <- (id, b) :: m.docs

(* Answers of the plain single-environment rebuild, rendered like
   Corpus.answer_line (the doc-relative convention of test_corpus.ml). *)
let rebuild_lines m =
  let trees = List.rev_map (fun (id, b) -> (id, get_ok "parse_doc" (Flexpath.Ingest.parse_doc b))) m.docs in
  let env = Flexpath.Ingest.env (get_ok "of_docs" (Flexpath.Ingest.of_docs trees)) in
  let doc = env.Flexpath.Env.doc in
  let spans =
    Xmldom.Doc.children doc (Xmldom.Doc.root doc)
    |> List.map (fun w -> (w, Xmldom.Doc.subtree_end doc w, Option.get (Xmldom.Doc.attribute doc w "id")))
  in
  let render (a : Flexpath.Answer.t) =
    let w, _, id = List.find (fun (w, e, _) -> w <= a.node && a.node < e) spans in
    let full = Xmldom.Doc.path_to_root doc a.node in
    let rel =
      if a.node = w then ""
      else
        let i = String.index full '/' in
        let j = String.index_from full (i + 1) '/' in
        String.sub full (j + 1) (String.length full - j - 1)
    in
    let loc = if rel = "" then id else id ^ "/" ^ rel in
    let suffix =
      if a.dropped_predicates = 0 then "  exact"
      else Printf.sprintf "  (%d predicates relaxed)" a.dropped_predicates
    in
    Printf.sprintf "%s  ss=%.4f ks=%.4f%s|%d|%Lx|%Lx" loc a.sscore a.kscore suffix a.node
      (Int64.bits_of_float a.sscore) (Int64.bits_of_float a.kscore)
  in
  List.map
    (fun qs ->
      let r = get_ok "plain query" (Flexpath.run env ~k:10 (Tpq.Xpath.parse_exn qs)) in
      List.map render r.Flexpath.Common.answers)
    checkpoint_queries

let corpus_lines c =
  List.map
    (fun qs ->
      let r = get_ok "corpus query" (Corpus.query c ~k:10 (Tpq.Xpath.parse_exn qs)) in
      List.map
        (fun (a : Corpus.answer) ->
          Printf.sprintf "%s|%d|%Lx|%Lx" (Corpus.answer_line a) a.a_node
            (Int64.bits_of_float a.a_sscore) (Int64.bits_of_float a.a_kscore))
        r.answers)
    checkpoint_queries

(* ------------------------------------------------------------------ *)
(* The schedule *)

type write = Append of int | Upsert of string * int | Delete of string

type step = Write of write | Query of bool (* repeat within the generation *) | Merge of int

(* Blocks of 8 rounds hold exactly 6 appends, 1 upsert, 1 delete and 4
   repeat queries, shuffled, so every seed runs the same class mix. *)
let schedule ~seed ~blocks ~first_new ~base_ids =
  let rng = Xmark.Prng.create seed in
  (* The ids the model holds live, to draw upserts and deletes from. *)
  let live = ref (Array.of_list base_ids) in
  let next = ref first_new and writes = ref 0 in
  let steps = ref [] in
  for _ = 1 to blocks do
    let kinds = [| `A; `A; `A; `A; `A; `A; `U; `D |] and repeats = Array.init 8 (fun i -> i < 4) in
    shuffle rng kinds;
    shuffle rng repeats;
    Array.iteri
      (fun r kind ->
        let fresh () =
          let n = !next in
          incr next;
          n
        in
        let w =
          match kind with
          | `A ->
            let n = fresh () in
            live := Array.append !live [| Printf.sprintf "n%d" n |];
            Append n
          | `U -> Upsert (!live.(Xmark.Prng.int rng (Array.length !live)), fresh ())
          | `D ->
            let i = Xmark.Prng.int rng (Array.length !live) in
            let id = !live.(i) in
            live := Array.append (Array.sub !live 0 i) (Array.sub !live (i + 1) (Array.length !live - i - 1));
            Delete id
        in
        steps := Query false :: Write w :: !steps;
        if repeats.(r) then steps := Query true :: !steps;
        incr writes;
        if !writes mod merge_every = 0 then steps := Merge 1 :: Merge 0 :: !steps)
      kinds
  done;
  Array.of_list (List.rev !steps)

(* ------------------------------------------------------------------ *)

let wal_bytes c = Array.fold_left (fun acc h -> acc + h.Corpus.h_wal_bytes) 0 (Corpus.health c)

(* The run is [epochs] passes of the same schedule, each over a fresh
   corpus: a longer stream over one corpus would grow its heap past a
   GiB.  Set-up runs [setup_reps] times, each in a fresh directory from
   a collected heap, and the repetitions are split between the epochs,
   the last one of each group serving its epoch.  The machine's speed
   wanders over seconds; two epochs, and set-ups at both, make every
   median follow more of it than one stretch of the run would. *)
let run ~seed ~seconds ~tiny ~out ~tr ~work =
  let base = if tiny then 100 else base_docs in
  let base_bodies = Array.init base (fun n -> (Printf.sprintf "b%d" n, body n)) in
  let reps = if tiny then 1 else setup_reps and epochs = if tiny then 1 else epochs in
  let set_up first last =
    let corpus = ref None in
    for rep = first to last do
      (match !corpus with
      | Some (c, dir) ->
        Corpus.close c;
        rm_rf dir
      | None -> ());
      corpus := None;
      Gc.full_major ();
      let dir = Filename.concat work (Printf.sprintf "setup%d" rep) in
      let t0 = now_ns () in
      let c = open_corpus dir in
      Array.iter (fun (id, b) -> ignore (get_ok "ingest" (Corpus.ingest c ~id b))) base_bodies;
      for s = 0 to 1 do
        get_ok "merge" (Corpus.merge c s)
      done;
      setup out (s_since t0);
      corpus := Some (c, dir)
    done;
    Option.get !corpus
  in
  (* 12 queries per block: 84 blocks, 1008 queries, per epoch at
     --seconds 10 — and never fewer, so a p99 always has ten samples
     beyond it. *)
  let blocks = max 84 (int_of_float (seconds *. 8.4)) in
  let steps =
    schedule ~seed ~blocks ~first_new:base ~base_ids:(Array.to_list (Array.map fst base_bodies))
  in
  let q = Tpq.Xpath.parse_exn query_text in
  let window = ref 0.0 and cpu = ref 0.0 and steal = ref 0 and rss = ref 0.0 in
  let hits = ref 0 and misses = ref 0 in
  let body_bytes = ref 0 and wal_growth = ref 0 and snap_bytes = ref 0 and merges = ref 0 in
  let probes = ref 0 and skipped = ref 0 in
  let unmerged_max = ref 0 and staleness_max = ref 0.0 in
  (* Upserts and deletes share the rebuild path and one op class. *)
  let upsert_ms = ref [] and delete_ms = ref [] in
  let timed id f =
    let t0 = now_ns () in
    let r = span tr ~op:id "op" f in
    let ms = ms_since t0 in
    window := !window +. ms;
    (r, ms)
  in
  for e = 0 to epochs - 1 do
    let c, dir = set_up ((e * reps / epochs) + 1) ((e + 1) * reps / epochs) in
    let m = { docs = List.rev (Array.to_list base_bodies) } in
    let checkpoint label =
      let label = Printf.sprintf "epoch %d, %s" (e + 1) label in
      if model_ids m <> Corpus.ids c then fail out (label ^ ": corpus ids differ from the model")
      else if rebuild_lines m <> corpus_lines c then
        fail out (label ^ ": corpus answers differ from an Ingest.of_docs rebuild of the model")
    in
    (* Warm-up: the query once, untimed. *)
    ignore (get_ok "warm-up query" (Corpus.query c ~k:10 q));
    Gc.full_major ();
    let steal0 = steal_ticks () and cpu0 = cpu_s_self () in
    let cache0 = Corpus.cache_counters c in
    let half = Array.length steps / 2 in
    Array.iteri
      (fun i step ->
        let id = (e * Array.length steps) + i + 1 in
        if i = half then checkpoint "mid-run checkpoint";
        match step with
        | Query repeat ->
          let r, ms = timed id (fun () -> Corpus.query c ~k:10 q) in
          let ok =
            match r with
            | Ok r when r.Corpus.completeness = Corpus.Complete ->
              List.iter
                (fun (rep : Corpus.shard_report) ->
                  incr probes;
                  if rep.r_status = Corpus.Skipped then incr skipped)
                r.reports;
              true
            | Ok _ ->
              fail out "query: not Complete";
              false
            | Error e ->
              fail out ("query: " ^ Flexpath.Error.to_string e);
              false
          in
          op out ~cls:(if repeat then "query.repeat" else "query.after_write") ~kind:"query" ~ms ~ok
        | Merge s ->
          let r, ms = timed id (fun () -> Corpus.merge c s) in
          (match Unix.stat (Filename.concat dir (Printf.sprintf "corpus.shard%d" s)) with
          | st ->
            snap_bytes := !snap_bytes + st.Unix.st_size;
            incr merges
          | exception Unix.Unix_error _ -> ());
          let ok = Result.is_ok r in
          if not ok then fail out "merge failed";
          op out ~cls:"merge" ~kind:"merge" ~ms ~ok
        | Write w ->
          let wal0 = wal_bytes c in
          let cls, bytes, (r, ms) =
            match w with
            | Append n ->
              let id' = Printf.sprintf "n%d" n and b = body n in
              ("write.append", String.length b, timed id (fun () -> Result.map ignore (Corpus.ingest c ~id:id' b)))
            | Upsert (id', n) ->
              let b = body n in
              ("write.rebuild", String.length b, timed id (fun () -> Result.map ignore (Corpus.ingest c ~id:id' b)))
            | Delete id' -> ("write.rebuild", 0, timed id (fun () -> Corpus.delete c ~id:id'))
          in
          let ok =
            match r with
            | Ok () ->
              (match w with
              | Append n -> model_put m (Printf.sprintf "n%d" n) (body n)
              | Upsert (id', n) -> model_put m id' (body n)
              | Delete id' -> model_remove m id');
              true
            | Error e ->
              fail out (Printf.sprintf "%s: %s" cls (Flexpath.Error.to_string e));
              false
          in
          op out ~cls ~kind:"write" ~ms ~ok;
          (match w with
          | Append _ -> ()
          | Upsert _ -> upsert_ms := ms :: !upsert_ms
          | Delete _ -> delete_ms := ms :: !delete_ms);
          body_bytes := !body_bytes + bytes;
          wal_growth := !wal_growth + max 0 (wal_bytes c - wal0);
          Array.iter
            (fun h ->
              unmerged_max := max !unmerged_max h.Corpus.h_unmerged;
              staleness_max := Float.max !staleness_max h.Corpus.h_staleness_ms)
            (Corpus.health c);
          if tr.on then
            (* Side probe: the parse the ingest did internally. *)
            match w with
            | Append n | Upsert (_, n) ->
              let b = body n in
              ignore (span tr ~op:id "ingest.parse" (fun () -> Flexpath.Ingest.parse_doc b))
            | Delete _ -> ())
      steps;
    cpu := !cpu +. (cpu_s_self () -. cpu0);
    steal := !steal + (steal_ticks () - steal0);
    let cache1 = Corpus.cache_counters c in
    hits := !hits + (cache1.Flexpath.Qcache.hits - cache0.Flexpath.Qcache.hits);
    misses := !misses + (cache1.misses - cache0.misses);
    (* The peak before the final checkpoint, whose rebuild of the whole
       model is the check's memory, not the workload's.  So only the
       last epoch ends in one: at an earlier epoch's end it would raise
       the peak the next epoch reads (by 4 MiB, measured). *)
    rss := peak_rss_mb "self";
    if e = epochs - 1 then checkpoint "final checkpoint";
    Corpus.close c;
    rm_rf dir
  done;
  record out [ "window_s"; Printf.sprintf "%.9f" (!window /. 1000.0) ];
  record out [ "cpu_s"; Printf.sprintf "%.3f" !cpu ];
  record out [ "steal"; string_of_int !steal ];
  record out [ "rss_mb"; Printf.sprintf "%.3f" !rss ];
  if tr.on then begin
    let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b in
    layer out "corpus.upsert_ms" (median !upsert_ms) "ms";
    layer out "corpus.delete_ms" (median !delete_ms) "ms";
    layer out "qcache.churn_hit_ratio" (ratio !hits (!hits + !misses)) "ratio";
    layer out "corpus.shard_skip_ratio" (ratio !skipped !probes) "ratio";
    layer out "wal.bytes_per_user_byte" (ratio !wal_growth !body_bytes) "ratio";
    layer out "corpus.write_amplification" (ratio (!wal_growth + !snap_bytes) !body_bytes) "ratio";
    layer out "storage.snapshot_bytes_per_merge" (ratio !snap_bytes !merges) "bytes";
    layer out "corpus.unmerged_max" (float_of_int !unmerged_max) "count";
    layer out "corpus.staleness_max_ms" !staleness_max "ms"
  end
