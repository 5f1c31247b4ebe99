module Xml = Xmldom.Xml
module Doc = Xmldom.Doc
module Index = Fulltext.Index

(* The live corpus is one document: a synthetic [fx-corpus] root whose
   children are [fx-doc id="..."] wrappers, one per ingested document.
   One document means one index and one statistics table, so scores and
   penalties use corpus-global df / avg_scope_len / #pc / #ad counts.
   Every write keeps those counts exact without a rebuild: an append
   extends the document, index and statistics, a delete splices one
   wrapper's subtree out of them, and an upsert does both, so the
   corpus answers queries {e identically} to an offline rebuild over
   the same document set (the merge-equivalence property the test
   suite checks).  The registry of document ids is carried by the
   wrapper attributes, so a Storage v2 snapshot of the corpus env
   persists everything: no format change, and crash recovery of the
   registry comes free with DOCM.

   This module is the only one that knows that layout.  Everything
   above it reads the document-boundary column: one row per document,
   its id and the pre-order range of its wrapper's subtree, built once
   per corpus value. *)

let corpus_tag = "fx-corpus"
let doc_tag = "fx-doc"
let id_attr = "id"

type span = { id : string; first : int; stop : int }
type corpus = { env : Env.t; spans : span array }

(* ------------------------------------------------------------------ *)
(* Document ids.

   Ids travel on the wire verb line, in WAL payloads and in XML
   attributes; a conservative charset keeps them safe in all three. *)

let valid_id id =
  let ok c =
    (c >= 'a' && c <= 'z')
    || (c >= 'A' && c <= 'Z')
    || (c >= '0' && c <= '9')
    || c = '-' || c = '_' || c = '.'
  in
  id <> "" && String.length id <= 128 && String.for_all ok id

let check_id id =
  if valid_id id then Ok id
  else
    Error
      (Error.Config_error
         {
           what = "document id";
           message =
             Printf.sprintf "invalid id %S (1-128 chars from [A-Za-z0-9._-])" id;
         })

(* ------------------------------------------------------------------ *)
(* Parse budget.

   Ingested bytes are untrusted: a streaming SAX pre-pass enforces the
   element cap without materializing a tree, so an oversized document
   costs one scan, not its memory. *)

type limits = { max_bytes : int; max_elems : int }

let default_limits = { max_bytes = 8 * 1024 * 1024; max_elems = 262144 }

exception Over_elems of int

let xml_error (e : Xmldom.Xml_parser.error) =
  Error.Xml_error { path = None; line = e.line; column = e.column; message = e.message }

let parse_doc ?(limits = default_limits) s =
  if String.length s > limits.max_bytes then
    Error
      (Error.Capacity
         { what = "ingest document bytes"; limit = limits.max_bytes; actual = String.length s })
  else begin
    match
      Xmldom.Xml_sax.fold s ~init:0 ~f:(fun n ev ->
          match ev with
          | Xmldom.Xml_sax.Start_element _ ->
            if n + 1 > limits.max_elems then raise (Over_elems (n + 1)) else n + 1
          | _ -> n)
    with
    | exception Over_elems actual ->
      Error (Error.Capacity { what = "ingest document elements"; limit = limits.max_elems; actual })
    | Error e -> Error (xml_error e)
    | Ok _ -> (
      match Xmldom.Xml_parser.parse s with
      | Error e -> Error (xml_error e)
      | Ok (Xml.Text _) ->
        Error (Error.Config_error { what = "ingest document"; message = "root must be an element" })
      | Ok tree -> Ok tree)
  end

(* ------------------------------------------------------------------ *)
(* Corpus construction. *)

let wrap id tree = Xml.Element (doc_tag, [ (id_attr, id) ], [ tree ])

let corpus_tree docs = Xml.Element (corpus_tag, [], List.map (fun (id, t) -> wrap id t) docs)

(* The column of a corpus document whose wrappers carry [ids], in order. *)
let column doc ids =
  List.map2
    (fun id w -> { id; first = w; stop = Doc.subtree_end doc w })
    ids
    (Doc.children doc (Doc.root doc))
  |> Array.of_list

let of_docs ?weights ?hierarchy docs =
  match Env.build ?weights ?hierarchy (Doc.of_tree (corpus_tree docs)) with
  | Ok env -> Ok { env; spans = column env.Env.doc (List.map fst docs) }
  | Error e -> Error e

let empty ?weights ?hierarchy () = of_docs ?weights ?hierarchy []

let env corpus = corpus.env
let spans corpus = corpus.spans
let ids corpus = Array.fold_right (fun s acc -> s.id :: acc) corpus.spans []

(* The row of document [id]. *)
let row corpus id =
  let rec go i =
    if i = Array.length corpus.spans then None
    else if String.equal corpus.spans.(i).id id then Some i
    else go (i + 1)
  in
  go 0

let mem corpus id = Option.is_some (row corpus id)
let doc_count corpus = Array.length corpus.spans

(* Each wrapper holds one document tree. *)
let docs corpus =
  let doc = corpus.env.Env.doc in
  Array.to_list corpus.spans
  |> List.map (fun s ->
         match Doc.children doc s.first with
         | [ c ] -> (s.id, Doc.tree_of doc c)
         | _ -> (s.id, Doc.tree_of doc s.first))

(* Binary search for the row whose range holds [node]. *)
let find corpus node =
  let spans = corpus.spans in
  let rec go lo hi =
    if lo >= hi then None
    else
      let mid = (lo + hi) / 2 in
      let s = spans.(mid) in
      if node < s.first then go lo mid else if node >= s.stop then go (mid + 1) hi else Some mid
  in
  go 0 (Array.length spans)

(* A document's own wrapper renders as the bare id; a node inside it as
   its path below the wrapper ("fx-corpus[1]/fx-doc[k]/article[1]/p[2]"
   drops its first two steps); the root, outside every document, as its
   tag under the empty id. *)
let locate corpus node =
  let doc = corpus.env.Env.doc in
  match find corpus node with
  | None -> ("", Doc.tag_name doc node)
  | Some i when node = corpus.spans.(i).first -> (corpus.spans.(i).id, "")
  | Some i ->
    let full = Doc.path_to_root doc node in
    let j = String.index_from full (String.index full '/' + 1) '/' in
    (corpus.spans.(i).id, String.sub full (j + 1) (String.length full - j - 1))

let of_env env =
  let doc = env.Env.doc in
  if Doc.tag_name doc (Doc.root doc) <> corpus_tag then
    Error
      (Error.Config_error
         {
           what = "ingest snapshot";
           message =
             Printf.sprintf "snapshot root is <%s>, expected <%s> (not a live-ingest corpus)"
               (Doc.tag_name doc (Doc.root doc))
               corpus_tag;
         })
  else begin
    let kids = Doc.children doc (Doc.root doc) in
    let rec collect acc = function
      | [] -> Ok (List.rev acc)
      | w :: rest -> (
        match Doc.attribute doc w id_attr with
        | Some id when valid_id id && not (List.mem id acc) -> collect (id :: acc) rest
        | Some id ->
          Error
            (Error.Config_error
               {
                 what = "ingest snapshot";
                 message = Printf.sprintf "bad or duplicate document id %S in corpus" id;
               })
        | None ->
          Error
            (Error.Config_error
               { what = "ingest snapshot"; message = "corpus entry without an id attribute" }))
    in
    match collect [] kids with
    | Error e -> Error e
    | Ok ids -> Ok { env; spans = column doc ids }
  end

(* Incremental writes: an append extends the document, index and
   statistics, and a removal splices one document's subtree out of
   them, in place of a rebuild.  Each step is value-identical to a fresh
   build over the resulting corpus (see the respective modules), so
   this is pure speed, not approximation. *)
let append_new corpus ~id tree =
  let env = corpus.env in
  let first_new = Doc.size env.Env.doc in
  let doc = Doc.append_trees env.Env.doc [ wrap id tree ] in
  let index = Index.extend env.Env.index doc ~first_new in
  let stats = Stats.extend env.Env.stats doc ~first_new in
  let env =
    Env.of_parts ~weights:env.Env.weights ~doc ~index ~stats ~hierarchy:env.Env.hierarchy ()
  in
  let row = { id; first = first_new; stop = Doc.size doc } in
  { env; spans = Array.append corpus.spans [| row |] }

(* Splice out the document of row [i]; the column drops the row and
   moves the later rows down by its length. *)
let remove_row corpus i =
  let env = corpus.env in
  let { first; stop; _ } = corpus.spans.(i) in
  let doc = Doc.remove_tree env.Env.doc first in
  let index = Index.remove env.Env.index doc ~first ~stop in
  let stats = Stats.remove env.Env.stats doc ~first ~stop in
  let env =
    Env.of_parts ~weights:env.Env.weights ~doc ~index ~stats ~hierarchy:env.Env.hierarchy ()
  in
  let m = stop - first in
  let spans =
    Array.init
      (Array.length corpus.spans - 1)
      (fun j ->
        if j < i then corpus.spans.(j)
        else
          let s = corpus.spans.(j + 1) in
          { s with first = s.first - m; stop = s.stop - m })
  in
  { env; spans }

let add corpus ~id tree =
  match check_id id with
  | Error e -> Error e
  | Ok id ->
    (* Upsert: the replaced document moves to the end, as if deleted
       and re-ingested — replay of a WAL [Add] is therefore
       idempotent and order-preserving. *)
    let corpus = match row corpus id with Some i -> remove_row corpus i | None -> corpus in
    Ok (append_new corpus ~id tree)

let remove corpus ~id =
  match row corpus id with
  | Some i -> Ok (remove_row corpus i)
  | None ->
    Error
      (Error.Config_error { what = "document id"; message = Printf.sprintf "no document %S" id })

(* ------------------------------------------------------------------ *)
(* WAL-backed store. *)

type store = {
  mutable corpus : corpus;
  wal : Wal.t;
  snapshot : string;
  limits : limits;
  mutable unmerged : int;  (* acked records not yet folded into the snapshot *)
  mutable oldest_unmerged_ms : float option;  (* Monotime.now_ms of the oldest *)
  replayed : int;  (* WAL records replayed when this store was opened *)
  probation_ms : float;
  mutable readonly_since_ms : float option;
      (* [Some t]: a WAL append/fsync or snapshot write returned a disk
         error ([Error.Io_error]) at [t] and the store refuses writes
         until the probation interval passes; the first write attempted
         after that is the re-probe — success clears the flag, another
         disk error re-arms it. *)
}

let apply_record corpus r =
  match r with
  | Wal.Add { id; xml } -> (
    match Xmldom.Xml_parser.parse xml with
    | Error e -> Error (xml_error e)
    | Ok (Xml.Text _) ->
      Error (Error.Config_error { what = "WAL record"; message = "text node as document root" })
    | Ok tree -> add corpus ~id tree)
  | Wal.Delete { id } -> if mem corpus id then remove corpus ~id else Ok corpus

let default_probation_ms = 2_000.0

let open_store ?weights ?hierarchy ?(limits = default_limits)
    ?(probation_ms = default_probation_ms) ~snapshot ~wal:wal_path () =
  let base =
    if Sys.file_exists snapshot then
      match Storage.load ?weights snapshot with
      | Error e -> Error e
      | Ok (env, _outcome) -> of_env env
    else empty ?weights ?hierarchy ()
  in
  match base with
  | Error e -> Error e
  | Ok corpus0 -> (
    match Wal.open_ wal_path with
    | Error e -> Error e
    | Ok (wal, replay) -> (
      let rec replay_all corpus = function
        | [] -> Ok corpus
        | r :: rest -> (
          match apply_record corpus r with
          | Ok corpus -> replay_all corpus rest
          | Error e -> Error e)
      in
      match replay_all corpus0 replay.Wal.records with
      | Error e ->
        Wal.close wal;
        Error e
      | Ok corpus ->
        let replayed = List.length replay.Wal.records in
        Ok
          {
            corpus;
            wal;
            snapshot;
            limits;
            unmerged = replayed;
            oldest_unmerged_ms = (if replayed = 0 then None else Some (Monotime.now_ms ()));
            replayed;
            probation_ms;
            readonly_since_ms = None;
          }))

let store_corpus st = st.corpus
let unmerged_records st = st.unmerged
let replayed_records st = st.replayed
let wal_bytes st = Wal.bytes st.wal
let limits st = st.limits

let staleness_ms st =
  match st.oldest_unmerged_ms with None -> 0.0 | Some t -> Float.max 0.0 (Monotime.now_ms () -. t)

let record_acked st =
  st.unmerged <- st.unmerged + 1;
  if st.oldest_unmerged_ms = None then st.oldest_unmerged_ms <- Some (Monotime.now_ms ())

(* ------------------------------------------------------------------ *)
(* Read-only degrade.

   A disk that returns ENOSPC/EIO on the durability path (WAL append,
   fsync, snapshot rename) cannot be trusted to honor an ack, so the
   store stops accepting writes *explicitly* — [Error.Readonly] with a
   retry hint — rather than crashing or acking non-durably.  Reads are
   unaffected: the in-memory corpus is still exactly the acked set.
   The flag is time-scoped: once [probation_ms] has passed, the next
   write attempt goes through and acts as the re-probe — success
   clears the degrade, another [Io_error] refreshes it.  Only
   [Io_error] (a syscall that actually failed) arms the flag;
   [Error.Fault] stays transient by contract (the PR-6 suite asserts
   writes succeed immediately after an injected fault). *)

let readonly st = st.readonly_since_ms <> None
let probation_ms st = st.probation_ms

let readonly_retry_after_ms st =
  match st.readonly_since_ms with
  | None -> 0
  | Some t ->
    int_of_float (Float.max 1.0 (st.probation_ms -. (Monotime.now_ms () -. t)))

(* [Ok ()] when writes may proceed (healthy, or probation expired and
   this write is the re-probe); [Error Readonly] inside probation. *)
let readonly_gate st =
  match st.readonly_since_ms with
  | None -> Ok ()
  | Some t ->
    let age = Monotime.now_ms () -. t in
    if age >= st.probation_ms then Ok ()
    else
      Error
        (Error.Readonly
           {
             path = st.snapshot;
             retry_after_ms = int_of_float (Float.max 1.0 (st.probation_ms -. age));
           })

(* Classify a durability-path result: a disk error arms (or refreshes)
   the read-only flag, success clears it. *)
let note_disk st = function
  | Error (Error.Io_error _) as e ->
    st.readonly_since_ms <- Some (Monotime.now_ms ());
    e
  | Ok _ as ok ->
    st.readonly_since_ms <- None;
    ok
  | other -> other

(* The one commit every write goes through: build the successor
   corpus (the served one is untouched), then log [record], then
   install the successor and ack — an error anywhere leaves both the
   store and the log describing exactly the acked prefix. *)
let commit st record successor =
  match readonly_gate st with
  | Error e -> Error e
  | Ok () -> (
    match successor st.corpus with
    | Error e -> Error e
    | exception Failpoint.Injected p -> Error (Error.Fault p)
    | Ok corpus -> (
      match note_disk st (Wal.append st.wal record) with
      | Error e -> Error e
      | Ok () ->
        st.corpus <- corpus;
        record_acked st;
        Ok ()))

let ingest st ~id xml =
  commit st (Wal.Add { id; xml }) (fun corpus ->
      match parse_doc ~limits:st.limits xml with
      | Error e -> Error e
      | Ok tree -> add corpus ~id tree)

let delete st ~id = commit st (Wal.Delete { id }) (fun corpus -> remove corpus ~id)

(* Replication: commit one already-acked WAL record shipped from a
   primary — the follower's own WAL and fsync give it independent
   durability — but with no parse budget (the primary already enforced
   it) and deletes of unknown ids as no-ops (replay semantics, not user
   requests), so a follower converges to the primary's acked set no
   matter where its own recovery left off. *)
let apply_shipped st r = commit st r (fun corpus -> apply_record corpus r)

(* Durable compaction: snapshot the whole corpus atomically, then — and
   only then — truncate the log.  The [merge_publish] failpoint sits in
   the window where both the snapshot and the log describe the acked
   corpus; a crash there replays the full log over the new snapshot,
   which the upsert semantics of [apply_record] make a no-op.  The
   injected exception escapes deliberately (it simulates the merge
   domain dying mid-publish; the server's supervisor handles it). *)
let merge st =
  if st.unmerged = 0 && Sys.file_exists st.snapshot then Ok ()
  else begin
    match readonly_gate st with
    | Error e -> Error e
    | Ok () -> (
      match note_disk st (Storage.save st.corpus.env st.snapshot) with
      | Error e -> Error e
      | Ok () ->
        Failpoint.hit "merge_publish";
        (match note_disk st (Wal.truncate st.wal) with
        | Error e -> Error e
        | Ok () ->
          st.unmerged <- 0;
          st.oldest_unmerged_ms <- None;
          Ok ()))
  end

let close st = Wal.close st.wal
