(* Crash-safe snapshot storage.

   Format v2 — a self-describing, sectioned, checksummed layout:

     offset 0   magic "FLEXPATH-ENV"                        12 bytes
     offset 12  format version                               1 byte
     offset 13  section count (u32 LE)                       4 bytes
     offset 17  table of contents, one entry per section:
                  tag (4 bytes) | payload length (u32 LE) | payload CRC-32 (u32 LE)
     ...        header CRC-32 (u32 LE) over every byte above it
     ...        section payloads, concatenated in TOC order
     ...        footer: "FEND" | file CRC-32 (u32 LE) over every byte
                before the CRC field (footer tag included)
     EOF        anything after the footer is trailing garbage

   The four sections are the arena document, the inverted index, the
   statistics tables and the type hierarchy, each an independent
   [Marshal] payload.  Each of the first three is a portable form: the
   document without its derived sibling-rank column ([Doc.portable],
   whose layout predates that column, so older snapshots read back
   unchanged), and the index and statistics without the document, so
   it is stored exactly once.  [load] recomputes the rank column in one
   pass over the document; nothing derived is persisted.  Every
   payload is CRC-checked before [Marshal.from_string] ever sees it, so
   a bit-flipped or truncated snapshot yields a typed error instead of
   undefined unmarshaling behaviour.

   [save] is atomic: the snapshot is assembled in memory, written to a
   temp file in the destination directory, fsynced, and renamed over
   the destination — a crash at any byte offset leaves any pre-existing
   snapshot byte-identical.  [load] degrades gracefully: damage
   confined to the derived sections (index, statistics, hierarchy) is
   repaired by rebuilding them from the intact document section.

   Format v1 (a bare Marshal payload behind a magic number) is read
   back for migration, but no longer written. *)

let magic = "FLEXPATH-ENV"
let format_version = 2
let footer_tag = "FEND"
let header_fixed = String.length magic + 1 + 4 (* magic, version, section count *)
let toc_entry_size = 4 + 4 + 4 (* tag, length, crc *)
let footer_size = String.length footer_tag + 4
let max_sections = 1024 (* sanity bound: a count above this is damage, not data *)

type outcome =
  | Intact
  | Recovered of { rebuilt : string list }
  | Migrated of { version : int }

let outcome_to_string = function
  | Intact -> "intact"
  | Recovered { rebuilt } -> Printf.sprintf "recovered (rebuilt: %s)" (String.concat ", " rebuilt)
  | Migrated { version } -> Printf.sprintf "migrated from format v%d" version

let section_name = function
  | "DOCM" -> "document"
  | "INDX" -> "index"
  | "STAT" -> "statistics"
  | "HIER" -> "hierarchy"
  | tag -> Printf.sprintf "unknown section %S" tag

let snap path corruption = Error (Error.Snapshot_error { path; corruption })

(* ------------------------------------------------------------------ *)
(* Little-endian u32 *)

let add_u32 b v =
  Buffer.add_char b (Char.chr (v land 0xFF));
  Buffer.add_char b (Char.chr ((v lsr 8) land 0xFF));
  Buffer.add_char b (Char.chr ((v lsr 16) land 0xFF));
  Buffer.add_char b (Char.chr ((v lsr 24) land 0xFF))

let get_u32 s pos =
  Char.code s.[pos]
  lor (Char.code s.[pos + 1] lsl 8)
  lor (Char.code s.[pos + 2] lsl 16)
  lor (Char.code s.[pos + 3] lsl 24)

(* ------------------------------------------------------------------ *)
(* Assembly *)

let assemble (env : Env.t) =
  let sections =
    [
      ("DOCM", Marshal.to_string (Xmldom.Doc.to_portable env.doc) []);
      ("INDX", Marshal.to_string (Fulltext.Index.to_portable env.index) []);
      ("STAT", Marshal.to_string (Stats.to_portable env.stats) []);
      ("HIER", Marshal.to_string (env.hierarchy : Tpq.Hierarchy.t) []);
    ]
  in
  let total = List.fold_left (fun acc (_, p) -> acc + String.length p) 0 sections in
  let b = Buffer.create (header_fixed + (List.length sections * toc_entry_size) + 4 + total + footer_size) in
  Buffer.add_string b magic;
  Buffer.add_char b (Char.chr format_version);
  add_u32 b (List.length sections);
  List.iter
    (fun (tag, payload) ->
      assert (String.length tag = 4);
      Buffer.add_string b tag;
      add_u32 b (String.length payload);
      add_u32 b (Crc32.string payload))
    sections;
  add_u32 b (Crc32.string ~len:(Buffer.length b) (Buffer.contents b));
  List.iter (fun (_, payload) -> Buffer.add_string b payload) sections;
  Buffer.add_string b footer_tag;
  add_u32 b (Crc32.string ~len:(Buffer.length b) (Buffer.contents b));
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Atomic save *)

(* Durability of the rename itself needs the directory fsynced; best
   effort — some filesystems refuse fsync on a directory fd. *)
let fsync_dir dir =
  match Unix.openfile (if dir = "" then Filename.current_dir_name else dir) [ Unix.O_RDONLY ] 0 with
  | exception Unix.Unix_error _ -> ()
  | fd ->
    (try Unix.fsync fd with Unix.Unix_error _ -> ());
    (try Unix.close fd with Unix.Unix_error _ -> ())

let save (env : Env.t) path =
  try
    (* Serialize before touching the filesystem: a Marshal failure
       (functional value, out of memory) must not leave debris. *)
    let data = assemble env in
    let tmp = Printf.sprintf "%s.tmp.%d" path (Unix.getpid ()) in
    let oc = open_out_bin tmp in
    let committed = ref false in
    Fun.protect
      ~finally:(fun () ->
        close_out_noerr oc;
        if not !committed then try Sys.remove tmp with Sys_error _ -> ())
      (fun () ->
        Failpoint.hit "storage_write";
        output_string oc data;
        flush oc;
        Failpoint.hit "storage_fsync";
        Unix.fsync (Unix.descr_of_out_channel oc);
        close_out oc;
        Failpoint.hit "storage_rename";
        Sys.rename tmp path;
        committed := true);
    fsync_dir (Filename.dirname path);
    Ok ()
  with
  | Sys_error message -> Error (Error.Io_error { path = ""; message })
  | Unix.Unix_error (e, fn, _) ->
    Error (Error.Io_error { path; message = Printf.sprintf "%s: %s" fn (Unix.error_message e) })
  | Failure message -> Error (Error.Io_error { path; message })
  | Failpoint.Injected p -> Error (Error.Fault p)

(* ------------------------------------------------------------------ *)
(* v1: bare Marshal behind "FLEXPATH-ENV\x01".  Read-only; the corpus
   of deployed snapshots migrates by re-saving.  No checksums exist, so
   the Marshal payload is trusted the way v1 always trusted it.

   The index and statistics embed the document they were built over,
   in whatever layout the writing build gave [Doc.t], so [load_v1]
   never reads them directly: it strips them to their portable forms
   and re-attaches the document read from [v1_doc]. *)

type v1_payload = {
  v1_doc : Xmldom.Doc.portable;
  v1_index : Fulltext.Index.t;
  v1_stats : Stats.t;
  v1_hierarchy : Tpq.Hierarchy.t;
}

let v1_magic = magic ^ "\x01"

let load_v1 ~weights path data =
  let ofs = String.length v1_magic in
  if String.length data < ofs + Marshal.header_size then
    snap path (Error.Truncated { at = "v1 marshal payload" })
  else
    (* The Marshal header states the payload size, so cuts and appended
       bytes are distinguishable even without v2's checksums. *)
    match Marshal.total_size (Bytes.unsafe_of_string data) ofs with
    | exception Failure message ->
      snap path (Error.Malformed_section { section = "v1 marshal payload"; message })
    | total when ofs + total > String.length data ->
      snap path (Error.Truncated { at = "v1 marshal payload" })
    | total when ofs + total < String.length data ->
      snap path (Error.Trailing_garbage { bytes = String.length data - ofs - total })
    | _ -> (
      match (Marshal.from_string data ofs : v1_payload) with
      | payload ->
        let doc = Xmldom.Doc.of_portable payload.v1_doc in
        let index =
          Fulltext.Index.of_portable doc (Fulltext.Index.to_portable payload.v1_index)
        in
        let stats = Stats.of_portable doc (Stats.to_portable payload.v1_stats) in
        Ok
          ( Env.of_parts ~weights ~doc ~index ~stats ~hierarchy:payload.v1_hierarchy (),
            Migrated { version = 1 } )
      | exception (Failure message | Invalid_argument message) ->
        snap path (Error.Malformed_section { section = "v1 marshal payload"; message })
      | exception End_of_file -> snap path (Error.Truncated { at = "v1 marshal payload" }))

(* ------------------------------------------------------------------ *)
(* Parsing the v2 layout (shared by load and verify) *)

type parsed_section = {
  s_tag : string;
  s_off : int; (* absolute byte offset of the payload *)
  s_len : int;
  s_present : bool; (* payload lies fully within the file *)
  s_crc_ok : bool; (* present and checksum matches *)
}

type parsed = {
  p_sections : parsed_section list;
  p_footer_ok : bool;
}

let read_file path =
  match open_in_bin path with
  | exception Sys_error message -> Error (Error.Io_error { path = ""; message })
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        try Ok (really_input_string ic (in_channel_length ic))
        with
        | Sys_error message -> Error (Error.Io_error { path; message })
        | End_of_file -> snap path (Error.Truncated { at = "file" }))

(* Classify the container.  Hard damage (header, document section,
   trailing garbage) is an [Error]; damage confined to derived
   sections or the footer is reported in [parsed] for recovery. *)
let parse_v2_exn path data =
  let len = String.length data in
  if len < header_fixed then snap path (Error.Truncated { at = "header" })
  else begin
    let count = get_u32 data (header_fixed - 4) in
    if count > max_sections then snap path (Error.Checksum_mismatch { section = "header" })
    else begin
      let header_len = header_fixed + (count * toc_entry_size) + 4 in
      if len < header_len then snap path (Error.Truncated { at = "header" })
      else if get_u32 data (header_len - 4) <> Crc32.string ~len:(header_len - 4) data then
        snap path (Error.Checksum_mismatch { section = "header" })
      else begin
        let sections = ref [] in
        let off = ref header_len in
        for i = 0 to count - 1 do
          let e = header_fixed + (i * toc_entry_size) in
          let tag = String.sub data e 4 in
          let s_len = get_u32 data (e + 4) in
          let crc = get_u32 data (e + 8) in
          let present = !off + s_len <= len in
          Failpoint.hit "storage_read_section";
          let crc_ok = present && Crc32.string ~pos:!off ~len:s_len data = crc in
          sections :=
            { s_tag = tag; s_off = !off; s_len; s_present = present; s_crc_ok = crc_ok }
            :: !sections;
          off := !off + s_len
        done;
        let sections = List.rev !sections in
        let expected = !off + footer_size in
        if len > expected then snap path (Error.Trailing_garbage { bytes = len - expected })
        else begin
          let footer_ok =
            len = expected
            && String.sub data !off 4 = footer_tag
            && get_u32 data (!off + 4) = Crc32.string ~len:(!off + 4) data
          in
          Ok { p_sections = sections; p_footer_ok = footer_ok }
        end
      end
    end
  end

let parse_v2 path data =
  match parse_v2_exn path data with
  | r -> r
  | exception Failpoint.Injected p -> Error (Error.Fault p)

let find_section parsed tag = List.find_opt (fun s -> s.s_tag = tag) parsed.p_sections

(* ------------------------------------------------------------------ *)
(* Load *)

let unmarshal_section : 'a. string -> parsed_section -> 'a option =
 fun data s ->
  match (Marshal.from_string data s.s_off : 'a) with
  | v -> Some v
  | exception (Failure _ | End_of_file | Invalid_argument _) -> None

(* The version byte, or the typed reason there is none.  A short file
   that agrees with the magic as far as it goes was cut mid-header; any
   disagreement means it was never a snapshot. *)
let classify_head path data =
  let mlen = String.length magic in
  if String.length data > mlen then
    if String.sub data 0 mlen = magic then Ok (Char.code data.[mlen]) else snap path Error.Bad_magic
  else if data = String.sub magic 0 (String.length data) then
    snap path (Error.Truncated { at = "header" })
  else snap path Error.Bad_magic

let load ?(weights = Relax.Penalty.uniform) path =
  match read_file path with
  | Error e -> Error e
  | Ok data -> (
    match classify_head path data with
    | Error e -> Error e
    | Ok version -> (
      match version with
      | 1 -> load_v1 ~weights path data
      | 2 -> (
        match parse_v2 path data with
        | Error e -> Error e
        | Ok parsed -> (
          match find_section parsed "DOCM" with
          | None ->
            snap path
              (Error.Malformed_section { section = "header"; message = "no document section" })
          | Some ds when not ds.s_present -> snap path (Error.Truncated { at = "document" })
          | Some ds when not ds.s_crc_ok ->
            snap path (Error.Checksum_mismatch { section = "document" })
          | Some ds -> (
            match Option.map Xmldom.Doc.of_portable (unmarshal_section data ds) with
            | None ->
              snap path
                (Error.Malformed_section
                   { section = "document"; message = "payload does not deserialize" })
            | exception Invalid_argument message ->
              snap path (Error.Malformed_section { section = "document"; message })
            | Some doc ->
              (* Derived sections: deserialize what survived, rebuild
                 the rest from the document. *)
              let derived tag of_payload =
                match find_section parsed tag with
                | Some s when s.s_crc_ok -> (
                  match unmarshal_section data s with
                  | Some payload -> (
                    match of_payload payload with
                    | v -> (Some v, false)
                    | exception Invalid_argument _ -> (None, true))
                  | None -> (None, true))
                | _ -> (None, true)
              in
              let index, index_rebuilt = derived "INDX" (Fulltext.Index.of_portable doc) in
              let stats, stats_rebuilt = derived "STAT" (Stats.of_portable doc) in
              let hierarchy, hier_rebuilt = derived "HIER" (fun (h : Tpq.Hierarchy.t) -> h) in
              let env = Env.rebuild ~weights ?index ?stats ?hierarchy doc in
              let rebuilt =
                (if index_rebuilt then [ "index" ] else [])
                @ (if stats_rebuilt then [ "statistics" ] else [])
                @ if hier_rebuilt then [ "hierarchy" ] else []
              in
              let outcome =
                if rebuilt = [] && parsed.p_footer_ok then Intact else Recovered { rebuilt }
              in
              Ok (env, outcome))))
      | v -> snap path (Error.Version_skew { found = v; newest = format_version })))

(* ------------------------------------------------------------------ *)
(* Verify *)

type section_report = { name : string; offset : int; bytes : int; ok : bool }

type report = {
  version : int;
  sections : section_report list;
  footer_ok : bool;
  intact : bool;
  recoverable : bool;
}

let verify path =
  match read_file path with
  | Error e -> Error e
  | Ok data -> (
    let mlen = String.length magic in
    match classify_head path data with
    | Error e -> Error e
    | Ok version -> (
      match version with
      | 1 ->
        (* No checksums to verify: the only possible check is whether
           the payload deserializes at all. *)
        let ok =
          match (Marshal.from_string data (mlen + 1) : v1_payload) with
          | _ -> true
          | exception (Failure _ | End_of_file | Invalid_argument _) -> false
        in
        Ok
          {
            version = 1;
            sections =
              [
                {
                  name = "v1 marshal payload";
                  offset = mlen + 1;
                  bytes = String.length data - mlen - 1;
                  ok;
                };
              ];
            footer_ok = ok;
            intact = ok;
            recoverable = false;
          }
      | 2 -> (
        match parse_v2 path data with
        | Error e -> Error e
        | Ok parsed ->
          let sections =
            List.map
              (fun s ->
                { name = section_name s.s_tag; offset = s.s_off; bytes = s.s_len; ok = s.s_crc_ok })
              parsed.p_sections
          in
          let all_ok = List.for_all (fun s -> s.ok) sections in
          let doc_ok =
            match find_section parsed "DOCM" with Some s -> s.s_crc_ok | None -> false
          in
          Ok
            {
              version = 2;
              sections;
              footer_ok = parsed.p_footer_ok;
              intact = all_ok && parsed.p_footer_ok;
              recoverable = doc_ok;
            })
      | v -> snap path (Error.Version_skew { found = v; newest = format_version })))

let pp_report fmt r =
  Format.pp_open_vbox fmt 0;
  Format.fprintf fmt "format v%d, %d section%s@," r.version (List.length r.sections)
    (if List.length r.sections = 1 then "" else "s");
  List.iter
    (fun s ->
      Format.fprintf fmt "  %-18s offset %-8d %8d bytes  %s@," s.name s.offset s.bytes
        (if s.ok then "ok" else "CORRUPT"))
    r.sections;
  if r.version >= 2 then
    Format.fprintf fmt "  footer%s@," (if r.footer_ok then " ok" else " CORRUPT");
  if r.intact then Format.fprintf fmt "intact"
  else if r.recoverable then
    Format.fprintf fmt
      "corrupt, recoverable (document section intact; derived sections will be rebuilt on load)"
  else Format.fprintf fmt "corrupt, not recoverable";
  Format.pp_close_box fmt ()
