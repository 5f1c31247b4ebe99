(* Crash-safe snapshot storage: the corruption corpus.

   Acceptance tests of the storage subsystem:
   - a clean save/load round-trip is Intact and answer-preserving;
   - every corrupted input — truncation at and around every section
     boundary, a single-bit flip at every byte of the file, trailing
     garbage, legacy v1 files — yields a typed [Error.t] or a
     [Recovered] environment, never an exception and never a silent
     [Intact];
   - damage confined to derived sections is repaired from the document
     section and the repaired environment answers queries identically;
   - a fault injected at any [storage_*] failpoint during [save] leaves
     a pre-existing snapshot byte-identical and checksum-valid, with no
     temp-file debris. *)

module Storage = Flexpath.Storage
module Error = Flexpath.Error
module Env = Flexpath.Env
module Answer = Flexpath.Answer
module Failpoint = Flexpath.Failpoint
module Xpath = Tpq.Xpath

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

(* ------------------------------------------------------------------ *)
(* Fixture *)

let hierarchy = Tpq.Hierarchy.of_list_exn [ ("algorithm", "section"); ("paragraph", "section") ]
let fixture_doc = lazy (Xmark.Articles.doc ~seed:7 ~count:3 ())
let fixture_env = lazy (Env.make ~hierarchy (Lazy.force fixture_doc))
let query = "//article[.contains(\"xml\")]"

let answer_keys env =
  match Flexpath.top_k_xpath env ~k:10 query with
  | Ok answers ->
    List.map (fun (a : Answer.t) -> (a.node, Float.round (a.sscore *. 1e6))) answers
  | Error e -> Alcotest.failf "fixture query failed: %s" (Error.to_string e)

let fixture_keys = lazy (answer_keys (Lazy.force fixture_env))

let temp_name =
  let n = ref 0 in
  fun suffix ->
    incr n;
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "flexpath_storage_%d_%d%s" (Unix.getpid ()) !n suffix)

let with_snapshot f =
  let path = temp_name ".env" in
  (match Storage.save (Lazy.force fixture_env) path with
  | Ok () -> ()
  | Error e -> Alcotest.failf "save failed: %s" (Error.to_string e));
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ()) (fun () -> f path)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path data =
  let oc = open_out_bin path in
  output_string oc data;
  close_out oc

let with_bytes data f =
  let path = temp_name ".env" in
  write_file path data;
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ()) (fun () -> f path)

let sections_of path =
  match Storage.verify path with
  | Ok report -> report.Storage.sections
  | Error e -> Alcotest.failf "verify failed: %s" (Error.to_string e)

(* The corpus invariant: a corrupted file must come back as a typed
   snapshot error or a recovered (and queryable) environment — never an
   exception, never a clean [Intact]/[Migrated]. *)
let assert_detected ~name path =
  match Storage.load path with
  | exception e -> Alcotest.failf "%s: load raised %s" name (Printexc.to_string e)
  | Error (Error.Snapshot_error _) -> ()
  | Error e -> Alcotest.failf "%s: unexpected error class: %s" name (Error.to_string e)
  | Ok (env, Storage.Recovered _) ->
    check_bool (name ^ ": recovered env answers the fixture query") true
      (answer_keys env = Lazy.force fixture_keys)
  | Ok (_, Storage.Intact) -> Alcotest.failf "%s: corruption loaded as Intact" name
  | Ok (_, Storage.Migrated _) -> Alcotest.failf "%s: corruption loaded as Migrated" name

let flip_bit data i bit =
  let b = Bytes.of_string data in
  Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl bit)));
  Bytes.to_string b

(* ------------------------------------------------------------------ *)
(* Round trip *)

let test_roundtrip () =
  with_snapshot (fun path ->
      match Storage.load path with
      | Error e -> Alcotest.fail (Error.to_string e)
      | Ok (env, outcome) ->
        check_string "outcome" "intact" (Storage.outcome_to_string outcome);
        check_bool "answers preserved" true (answer_keys env = Lazy.force fixture_keys);
        check_bool "hierarchy preserved" true
          (Tpq.Hierarchy.supertype env.Env.hierarchy "algorithm" = Some "section");
        let report =
          match Storage.verify path with Ok r -> r | Error e -> Alcotest.fail (Error.to_string e)
        in
        check_int "format version" 2 report.Storage.version;
        check_int "four sections" 4 (List.length report.Storage.sections);
        check_bool "verify: intact" true report.Storage.intact;
        check_bool "verify: recoverable" true report.Storage.recoverable;
        check_bool "every section ok" true
          (List.for_all (fun s -> s.Storage.ok) report.Storage.sections))

(* ------------------------------------------------------------------ *)
(* Truncation at (and around) every structural boundary *)

let test_truncation_corpus () =
  with_snapshot (fun path ->
      let data = read_file path in
      let len = String.length data in
      let boundaries =
        (* header landmarks, every section start/end +- 1, footer *)
        [ 0; 1; 11; 12; 13; 16; 17 ]
        @ List.concat_map
            (fun (s : Storage.section_report) ->
              [ s.offset - 1; s.offset; s.offset + 1; s.offset + s.bytes ])
            (sections_of path)
        @ [ len - 9; len - 8; len - 4; len - 1 ]
      in
      List.iter
        (fun cut ->
          if cut >= 0 && cut < len then
            with_bytes (String.sub data 0 cut) (fun p ->
                assert_detected ~name:(Printf.sprintf "truncated at byte %d" cut) p))
        boundaries;
      (* Truncation that spares the document section must recover, not
         fail: cut right at the end of the document payload. *)
      let doc_section = List.find (fun s -> s.Storage.name = "document") (sections_of path) in
      with_bytes (String.sub data 0 (doc_section.offset + doc_section.bytes)) (fun p ->
          match Storage.load p with
          | Ok (env, Storage.Recovered { rebuilt }) ->
            check_bool "all derived sections rebuilt" true
              (rebuilt = [ "index"; "statistics"; "hierarchy" ]);
            check_bool "document survived the cut" true
              (answer_keys env = Lazy.force fixture_keys);
            check_bool "hierarchy reset to empty" true (Tpq.Hierarchy.is_empty env.Env.hierarchy)
          | Ok _ -> Alcotest.fail "expected Recovered"
          | Error e -> Alcotest.failf "expected recovery, got %s" (Error.to_string e)))

(* ------------------------------------------------------------------ *)
(* A single-bit flip at every byte of the file *)

let test_bit_flip_sweep () =
  with_snapshot (fun path ->
      let data = read_file path in
      for i = 0 to String.length data - 1 do
        with_bytes (flip_bit data i (i mod 8)) (fun p ->
            assert_detected ~name:(Printf.sprintf "bit %d of byte %d flipped" (i mod 8) i) p)
      done)

(* ------------------------------------------------------------------ *)
(* Trailing garbage *)

let test_trailing_garbage () =
  with_snapshot (fun path ->
      let data = read_file path in
      List.iter
        (fun garbage ->
          with_bytes (data ^ garbage) (fun p ->
              match Storage.load p with
              | Error (Error.Snapshot_error { corruption = Error.Trailing_garbage { bytes }; _ })
                -> check_int "garbage byte count" (String.length garbage) bytes
              | Error e -> Alcotest.failf "expected Trailing_garbage, got %s" (Error.to_string e)
              | Ok _ -> Alcotest.fail "trailing garbage accepted"))
        [ "x"; "garbage"; String.make 4096 '\x00' ])

(* ------------------------------------------------------------------ *)
(* Per-section damage and recovery *)

let test_section_recovery () =
  with_snapshot (fun path ->
      let data = read_file path in
      List.iter
        (fun (s : Storage.section_report) ->
          let corrupted = flip_bit data (s.offset + (s.bytes / 2)) 3 in
          with_bytes corrupted (fun p ->
              match (s.name, Storage.load p) with
              | "document", Error (Error.Snapshot_error { corruption = Error.Checksum_mismatch { section = "document" }; _ }) -> ()
              | "document", r ->
                Alcotest.failf "document damage: expected checksum error, got %s"
                  (match r with
                  | Ok (_, o) -> Storage.outcome_to_string o
                  | Error e -> Error.to_string e)
              | name, Ok (env, Storage.Recovered { rebuilt }) ->
                check_bool (name ^ " is the one rebuilt section") true (rebuilt = [ name ]);
                check_bool (name ^ " recovery preserves answers") true
                  (answer_keys env = Lazy.force fixture_keys);
                (* The verify report localizes the damage without loading. *)
                let report =
                  match Storage.verify p with
                  | Ok r -> r
                  | Error e -> Alcotest.fail (Error.to_string e)
                in
                check_bool (name ^ " flagged by verify") true
                  (List.exists
                     (fun (s' : Storage.section_report) -> s'.name = name && not s'.ok)
                     report.Storage.sections);
                check_bool "verify: not intact" false report.Storage.intact;
                check_bool "verify: recoverable" true report.Storage.recoverable
              | name, Ok (_, o) ->
                Alcotest.failf "%s damage: unexpected outcome %s" name (Storage.outcome_to_string o)
              | name, Error e ->
                Alcotest.failf "%s damage: unexpected error %s" name (Error.to_string e)))
        (sections_of path);
      (* Footer-only damage: everything verifies except the footer. *)
      with_bytes (flip_bit data (String.length data - 2) 0) (fun p ->
          match Storage.load p with
          | Ok (env, Storage.Recovered { rebuilt = [] }) ->
            check_bool "footer damage: env unaffected" true
              (answer_keys env = Lazy.force fixture_keys)
          | Ok (_, o) -> Alcotest.failf "footer damage: outcome %s" (Storage.outcome_to_string o)
          | Error e -> Alcotest.failf "footer damage: error %s" (Error.to_string e)))

(* ------------------------------------------------------------------ *)
(* Version handling *)

let test_version_skew () =
  with_snapshot (fun path ->
      let data = read_file path in
      let b = Bytes.of_string data in
      Bytes.set b 12 '\x07';
      with_bytes (Bytes.to_string b) (fun p ->
          match Storage.load p with
          | Error (Error.Snapshot_error { corruption = Error.Version_skew { found; newest }; _ })
            ->
            check_int "found version" 7 found;
            check_int "newest version" Storage.format_version newest;
            check_int "snapshot errors exit 4" 4
              (Error.exit_code
                 (Error.Snapshot_error
                    { path = p; corruption = Error.Version_skew { found; newest } }))
          | Error e -> Alcotest.failf "expected Version_skew, got %s" (Error.to_string e)
          | Ok _ -> Alcotest.fail "future version accepted"))

(* The checked-in v1 fixture (see "Snapshots written by an earlier
   build" below) is the only v1 file: nothing writes the format any
   more. *)
let test_v1_migration () =
  let path = "fixtures/articles-v1.env" in
  let fresh = Env.make ~hierarchy (Xmark.Articles.doc ~seed:7 ~count:6 ()) in
  (match Storage.load path with
  | Ok (env, Storage.Migrated { version }) ->
    check_int "migrated from v1" 1 version;
    check_bool "v1 answers preserved" true (answer_keys env = answer_keys fresh);
    check_bool "v1 hierarchy preserved" true
      (Tpq.Hierarchy.supertype env.Env.hierarchy "algorithm" = Some "section")
  | Ok (_, o) -> Alcotest.failf "expected Migrated, got %s" (Storage.outcome_to_string o)
  | Error e -> Alcotest.failf "v1 load failed: %s" (Error.to_string e));
  (match Storage.verify path with
  | Ok report ->
    check_int "v1 version reported" 1 report.Storage.version;
    check_bool "v1 payload deserializes" true report.Storage.intact;
    check_bool "v1 is not recoverable" false report.Storage.recoverable
  | Error e -> Alcotest.failf "v1 verify failed: %s" (Error.to_string e));
  (* Truncated v1 payloads are typed errors, not crashes. *)
  let data = read_file path in
  List.iter
    (fun cut ->
      with_bytes (String.sub data 0 cut) (fun p ->
          match Storage.load p with
          | exception e -> Alcotest.failf "truncated v1: raised %s" (Printexc.to_string e)
          | Error (Error.Snapshot_error _) -> ()
          | Error e -> Alcotest.failf "truncated v1: %s" (Error.to_string e)
          | Ok _ -> Alcotest.fail "truncated v1 accepted"))
    [ 5; 13; 14; 13 + 19; String.length data / 2; String.length data - 1 ];
  (* A v1 file with bytes appended is not silently accepted either. *)
  with_bytes (data ^ "junk") (fun p ->
      match Storage.load p with
      | Error (Error.Snapshot_error { corruption = Error.Trailing_garbage { bytes = 4 }; _ }) -> ()
      | Error e -> Alcotest.failf "v1 trailing: %s" (Error.to_string e)
      | Ok _ -> Alcotest.fail "v1 trailing garbage accepted")

(* ------------------------------------------------------------------ *)
(* Snapshots written by an earlier build *)

(* [fixtures/articles-v2.env] and [fixtures/articles-v1.env] were
   written by [Storage.save] and the since-deleted [Storage.save_v1] of
   the build before [Doc.t] gained its derived sibling-rank column,
   over [Xmark.Articles.doc ~seed:7 ~count:6] with the hierarchy above.
   [Marshal] does not check types, so only files from another build
   show whether today's loader still reads yesterday's bytes; never
   regenerate them with the current code. *)
let parent_fixture_query = "//section[./algorithm and ./paragraph[.contains(\"xml\")]]"

let rendered env =
  match Flexpath.top_k_xpath env ~k:3 parent_fixture_query with
  | Ok answers -> List.map (Format.asprintf "%a" (Answer.pp env.Env.doc)) answers
  | Error e -> Alcotest.failf "fixture query failed: %s" (Error.to_string e)

let all_paths (env : Env.t) =
  List.init (Xmldom.Doc.size env.doc) (Xmldom.Doc.path_to_root env.doc)

let test_parent_fixtures () =
  let fresh = Env.make ~hierarchy (Xmark.Articles.doc ~seed:7 ~count:6 ()) in
  check_int "fresh answers" 3 (List.length (rendered fresh));
  let check_env name (env : Env.t) =
    check_int (name ^ ": elements") (Xmldom.Doc.size fresh.doc) (Xmldom.Doc.size env.doc);
    Alcotest.(check (list string)) (name ^ ": every path") (all_paths fresh) (all_paths env);
    Alcotest.(check (list string)) (name ^ ": rendered answers") (rendered fresh) (rendered env)
  in
  let v2 = "fixtures/articles-v2.env" and v1 = "fixtures/articles-v1.env" in
  (match Storage.load v2 with
  | Ok (env, Storage.Intact) ->
    check_env "v2" env;
    let path = temp_name ".env" in
    Fun.protect
      ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
      (fun () ->
        (match Storage.save env path with
        | Ok () -> ()
        | Error e -> Alcotest.failf "re-save failed: %s" (Error.to_string e));
        check_bool "re-saved v2 is byte-identical" true (read_file path = read_file v2))
  | Ok (_, o) -> Alcotest.failf "v2 fixture: expected intact, got %s" (Storage.outcome_to_string o)
  | Error e -> Alcotest.failf "v2 fixture: %s" (Error.to_string e));
  (match Storage.verify v2 with
  | Ok report -> check_bool "v2 fixture verifies intact" true report.Storage.intact
  | Error e -> Alcotest.failf "v2 fixture verify: %s" (Error.to_string e));
  match Storage.load v1 with
  | Ok (env, Storage.Migrated { version }) ->
    check_int "v1 fixture migrated from" 1 version;
    check_env "v1" env
  | Ok (_, o) -> Alcotest.failf "v1 fixture: expected migrated, got %s" (Storage.outcome_to_string o)
  | Error e -> Alcotest.failf "v1 fixture: %s" (Error.to_string e)

let test_not_a_snapshot () =
  List.iter
    (fun (name, content) ->
      with_bytes content (fun p ->
          match Storage.load p with
          | Error (Error.Snapshot_error { corruption; _ }) ->
            let expected =
              if String.length content <= 12
                 && content = String.sub Storage.magic 0 (String.length content)
              then "truncated"
              else "bad magic"
            in
            let got =
              match corruption with
              | Error.Bad_magic -> "bad magic"
              | Error.Truncated _ -> "truncated"
              | c -> Error.corruption_to_string c
            in
            check_string name expected got
          | Error e -> Alcotest.failf "%s: %s" name (Error.to_string e)
          | Ok _ -> Alcotest.failf "%s: accepted" name))
    [
      ("empty file", "");
      ("partial magic", "FLEXPA");
      ("full magic, no version", "FLEXPATH-ENV");
      ("xml file", "<xml>not an env</xml>");
      ("random binary", "\x7fELF\x02\x01\x01\x00\x00\x00\x00\x00");
    ]

(* ------------------------------------------------------------------ *)
(* Crash-safety: a fault at any storage failpoint during save leaves
   the previous snapshot byte-identical, checksum-valid, and the
   directory free of temp debris. *)

let test_crash_during_save () =
  (* A dedicated directory so "no temp debris" is an exact statement:
     after every injected crash the directory holds the snapshot and
     nothing else. *)
  let dir = temp_name ".d" in
  Unix.mkdir dir 0o755;
  let path = Filename.concat dir "snap.env" in
  Fun.protect
    ~finally:(fun () ->
      Array.iter
        (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
        (Sys.readdir dir);
      try Unix.rmdir dir with Unix.Unix_error _ -> ())
    (fun () ->
      (match Storage.save (Lazy.force fixture_env) path with
      | Ok () -> ()
      | Error e -> Alcotest.failf "save failed: %s" (Error.to_string e));
      let before = read_file path in
      List.iter
        (fun point ->
          (match Failpoint.activate point with
          | Ok () -> ()
          | Error msg -> Alcotest.failf "cannot arm %s: %s" point msg);
          Fun.protect ~finally:Failpoint.reset (fun () ->
              match Storage.save (Lazy.force fixture_env) path with
              | Error (Error.Fault p) -> check_string "fault surfaced" point p
              | Error e -> Alcotest.failf "%s: expected Fault, got %s" point (Error.to_string e)
              | Ok () -> Alcotest.failf "%s: fault did not fire" point);
          check_bool (point ^ ": snapshot byte-identical") true (read_file path = before);
          (match Storage.verify path with
          | Ok r -> check_bool (point ^ ": snapshot checksum-valid") true r.Storage.intact
          | Error e -> Alcotest.failf "%s: verify failed: %s" point (Error.to_string e));
          check_bool (point ^ ": no temp debris") true (Sys.readdir dir = [| "snap.env" |]))
        [ "storage_write"; "storage_fsync"; "storage_rename" ];
      (* The read-side failpoint makes load and verify fail typed. *)
      (match Failpoint.activate "storage_read_section" with
      | Ok () -> ()
      | Error msg -> Alcotest.fail msg);
      Fun.protect ~finally:Failpoint.reset (fun () ->
          (match Storage.load path with
          | Error (Error.Fault "storage_read_section") -> ()
          | Error e -> Alcotest.failf "load: expected Fault, got %s" (Error.to_string e)
          | Ok _ -> Alcotest.fail "load: read fault did not fire");
          match Storage.verify path with
          | Error (Error.Fault "storage_read_section") -> ()
          | Error e -> Alcotest.failf "verify: expected Fault, got %s" (Error.to_string e)
          | Ok _ -> Alcotest.fail "verify: read fault did not fire"))

let test_save_io_errors () =
  (* Unwritable destination: typed Io_error, no exception, no debris. *)
  (match Storage.save (Lazy.force fixture_env) "/nonexistent-dir/deep/snapshot.env" with
  | Error (Error.Io_error _) -> ()
  | Error e -> Alcotest.failf "expected Io_error, got %s" (Error.to_string e)
  | Ok () -> Alcotest.fail "saved into a nonexistent directory");
  match Storage.load "/nonexistent-dir/deep/snapshot.env" with
  | Error (Error.Io_error _) -> ()
  | Error e -> Alcotest.failf "expected Io_error, got %s" (Error.to_string e)
  | Ok _ -> Alcotest.fail "loaded a nonexistent file"

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "storage"
    [
      ( "roundtrip",
        [
          Alcotest.test_case "save/load is intact and answer-preserving" `Quick test_roundtrip;
        ] );
      ( "corruption corpus",
        [
          Alcotest.test_case "truncation at every boundary" `Quick test_truncation_corpus;
          Alcotest.test_case "single-bit flip at every byte" `Quick test_bit_flip_sweep;
          Alcotest.test_case "trailing garbage" `Quick test_trailing_garbage;
          Alcotest.test_case "per-section damage and recovery" `Quick test_section_recovery;
          Alcotest.test_case "not-a-snapshot inputs" `Quick test_not_a_snapshot;
        ] );
      ( "versions",
        [
          Alcotest.test_case "future version is typed skew" `Quick test_version_skew;
          Alcotest.test_case "v1 migration path" `Quick test_v1_migration;
          Alcotest.test_case "snapshots written by an earlier build" `Quick test_parent_fixtures;
        ] );
      ( "crash safety",
        [
          Alcotest.test_case "fault during save keeps old snapshot" `Quick test_crash_during_save;
          Alcotest.test_case "io errors are typed" `Quick test_save_io_errors;
        ] );
    ]
