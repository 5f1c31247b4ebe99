exception Injected of string

let catalog =
  [
    "exec.compile";
    "exec.run";
    "exec.stage";
    "index.build";
    "env.make";
    "chain.build";
    "storage_write";
    "storage_fsync";
    "storage_rename";
    "storage_read_section";
    "wal_append";
    "wal_fsync";
    "merge_publish";
    "server_accept";
    "server_read";
    "server_worker";
    "worker_wedge";
    "worker_die";
    "worker_respawn";
    "client_send";
    "shard_probe";
    "replica_ship";
  ]

(* What an armed point raises when it fires.  [Inject] is the classic
   transient fault ({!Injected}, mapped to [Error.Fault] by the façade);
   [Errno e] simulates a disk fault — the point raises
   [Unix.Unix_error (e, name, "")], which flows through the same
   [Unix_error -> Error.Io_error] conversions real syscall failures
   take.  The distinction matters downstream: only [Io_error] (a disk
   that actually said no) trips the ingest store's read-only degrade. *)
type flavor = Inject | Errno of Unix.error

(* Remaining hit count per armed point ([-1] is unlimited) plus its
   flavor.  The mutex makes arming and triggering safe from any domain
   (the server's worker pool and its supervisor both pass through
   here). *)
let armed : (string, int * flavor) Hashtbl.t = Hashtbl.create 8
let lock = Mutex.create ()

let with_lock f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

let arm ?(flavor = Inject) name count =
  if List.mem name catalog then begin
    with_lock (fun () -> Hashtbl.replace armed name (count, flavor));
    Ok ()
  end
  else Error (Printf.sprintf "unknown failpoint %S (known: %s)" name (String.concat ", " catalog))

let activate name = arm name (-1)

let activate_n ?flavor name n =
  if n < 1 then Error (Printf.sprintf "failpoint %s: hit count must be at least 1" name)
  else arm ?flavor name n

let activate_errno name errno n = activate_n ~flavor:(Errno errno) name n
let deactivate name = with_lock (fun () -> Hashtbl.remove armed name)
let reset () = with_lock (fun () -> Hashtbl.reset armed)
let is_active name = with_lock (fun () -> Hashtbl.mem armed name)
let active () = List.filter is_active catalog

let hit name =
  let fire =
    with_lock (fun () ->
        match Hashtbl.find_opt armed name with
        | None -> None
        | Some (n, flavor) ->
          if n = 1 then Hashtbl.remove armed name
          else if n > 1 then Hashtbl.replace armed name (n - 1, flavor);
          Some flavor)
  in
  match fire with
  | None -> ()
  | Some Inject -> raise (Injected name)
  | Some (Errno e) -> raise (Unix.Unix_error (e, name, ""))

let errno_of_string = function
  | "enospc" -> Some Unix.ENOSPC
  | "eio" -> Some Unix.EIO
  | _ -> None

(* One spec item: [name] arms unlimited, [name:N] arms N hits,
   [name:once] is [name:1].  A flavor keyword may precede the count:
   [name:enospc] / [name:eio] arm one errno-flavored hit,
   [name:enospc:N] arms N of them. *)
let activate_spec item =
  match String.split_on_char ':' item with
  | [ name ] -> activate name
  | [ name; "once" ] -> activate_n name 1
  | [ name; part ] -> (
    match (errno_of_string part, int_of_string_opt part) with
    | Some e, _ -> activate_errno name e 1
    | None, Some n -> activate_n name n
    | None, None ->
      Error
        (Printf.sprintf "failpoint %s: bad hit count %S (expected an integer, 'once', 'enospc' or 'eio')"
           name part))
  | [ name; part; count ] -> (
    match errno_of_string part with
    | None -> Error (Printf.sprintf "failpoint %s: unknown errno flavor %S (expected 'enospc' or 'eio')" name part)
    | Some e -> (
      match (count, int_of_string_opt count) with
      | "once", _ -> activate_errno name e 1
      | _, Some n -> activate_errno name e n
      | _, None ->
        Error (Printf.sprintf "failpoint %s: bad hit count %S (expected an integer or 'once')" name count)))
  | _ -> Error (Printf.sprintf "failpoint spec %S: too many ':' separators" item)

let installed = ref false

let install () =
  if not !installed then begin
    installed := true;
    Joins.Exec.failpoint := hit;
    Fulltext.Index.failpoint := hit;
    match Sys.getenv_opt "FLEXPATH_FAILPOINTS" with
    | None | Some "" -> ()
    | Some spec ->
      String.split_on_char ',' spec
      |> List.iter (fun item ->
             let item = String.trim item in
             if item <> "" then
               match activate_spec item with
               | Ok () -> ()
               | Error msg -> Printf.eprintf "warning: FLEXPATH_FAILPOINTS: %s\n%!" msg)
  end
