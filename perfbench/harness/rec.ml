(* Recording: the monotonic clock, the raw-sample file perfbench/run.py
   reads, the in-memory span trace, and /proc readings.

   The sample file is line-oriented and tab-separated; run.py does all
   statistics (percentiles, placement, medians), so this side only
   measures and checks.  Records:

     setup_s   <seconds>                     one per set-up repetition
     op        <class> <kind> <ms> <ok|fail>  timed ops, in schedule order
     window_s  <seconds>                     timed window (checkpoints excluded)
     fail      <description>                 one per failed op
     rss_mb    <MiB>                         VmHWM of the working process
     cpu_s     <seconds>                     CPU time of the working process(es) in the window
     steal     <ticks>                       /proc/stat steal ticks during the window
     layer     <name> <value> <unit>         per-layer values measured here (traced runs)
     note      <text>                        free text for the report *)

let now_ns () = Monotonic_clock.now ()
let ms_since t0 = Int64.to_float (Int64.sub (now_ns ()) t0) /. 1e6
let s_since t0 = Int64.to_float (Int64.sub (now_ns ()) t0) /. 1e9

let record o fields = output_string o (String.concat "\t" fields ^ "\n")
let setup o s = record o [ "setup_s"; Printf.sprintf "%.9f" s ]

let op o ~cls ~kind ~ms ~ok =
  record o [ "op"; cls; kind; Printf.sprintf "%.6f" ms; (if ok then "ok" else "fail") ]

let fail o desc = record o [ "fail"; String.map (function '\t' | '\n' -> ' ' | c -> c) desc ]

let layer o name value unit_ = record o [ "layer"; name; Printf.sprintf "%.9g" value; unit_ ]
let note o text = record o [ "note"; text ]

(* ------------------------------------------------------------------ *)
(* /proc *)

let read_file path =
  match open_in path with
  | exception Sys_error _ -> None
  | ic ->
    let b = Buffer.create 4096 in
    (try
       while true do
         Buffer.add_channel b ic 1
       done
     with End_of_file -> ());
    close_in ic;
    Some (Buffer.contents b)

let words s =
  String.split_on_char ' ' (String.map (function '\t' -> ' ' | c -> c) s)
  |> List.filter (fun w -> w <> "")

(* Steal ticks summed over all CPUs: the 8th value of /proc/stat's
   aggregate "cpu" line. *)
let steal_ticks () =
  match read_file "/proc/stat" with
  | None -> 0
  | Some s -> (
    match String.split_on_char '\n' s with
    | first :: _ -> (
      match words first with
      | "cpu" :: _ :: _ :: _ :: _ :: _ :: _ :: _ :: steal :: _ -> int_of_string steal
      | _ -> 0)
    | [] -> 0)

(* VmHWM of [pid] ("self" for this process), in MiB. *)
let peak_rss_mb pid =
  match read_file (Printf.sprintf "/proc/%s/status" pid) with
  | None -> 0.0
  | Some s ->
    List.fold_left
      (fun acc line ->
        match words line with
        | "VmHWM:" :: kb :: _ -> float_of_string kb /. 1024.0
        | _ -> acc)
      0.0 (String.split_on_char '\n' s)

(* User + system CPU seconds of another process, from /proc/<pid>/stat
   (clock ticks, assumed 100 Hz). *)
let cpu_s_of_pid pid =
  match read_file (Printf.sprintf "/proc/%d/stat" pid) with
  | None -> 0.0
  | Some s -> (
    (* Fields after the parenthesized command name, which may hold spaces. *)
    let rest = String.sub s (String.rindex s ')' + 2) (String.length s - String.rindex s ')' - 2) in
    match words rest with
    | _state :: _ppid :: _pgrp :: _sess :: _tty :: _tpgid :: _flags :: _minflt :: _cminflt
      :: _majflt :: _cmajflt :: utime :: stime :: _ ->
      float_of_int (int_of_string utime + int_of_string stime) /. 100.0
    | _ -> 0.0)

let cpu_s_self () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* ------------------------------------------------------------------ *)
(* Span trace, kept in memory and written once at exit.  A span is
   (op id, name, start, end, parent span index or -1); spans nest by
   a stack, so a layer's self time is its span minus its children. *)

type span = { sp_op : int; sp_name : string; sp_start : int64; mutable sp_end : int64; sp_parent : int }

type trace = { on : bool; mutable spans : span array; mutable n : int; mutable stack : int list }

let trace ~on = { on; spans = [||]; n = 0; stack = [] }

let push tr s =
  if tr.n = Array.length tr.spans then begin
    let dummy = { sp_op = 0; sp_name = ""; sp_start = 0L; sp_end = 0L; sp_parent = -1 } in
    let bigger = Array.make (max 1024 (2 * tr.n)) dummy in
    Array.blit tr.spans 0 bigger 0 tr.n;
    tr.spans <- bigger
  end;
  tr.spans.(tr.n) <- s;
  tr.n <- tr.n + 1

(* A span whose ends were stamped elsewhere (a request in flight). *)
let add_span tr ~op name ~start ~stop =
  if tr.on then push tr { sp_op = op; sp_name = name; sp_start = start; sp_end = stop; sp_parent = -1 }

let span tr ~op name f =
  if not tr.on then f ()
  else begin
    let idx = tr.n in
    let parent = match tr.stack with p :: _ -> p | [] -> -1 in
    let s = { sp_op = op; sp_name = name; sp_start = now_ns (); sp_end = 0L; sp_parent = parent } in
    push tr s;
    tr.stack <- idx :: tr.stack;
    let finish () =
      s.sp_end <- now_ns ();
      tr.stack <- List.tl tr.stack
    in
    match f () with
    | v ->
      finish ();
      v
    | exception e ->
      finish ();
      raise e
  end

let write_spans tr path =
  let oc = open_out path in
  for i = 0 to tr.n - 1 do
    let s = tr.spans.(i) in
    Printf.fprintf oc "%d\t%d\t%s\t%Ld\t%Ld\t%d\n" i s.sp_op s.sp_name s.sp_start s.sp_end s.sp_parent
  done;
  close_out oc

(* ------------------------------------------------------------------ *)
(* Seeded choices (Xmark's splitmix64, so schedules are identical on
   every machine). *)

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Xmark.Prng.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

let median l =
  let a = Array.of_list l in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then 0.0 else if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    Sys.mkdir d 0o755
  end

let rec rm_rf p =
  if Sys.file_exists p then
    if Sys.is_directory p then begin
      Array.iter (fun f -> rm_rf (Filename.concat p f)) (Sys.readdir p);
      Sys.rmdir p
    end
    else Sys.remove p
