type phase =
  | Idle
  | Busy of { fingerprint : string option; since_ms : float }
  | Dead of string option  (* the fingerprint of the request it died in *)
  | Lost

type handle = { index : int; cell : phase Atomic.t }

type t = {
  hard_wall_ms : float;
  quarantine_threshold : int;
  slots : handle Atomic.t array;
  qlock : Mutex.t;
  strikes : (string, int) Hashtbl.t;
}

let fresh_handle index = { index; cell = Atomic.make Idle }

let create ~workers ~hard_wall_ms ~quarantine_threshold =
  if workers < 1 then invalid_arg "Supervisor.create: workers must be at least 1";
  if hard_wall_ms <= 0.0 then invalid_arg "Supervisor.create: hard wall must be positive";
  {
    hard_wall_ms;
    quarantine_threshold;
    slots = Array.init workers (fun i -> Atomic.make (fresh_handle i));
    qlock = Mutex.create ();
    strikes = Hashtbl.create 8;
  }

let occupant t index = Atomic.get t.slots.(index)
let alive t h = Atomic.get t.slots.(h.index) == h

(* The worker publishes a fresh [Busy] value per request and keeps it
   as a token: ownership of the busy→idle transition is decided by a
   CAS on that exact value, so the worker and a concurrently scanning
   supervisor can never both claim (and account for) the same
   request's connection. *)
let busy h ~fingerprint =
  let b = Busy { fingerprint; since_ms = Flexpath.Monotime.now_ms () } in
  Atomic.set h.cell b;
  b

let retire h token = Atomic.compare_and_set h.cell token Idle

let mark_dead h ~fingerprint = Atomic.set h.cell (Dead fingerprint)

(* ------------------------------------------------------------------ *)
(* Quarantine *)

let with_qlock t f =
  Mutex.lock t.qlock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.qlock) f

let strike t fingerprint =
  with_qlock t (fun () ->
      let n = 1 + Option.value ~default:0 (Hashtbl.find_opt t.strikes fingerprint) in
      Hashtbl.replace t.strikes fingerprint n;
      n)

let strikes t fingerprint =
  with_qlock t (fun () -> Option.value ~default:0 (Hashtbl.find_opt t.strikes fingerprint))

let quarantined t fingerprint =
  t.quarantine_threshold > 0 && strikes t fingerprint >= t.quarantine_threshold

(* ------------------------------------------------------------------ *)
(* The staleness scan *)

let scan t ~now_ms =
  let lost = ref [] in
  Array.iter
    (fun slot ->
      let h = Atomic.get slot in
      let phase = Atomic.get h.cell in
      let claim fingerprint =
        (* CAS: if the worker retired (or re-published) in between, it
           is making progress and is not lost after all. *)
        if Atomic.compare_and_set h.cell phase Lost then begin
          Option.iter (fun fp -> ignore (strike t fp)) fingerprint;
          Atomic.set slot (fresh_handle h.index);
          lost := h.index :: !lost
        end
      in
      match phase with
      | Idle | Lost -> ()
      | Busy { fingerprint; since_ms } ->
        if now_ms -. since_ms > t.hard_wall_ms then claim fingerprint
      | Dead fingerprint -> claim fingerprint)
    t.slots;
  List.rev !lost
