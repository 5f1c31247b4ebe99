(* A size-bounded LRU over two tiers of shape-keyed evaluation state:

   - the plan tier memoizes {!Common.plan} values (penalty environment,
     relaxation chain, lazily compiled join plans);
   - the result tier holds values of the extensible [ext] type, which
     each caller extends with its own result type.

   Both tiers share one byte budget and one recency list; keys are
   namespaced by a one-character prefix.  Sizes are deterministic
   estimates of the retained structures — never [Obj.reachable_words],
   which would charge a plan for the whole environment its penalty
   closures capture.  All operations take the cache's mutex, so one
   cache can serve every worker domain of a server. *)

type counters = { hits : int; misses : int; evictions : int; bytes : int; entries : int }

type ext = ..

type value = Plan of Common.plan | Ext of ext

type node = {
  key : string;
  value : value;
  size : int;
  mutable prev : node option;
  mutable next : node option;
}

type t = {
  lock : Mutex.t;
  table : (string, node) Hashtbl.t;
  max_bytes : int;
  mutable head : node option;  (* most recently used *)
  mutable tail : node option;  (* least recently used *)
  mutable bytes : int;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
}

let default_max_bytes = 64 * 1024 * 1024

let create ?(max_bytes = default_max_bytes) () =
  if max_bytes < 1 then invalid_arg "Qcache.create: max_bytes must be positive";
  {
    lock = Mutex.create ();
    table = Hashtbl.create 256;
    max_bytes;
    head = None;
    tail = None;
    bytes = 0;
    hits = 0;
    misses = 0;
    evictions = 0;
  }

let max_bytes t = t.max_bytes

let with_lock t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

(* ------------------------------------------------------------------ *)
(* Intrusive recency list *)

let unlink t n =
  (match n.prev with None -> t.head <- n.next | Some p -> p.next <- n.next);
  (match n.next with None -> t.tail <- n.prev | Some s -> s.prev <- n.prev);
  n.prev <- None;
  n.next <- None

let push_front t n =
  n.next <- t.head;
  (match t.head with None -> t.tail <- Some n | Some h -> h.prev <- Some n);
  t.head <- Some n

let drop t n =
  unlink t n;
  Hashtbl.remove t.table n.key;
  t.bytes <- t.bytes - n.size

let rec evict_to_fit t =
  if t.bytes > t.max_bytes then
    match t.tail with
    | None -> ()
    | Some n ->
      drop t n;
      t.evictions <- t.evictions + 1;
      evict_to_fit t

(* ------------------------------------------------------------------ *)
(* Size estimation: deterministic, in bytes, counting only what the
   cache itself keeps alive beyond the shared environment. *)

let query_cost q = 64 + (48 * List.length (Tpq.Query.vars q))

let entry_cost (e : Relax.Space.entry) =
  (* entry record + its query + its operator list + the join plan that
     will be compiled for it (one var_spec per variable), charged up
     front so lazy compilation cannot overrun the budget *)
  96 + query_cost e.Relax.Space.query + (32 * List.length e.Relax.Space.ops)
  + (112 * List.length (Tpq.Query.vars e.Relax.Space.query))

let plan_cost key (p : Common.plan) =
  String.length key + 256 + query_cost p.Common.pquery
  + Array.fold_left (fun acc e -> acc + entry_cost e) 0 p.Common.chain

(* ------------------------------------------------------------------ *)
(* Lookup / insert *)

let find t key =
  with_lock t (fun () ->
      match Hashtbl.find_opt t.table key with
      | None ->
        t.misses <- t.misses + 1;
        None
      | Some n ->
        t.hits <- t.hits + 1;
        unlink t n;
        push_front t n;
        Some n.value)

let store t key value size =
  with_lock t (fun () ->
      (match Hashtbl.find_opt t.table key with Some old -> drop t old | None -> ());
      (* An entry that alone exceeds the budget would evict everything
         and still not fit: refuse it rather than thrash. *)
      if size <= t.max_bytes then begin
        let n = { key; value; size; prev = None; next = None } in
        Hashtbl.replace t.table key n;
        push_front t n;
        t.bytes <- t.bytes + size;
        evict_to_fit t
      end)

(* ------------------------------------------------------------------ *)
(* Keys.  The plan tier is keyed by everything that shapes the chain
   and its evaluation order (canonical shape, scheme, algorithm, chain
   length) plus the caller's data scope; a result's answer key adds [k]
   and the budget class, so a governed request never sees a result
   computed under laxer limits — conservative, since a [Complete]
   result is budget-independent, but it keeps every cached entry
   explainable from its key alone.  The executor is part of the answer key, not the plan
   key: plans are executor-independent, and while executors agree
   byte-for-byte on un-truncated results, a tuple budget or deadline
   can trip at a different point under each. *)

let budget_class = function
  | None -> "-"
  | Some (b : Guard.budget) ->
    let f = function None -> "-" | Some x -> Printf.sprintf "%g" x in
    let i = function None -> "-" | Some x -> string_of_int x in
    Printf.sprintf "%s,%s,%s,%s" (f b.Guard.deadline_ms) (i b.Guard.tuple_budget)
      (i b.Guard.step_budget) (i b.Guard.restart_cap)

let plan_key ?scope ~algorithm ~scheme q =
  Printf.sprintf "%s|%s|%s%s"
    (Common.algorithm_to_string algorithm)
    (Ranking.to_string scheme)
    (match scope with None -> "" | Some s -> "g=" ^ s ^ "|")
    (Tpq.Query.canonical_key q)

let answer_key ~plan_key ~k ~budget ~executor =
  Printf.sprintf "%s|k=%d|b=%s|x=%s" plan_key k (budget_class budget)
    (Joins.Exec.executor_to_string executor)

let plan_ns key = "P:" ^ key
let ext_ns key = "X:" ^ key

let find_plan t key =
  match find t (plan_ns key) with Some (Plan p) -> Some p | Some _ | None -> None

let store_plan t key p =
  let key = plan_ns key in
  store t key (Plan p) (plan_cost key p)

(* The result tier: each caller ({!Flexpath.run}, the sharded corpus)
   caches its own result type in the same byte budget and recency list,
   and brings its own cacheability rule and deterministic size
   estimate. *)
let find_ext t key =
  match find t (ext_ns key) with Some (Ext e) -> Some e | Some _ | None -> None

let store_ext t key e ~size =
  let key = ext_ns key in
  store t key (Ext e) (String.length key + size)

let counters t =
  with_lock t (fun () ->
      {
        hits = t.hits;
        misses = t.misses;
        evictions = t.evictions;
        bytes = t.bytes;
        entries = Hashtbl.length t.table;
      })
