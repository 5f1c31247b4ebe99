module Doc = Xmldom.Doc
module Index = Fulltext.Index
module Ftexp = Fulltext.Ftexp
module Pred = Tpq.Pred
module Query = Tpq.Query

type env = { doc : Doc.t; index : Index.t; penalty : Relax.Penalty.t }

exception Cancelled
exception Capacity_exceeded of { what : string; limit : int; actual : int }

let max_scored_preds = 62
let failpoint : (string -> unit) ref = ref (fun _ -> ())

type answer = {
  target : Doc.elem;
  sscore : float;
  kscore : float;
  satisfied : Pred.t list;
  failed : Pred.t list;
  bindings : (int * Doc.elem) list;
}

type strategy = {
  sort_on_score : bool;
  bucketize : bool;
  prune_k : int option;
  prune_slack : float;
}

let exact_strategy =
  { sort_on_score = false; bucketize = false; prune_k = None; prune_slack = 0.0 }

type executor = Auto | Binary

let executor_to_string = function Auto -> "auto" | Binary -> "binary"

type metrics = {
  mutable tuples_produced : int;
  mutable tuples_pruned : int;
  mutable score_sorted_tuples : int;
  mutable buckets_touched : int;
  mutable stages : int;
  mutable cancel_polls : int;
  mutable holistic_runs : int;
  mutable holistic_fast_paths : int;
  mutable stream_elements : int;
}

let fresh_metrics () =
  {
    tuples_produced = 0;
    tuples_pruned = 0;
    score_sorted_tuples = 0;
    buckets_touched = 0;
    stages = 0;
    cancel_polls = 0;
    holistic_runs = 0;
    holistic_fast_paths = 0;
    stream_elements = 0;
  }

(* A tuple in flight: bindings per slot (-1 unbound / not yet reached),
   the mask of scored predicates already found satisfied, and the
   running score. *)
type tuple = { bindings : int array; mask : int; score : float }

(* Compiled pipeline: for each stage (slot), the scored closure
   predicates that become fully determined once that slot is bound,
   each with its test on a tuple's bindings. *)
type check = { pred_ix : int; pred : Pred.t; pen : float; holds : int array -> bool }

type compiled = {
  enc : Encoded.t;
  scored_preds : Pred.t array; (* structural + contains preds of the closure *)
  checks : check list array; (* per stage *)
  required : Index.compiled list array;
      (* per stage: the spec's required contains, compiled *)
  keyword_preds : Index.compiled list; (* contains preds of the original query *)
  remaining : float array; (* Σ penalties of checks at stages > s — maxScoreGrowth *)
  live : int array array;
      (* live.(s): slots still needed after stage s — anchors of later
         specs, variables of later checks, and the distinguished slot.
         Dead slots are projected away and tuples deduplicated, which
         keeps branchy queries from exploding combinatorially. *)
  base : float;
  dist_slot : int;
  n_slots : int;
}

(* The test of predicate [p] on a tuple's bindings, with its slots
   resolved and a [contains] expression compiled.  All variables of [p]
   are guaranteed bound-or-unbound-final when the test runs. *)
let pred_holds env enc text p =
  let slot = Encoded.slot_of_var enc in
  match p with
  | Pred.Pc (x, y) ->
    let sx = slot x and sy = slot y in
    fun b ->
      let ex = b.(sx) and ey = b.(sy) in
      ex >= 0 && ey >= 0 && Doc.is_parent env.doc ex ey
  | Pred.Ad (x, y) ->
    let sx = slot x and sy = slot y in
    fun b ->
      let ex = b.(sx) and ey = b.(sy) in
      ex >= 0 && ey >= 0 && Doc.is_ancestor env.doc ex ey
  | Pred.Contains (x, f) ->
    let sx = slot x and c = text f in
    fun b ->
      let ex = b.(sx) in
      ex >= 0 && Index.holds c ex
  | Pred.Tag_eq (x, t) ->
    let sx = slot x in
    fun b ->
      let ex = b.(sx) in
      ex >= 0 && String.equal (Doc.tag_name env.doc ex) t
  | Pred.Attr (x, _) ->
    let sx = slot x in
    fun b -> b.(sx) >= 0

(* Each distinct [contains] expression of a plan, compiled once against
   the run's index view and shared by every use in that run. *)
let text_compiler env =
  let seen = ref [] in
  fun f ->
    match List.find_opt (fun (g, _) -> Ftexp.equal f g) !seen with
    | Some (_, c) -> c
    | None ->
      let c = Index.compile env.index f in
      seen := (f, c) :: !seen;
      c

let check_capacity penv =
  let n_preds = Array.length (Relax.Penalty.scored_bits penv) in
  if n_preds > max_scored_preds then
    raise
      (Capacity_exceeded
         { what = "scored predicates in the query closure"; limit = max_scored_preds; actual = n_preds })

let compile env enc =
  !failpoint "exec.compile";
  let text = text_compiler env in
  let penv = env.penalty in
  check_capacity penv;
  let scored_preds = Relax.Penalty.scored_bits penv in
  let penalties = Relax.Penalty.bit_penalties penv in
  let n_slots = Encoded.var_count enc in
  let slot_of v = Encoded.slot_of_var enc v in
  let checks = Array.make n_slots [] in
  Array.iteri
    (fun ix p ->
      let stage = List.fold_left (fun acc v -> max acc (slot_of v)) 0 (Pred.vars p) in
      checks.(stage) <-
        { pred_ix = ix; pred = p; pen = penalties.(ix); holds = pred_holds env enc text p }
        :: checks.(stage))
    scored_preds;
  let remaining = Array.make n_slots 0.0 in
  for s = n_slots - 2 downto 0 do
    remaining.(s) <-
      remaining.(s + 1) +. List.fold_left (fun acc c -> acc +. c.pen) 0.0 checks.(s + 1)
  done;
  let dist_slot = slot_of (Encoded.distinguished enc) in
  let specs = Array.of_list (Encoded.specs enc) in
  let live =
    Array.init n_slots (fun s ->
        let needed = Hashtbl.create 8 in
        Hashtbl.replace needed dist_slot ();
        for s' = s + 1 to n_slots - 1 do
          (match specs.(s').Encoded.anchor with
          | Some (p, _) -> Hashtbl.replace needed (slot_of p) ()
          | None -> ());
          List.iter
            (fun c ->
              List.iter (fun v -> Hashtbl.replace needed (slot_of v) ()) (Pred.vars c.pred))
            checks.(s')
        done;
        Hashtbl.fold (fun slot () acc -> slot :: acc) needed []
        |> List.filter (fun slot -> slot <= s)
        |> List.sort Int.compare |> Array.of_list)
  in
  {
    enc;
    scored_preds;
    checks;
    required =
      Array.map (fun (spec : Encoded.var_spec) -> List.map text spec.required_contains) specs;
    keyword_preds =
      List.map (fun (_, f) -> text f) (Query.contains_preds (Relax.Penalty.original penv));
    remaining;
    live;
    base = Relax.Penalty.base_score penv;
    dist_slot;
    n_slots;
  }

(* Apply the checks of stage [s] to a tuple whose slot [s] was just
   decided, updating mask and score. *)
let settle cp s t =
  List.fold_left
    (fun t c ->
      if c.holds t.bindings then { t with mask = t.mask lor (1 lsl c.pred_ix) }
      else { t with score = t.score -. c.pen })
    t cp.checks.(s)

let hierarchy env = Relax.Penalty.hierarchy env.penalty

(* [required] is [spec.required_contains], compiled. *)
let node_satisfies env (spec : Encoded.var_spec) required e =
  (match spec.tag with
  | None -> true
  | Some t ->
    Tpq.Hierarchy.matches (hierarchy env) ~query_tag:t ~element_tag:(Doc.tag_name env.doc e))
  && List.for_all (fun p -> Pred.eval_attr p (Doc.attribute env.doc e)) spec.attrs
  && List.for_all (fun c -> Index.holds c e) required

let candidate_pool env (spec : Encoded.var_spec) =
  Tpq.Semantics.candidates ~hierarchy:(hierarchy env) env.doc
    (Query.node_spec ?tag:spec.tag ())

(* Candidates for binding [spec] below anchor element [anchor]. *)
let candidates_below env spec required axis anchor =
  let pool = candidate_pool env spec in
  match axis with
  | Query.Child ->
    List.filter (node_satisfies env spec required)
      (Structural_join.children_with_tag env.doc pool anchor)
  | Query.Descendant ->
    let lo, hi = Structural_join.subtree_slice env.doc pool anchor in
    let out = ref [] in
    for i = hi - 1 downto lo do
      if node_satisfies env spec required pool.(i) then out := pool.(i) :: !out
    done;
    !out

(* Keyword score: each contains predicate of the original query
   contributes the normalized IR score of the answer element itself —
   the widest scope a relaxation could promote the predicate to within
   this answer.  Evaluating at the answer node (rather than at some
   embedding's binding) makes the keyword score a function of the
   answer alone, so all algorithms assign identical scores regardless
   of which embedding they discovered first. *)
let keyword_score cp target =
  List.fold_left
    (fun acc c -> if Index.holds c target then acc +. Index.score c target else acc)
    0.0 cp.keyword_preds

let prune_threshold cp metrics k s tuples =
  (* Guaranteed final score of the current k-th best distinct target:
     every tuple's score can still drop by at most remaining(s). *)
  let best = Hashtbl.create 64 in
  List.iter
    (fun t ->
      let target = t.bindings.(cp.dist_slot) in
      if target >= 0 then begin
        let lower = t.score -. cp.remaining.(s) in
        match Hashtbl.find_opt best target with
        | Some l when l >= lower -> ()
        | _ -> Hashtbl.replace best target lower
      end)
    tuples;
  let lowers = Hashtbl.fold (fun _ l acc -> l :: acc) best [] in
  if List.length lowers < k then None
  else begin
    ignore metrics;
    let sorted = List.sort (fun a b -> Float.compare b a) lowers in
    Some (List.nth sorted (k - 1))
  end

let poll_interval = 4096

(* The per-spec candidate stream of the holistic operator: the sorted
   posting pool with the spec's local conditions (tag under hierarchy,
   attributes, required contains) evaluated once per element — the
   binary pipeline re-evaluates them per (tuple, candidate). *)
let filtered_candidates env (spec : Encoded.var_spec) required =
  let pool = candidate_pool env spec in
  (* [candidate_pool] already resolves the tag under the hierarchy, so
     a spec with no attribute or contains conditions is satisfied by
     the whole pool — hand the shared posting array to the operator
     as-is (it only reads), no per-element check, no copy. *)
  if spec.attrs = [] && spec.required_contains = [] then pool
  else begin
    let len = Array.length pool in
    let buf = Array.make (max 1 len) 0 in
    let j = ref 0 in
    for i = 0 to len - 1 do
      if node_satisfies env spec required pool.(i) then begin
        buf.(!j) <- pool.(i);
        incr j
      end
    done;
    Array.sub buf 0 !j
  end

let run ?(metrics = fresh_metrics ()) ?cancel ?(executor = Auto) env enc strategy =
  !failpoint "exec.run";
  let cp = compile env enc in
  let specs = Array.of_list (Encoded.specs enc) in
  let n = cp.n_slots in
  (* Cooperative cancellation: count tuples locally and consult the
     callback only every [poll_interval], so the governed fast path
     stays a counter increment and a comparison.  [flush_tick] reports
     the leftover count at stage boundaries, keeping the caller's
     cumulative tuple accounting exact between stages. *)
  let unpolled = ref 0 in
  let consult f =
    metrics.cancel_polls <- metrics.cancel_polls + 1;
    let d = !unpolled in
    unpolled := 0;
    if f d then raise Cancelled
  in
  let tick, flush_tick =
    match cancel with
    | None -> ((fun _ -> ()), fun () -> ())
    | Some f ->
      ( (fun produced ->
          unpolled := !unpolled + produced;
          if !unpolled >= poll_interval then consult f),
        fun () -> if !unpolled > 0 then consult f )
  in
  (* Planner rule under [Auto]: the holistic operator handles
     conjunctive (twig-shaped, no optional spec) patterns; anything
     else runs on the binary pipeline. *)
  let use_holistic = executor = Auto && Twig.applicable enc in
  let streams =
    if not use_holistic then None
    else begin
      metrics.holistic_runs <- metrics.holistic_runs + 1;
      let anchors =
        Array.map
          (fun (s : Encoded.var_spec) ->
            Option.map (fun (p, ax) -> (Encoded.slot_of_var enc p, ax)) s.anchor)
          specs
      in
      let candidates = Array.map2 (filtered_candidates env) specs cp.required in
      let st = Twig.filter env.doc ~anchors ~candidates ~tick in
      Array.iter
        (fun s -> metrics.stream_elements <- metrics.stream_elements + Array.length s)
        st;
      flush_tick ();
      Some st
    end
  in
  let fast_path =
    match streams with
    | Some st
      when Encoded.exact enc
           && Tpq.Hierarchy.is_empty (hierarchy env)
           && (not strategy.sort_on_score)
           && (not strategy.bucketize)
           && strategy.prune_k = None -> Some st
    | _ -> None
  in
  match fast_path with
  | Some st ->
    (* Exact conjunctive encoding, no hierarchy, plain strategy: a full
       embedding satisfies every original predicate by construction,
       every closure-derived predicate by soundness of the inference
       rules on data, and no tag predicate is scored without a
       hierarchy — so each answer's mask is full and its structural
       score is exactly [base].  The distinguished solution stream IS
       the answer set; no tuple is ever enumerated.  The stage
       failpoints still fire once per join stage so fault-injection
       schedules are executor-independent. *)
    for _s = 1 to n - 1 do
      !failpoint "exec.stage";
      metrics.stages <- metrics.stages + 1
    done;
    metrics.holistic_fast_paths <- metrics.holistic_fast_paths + 1;
    let dist_stream = st.(cp.dist_slot) in
    metrics.tuples_produced <- metrics.tuples_produced + Array.length dist_stream;
    tick (Array.length dist_stream);
    flush_tick ();
    let satisfied = Array.to_list cp.scored_preds in
    let dist_var = Encoded.distinguished enc in
    Array.fold_right
      (fun e acc ->
        {
          target = e;
          sscore = cp.base;
          kscore = keyword_score cp e;
          satisfied;
          failed = [];
          bindings = [ (dist_var, e) ];
        }
        :: acc)
      dist_stream []
  | None ->
  (* stage 0: scan for the root spec *)
  let root_spec = specs.(0) in
  let root_list =
    match streams with
    | Some st -> Array.to_list st.(0)
    | None ->
      Array.fold_right
        (fun e acc -> if node_satisfies env root_spec cp.required.(0) e then e :: acc else acc)
        (candidate_pool env root_spec)
        []
  in
  (* Candidate source for join stages: under the holistic operator,
     slices of the filtered solution streams (local spec conditions
     already evaluated, non-solution elements already gone); otherwise
     the binary pipeline's per-anchor pool filtering.  Both produce
     candidates in ascending pre-order, so enumeration order — and
     therefore every downstream tie-break — is executor-independent. *)
  let cands_below_at =
    match streams with
    | None -> fun s spec axis anchor -> candidates_below env spec cp.required.(s) axis anchor
    | Some st ->
      fun s _spec axis anchor ->
        (match axis with
        | Query.Child -> Structural_join.children_with_tag env.doc st.(s) anchor
        | Query.Descendant ->
          let stream = st.(s) in
          let lo, hi = Structural_join.subtree_slice env.doc stream anchor in
          let out = ref [] in
          for i = hi - 1 downto lo do
            out := stream.(i) :: !out
          done;
          !out)
  in
  let init =
    List.map
      (fun e ->
        let bindings = Array.make n (-1) in
        bindings.(0) <- e;
        settle cp 0 { bindings; mask = 0; score = cp.base })
      root_list
  in
  metrics.tuples_produced <- metrics.tuples_produced + List.length init;
  (* Dead-column projection: tuples that agree on the satisfied-set and
     on every binding still referenced by later stages are
     interchangeable (the score is a function of the mask), so keep one
     representative.  This is what keeps cross-products of sibling
     branches from exploding. *)
  let project s tuples =
    let live = cp.live.(s) in
    let seen = Hashtbl.create 256 in
    List.filter
      (fun t ->
        let key = (t.mask, Array.map (fun slot -> t.bindings.(slot)) live) in
        if Hashtbl.mem seen key then false
        else begin
          Hashtbl.add seen key ();
          true
        end)
      tuples
  in
  let apply_strategy s tuples =
    let tuples =
      match strategy.prune_k with
      | Some k when s >= cp.dist_slot -> (
        match prune_threshold cp metrics k s tuples with
        | None -> tuples
        | Some threshold ->
          let kept =
            List.filter (fun t -> t.score +. strategy.prune_slack >= threshold -. 1e-9) tuples
          in
          metrics.tuples_pruned <- metrics.tuples_pruned + (List.length tuples - List.length kept);
          kept)
      | _ -> tuples
    in
    if strategy.sort_on_score then begin
      metrics.score_sorted_tuples <- metrics.score_sorted_tuples + List.length tuples;
      List.stable_sort (fun a b -> Float.compare b.score a.score) tuples
    end
    else if strategy.bucketize then begin
      (* Hybrid's buckets (§5.2.3) are satisfied-predicate sets, one per
         distinct tuple mask.  They are counted, not evaluated best
         first (ROADMAP item 8(b)): the tuples stay in node-id order and
         pass on unchanged, so Hybrid is SSO without the re-sort. *)
      let buckets = Hashtbl.create 64 in
      List.iter
        (fun t -> if not (Hashtbl.mem buckets t.mask) then Hashtbl.replace buckets t.mask t.score)
        tuples;
      metrics.buckets_touched <- metrics.buckets_touched + Hashtbl.length buckets;
      tuples
    end
    else tuples
  in
  let step tuples s =
    !failpoint "exec.stage";
    metrics.stages <- metrics.stages + 1;
    let spec = specs.(s) in
    let anchor_slot, axis =
      match spec.anchor with
      | Some (p, a) -> (Encoded.slot_of_var enc p, a)
      | None -> invalid_arg "Exec.run: non-root spec without anchor"
    in
    let extend t e =
      let bindings = Array.copy t.bindings in
      bindings.(s) <- e;
      settle cp s { t with bindings }
    in
    let out =
      List.concat_map
        (fun t ->
          let anchor = t.bindings.(anchor_slot) in
          if anchor < 0 then begin
            tick 1;
            [ settle cp s t ]
          end
          else begin
            match cands_below_at s spec axis anchor with
            | [] ->
              if spec.optional then begin
                tick 1;
                [ settle cp s t ]
              end
              else []
            | cands ->
              tick (List.length cands);
              List.map (extend t) cands
          end)
        tuples
    in
    metrics.tuples_produced <- metrics.tuples_produced + List.length out;
    flush_tick ();
    apply_strategy s (project s out)
  in
  tick (List.length init);
  flush_tick ();
  let final = ref (apply_strategy 0 (project 0 init)) in
  for s = 1 to n - 1 do
    final := step !final s
  done;
  (* One answer per distinct distinguished binding: keep the embedding
     with the best structural score (the keyword score depends only on
     the answer node). *)
  let best = Hashtbl.create 64 in
  List.iter
    (fun t ->
      let target = t.bindings.(cp.dist_slot) in
      if target >= 0 then begin
        let better =
          match Hashtbl.find_opt best target with
          | None -> true
          | Some t' -> t.score > t'.score +. 1e-12
        in
        if better then Hashtbl.replace best target t
      end)
    !final;
  Hashtbl.fold
    (fun target t acc ->
      let ks = keyword_score cp target in
      let satisfied, failed =
        Array.to_list cp.scored_preds
        |> List.mapi (fun ix p -> (t.mask land (1 lsl ix) <> 0, p))
        |> List.partition_map (fun (sat, p) -> if sat then Either.Left p else Either.Right p)
      in
      let bindings =
        Array.to_list t.bindings
        |> List.mapi (fun slot e -> (Encoded.var_of_slot enc slot, e))
        |> List.filter (fun (_, e) -> e >= 0)
      in
      { target; sscore = t.score; kscore = ks; satisfied; failed; bindings } :: acc)
    best []
