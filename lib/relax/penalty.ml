module Pred = Tpq.Pred
module Query = Tpq.Query
module Closure = Tpq.Closure
module Hierarchy = Tpq.Hierarchy
module Ftexp = Fulltext.Ftexp

type weights = Pred.t -> float

let uniform _ = 1.0

type t = {
  stats : Stats.t;
  weights : weights;
  orig : Query.t;
  hierarchy : Hierarchy.t;
  closure_set : Pred.Set.t;
  tag_of : int -> string option; (* variable tags in the original query *)
  parent_of : int -> int option;
  scored : Pred.t array; (* the scored closure, ascending: bit i is scored.(i) *)
  pen : float array; (* π of each bit *)
  base : float;
  forced : bool;
  least_loss : float array option Atomic.t;
      (* per bit, filled on first use by [unseen_loss]; Atomic because
         plans, and so penalty environments, are shared between worker
         domains (a racing recompute yields an identical table) *)
}

(* A predicate participates in scoring when a relaxation can drop it:
   structural and contains predicates always, tag predicates only when
   the hierarchy offers a supertype to generalize to. *)
let is_scored hierarchy p =
  match p with
  | Pred.Pc _ | Pred.Ad _ | Pred.Contains _ -> true
  | Pred.Tag_eq (_, t) -> Hierarchy.supertype hierarchy t <> None
  | Pred.Attr _ -> false

(* Counts for possibly-wildcard tags; a missing tag behaves like a
   wildcard (total counts), which only makes penalties conservative. *)
let count_tag env = function
  | Some t -> Stats.count_tag env.stats t
  | None -> Stats.total_elems env.stats

(* Extension of a tag under the hierarchy: its own elements plus those
   of all transitive subtypes. *)
let count_extension env t =
  List.fold_left
    (fun acc sub -> acc + Stats.count_tag env.stats sub)
    (Stats.count_tag env.stats t)
    (Hierarchy.subtypes env.hierarchy t)

let count_pc env t1 t2 =
  match (t1, t2) with
  | Some a, Some b -> Stats.count_pc env.stats a b
  | _ -> count_tag env t2 (* loose upper bound for wildcards *)

let count_ad env t1 t2 =
  match (t1, t2) with
  | Some a, Some b -> Stats.count_ad env.stats a b
  | _ -> count_tag env t2

let predicate_penalty env p =
  let w = env.weights p in
  match p with
  | Pred.Pc (i, j) ->
    let ti = env.tag_of i and tj = env.tag_of j in
    let ad = count_ad env ti tj in
    if ad = 0 then w else float_of_int (count_pc env ti tj) /. float_of_int ad *. w
  | Pred.Ad (i, j) ->
    let ti = env.tag_of i and tj = env.tag_of j in
    let ni = count_tag env ti and nj = count_tag env tj in
    if ni = 0 || nj = 0 then w
    else float_of_int (count_ad env ti tj) /. (float_of_int ni *. float_of_int nj) *. w
  | Pred.Contains (i, f) -> (
    match (env.tag_of i, env.parent_of i) with
    | Some ti, Some l -> (
      match env.tag_of l with
      | Some tl ->
        let child = Stats.count_contains env.stats ti f in
        let parent = Stats.count_contains env.stats tl f in
        if parent = 0 then w else Float.min 1.0 (float_of_int child /. float_of_int parent) *. w
      | None -> w)
    | _ -> w)
  | Pred.Tag_eq (_, t) -> (
    (* Generalizing tag t to its supertype broadens the extension; the
       penalty mirrors the pc/ad style: the larger the share of the
       supertype's extension t already covers, the fewer new answers
       the relaxation admits and the heavier the penalty. *)
    match Hierarchy.supertype env.hierarchy t with
    | None -> 0.0
    | Some super ->
      let ext = count_extension env super in
      if ext = 0 then w
      else float_of_int (Stats.count_tag env.stats t) /. float_of_int ext *. w)
  | Pred.Attr _ -> 0.0

(* Mask equality decides equivalence when the homomorphism between a
   relaxation and its successor is forced to be the identity: every
   variable tagged with a tag no other variable has, tags matched
   exactly, and no contains that promotion could move outside the
   original closure. *)
let is_forced hierarchy orig =
  let tags = List.map (fun v -> (Query.node orig v).tag) (Query.vars orig) in
  Hierarchy.is_empty hierarchy
  && List.for_all Option.is_some tags
  && List.length (List.sort_uniq compare tags) = List.length tags
  && List.for_all (fun (_, f) -> Ftexp.is_positive f) (Query.contains_preds orig)

let make ?(hierarchy = Hierarchy.empty) stats weights orig =
  let closure_set = Closure.closure_set (Pred.Set.of_list (Query.to_preds orig)) in
  let scored =
    Pred.Set.elements closure_set |> List.filter (is_scored hierarchy) |> Array.of_list
  in
  let env =
    {
      stats;
      weights;
      orig;
      hierarchy;
      closure_set;
      tag_of = (fun v -> if Query.mem orig v then (Query.node orig v).tag else None);
      parent_of =
        (fun v -> if Query.mem orig v then Option.map fst (Query.parent orig v) else None);
      scored;
      pen = [||];
      base = List.fold_left (fun acc p -> acc +. weights p) 0.0 (Query.structural_preds orig);
      forced = is_forced hierarchy orig;
      least_loss = Atomic.make None;
    }
  in
  { env with pen = Array.map (predicate_penalty env) scored }

let original env = env.orig
let hierarchy env = env.hierarchy
let closure env = Pred.Set.elements env.closure_set
let scored_preds env = Array.to_list env.scored
let scored_bits env = env.scored
let bit_penalties env = env.pen
let forced env = env.forced

(* ------------------------------------------------------------------ *)
(* Closure masks.

   A relaxed query keeps the original's variable ids, so whether it
   still implies a predicate of the original closure can be read off its
   tree (§3.2's inference rules, Figure 3): pc from the parent edge, ad
   from ancestry, a positive contains from any descendant-or-self (a
   negated one only from the node itself), tags from the node. *)

type mask = bool array

let mask env q =
  let rec above x y =
    match Query.parent q y with Some (p, _) -> p = x || above x p | None -> false
  in
  let contains = Query.contains_preds q in
  Array.map
    (function
      | Pred.Pc (x, y) -> Query.parent q y = Some (x, Query.Child)
      | Pred.Ad (x, y) -> above x y
      | Pred.Contains (x, f) ->
        let positive = Ftexp.is_positive f in
        List.exists
          (fun (y, g) -> Ftexp.equal f g && (y = x || (positive && above x y)))
          contains
      | Pred.Tag_eq (x, t) -> Query.mem q x && (Query.node q x).tag = Some t
      | Pred.Attr (x, a) -> Query.mem q x && List.mem a (Query.node q x).attrs)
    env.scored

let mask_equal = Array.for_all2 Bool.equal

(* Σ π over the cleared bits, in ascending bit order. *)
let mask_penalty env m =
  let acc = ref 0.0 in
  Array.iteri (fun i holds -> if not holds then acc := !acc +. env.pen.(i)) m;
  !acc

let dropped_preds env relaxed =
  let m = mask env relaxed in
  List.filteri (fun i _ -> not m.(i)) (Array.to_list env.scored)

let relaxation_penalty env relaxed = mask_penalty env (mask env relaxed)
let base_score env = env.base

let max_keyword_score env =
  List.fold_left
    (fun acc (v, f) -> acc +. env.weights (Pred.Contains (v, f)))
    0.0
    (Query.contains_preds env.orig)

let structural_score env relaxed = env.base -. relaxation_penalty env relaxed

(* ------------------------------------------------------------------ *)
(* The least loss of failing each bit.

   An answer's satisfied-predicate set is always closed under the
   inference rules (satisfaction on data respects them), so the best
   structural score of an answer that fails bit i is
   [base − least_loss.(i)], with least_loss.(i) the least Σπ(failed)
   over inference-closed sets of scored predicates that fail i. *)

(* The inference rules among the scored bits: (premises, conclusion). *)
let rules env =
  let index = Hashtbl.create 64 in
  Array.iteri (fun i p -> Hashtbl.replace index p i) env.scored;
  let add premises conclusion acc =
    match Hashtbl.find_opt index conclusion with Some c -> (premises, c) :: acc | None -> acc
  in
  let acc = ref [] in
  Array.iteri
    (fun i p ->
      match p with
      | Pred.Pc (x, y) -> acc := add [ i ] (Pred.Ad (x, y)) !acc
      | Pred.Ad (x, y) ->
        Array.iteri
          (fun k p' ->
            match p' with
            | Pred.Ad (y', z) when y' = y -> acc := add [ i; k ] (Pred.Ad (x, z)) !acc
            | Pred.Contains (y', f) when y' = y && Ftexp.is_positive f ->
              acc := add [ i; k ] (Pred.Contains (x, f)) !acc
            | _ -> ())
          env.scored
      | Pred.Tag_eq _ | Pred.Attr _ | Pred.Contains _ -> ())
    env.scored;
  !acc

(* Every closed set enumerated, for closures small enough. *)
let exhaustive_least_loss env rules =
  let m = Array.length env.scored in
  let rules =
    List.map (fun (ps, c) -> (List.fold_left (fun acc i -> acc lor (1 lsl i)) 0 ps, 1 lsl c)) rules
  in
  let least = Array.make m infinity in
  for s = 0 to (1 lsl m) - 1 do
    if List.for_all (fun (premises, c) -> s land premises <> premises || s land c <> 0) rules
    then begin
      let loss = ref 0.0 in
      for i = 0 to m - 1 do
        if s land (1 lsl i) = 0 then loss := !loss +. env.pen.(i)
      done;
      for i = 0 to m - 1 do
        if s land (1 lsl i) = 0 then least.(i) <- Float.min least.(i) !loss
      done
    end
  done;
  least

(* Closures too large to enumerate: lower-bound the loss of failing a
   predicate by following the inference rules — when a derived
   predicate fails, every rule deriving it must have a failing premise,
   so at least the cheapest premise of the most expensive rule fails
   along with it.  Counting one chain per predicate avoids double
   counting, keeping the bound sound.  The rule graph is acyclic (a
   conclusion is always a longer edge or a higher contains than its
   premises), so plain memoization is safe. *)
let chased_least_loss env rules =
  let m = Array.length env.scored in
  let memo = Array.make m None in
  let rec cost c =
    match memo.(c) with
    | Some v -> v
    | None ->
      memo.(c) <- Some env.pen.(c) (* guard against malformed cycles *);
      let chain =
        List.fold_left
          (fun acc (premises, concl) ->
            if concl <> c then acc
            else Float.max acc (List.fold_left (fun m i -> Float.min m (cost i)) infinity premises))
          0.0 rules
      in
      let v = env.pen.(c) +. chain in
      memo.(c) <- Some v;
      v
  in
  Array.init m cost

let exhaustive_limit = 18

let least_loss env =
  match Atomic.get env.least_loss with
  | Some table -> table
  | None ->
    let rules = rules env in
    let table =
      if Array.length env.scored <= exhaustive_limit then exhaustive_least_loss env rules
      else chased_least_loss env rules
    in
    Atomic.set env.least_loss (Some table);
    table

let unseen_loss env relaxed =
  let m = mask env relaxed in
  (* A query that implies nothing needs no table. *)
  if not (Array.exists Fun.id m) then infinity
  else begin
    let table = least_loss env in
    let least = ref infinity in
    Array.iteri (fun i holds -> if holds then least := Float.min !least table.(i)) m;
    !least
  end
