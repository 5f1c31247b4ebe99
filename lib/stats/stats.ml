module Doc = Xmldom.Doc
module Tag = Xmldom.Tag
module Ftexp = Fulltext.Ftexp
module Index = Fulltext.Index
module Query = Tpq.Query

type pair_key = int * int

module Pair_tbl = Hashtbl.Make (struct
  type t = pair_key

  let equal (a, b) (c, d) = a = c && b = d
  let hash (a, b) = (a * 92821) lxor b
end)

(* One document's statistics — what [build] produces and snapshots
   persist.  The public [t] below is either one of these or a merged
   view over several (one per corpus shard); merged views exist only at
   query time and are never extended or persisted. *)
type single = {
  doc : Doc.t;
  n_by_tag : int array;
  pc : int Pair_tbl.t;
  ad : int Pair_tbl.t;
  children_total : int array; (* #pc(t, any) *)
  desc_total : int array; (* #ad(t, any) *)
  depth_total : int array; (* #ad(any, t) *)
  total_ad : int;
  mutable index : Index.t option;
  contains_cache : (string * string, int) Hashtbl.t;
}

(* A merged view sums counts across sources by tag NAME (tag ids are
   per-document).  [root_tag] is the root tag every source shares: each
   source contributes one such element where the equivalent combined
   document has exactly one, so tag counts and element totals subtract
   the [n-1] surplus roots.  Every other count is purely additive —
   levels, subtree extents and parent/ancestor pairs of non-root
   elements are identical in the sharded and combined layouts. *)
type t =
  | Single of single
  | Merged of { sources : single array; root_tag : string }

let build_single doc =
  let n = Doc.size doc in
  let n_tags = Tag.count (Doc.tags doc) in
  let n_by_tag = Array.make n_tags 0 in
  let pc = Pair_tbl.create 256 in
  let ad = Pair_tbl.create 1024 in
  let children_total = Array.make n_tags 0 in
  let desc_total = Array.make n_tags 0 in
  let depth_total = Array.make n_tags 0 in
  let total_ad = ref 0 in
  let bump tbl key = Pair_tbl.replace tbl key (1 + Option.value ~default:0 (Pair_tbl.find_opt tbl key)) in
  for e = 0 to n - 1 do
    let te = Doc.tag doc e in
    n_by_tag.(te) <- n_by_tag.(te) + 1;
    (match Doc.parent doc e with
    | None -> ()
    | Some p ->
      let tp = Doc.tag doc p in
      bump pc (tp, te);
      children_total.(tp) <- children_total.(tp) + 1);
    desc_total.(te) <- desc_total.(te) + (Doc.subtree_end doc e - e - 1);
    let d = Doc.level doc e in
    depth_total.(te) <- depth_total.(te) + d;
    total_ad := !total_ad + d;
    List.iter (fun a -> bump ad (Doc.tag doc a, te)) (Doc.ancestors doc e)
  done;
  {
    doc;
    n_by_tag;
    pc;
    ad;
    children_total;
    desc_total;
    depth_total;
    total_ad = !total_ad;
    index = None;
    contains_cache = Hashtbl.create 64;
  }

let build doc = Single (build_single doc)

let single_of = function
  | Single s -> s
  | Merged _ -> invalid_arg "Stats: operation not supported on a merged view"

let sources = function Single s -> [| s |] | Merged m -> m.sources

let root_name s = Doc.tag_name s.doc (Doc.root s.doc)

let merged ts =
  match List.map single_of ts with
  | [] -> invalid_arg "Stats.merged: at least one source required"
  | s0 :: _ as srcs ->
    let root_tag = root_name s0 in
    List.iter
      (fun s ->
        if root_name s <> root_tag then
          invalid_arg
            (Printf.sprintf "Stats.merged: sources rooted at <%s> and <%s>" root_tag (root_name s)))
      srcs;
    Merged { sources = Array.of_list srcs; root_tag }

(* Extend statistics over a document that grew by [Doc.append_trees].
   [build]'s loop body is purely additive per element, so running it
   over just the new elements — against the widened document, whose old
   elements kept their ids, levels and subtree extents — reproduces a
   fresh build's tables exactly, up to one correction: the root's own
   descendant count, charged at build time from its subtree extent,
   grew by the number of appended elements.  (The root is the only old
   element whose extent changes, and ancestor walks from new elements
   land on it, so its [ad] rows are already bumped by the loop.) *)
let extend t doc ~first_new =
  let st = single_of t in
  let n = Doc.size doc in
  if first_new <> Doc.size st.doc then
    invalid_arg
      (Printf.sprintf "Stats.extend: statistics cover %d elements, extension starts at %d"
         (Doc.size st.doc) first_new);
  let n_tags = Tag.count (Doc.tags doc) in
  let grow src =
    let g = Array.make n_tags 0 in
    Array.blit src 0 g 0 (Array.length src);
    g
  in
  let n_by_tag = grow st.n_by_tag in
  let pc = Pair_tbl.copy st.pc in
  let ad = Pair_tbl.copy st.ad in
  let children_total = grow st.children_total in
  let desc_total = grow st.desc_total in
  let depth_total = grow st.depth_total in
  let total_ad = ref st.total_ad in
  let bump tbl key = Pair_tbl.replace tbl key (1 + Option.value ~default:0 (Pair_tbl.find_opt tbl key)) in
  for e = first_new to n - 1 do
    let te = Doc.tag doc e in
    n_by_tag.(te) <- n_by_tag.(te) + 1;
    (match Doc.parent doc e with
    | None -> ()
    | Some p ->
      let tp = Doc.tag doc p in
      bump pc (tp, te);
      children_total.(tp) <- children_total.(tp) + 1);
    desc_total.(te) <- desc_total.(te) + (Doc.subtree_end doc e - e - 1);
    let d = Doc.level doc e in
    depth_total.(te) <- depth_total.(te) + d;
    total_ad := !total_ad + d;
    List.iter (fun a -> bump ad (Doc.tag doc a, te)) (Doc.ancestors doc e)
  done;
  if n > first_new then begin
    let rt = Doc.tag doc (Doc.root doc) in
    desc_total.(rt) <- desc_total.(rt) + (n - first_new)
  end;
  Single
    {
      doc;
      n_by_tag;
      pc;
      ad;
      children_total;
      desc_total;
      depth_total;
      total_ad = !total_ad;
      index = None;
      contains_cache = Hashtbl.create 64;
    }

(* Re-cover statistics after [Doc.remove_tree] took the root child
   [first] (subtree [first .. stop - 1]) out of the document: the
   mirror of [extend].  Running [build]'s loop body over the removed
   elements, against the old document, and subtracting reverses what
   it added for them; a pair whose count reaches 0 is dropped, as
   [build] never adds one.  The one correction is again the root's
   descendant count, which loses the range's length.  The arrays keep
   their length: [doc] shares the old intern table. *)
let remove t doc ~first ~stop =
  let st = single_of t in
  let old = st.doc in
  let m = stop - first in
  if Doc.size doc <> Doc.size old - m then
    invalid_arg
      (Printf.sprintf "Stats.remove: statistics cover %d elements, %d minus %d remain"
         (Doc.size doc) (Doc.size old) m);
  let n_by_tag = Array.copy st.n_by_tag in
  let pc = Pair_tbl.copy st.pc in
  let ad = Pair_tbl.copy st.ad in
  let children_total = Array.copy st.children_total in
  let desc_total = Array.copy st.desc_total in
  let depth_total = Array.copy st.depth_total in
  let total_ad = ref st.total_ad in
  let drop tbl key =
    match Pair_tbl.find tbl key with
    | 1 -> Pair_tbl.remove tbl key
    | c -> Pair_tbl.replace tbl key (c - 1)
  in
  for e = first to stop - 1 do
    let te = Doc.tag old e in
    n_by_tag.(te) <- n_by_tag.(te) - 1;
    (match Doc.parent old e with
    | None -> ()
    | Some p ->
      let tp = Doc.tag old p in
      drop pc (tp, te);
      children_total.(tp) <- children_total.(tp) - 1);
    desc_total.(te) <- desc_total.(te) - (Doc.subtree_end old e - e - 1);
    let d = Doc.level old e in
    depth_total.(te) <- depth_total.(te) - d;
    total_ad := !total_ad - d;
    List.iter (fun a -> drop ad (Doc.tag old a, te)) (Doc.ancestors old e)
  done;
  let rt = Doc.tag doc (Doc.root doc) in
  desc_total.(rt) <- desc_total.(rt) - m;
  Single
    {
      doc;
      n_by_tag;
      pc;
      ad;
      children_total;
      desc_total;
      depth_total;
      total_ad = !total_ad;
      index = None;
      contains_cache = Hashtbl.create 64;
    }

(* The statistics minus the document, the attached index and the
   memoization cache: the count tables snapshot storage persists.
   [of_portable] re-attaches a document and starts a fresh cache; the
   index is re-attached separately via [set_index]. *)
type portable = {
  p_n_by_tag : int array;
  p_pc : int Pair_tbl.t;
  p_ad : int Pair_tbl.t;
  p_children_total : int array;
  p_desc_total : int array;
  p_depth_total : int array;
  p_total_ad : int;
}

let to_portable t =
  let st = single_of t in
  {
    p_n_by_tag = st.n_by_tag;
    p_pc = st.pc;
    p_ad = st.ad;
    p_children_total = st.children_total;
    p_desc_total = st.desc_total;
    p_depth_total = st.depth_total;
    p_total_ad = st.total_ad;
  }

let of_portable doc p =
  if Array.length p.p_n_by_tag <> Tag.count (Doc.tags doc) then
    invalid_arg
      (Printf.sprintf "Stats.of_portable: statistics cover %d tags, document has %d"
         (Array.length p.p_n_by_tag)
         (Tag.count (Doc.tags doc)));
  Single
    {
      doc;
      n_by_tag = p.p_n_by_tag;
      pc = p.p_pc;
      ad = p.p_ad;
      children_total = p.p_children_total;
      desc_total = p.p_desc_total;
      depth_total = p.p_depth_total;
      total_ad = p.p_total_ad;
      index = None;
      contains_cache = Hashtbl.create 64;
    }

(* For a merged view, "the document" is the first source's — callers
   wanting sizes should use [total_elems], which dedups the synthetic
   roots. *)
let doc t = (sources t).(0).doc

let tag_id s name = Tag.find (Doc.tags s.doc) name

(* ------------------------------------------------------------------ *)
(* Per-source count primitives, then name-keyed summation. *)

let pair_count tbl k = Option.value ~default:0 (Pair_tbl.find_opt tbl k)

let s_count_tag s name = match tag_id s name with None -> 0 | Some t -> s.n_by_tag.(t)

let s_count_pc s t1 t2 =
  match (tag_id s t1, tag_id s t2) with
  | Some a, Some b -> pair_count s.pc (a, b)
  | _ -> 0

let s_count_ad s t1 t2 =
  match (tag_id s t1, tag_id s t2) with
  | Some a, Some b -> pair_count s.ad (a, b)
  | _ -> 0

let s_total_elems s = Array.fold_left ( + ) 0 s.n_by_tag

let sum f t = Array.fold_left (fun acc s -> acc + f s) 0 (sources t)

(* Surplus synthetic roots relative to the combined single document. *)
let extra_roots = function Single _ -> 0 | Merged m -> Array.length m.sources - 1

let count_tag t name =
  let c = sum (fun s -> s_count_tag s name) t in
  match t with Merged m when name = m.root_tag -> c - extra_roots t | _ -> c

let count_pc t t1 t2 = sum (fun s -> s_count_pc s t1 t2) t
let count_ad t t1 t2 = sum (fun s -> s_count_ad s t1 t2) t

let set_index t idx = (single_of t).index <- Some idx

(* The memoization cache is the only mutable state on the query path;
   the server evaluates queries against one shared statistics value from
   several domains at once, so lookups and inserts are serialized.  One
   module-level lock (rather than a per-value field) keeps the tables
   marshalable for the v1 snapshot format; contention is negligible —
   penalty construction consults the cache a handful of times per
   query. *)
let cache_lock = Mutex.create ()

let s_count_contains s tag f =
  let key = (tag, Ftexp.to_string f) in
  Mutex.lock cache_lock;
  match Hashtbl.find_opt s.contains_cache key with
  | Some n ->
    Mutex.unlock cache_lock;
    n
  | None ->
    Mutex.unlock cache_lock;
    let n =
      match (s.index, tag_id s tag) with
      | Some idx, Some t -> Index.count_satisfying_with_tag idx f t
      | _, None -> 0
      | None, _ -> invalid_arg "Stats.count_contains: no index attached (use set_index)"
    in
    Mutex.lock cache_lock;
    (* A racing domain may have inserted the same key meanwhile; both
       computed the same pure count, so [replace] is idempotent. *)
    Hashtbl.replace s.contains_cache key n;
    Mutex.unlock cache_lock;
    n

let count_contains t tag f = sum (fun s -> s_count_contains s tag f) t

let pc_fraction t t1 t2 =
  let a = count_ad t t1 t2 in
  if a = 0 then 0.0 else float_of_int (count_pc t t1 t2) /. float_of_int a

let ad_density t t1 t2 =
  let n1 = count_tag t t1 and n2 = count_tag t t2 in
  if n1 = 0 || n2 = 0 then 0.0
  else float_of_int (count_ad t t1 t2) /. (float_of_int n1 *. float_of_int n2)

let contains_fraction t ~child ~parent f =
  let denom = count_contains t parent f in
  if denom = 0 then 1.0
  else Float.min 1.0 (float_of_int (count_contains t child f) /. float_of_int denom)

(* ------------------------------------------------------------------ *)
(* Selectivity estimation.

   Wildcard-aware counts: [None] stands for any tag. *)

let total_elems t = sum s_total_elems t - extra_roots t

let count_tag_opt t = function None -> total_elems t | Some name -> count_tag t name

let count_pc_opt t t1 t2 =
  match (t1, t2) with
  | Some _, Some _ -> count_pc t (Option.get t1) (Option.get t2)
  | Some a, None ->
    sum (fun s -> match tag_id s a with None -> 0 | Some tg -> s.children_total.(tg)) t
  | None, Some b ->
    (* every non-root element has one parent *)
    sum
      (fun s ->
        match tag_id s b with
        | None -> 0
        | Some tg -> s.n_by_tag.(tg) - (if Doc.tag s.doc (Doc.root s.doc) = tg then 1 else 0))
      t
  | None, None -> sum (fun s -> s_total_elems s - 1) t

let count_ad_opt t t1 t2 =
  match (t1, t2) with
  | Some a, Some b -> count_ad t a b
  | Some a, None -> sum (fun s -> match tag_id s a with None -> 0 | Some tg -> s.desc_total.(tg)) t
  | None, Some b -> sum (fun s -> match tag_id s b with None -> 0 | Some tg -> s.depth_total.(tg)) t
  | None, None -> sum (fun s -> s.total_ad) t

(* Fraction of [parent_tag] elements expected to have at least one
   qualifying child/descendant of [child_tag]. *)
let edge_fraction t parent_tag axis child_tag =
  let np = count_tag_opt t parent_tag in
  if np = 0 then 0.0
  else begin
    let pairs =
      match axis with
      | Query.Child -> count_pc_opt t parent_tag child_tag
      | Query.Descendant -> count_ad_opt t parent_tag child_tag
    in
    Float.min 1.0 (float_of_int pairs /. float_of_int np)
  end

let self_fraction t (n : Query.node) =
  (* Probability that an element of this node's tag satisfies the node's
     own contains predicates. *)
  match n.tag with
  | None -> 1.0
  | Some tag ->
    let nt = count_tag t tag in
    if nt = 0 then 0.0
    else
      List.fold_left
        (fun acc f ->
          acc *. Float.min 1.0 (float_of_int (count_contains t tag f) /. float_of_int nt))
        1.0 n.contains

(* P(a fixed element matching node v's tag has a full embedding of v's
   subtree below it), under independence. *)
let rec subtree_prob t q v =
  let n = Query.node q v in
  let own = self_fraction t n in
  List.fold_left
    (fun acc (c, axis) ->
      let cn = Query.node q c in
      acc *. edge_fraction t n.tag axis cn.tag *. subtree_prob t q c)
    own (Query.children q v)

(* P(a fixed element matching the distinguished node extends upward to
   the root, with all side branches matching). *)
let upward_prob t q =
  let rec go v =
    match Query.parent q v with
    | None -> 1.0
    | Some (p, axis) ->
      let pn = Query.node q p in
      let vn = Query.node q v in
      let nv = count_tag_opt t vn.tag in
      if nv = 0 then 0.0
      else begin
        let pairs =
          match axis with
          | Query.Child -> count_pc_opt t pn.tag vn.tag
          | Query.Descendant -> count_ad_opt t pn.tag vn.tag
        in
        let has_anc = Float.min 1.0 (float_of_int pairs /. float_of_int nv) in
        let siblings =
          List.fold_left
            (fun acc (c, ax) ->
              if c = v then acc
              else
                let cn = Query.node q c in
                acc *. edge_fraction t pn.tag ax cn.tag *. subtree_prob t q c)
            1.0 (Query.children q p)
        in
        has_anc *. siblings *. self_fraction t pn *. go p
      end
  in
  go (Query.distinguished q)

let estimate_answers t q =
  let d = Query.distinguished q in
  let dn = Query.node q d in
  float_of_int (count_tag_opt t dn.tag) *. subtree_prob t q d *. upward_prob t q

let estimate_matches t q =
  let rec expected v =
    let n = Query.node q v in
    List.fold_left
      (fun acc (c, axis) ->
        let cn = Query.node q c in
        let np = count_tag_opt t n.tag in
        let per_parent =
          if np = 0 then 0.0
          else begin
            let pairs =
              match axis with
              | Query.Child -> count_pc_opt t n.tag cn.tag
              | Query.Descendant -> count_ad_opt t n.tag cn.tag
            in
            float_of_int pairs /. float_of_int np
          end
        in
        acc *. per_parent *. self_fraction t cn *. expected c)
      1.0 (Query.children q v)
  in
  let r = Query.root q in
  float_of_int (count_tag_opt t (Query.node q r).tag)
  *. self_fraction t (Query.node q r)
  *. expected r

let pp fmt t =
  match t with
  | Single s ->
    Format.fprintf fmt "stats: %d elements, %d tags, %d pc pairs, %d ad entries" (s_total_elems s)
      (Array.length s.n_by_tag) (Pair_tbl.length s.pc) (Pair_tbl.length s.ad)
  | Merged m ->
    Format.fprintf fmt "stats: merged over %d shards, %d elements" (Array.length m.sources)
      (total_elems t)
