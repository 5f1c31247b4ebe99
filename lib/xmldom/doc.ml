type elem = int

type t = {
  tags : Tag.table;
  n : int;
  tag : int array;
  post : int array;
  level : int array;
  parent : int array; (* -1 for the root *)
  subtree_end : int array;
  attrs : Xml.attr list array;
  (* Per-element content in document order: item >= 0 is a child element
     id, item < 0 is chunk index [-item - 1].  Preserves the interleaving
     of text and element children for faithful reconstruction. *)
  content : int array array;
  chunk_owner : int array;
  chunk_text : string array;
  by_tag : elem array array;
  (* Derived, never persisted: each element's 1-based rank among its
     same-tag siblings (1 for the root), so a location path reads off
     in O(depth). *)
  same_tag_rank : int array;
}

(* [t] without its derived column: the record snapshots marshal.  Its
   fields and their order are the on-disk format, so they never
   change. *)
type portable = {
  p_tags : Tag.table;
  p_n : int;
  p_tag : int array;
  p_post : int array;
  p_level : int array;
  p_parent : int array;
  p_subtree_end : int array;
  p_attrs : Xml.attr list array;
  p_content : int array array;
  p_chunk_owner : int array;
  p_chunk_text : string array;
  p_by_tag : elem array array;
}

(* Rank [p]'s element children among their same-tag siblings.
   [last.(t)] is the child most recently ranked with tag [t]: a child
   continues its rank when that one shares its parent, and restarts at
   1 otherwise.  The root is nobody's child, so [0] also means "none
   yet", and a pass over many parents needs no per-parent reset. *)
let rank_children ~tag ~parent ~content ~last rank p =
  let items = content.(p) in
  for i = 0 to Array.length items - 1 do
    let c = items.(i) in
    if c >= 0 then begin
      let t = tag.(c) in
      let q = last.(t) in
      rank.(c) <- (if parent.(q) = p then rank.(q) + 1 else 1);
      last.(t) <- c
    end
  done

(* The whole column, in one pass over the content arrays. *)
let rank_all tags ~tag ~parent ~content =
  let n = Array.length tag in
  let rank = Array.make n 1 in
  let last = Array.make (Tag.count tags) 0 in
  for p = 0 to n - 1 do
    rank_children ~tag ~parent ~content ~last rank p
  done;
  rank

let to_portable d =
  {
    p_tags = d.tags;
    p_n = d.n;
    p_tag = d.tag;
    p_post = d.post;
    p_level = d.level;
    p_parent = d.parent;
    p_subtree_end = d.subtree_end;
    p_attrs = d.attrs;
    p_content = d.content;
    p_chunk_owner = d.chunk_owner;
    p_chunk_text = d.chunk_text;
    p_by_tag = d.by_tag;
  }

let of_portable p =
  {
    tags = p.p_tags;
    n = p.p_n;
    tag = p.p_tag;
    post = p.p_post;
    level = p.p_level;
    parent = p.p_parent;
    subtree_end = p.p_subtree_end;
    attrs = p.p_attrs;
    content = p.p_content;
    chunk_owner = p.p_chunk_owner;
    chunk_text = p.p_chunk_text;
    by_tag = p.p_by_tag;
    same_tag_rank = rank_all p.p_tags ~tag:p.p_tag ~parent:p.p_parent ~content:p.p_content;
  }

let count_chunks tree =
  let rec go acc = function
    | Xml.Text _ -> acc + 1
    | Xml.Element (_, _, kids) -> List.fold_left go acc kids
  in
  go 0 tree

let of_tree tree =
  (match tree with
  | Xml.Text _ -> invalid_arg "Doc.of_tree: root must be an element"
  | Xml.Element _ -> ());
  let n = Xml.count_elements tree in
  let n_chunks = count_chunks tree in
  let tags = Tag.create () in
  let tag = Array.make n 0 in
  let post = Array.make n 0 in
  let level = Array.make n 0 in
  let parent = Array.make n (-1) in
  let subtree_end = Array.make n 0 in
  let attrs = Array.make n [] in
  let content = Array.make n [||] in
  let chunk_owner = Array.make (max 1 n_chunks) 0 in
  let chunk_text = Array.make (max 1 n_chunks) "" in
  let next_pre = ref 0 in
  let next_post = ref 0 in
  let next_chunk = ref 0 in
  let rec build node par lvl =
    match node with
    | Xml.Text _ -> assert false
    | Xml.Element (name, ats, kids) ->
      let id = !next_pre in
      incr next_pre;
      tag.(id) <- Tag.intern tags name;
      level.(id) <- lvl;
      parent.(id) <- par;
      attrs.(id) <- ats;
      let items =
        List.map
          (fun kid ->
            match kid with
            | Xml.Text s ->
              let c = !next_chunk in
              incr next_chunk;
              chunk_owner.(c) <- id;
              chunk_text.(c) <- s;
              -c - 1
            | Xml.Element _ -> build kid id (lvl + 1))
          kids
      in
      content.(id) <- Array.of_list items;
      post.(id) <- !next_post;
      incr next_post;
      subtree_end.(id) <- !next_pre;
      id
  in
  let root = build tree (-1) 0 in
  assert (root = 0);
  let counts = Array.make (Tag.count tags) 0 in
  Array.iter (fun t -> counts.(t) <- counts.(t) + 1) tag;
  let by_tag = Array.map (fun c -> Array.make c 0) counts in
  let fill = Array.make (Tag.count tags) 0 in
  for e = 0 to n - 1 do
    let t = tag.(e) in
    by_tag.(t).(fill.(t)) <- e;
    fill.(t) <- fill.(t) + 1
  done;
  {
    tags;
    n;
    tag;
    post;
    level;
    parent;
    subtree_end;
    attrs;
    content;
    chunk_owner = (if n_chunks = 0 then [||] else chunk_owner);
    chunk_text = (if n_chunks = 0 then [||] else chunk_text);
    by_tag;
    same_tag_rank = rank_all tags ~tag ~parent ~content;
  }

(* Append [new_kids] as the last children of the root, producing the
   arena [of_tree] would build for the widened tree.  Everything about
   the old elements survives verbatim — ids, posts, levels, contents,
   chunk numbers — except the root, which still closes last (post and
   subtree_end move to the new end) and gains the new child ids at the
   end of its content.  New elements take pre-order ids from [n], posts
   from [n - 1] (the slot the root vacates), chunks from the old chunk
   count; per-tag posting arrays stay sorted because every new id is
   larger than every old one.  Same-tag ranks carry over; the root's
   children are ranked again, old ones first, so the new ones continue
   the old per-tag counts, and the new subtrees are ranked afresh.  The
   input document is not mutated: the intern table is copied before
   the new trees introduce tags. *)
let append_trees d new_kids =
  List.iter
    (fun t ->
      match t with
      | Xml.Text _ -> invalid_arg "Doc.append_trees: appended trees must be elements"
      | Xml.Element _ -> ())
    new_kids;
  if new_kids = [] then d
  else begin
    let m = List.fold_left (fun acc t -> acc + Xml.count_elements t) 0 new_kids in
    let m_chunks = List.fold_left (fun acc t -> acc + count_chunks t) 0 new_kids in
    let n = d.n in
    let n' = n + m in
    let old_chunks = Array.length d.chunk_text in
    let chunks' = old_chunks + m_chunks in
    let tags = Tag.copy d.tags in
    let extend src len init =
      let g = Array.make len init in
      Array.blit src 0 g 0 (Array.length src);
      g
    in
    let tag = extend d.tag n' 0 in
    let post = extend d.post n' 0 in
    let level = extend d.level n' 0 in
    let parent = extend d.parent n' (-1) in
    let subtree_end = extend d.subtree_end n' 0 in
    let attrs = extend d.attrs n' [] in
    let content = extend d.content n' [||] in
    let chunk_owner = extend d.chunk_owner chunks' 0 in
    let chunk_text = extend d.chunk_text chunks' "" in
    let next_pre = ref n in
    let next_post = ref (n - 1) in
    let next_chunk = ref old_chunks in
    let rec build node par lvl =
      match node with
      | Xml.Text _ -> assert false
      | Xml.Element (name, ats, kids) ->
        let id = !next_pre in
        incr next_pre;
        tag.(id) <- Tag.intern tags name;
        level.(id) <- lvl;
        parent.(id) <- par;
        attrs.(id) <- ats;
        let items =
          List.map
            (fun kid ->
              match kid with
              | Xml.Text s ->
                let c = !next_chunk in
                incr next_chunk;
                chunk_owner.(c) <- id;
                chunk_text.(c) <- s;
                -c - 1
              | Xml.Element _ -> build kid id (lvl + 1))
            kids
        in
        content.(id) <- Array.of_list items;
        post.(id) <- !next_post;
        incr next_post;
        subtree_end.(id) <- !next_pre;
        id
    in
    let new_ids = List.map (fun t -> build t 0 1) new_kids in
    post.(0) <- n' - 1;
    subtree_end.(0) <- n';
    content.(0) <- Array.append d.content.(0) (Array.of_list new_ids);
    let nt = Tag.count tags in
    let old_arr t = if t < Array.length d.by_tag then d.by_tag.(t) else [||] in
    let counts = Array.make nt 0 in
    for e = n to n' - 1 do
      counts.(tag.(e)) <- counts.(tag.(e)) + 1
    done;
    let by_tag =
      Array.init nt (fun t ->
          if counts.(t) = 0 then old_arr t
          else extend (old_arr t) (Array.length (old_arr t) + counts.(t)) 0)
    in
    let fill = Array.init nt (fun t -> Array.length (old_arr t)) in
    for e = n to n' - 1 do
      let t = tag.(e) in
      by_tag.(t).(fill.(t)) <- e;
      fill.(t) <- fill.(t) + 1
    done;
    let same_tag_rank = extend d.same_tag_rank n' 1 in
    let last = Array.make nt 0 in
    rank_children ~tag ~parent ~content ~last same_tag_rank 0;
    for p = n to n' - 1 do
      rank_children ~tag ~parent ~content ~last same_tag_rank p
    done;
    {
      tags;
      n = n';
      tag;
      post;
      level;
      parent;
      subtree_end;
      attrs;
      content;
      chunk_owner;
      chunk_text;
      by_tag;
      same_tag_rank;
    }
  end

(* [src] without its slots [lo .. lo + len - 1]. *)
let drop src lo len =
  let n = Array.length src - len in
  if n = 0 then [||]
  else begin
    let g = Array.make n src.(0) in
    Array.blit src 0 g 0 lo;
    Array.blit src (lo + len) g lo (n - lo);
    g
  end

(* [drop] on an int column, moving every kept value >= [above] down by
   [by]. *)
let drop_shift src lo len ~above ~by =
  let g = drop src lo len in
  for i = 0 to Array.length g - 1 do
    if g.(i) >= above then g.(i) <- g.(i) - by
  done;
  g

(* First index of the sorted [a] holding an element >= x. *)
let lower_bound a x =
  let lo = ref 0 and hi = ref (Array.length a) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if a.(mid) < x then lo := mid + 1 else hi := mid
  done;
  !lo

(* Remove the root child [c] and its subtree, producing the arena
   [of_tree] would build for the narrowed tree: the mirror of
   [append_trees].  The subtree is the pre-order range [c, b) and, as
   [of_tree] and [append_trees] number a root child's text chunks in
   one run, the chunk range [ca, ca + mc).  Every id, post number,
   parent, subtree end, content reference and chunk number above its
   range moves down by the range's length; the per-tag arrays drop the
   range; ranks inside the surviving subtrees carry over and the
   root's children are ranked again.  Content arrays that reference
   nothing above the range are shared.  The intern table is shared
   too: nothing interns into a published document's table
   ([append_trees] copies it first), so it may keep a tag whose last
   element was removed. *)
let remove_tree d c =
  if c <= 0 || c >= d.n || d.parent.(c) <> 0 then
    invalid_arg (Printf.sprintf "Doc.remove_tree: %d is not a child of the root" c);
  let b = d.subtree_end.(c) in
  let m = b - c in
  let ca = ref max_int and cb = ref 0 and n_chunks = ref 0 in
  for e = c to b - 1 do
    Array.iter
      (fun item ->
        if item < 0 then begin
          let k = -item - 1 in
          incr n_chunks;
          if k < !ca then ca := k;
          if k >= !cb then cb := k + 1
        end)
      d.content.(e)
  done;
  let ca, mc = if !n_chunks = 0 then (0, 0) else (!ca, !cb - !ca) in
  if mc <> !n_chunks then
    invalid_arg "Doc.remove_tree: the subtree's text chunks are not one run";
  let fix item =
    if item >= b then item - m else if item < 0 && -item - 1 >= ca + mc then item + mc else item
  in
  let root_items = d.content.(0) in
  let at = ref 0 in
  while root_items.(!at) <> c do
    incr at
  done;
  let content =
    Array.init (d.n - m) (fun e ->
        if e = 0 then Array.map fix (drop root_items !at 1)
        else if e < c then d.content.(e)
        else Array.map fix d.content.(e + m))
  in
  let tag = drop d.tag c m in
  let parent = drop_shift d.parent c m ~above:b ~by:m in
  let by_tag =
    Array.map
      (fun arr ->
        let lo = lower_bound arr c in
        if lo = Array.length arr then arr
        else drop_shift arr lo (lower_bound arr b - lo) ~above:b ~by:m)
      d.by_tag
  in
  let same_tag_rank = drop d.same_tag_rank c m in
  let last = Array.make (Tag.count d.tags) 0 in
  rank_children ~tag ~parent ~content ~last same_tag_rank 0;
  {
    tags = d.tags;
    n = d.n - m;
    tag;
    post = drop_shift d.post c m ~above:(d.post.(c) + 1) ~by:m;
    level = drop d.level c m;
    parent;
    subtree_end = drop_shift d.subtree_end c m ~above:b ~by:m;
    attrs = drop d.attrs c m;
    content;
    chunk_owner = drop_shift d.chunk_owner ca mc ~above:b ~by:m;
    chunk_text = drop d.chunk_text ca mc;
    by_tag;
    same_tag_rank;
  }

let of_string s = Result.map of_tree (Xml_parser.parse s)
let of_file path = Result.map of_tree (Xml_parser.parse_file path)

let size d = d.n
let root _ = 0
let tags d = d.tags
let tag d e = d.tag.(e)
let tag_name d e = Tag.name d.tags d.tag.(e)
let post d e = d.post.(e)
let level d e = d.level.(e)
let parent d e = if d.parent.(e) < 0 then None else Some d.parent.(e)

let first_child d e =
  let items = d.content.(e) in
  let rec go i =
    if i >= Array.length items then None
    else if items.(i) >= 0 then Some items.(i)
    else go (i + 1)
  in
  go 0

let children d e =
  Array.fold_right (fun item acc -> if item >= 0 then item :: acc else acc) d.content.(e) []

let next_sibling d e =
  match parent d e with
  | None -> None
  | Some p ->
    let items = d.content.(p) in
    let rec go i seen =
      if i >= Array.length items then None
      else if items.(i) = e then go (i + 1) true
      else if seen && items.(i) >= 0 then Some items.(i)
      else go (i + 1) seen
    in
    go 0 false

let attributes d e = d.attrs.(e)
let attribute d e name = List.assoc_opt name d.attrs.(e)
let subtree_end d e = d.subtree_end.(e)
let is_ancestor d a b = a < b && b < d.subtree_end.(a)
let is_parent d a b = b >= 0 && d.parent.(b) = a

let ancestors d e =
  let rec go acc e =
    match parent d e with
    | None -> List.rev acc
    | Some p -> go (p :: acc) p
  in
  go [] e

let by_tag d t = if t < 0 || t >= Array.length d.by_tag then [||] else d.by_tag.(t)

let by_tag_name d name =
  match Tag.find d.tags name with
  | None -> [||]
  | Some t -> by_tag d t

let levels d = d.level
let parents d = d.parent
let subtree_ends d = d.subtree_end

module Postings = struct
  type cursor = { arr : elem array; mutable pos : int }

  let of_array arr = { arr; pos = 0 }
  let length c = Array.length c.arr
  let at_end c = c.pos >= Array.length c.arr
  let peek c = c.arr.(c.pos)
  let advance c = c.pos <- c.pos + 1

  (* Gallop forward to the first element >= x: exponential probe from
     the current position, then binary search inside the bracketed run.
     O(log gap), so a full sweep of monotone seeks stays linear in the
     posting array even when individual seeks jump far ahead. *)
  let seek_geq c x =
    let a = c.arr in
    let n = Array.length a in
    if c.pos < n && a.(c.pos) < x then begin
      let step = ref 1 in
      let base = c.pos in
      while base + !step < n && a.(base + !step) < x do
        step := !step * 2
      done;
      let lo = ref (base + (!step / 2) + 1) and hi = ref (min n (base + !step + 1)) in
      while !lo < !hi do
        let mid = (!lo + !hi) / 2 in
        if a.(mid) < x then lo := mid + 1 else hi := mid
      done;
      c.pos <- !lo
    end
end

let chunk_count d = Array.length d.chunk_text
let chunk_owner d c = d.chunk_owner.(c)
let chunk_text d c = d.chunk_text.(c)

let direct_text d e =
  let b = Buffer.create 16 in
  Array.iter (fun item -> if item < 0 then Buffer.add_string b d.chunk_text.(-item - 1)) d.content.(e);
  Buffer.contents b

let deep_text d e =
  let b = Buffer.create 64 in
  let rec go e =
    Array.iter
      (fun item -> if item < 0 then Buffer.add_string b d.chunk_text.(-item - 1) else go item)
      d.content.(e)
  in
  go e;
  Buffer.contents b

let iter_elements d f =
  for e = 0 to d.n - 1 do
    f e
  done

let tree_of d start =
  let rec rebuild e =
    let kids =
      Array.to_list d.content.(e)
      |> List.map (fun item ->
             if item < 0 then Xml.Text d.chunk_text.(-item - 1) else rebuild item)
    in
    Xml.Element (tag_name d e, d.attrs.(e), kids)
  in
  rebuild start

let to_tree d = tree_of d 0

let serialized_size d = String.length (Xml.to_string (to_tree d))

let path_to_root d e =
  let b = Buffer.create 64 in
  let rec go e =
    let p = d.parent.(e) in
    if p >= 0 then begin
      go p;
      Buffer.add_char b '/'
    end;
    Buffer.add_string b (tag_name d e);
    Buffer.add_char b '[';
    Buffer.add_string b (string_of_int d.same_tag_rank.(e));
    Buffer.add_char b ']'
  in
  go e;
  Buffer.contents b
