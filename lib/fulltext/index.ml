module Doc = Xmldom.Doc
module Tag = Xmldom.Tag

(* Corpus-global scoring statistics substituted into a shard-local
   index: term evidence normally uses this index's own df / token count
   / average scope length and normalizes by this document's root score,
   but a sharded corpus needs every shard to score against the counts
   of the WHOLE corpus or per-shard answers diverge from a single
   combined index.  The overlay carries exactly the global inputs
   scoring consumes; everything element-local (occurrences, ranges,
   satisfaction) stays with the shard.  Immutable once built. *)
type overlay = {
  ov_n_tokens : int;
  ov_avg_scope_len : float;
  ov_gdf : (string, int) Hashtbl.t; (* stemmed term -> corpus-wide occurrence count *)
  ov_shards : t list; (* for the virtual corpus root's phrase and window checks *)
}

and t = {
  doc : Doc.t;
  term_ids : (string, int) Hashtbl.t; (* stemmed term -> tid *)
  postings : int array array; (* tid -> sorted token positions *)
  tok_term : int array; (* token position -> tid *)
  tok_owner : int array; (* token position -> innermost element *)
  tok_start : int array; (* element -> first subtree token *)
  tok_end : int array; (* element -> one past last subtree token *)
  n_tokens : int;
  scorer : Scorer.t;
  avg_scope_len : float; (* mean token-range length of text-bearing elements *)
  overlay : overlay option; (* global scoring stats; [None] = self-contained *)
}

let failpoint : (string -> unit) ref = ref (fun _ -> ())

let build ?(scorer = Scorer.default) doc =
  !failpoint "index.build";
  let term_ids = Hashtbl.create 1024 in
  let next_tid = ref 0 in
  let tid_of term =
    match Hashtbl.find_opt term_ids term with
    | Some tid -> tid
    | None ->
      let tid = !next_tid in
      incr next_tid;
      Hashtbl.add term_ids term tid;
      tid
  in
  (* First pass over chunks: assign positions, record term and owner. *)
  let terms_rev = ref [] in
  let owners_rev = ref [] in
  let n_tokens = ref 0 in
  let n = Doc.size doc in
  let own_start = Array.make n max_int in
  let own_end = Array.make n min_int in
  for c = 0 to Doc.chunk_count doc - 1 do
    let owner = Doc.chunk_owner doc c in
    Tokenizer.iter (Doc.chunk_text doc c) (fun w ->
        if not (Stopwords.is_stopword w) then begin
          let tid = tid_of (Stemmer.stem w) in
          let pos = !n_tokens in
          incr n_tokens;
          terms_rev := tid :: !terms_rev;
          owners_rev := owner :: !owners_rev;
          if pos < own_start.(owner) then own_start.(owner) <- pos;
          if pos + 1 > own_end.(owner) then own_end.(owner) <- pos + 1
        end)
  done;
  let n_tok = !n_tokens in
  let tok_term = Array.make (max 1 n_tok) 0 in
  let tok_owner = Array.make (max 1 n_tok) 0 in
  List.iteri (fun i tid -> tok_term.(n_tok - 1 - i) <- tid) !terms_rev;
  List.iteri (fun i owner -> tok_owner.(n_tok - 1 - i) <- owner) !owners_rev;
  terms_rev := [];
  owners_rev := [];
  (* Subtree token ranges: chunks were visited in document order, so each
     subtree covers a contiguous position range.  Merge child ranges into
     parents in reverse pre-order. *)
  let tok_start = own_start and tok_end = own_end in
  for e = n - 1 downto 1 do
    match Doc.parent doc e with
    | None -> ()
    | Some p ->
      if tok_start.(e) < tok_start.(p) then tok_start.(p) <- tok_start.(e);
      if tok_end.(e) > tok_end.(p) then tok_end.(p) <- tok_end.(e)
  done;
  for e = 0 to n - 1 do
    if tok_start.(e) = max_int then begin
      tok_start.(e) <- 0;
      tok_end.(e) <- 0
    end
  done;
  (* Postings: counting sort by term id, positions stay ascending. *)
  let n_terms = !next_tid in
  let counts = Array.make (max 1 n_terms) 0 in
  Array.iter (fun tid -> counts.(tid) <- counts.(tid) + 1) (Array.sub tok_term 0 n_tok);
  let postings = Array.init n_terms (fun tid -> Array.make counts.(tid) 0) in
  let fill = Array.make (max 1 n_terms) 0 in
  for pos = 0 to n_tok - 1 do
    let tid = tok_term.(pos) in
    postings.(tid).(fill.(tid)) <- pos;
    fill.(tid) <- fill.(tid) + 1
  done;
  let text_bearing = ref 0 in
  let total_len = ref 0 in
  for e = 0 to n - 1 do
    let len = tok_end.(e) - tok_start.(e) in
    if len > 0 then begin
      incr text_bearing;
      total_len := !total_len + len
    end
  done;
  let avg_scope_len =
    if !text_bearing = 0 then 0.0 else float_of_int !total_len /. float_of_int !text_bearing
  in
  {
    doc;
    term_ids;
    postings;
    tok_term;
    tok_owner;
    tok_start;
    tok_end;
    n_tokens = n_tok;
    scorer;
    avg_scope_len;
    overlay = None;
  }

(* Extend an index over a document that grew by [Doc.append_trees]: the
   elements of [doc] below [first_new] — and every chunk the old index
   already tokenized — are exactly those of [idx]'s document, so only
   the new chunks are tokenized, with positions continuing from
   [idx.n_tokens].  Every derived structure is value-identical to
   [build doc]: term ids are dense in first-occurrence order (old terms
   keep theirs, new terms appear for the first time in the new text in
   the same order a fresh pass would meet them); posting lists for
   untouched terms are shared with the old index; subtree ranges of old
   non-root elements are unchanged because new tokens live entirely in
   the appended subtrees. *)
let extend idx doc ~first_new =
  let n = Doc.size doc in
  if first_new <> Doc.size idx.doc then
    invalid_arg
      (Printf.sprintf "Index.extend: index covers %d elements, extension starts at %d"
         (Doc.size idx.doc) first_new);
  if n = first_new then { idx with doc; overlay = None }
  else begin
    let term_ids = Hashtbl.copy idx.term_ids in
    let next_tid = ref (Array.length idx.postings) in
    let tid_of term =
      match Hashtbl.find_opt term_ids term with
      | Some tid -> tid
      | None ->
        let tid = !next_tid in
        incr next_tid;
        Hashtbl.add term_ids term tid;
        tid
    in
    let terms_rev = ref [] in
    let owners_rev = ref [] in
    let n_tokens = ref idx.n_tokens in
    let tok_start = Array.make n max_int in
    let tok_end = Array.make n min_int in
    Array.blit idx.tok_start 0 tok_start 0 first_new;
    Array.blit idx.tok_end 0 tok_end 0 first_new;
    for c = Doc.chunk_count idx.doc to Doc.chunk_count doc - 1 do
      let owner = Doc.chunk_owner doc c in
      Tokenizer.iter (Doc.chunk_text doc c) (fun w ->
          if not (Stopwords.is_stopword w) then begin
            let tid = tid_of (Stemmer.stem w) in
            let pos = !n_tokens in
            incr n_tokens;
            terms_rev := tid :: !terms_rev;
            owners_rev := owner :: !owners_rev;
            if pos < tok_start.(owner) then tok_start.(owner) <- pos;
            if pos + 1 > tok_end.(owner) then tok_end.(owner) <- pos + 1
          end)
    done;
    let n_tok = !n_tokens in
    let tok_term = Array.make (max 1 n_tok) 0 in
    let tok_owner = Array.make (max 1 n_tok) 0 in
    Array.blit idx.tok_term 0 tok_term 0 idx.n_tokens;
    Array.blit idx.tok_owner 0 tok_owner 0 idx.n_tokens;
    List.iteri (fun i tid -> tok_term.(n_tok - 1 - i) <- tid) !terms_rev;
    List.iteri (fun i owner -> tok_owner.(n_tok - 1 - i) <- owner) !owners_rev;
    terms_rev := [];
    owners_rev := [];
    (* New subtrees hang directly under the root, so upward merging stays
       within [first_new ..]; the root is then pinned to the full token
       span, as a fresh build would leave it. *)
    for e = n - 1 downto first_new do
      match Doc.parent doc e with
      | None -> ()
      | Some p ->
        if p >= first_new then begin
          if tok_start.(e) < tok_start.(p) then tok_start.(p) <- tok_start.(e);
          if tok_end.(e) > tok_end.(p) then tok_end.(p) <- tok_end.(e)
        end
    done;
    for e = first_new to n - 1 do
      if tok_start.(e) = max_int then begin
        tok_start.(e) <- 0;
        tok_end.(e) <- 0
      end
    done;
    if n_tok > 0 then begin
      tok_start.(0) <- 0;
      tok_end.(0) <- n_tok
    end;
    let n_terms = !next_tid in
    let counts = Array.make (max 1 n_terms) 0 in
    for pos = idx.n_tokens to n_tok - 1 do
      counts.(tok_term.(pos)) <- counts.(tok_term.(pos)) + 1
    done;
    let postings =
      Array.init n_terms (fun tid ->
          let old = if tid < Array.length idx.postings then idx.postings.(tid) else [||] in
          if counts.(tid) = 0 then old
          else begin
            let a = Array.make (Array.length old + counts.(tid)) 0 in
            Array.blit old 0 a 0 (Array.length old);
            a
          end)
    in
    let fill =
      Array.init (max 1 n_terms) (fun tid ->
          if tid < Array.length idx.postings then Array.length idx.postings.(tid) else 0)
    in
    for pos = idx.n_tokens to n_tok - 1 do
      let tid = tok_term.(pos) in
      postings.(tid).(fill.(tid)) <- pos;
      fill.(tid) <- fill.(tid) + 1
    done;
    let text_bearing = ref 0 in
    let total_len = ref 0 in
    for e = 0 to n - 1 do
      let len = tok_end.(e) - tok_start.(e) in
      if len > 0 then begin
        incr text_bearing;
        total_len := !total_len + len
      end
    done;
    let avg_scope_len =
      if !text_bearing = 0 then 0.0 else float_of_int !total_len /. float_of_int !text_bearing
    in
    {
      doc;
      term_ids;
      postings;
      tok_term;
      tok_owner;
      tok_start;
      tok_end;
      n_tokens = n_tok;
      scorer = idx.scorer;
      avg_scope_len;
      overlay = None;
    }
  end

(* Re-cover an index after [Doc.remove_tree] took the root child
   [first] (its subtree is [first .. stop - 1]) out of [idx]'s document:
   the mirror of [extend].  The subtree's tokens are the range
   [tok_start first, tok_end first); dropping it and moving every later
   position and owner down leaves the token stream a fresh pass over
   [doc] would produce, so nothing is tokenized.  Term ids are then
   renumbered densely in first-occurrence order over that stream, which
   drops the words only the removed subtree held; postings come from
   [build]'s counting sort.  An element's token range either lies
   wholly before or wholly after the removed range, or (the root)
   covers it, so one shift rule fixes every range. *)
let remove idx doc ~first ~stop =
  let m = stop - first in
  if Doc.size doc <> Doc.size idx.doc - m then
    invalid_arg
      (Printf.sprintf "Index.remove: index covers %d elements, %d minus %d remain" (Doc.size doc)
         (Doc.size idx.doc) m);
  let ts = idx.tok_start.(first) and te = idx.tok_end.(first) in
  let k = te - ts in
  let n_tok = idx.n_tokens - k in
  let remap = Array.make (Array.length idx.postings) (-1) in
  let next_tid = ref 0 in
  let tok_term = Array.make (max 1 n_tok) 0 in
  let tok_owner = Array.make (max 1 n_tok) 0 in
  for pos = 0 to n_tok - 1 do
    let src = if pos < ts then pos else pos + k in
    let old = idx.tok_term.(src) in
    if remap.(old) < 0 then begin
      remap.(old) <- !next_tid;
      incr next_tid
    end;
    tok_term.(pos) <- remap.(old);
    let o = idx.tok_owner.(src) in
    tok_owner.(pos) <- (if o >= stop then o - m else o)
  done;
  let n_terms = !next_tid in
  (* Insert in id order, as [build] meets the words. *)
  let by_tid = Array.make n_terms "" in
  Hashtbl.iter
    (fun term old -> if remap.(old) >= 0 then by_tid.(remap.(old)) <- term)
    idx.term_ids;
  let term_ids = Hashtbl.create 1024 in
  Array.iteri (fun tid term -> Hashtbl.add term_ids term tid) by_tid;
  let counts = Array.make (max 1 n_terms) 0 in
  for pos = 0 to n_tok - 1 do
    counts.(tok_term.(pos)) <- counts.(tok_term.(pos)) + 1
  done;
  let postings = Array.init n_terms (fun tid -> Array.make counts.(tid) 0) in
  let fill = Array.make (max 1 n_terms) 0 in
  for pos = 0 to n_tok - 1 do
    let tid = tok_term.(pos) in
    postings.(tid).(fill.(tid)) <- pos;
    fill.(tid) <- fill.(tid) + 1
  done;
  let range src =
    let g = Array.make (Doc.size doc) 0 in
    Array.blit src 0 g 0 first;
    Array.blit src stop g first (Doc.size doc - first);
    for e = 0 to Doc.size doc - 1 do
      if g.(e) >= te then g.(e) <- g.(e) - k
    done;
    g
  in
  let tok_start = range idx.tok_start and tok_end = range idx.tok_end in
  let text_bearing = ref 0 in
  let total_len = ref 0 in
  for e = 0 to Doc.size doc - 1 do
    let len = tok_end.(e) - tok_start.(e) in
    if len > 0 then begin
      incr text_bearing;
      total_len := !total_len + len
    end
  done;
  let avg_scope_len =
    if !text_bearing = 0 then 0.0 else float_of_int !total_len /. float_of_int !text_bearing
  in
  {
    doc;
    term_ids;
    postings;
    tok_term;
    tok_owner;
    tok_start;
    tok_end;
    n_tokens = n_tok;
    scorer = idx.scorer;
    avg_scope_len;
    overlay = None;
  }

(* The index minus its document: what snapshot storage persists.  The
   document is stored once in its own snapshot section; [of_portable]
   re-attaches it.  No field is a closure, so the whole record is
   Marshal-safe. *)
type portable = {
  p_term_ids : (string, int) Hashtbl.t;
  p_postings : int array array;
  p_tok_term : int array;
  p_tok_owner : int array;
  p_tok_start : int array;
  p_tok_end : int array;
  p_n_tokens : int;
  p_scorer : Scorer.t;
  p_avg_scope_len : float;
}

let to_portable idx =
  {
    p_term_ids = idx.term_ids;
    p_postings = idx.postings;
    p_tok_term = idx.tok_term;
    p_tok_owner = idx.tok_owner;
    p_tok_start = idx.tok_start;
    p_tok_end = idx.tok_end;
    p_n_tokens = idx.n_tokens;
    p_scorer = idx.scorer;
    p_avg_scope_len = idx.avg_scope_len;
  }

let of_portable doc p =
  if Array.length p.p_tok_start <> Doc.size doc then
    invalid_arg
      (Printf.sprintf "Index.of_portable: index covers %d elements, document has %d"
         (Array.length p.p_tok_start) (Doc.size doc));
  {
    doc;
    term_ids = p.p_term_ids;
    postings = p.p_postings;
    tok_term = p.p_tok_term;
    tok_owner = p.p_tok_owner;
    tok_start = p.p_tok_start;
    tok_end = p.p_tok_end;
    n_tokens = p.p_n_tokens;
    scorer = p.p_scorer;
    avg_scope_len = p.p_avg_scope_len;
    overlay = None;
  }

let doc idx = idx.doc
let scorer idx = idx.scorer
let n_tokens idx = idx.n_tokens
let distinct_terms idx = Array.length idx.postings

let tid_of_stem idx stem = Option.value ~default:(-1) (Hashtbl.find_opt idx.term_ids stem)
let postings_of idx tid = if tid < 0 then [||] else idx.postings.(tid)
let term_positions idx w = postings_of idx (tid_of_stem idx (Stemmer.stem w))
let tok_range idx e = (idx.tok_start.(e), idx.tok_end.(e))

(* Index of the first element of [a] that is >= x, in [0 .. length a]. *)
let lower_bound a x =
  let lo = ref 0 and hi = ref (Array.length a) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if a.(mid) < x then lo := mid + 1 else hi := mid
  done;
  !lo

let count_in_range a lo hi = if hi <= lo then 0 else lower_bound a hi - lower_bound a lo

let occurs_in_range a lo hi =
  let i = lower_bound a lo in
  i < Array.length a && a.(i) < hi

(* [tids] occur consecutively somewhere in [lo, hi); [first] is the
   posting list of [tids.(0)], or [||] when some word is not indexed. *)
let phrase_in_range idx tids first lo hi =
  let k = Array.length tids in
  let rec try_pos i =
    i < Array.length first
    &&
    let p = first.(i) in
    p + k <= hi
    &&
    let rec all j = j = k || (idx.tok_term.(p + j) = tids.(j) && all (j + 1)) in
    all 1 || try_pos (i + 1)
  in
  try_pos (lower_bound first lo)

(* Every list has a position in [lo, hi), all within a span of [width]
   tokens: advance the pointer of the smallest position until the span
   fits or some list runs out of the range. *)
let window_in_range width lists lo hi =
  let k = Array.length lists in
  let ptr = Array.map (fun a -> lower_bound a lo) lists in
  let rec go () =
    let in_range = ref true in
    for i = 0 to k - 1 do
      if not (ptr.(i) < Array.length lists.(i) && lists.(i).(ptr.(i)) < hi) then in_range := false
    done;
    !in_range
    &&
    let min_i = ref 0 and min_p = ref max_int and max_p = ref min_int in
    for i = 0 to k - 1 do
      let p = lists.(i).(ptr.(i)) in
      if p < !min_p then begin
        min_p := p;
        min_i := i
      end;
      if p > !max_p then max_p := p
    done;
    !max_p - !min_p < width
    ||
    begin
      ptr.(!min_i) <- ptr.(!min_i) + 1;
      go ()
    end
  in
  go ()

(* ------------------------------------------------------------------ *)
(* Compiled expressions.

   [compile] analyses an expression once against one scoring view:
   stopwords are dropped, keywords stemmed and resolved to posting
   lists, each term's scoring df taken (from the overlay when there is
   one) and turned into a {!Scorer.term_weight}, and the normalization
   denominator — the raw score at the (virtual) root — computed.  What
   remains per element is range arithmetic on posting lists.  Every
   float is produced by the same operations, in the same order, as the
   per-call formulas it replaces, so scores keep their bits. *)

type node =
  | Never (* a stopword, or a phrase or window of stopwords only *)
  | Term of { post : int array; df : int; weight : Scorer.term_weight }
  | Phrase of {
      tids : int array;
      first : int array; (* postings of tids.(0); [||] when a word is not indexed *)
      weights : Scorer.term_weight array;
      at_root : bool;
    }
  | Window of {
      width : int;
      lists : int array array;
      weights : Scorer.term_weight array;
      at_root : bool;
    }
  | And of node * node
  | Or of node * node
  | Not of node

type compiled = {
  idx : t;
  node : node;
  positive : bool; (* no [Not]: satisfaction is closed under ancestors *)
  occurrences : int array list; (* postings that anchor every match of a positive expression *)
  denom : float;
}

let rec holds_in idx node lo hi =
  match node with
  | Never -> false
  | Term { post; _ } -> occurs_in_range post lo hi
  | Phrase { tids; first; _ } -> phrase_in_range idx tids first lo hi
  | Window { width; lists; _ } -> window_in_range width lists lo hi
  | And (a, b) -> holds_in idx a lo hi && holds_in idx b lo hi
  | Or (a, b) -> holds_in idx a lo hi || holds_in idx b lo hi
  | Not a -> not (holds_in idx a lo hi)

(* Evidence of the words of a satisfied phrase or window: each counts
   once, in expression order. *)
let unit_evidence weights scope_len =
  Array.fold_left (fun acc w -> acc +. Scorer.evidence w ~tf:1 ~scope_len) 0.0 weights

let rec raw_in idx node lo hi =
  match node with
  | Never -> 0.0
  | Term { post; weight; _ } ->
    let c = count_in_range post lo hi in
    if c = 0 then 0.0 else Scorer.evidence weight ~tf:c ~scope_len:(hi - lo)
  | Phrase { weights; _ } | Window { weights; _ } ->
    if holds_in idx node lo hi then unit_evidence weights (hi - lo) else 0.0
  | And (a, b) ->
    if holds_in idx a lo hi && holds_in idx b lo hi then raw_in idx a lo hi +. raw_in idx b lo hi
    else 0.0
  | Or (a, b) ->
    let sa = raw_in idx a lo hi and sb = raw_in idx b lo hi in
    if holds_in idx a lo hi || holds_in idx b lo hi then
      Float.max sa sb +. (0.25 *. Float.min sa sb)
    else 0.0
  | Not a -> if holds_in idx a lo hi then 0.0 else 1.0

(* The same recursion at the root of the scoring view — the view's
   document root, or with an overlay the virtual root over every
   shard, whose scope is all [n_tokens] tokens.  A term's occurrences
   there are its df; a phrase or window holds there when it holds at
   some shard root ([at_root], resolved by [compile]). *)
let rec holds_at_root = function
  | Never -> false
  | Term { df; _ } -> df > 0
  | Phrase { at_root; _ } | Window { at_root; _ } -> at_root
  | And (a, b) -> holds_at_root a && holds_at_root b
  | Or (a, b) -> holds_at_root a || holds_at_root b
  | Not a -> not (holds_at_root a)

let rec raw_at_root n_tokens node =
  match node with
  | Never -> 0.0
  | Term { df; weight; _ } ->
    if df = 0 then 0.0 else Scorer.evidence weight ~tf:df ~scope_len:n_tokens
  | Phrase { weights; _ } | Window { weights; _ } ->
    if holds_at_root node then unit_evidence weights n_tokens else 0.0
  | And (a, b) ->
    if holds_at_root a && holds_at_root b then raw_at_root n_tokens a +. raw_at_root n_tokens b
    else 0.0
  | Or (a, b) ->
    let sa = raw_at_root n_tokens a and sb = raw_at_root n_tokens b in
    if holds_at_root a || holds_at_root b then Float.max sa sb +. (0.25 *. Float.min sa sb)
    else 0.0
  | Not a -> if holds_at_root a then 0.0 else 1.0

let gdf ov stem = Option.value ~default:0 (Hashtbl.find_opt ov.ov_gdf stem)

let compile idx f =
  let n_tokens, avg_scope_len, roots =
    match idx.overlay with
    | None -> (idx.n_tokens, idx.avg_scope_len, [ idx ])
    | Some ov -> (ov.ov_n_tokens, ov.ov_avg_scope_len, ov.ov_shards)
  in
  (* A keyword's scoring df: its local count, or the corpus-wide one. *)
  let scoring_df stem post =
    match idx.overlay with None -> Array.length post | Some ov -> gdf ov stem
  in
  let weight stem =
    let df = scoring_df stem (postings_of idx (tid_of_stem idx stem)) in
    Scorer.term_weight idx.scorer ~df ~n_tokens ~avg_scope_len
  in
  let phrase_of s stems =
    let tids = Array.map (tid_of_stem s) stems in
    (tids, if Array.exists (fun tid -> tid < 0) tids then [||] else s.postings.(tids.(0)))
  in
  let lists_of s stems = Array.map (fun stem -> postings_of s (tid_of_stem s stem)) stems in
  let holds_at_some_root check =
    List.exists (fun s -> check s (tok_range s (Doc.root s.doc))) roots
  in
  let occurrences = ref [] in
  let anchor post = occurrences := post :: !occurrences in
  let kept ws = List.filter (fun w -> not (Stopwords.is_stopword w)) ws in
  let stems ws = Array.of_list (List.map Stemmer.stem (kept ws)) in
  let rec go = function
    | Ftexp.Term w when Stopwords.is_stopword w -> Never
    | Ftexp.Term w ->
      let stem = Stemmer.stem w in
      let post = postings_of idx (tid_of_stem idx stem) in
      anchor post;
      Term { post; df = scoring_df stem post; weight = weight stem }
    | Ftexp.Phrase ws -> (
      match stems ws with
      | [||] -> Never
      | stems ->
        let tids, first = phrase_of idx stems in
        anchor first;
        let at_root =
          holds_at_some_root (fun s (lo, hi) ->
              let tids, first = phrase_of s stems in
              phrase_in_range s tids first lo hi)
        in
        Phrase { tids; first; weights = Array.map weight stems; at_root })
    | Ftexp.Window (width, ws) -> (
      match stems ws with
      | [||] -> Never
      | stems ->
        let lists = lists_of idx stems in
        Array.iter anchor lists;
        let at_root =
          holds_at_some_root (fun s (lo, hi) -> window_in_range width (lists_of s stems) lo hi)
        in
        Window { width; lists; weights = Array.map weight stems; at_root })
    | Ftexp.And (a, b) ->
      let a = go a in
      And (a, go b)
    | Ftexp.Or (a, b) ->
      let a = go a in
      Or (a, go b)
    | Ftexp.Not a -> Not (go a)
  in
  let node = go f in
  let denom = if holds_at_root node then raw_at_root n_tokens node else 0.0 in
  { idx; node; positive = Ftexp.is_positive f; occurrences = !occurrences; denom }

let holds c e = holds_in c.idx c.node c.idx.tok_start.(e) c.idx.tok_end.(e)

let raw c e =
  let lo = c.idx.tok_start.(e) and hi = c.idx.tok_end.(e) in
  if holds_in c.idx c.node lo hi then raw_in c.idx c.node lo hi else 0.0

let score c e =
  if c.denom <= 0.0 then if holds c e then 1.0 else 0.0
  else Float.min 1.0 (raw c e /. c.denom)

(* Elements that may satisfy a positive expression: owners of the
   anchoring occurrences and all their ancestors.  One pass over the
   occurrences; each upward walk stops at the first element already
   marked, whose ancestors are then marked too. *)
let positive_candidates c =
  let parents = Doc.parents c.idx.doc in
  let marked = Bytes.make (Doc.size c.idx.doc) '\000' in
  List.iter
    (Array.iter (fun pos ->
         let e = ref c.idx.tok_owner.(pos) in
         while !e >= 0 && Bytes.get marked !e = '\000' do
           Bytes.set marked !e '\001';
           e := parents.(!e)
         done))
    c.occurrences;
  marked

let satisfying c =
  let candidate =
    if c.positive then
      let marked = positive_candidates c in
      fun e -> Bytes.get marked e <> '\000'
    else fun _ -> true
  in
  let out = ref [] in
  for e = Doc.size c.idx.doc - 1 downto 0 do
    if candidate e && holds c e then out := e :: !out
  done;
  !out

let minimal c =
  let sat = Array.of_list (satisfying c) in
  let n = Array.length sat in
  let keep = ref [] in
  (* sat is sorted by pre; e is minimal iff the next satisfying element
     after it does not lie in its subtree. *)
  for i = n - 1 downto 0 do
    let e = sat.(i) in
    let minimal = i + 1 >= n || sat.(i + 1) >= Doc.subtree_end c.idx.doc e in
    if minimal then keep := e :: !keep
  done;
  !keep

let count_tagged c tag =
  Array.fold_left (fun acc e -> if holds c e then acc + 1 else acc) 0 (Doc.by_tag c.idx.doc tag)

let satisfies idx f e = holds (compile idx f) e
let raw_score idx f e = raw (compile idx f) e
let normalized_score idx f e = score (compile idx f) e
let all_satisfying idx f = satisfying (compile idx f)
let most_specific idx f = minimal (compile idx f)
let count_satisfying_with_tag idx f tag = count_tagged (compile idx f) tag

let matches idx f =
  let c = compile idx f in
  let scored = List.map (fun e -> (e, raw c e)) (minimal c) in
  let max_raw = List.fold_left (fun acc (_, s) -> Float.max acc s) 0.0 scored in
  let norm = if max_raw <= 0.0 then fun s -> s else fun s -> s /. max_raw in
  List.map (fun (e, s) -> (e, norm s)) scored
  |> List.sort (fun (e1, s1) (e2, s2) ->
         match Float.compare s2 s1 with 0 -> Int.compare e1 e2 | c -> c)

(* ------------------------------------------------------------------ *)
(* Overlay construction: corpus-global scoring over shard-local indexes.

   [overlay_of idxs] mirrors what one combined index over the
   concatenation of the shards' documents would compute:

   - df per term is additive (each shard counts its own occurrences);
   - the token count is additive;
   - the average scope length is additive up to one correction: each
     shard's synthetic root is a text-bearing scope of its own, where
     the combined document has a single root covering all tokens;
   - the root raw score (the normalization denominator) is computed by
     [compile] over the virtual global root: term leaves take the
     global df, phrase and window leaves hold when they hold at some
     shard root, boolean structure is composed globally — so an [And]
     satisfied by two different shards is satisfied at the global root
     even though no single shard satisfies it, exactly as the combined
     index would see it.

   One caveat is inherent to sharding: a phrase or window whose match
   straddles two shard documents' token ranges is visible to a combined
   index (token positions are contiguous across document boundaries)
   but to no shard.  Such cross-document matches are artifacts of the
   synthetic corpus concatenation, not of any real document. *)

let scope_stats idx =
  let text_bearing = ref 0 and total_len = ref 0 in
  for e = 0 to Doc.size idx.doc - 1 do
    let len = idx.tok_end.(e) - idx.tok_start.(e) in
    if len > 0 then begin
      incr text_bearing;
      total_len := !total_len + len
    end
  done;
  (!text_bearing, !total_len)

let overlay_of idxs =
  if List.is_empty idxs then invalid_arg "Index.overlay_of: at least one index required";
  let ov_n_tokens = List.fold_left (fun acc i -> acc + i.n_tokens) 0 idxs in
  let ov_gdf : (string, int) Hashtbl.t = Hashtbl.create 4096 in
  List.iter
    (fun idx ->
      Hashtbl.iter
        (fun term tid ->
          let c = Array.length idx.postings.(tid) in
          if c > 0 then
            Hashtbl.replace ov_gdf term
              (c + Option.value ~default:0 (Hashtbl.find_opt ov_gdf term)))
        idx.term_ids)
    idxs;
  (* Each shard root is one text-bearing scope spanning that shard's
     tokens; the combined document has a single such root. *)
  let tb, tl =
    List.fold_left
      (fun (tb, tl) idx ->
        let b, l = scope_stats idx in
        ((tb + b) - (if idx.n_tokens > 0 then 1 else 0), tl + l - idx.n_tokens))
      (0, 0) idxs
  in
  let tb = tb + (if ov_n_tokens > 0 then 1 else 0) and tl = tl + ov_n_tokens in
  let ov_avg_scope_len = if tb = 0 then 0.0 else float_of_int tl /. float_of_int tb in
  { ov_n_tokens; ov_avg_scope_len; ov_gdf; ov_shards = idxs }

let with_overlay idx ov = { idx with overlay = Some ov }
