module Doc = Xmldom.Doc
module Query = Tpq.Query

(* The planner selects the holistic operator for conjunctive patterns
   only: an optional spec (encoded leaf deletion) may legitimately stay
   unbound, so "participates in a full match" is not a sound filter for
   it. *)
let applicable enc = Encoded.conjunctive enc

(* Per-domain scratch for parent stamping: a generation-stamped column
   over element ids, grown to cover the largest document seen by this
   domain and reused across filter calls — re-allocating megabytes per
   query makes every call pay major-GC marking work proportional to the
   resident heap.  It grows to at least twice its length, so a corpus
   growing by appends reallocates it O(log size) times, not on every
   write.  Bumping the generation invalidates every previous mark (from
   any earlier call, even on another document) at once, so the column
   is never cleared.  Safe per-domain: a filter run never yields, so
   two queries on one domain cannot interleave mid-call. *)
type scratch = { mutable col : int array; mutable gen : int }

let scratch_key = Domain.DLS.new_key (fun () -> { col = [||]; gen = 0 })

let keep_marked src keep kept =
  let out = Array.make kept 0 in
  let j = ref 0 in
  Array.iteri
    (fun i x ->
      if keep.(i) then begin
        out.(!j) <- x;
        incr j
      end)
    src;
  out

(* Holistic twig filtering in the TwigStack tradition: instead of
   enumerating root-to-leaf paths through chained stacks and
   merge-joining path solutions, two linear passes over the per-spec
   sorted streams compute, for every stream element, whether it
   participates in at least one complete match of the whole pattern —
   the same output guarantee (only solution-participating elements
   survive), obtained with plain column arithmetic on the packed
   pre/subtree_end/level/parent columns.

   Pass 1 (bottom-up, leaves first): keep [e] in slot [v]'s stream when
   every child edge of [v] has a match strictly below [e].  Child edges
   are resolved by {e parent stamping}: one sweep over the child stream
   marks each survivor's parent in a generation-stamped scratch column,
   then one sweep over [v]'s stream reads the marks — O(1) per element,
   no searching.  Descendant edges use a galloping-cursor sweep ([first
   element > e] vs [subtree_end e]); seek targets ascend with [e], so
   the cursor never retreats and a whole edge costs O(n + m).  By
   induction [e] then roots a complete match of [v]'s subtree pattern.

   Pass 2 (top-down, root first): keep [e] when its anchor edge is
   satisfied by an already-kept anchor element — the same generation
   stamps mark kept anchors for child edges ([e] survives iff
   [parent e] is stamped); for descendant edges a merge sweep maintains
   the maximum [subtree_end] of kept anchors before [e] ([e] has a kept
   strict ancestor iff that maximum exceeds [e]).  By induction [e]
   then extends upward to the root, so combined with pass 1 it
   participates in a full solution.

   Both passes are O(Σ |stream|) per edge with branch-light inner loops
   and no per-tuple allocation — the intermediate state is one bool
   array per slot plus the shared stamp column, which is how the
   TwigStack family's bounded-intermediate-results property shows up
   here. *)
let filter doc ~anchors ~candidates ~tick =
  let n = Array.length candidates in
  let kids = Array.make n [] in
  let any_child_edge = ref false in
  for s = n - 1 downto 1 do
    match anchors.(s) with
    | Some (p, axis) ->
      kids.(p) <- (s, axis) :: kids.(p);
      if axis = Query.Child then any_child_edge := true
    | None -> invalid_arg "Twig.filter: non-root slot without anchor"
  done;
  let scr = Domain.DLS.get scratch_key in
  if !any_child_edge && Array.length scr.col < Doc.size doc then
    scr.col <- Array.make (max (Doc.size doc) (2 * Array.length scr.col)) 0;
  let stamp = scr.col in
  let next_gen () =
    scr.gen <- scr.gen + 1;
    scr.gen
  in
  let parent_col = Doc.parents doc in
  (* Pass 1: bottom-up subtree satisfaction.  Specs are in
     anchor-before-spec order, so a reverse walk sees children before
     parents. *)
  let sat = Array.make n [||] in
  for s = n - 1 downto 0 do
    let c = candidates.(s) in
    (match kids.(s) with
    | [] -> sat.(s) <- c
    | edges ->
      let keep = Array.make (Array.length c) true in
      let kept = ref (Array.length c) in
      List.iter
        (fun (child_slot, axis) ->
          let stream = sat.(child_slot) in
          match axis with
          | Query.Child ->
            let g = next_gen () in
            Array.iter
              (fun x ->
                let px = parent_col.(x) in
                if px >= 0 then stamp.(px) <- g)
              stream;
            Array.iteri
              (fun i e ->
                if keep.(i) && stamp.(e) <> g then begin
                  keep.(i) <- false;
                  decr kept
                end)
              c
          | Query.Descendant ->
            let cur = Doc.Postings.of_array stream in
            Array.iteri
              (fun i e ->
                if keep.(i) then begin
                  Doc.Postings.seek_geq cur (e + 1);
                  if
                    Doc.Postings.at_end cur
                    || Doc.Postings.peek cur >= Doc.subtree_end doc e
                  then begin
                    keep.(i) <- false;
                    decr kept
                  end
                end)
              c)
        edges;
      sat.(s) <- keep_marked c keep !kept);
    tick (Array.length c)
  done;
  (* Pass 2: top-down anchor connectivity over the pass-1 survivors. *)
  let out = Array.make n [||] in
  for s = 0 to n - 1 do
    (match anchors.(s) with
    | None -> out.(s) <- sat.(s)
    | Some (p, axis) ->
      let anc = out.(p) in
      let src = sat.(s) in
      let keep = Array.make (Array.length src) false in
      let kept = ref 0 in
      (match axis with
      | Query.Child ->
        let g = next_gen () in
        Array.iter (fun a -> stamp.(a) <- g) anc;
        Array.iteri
          (fun i x ->
            let px = parent_col.(x) in
            if px >= 0 && stamp.(px) = g then begin
              keep.(i) <- true;
              incr kept
            end)
          src
      | Query.Descendant ->
        let cur = Doc.Postings.of_array anc in
        let max_end = ref (-1) in
        Array.iteri
          (fun i x ->
            while (not (Doc.Postings.at_end cur)) && Doc.Postings.peek cur < x do
              let a = Doc.Postings.peek cur in
              if Doc.subtree_end doc a > !max_end then max_end := Doc.subtree_end doc a;
              Doc.Postings.advance cur
            done;
            if !max_end > x then begin
              keep.(i) <- true;
              incr kept
            end)
          src);
      out.(s) <- keep_marked src keep !kept);
    tick (Array.length sat.(s))
  done;
  out
