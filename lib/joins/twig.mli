(** Holistic twig filtering over per-spec sorted posting streams — the
    stream phase of the holistic physical operator (DESIGN.md §4k;
    TwigStack family, "A Survey of XML Tree Patterns").

    Given one pre-order-sorted candidate array per variable spec (the
    elements that can bind that spec in isolation), {!filter} returns
    the sub-streams of elements that participate in at least one
    complete match of the whole conjunctive pattern.  Two linear passes
    over the packed document columns — bottom-up subtree satisfaction,
    then top-down anchor connectivity — give the TwigStack output
    guarantee (no element survives that is in no solution) with one
    bool array per slot as the only intermediate state, i.e. bounded
    intermediate results instead of the binary pipeline's per-edge
    tuple blowup. *)

val applicable : Encoded.t -> bool
(** The planner's selection rule: the holistic operator evaluates
    conjunctive encodings only.  An optional spec (encoded leaf
    deletion) may stay unbound, so solution participation is not a
    sound stream filter for it — those plans take the binary
    pipeline. *)

val filter :
  Xmldom.Doc.t ->
  anchors:(int * Tpq.Query.axis) option array ->
  candidates:Xmldom.Doc.elem array array ->
  tick:(int -> unit) ->
  Xmldom.Doc.elem array array
(** [filter doc ~anchors ~candidates ~tick] — [anchors.(s)] is slot
    [s]'s anchor as [(parent_slot, axis)] ([None] exactly for slot 0,
    the root), and [candidates.(s)] the sorted candidate array.  Slots
    must be in anchor-before-spec order (the {!Encoded.specs} order).
    Returns the per-slot solution streams, each a sorted subset of its
    candidate array.  [tick] is the cooperative-cancellation hook,
    called with per-slot element counts as the passes progress.

    @raise Invalid_argument if a non-root slot has no anchor. *)
