(** Inverted index over a document, and evaluation of {!Ftexp}
    expressions.

    Indexing walks the document's text chunks in document order and
    assigns each indexed token a globally increasing position, so the
    tokens of any element's subtree form a contiguous position range
    [tok_range].  [contains(e, f)] then reduces to range queries on
    posting lists.  Terms are stemmed with {!Stemmer}.  Stopwords are
    skipped on both sides: they are not indexed (positions are assigned
    only to indexed tokens), and {!compile} drops them from queries —
    so a phrase or window matches across elided stopwords, ["state of
    the art"] evaluates exactly as ["state art"], and an expression
    left with no word (a stopword term, a phrase of stopwords) is never
    satisfied.

    Following the paper (§5.1), [matches] returns the {e most specific}
    elements satisfying an expression — as in XRANK [20] and nearest
    concept queries [29] — with scores normalized to [0, 1]. *)

type t

val failpoint : (string -> unit) ref
(** Fault-injection hook, consulted as "index.build" on entry to
    {!build}.  A no-op until the FleXPath failpoint registry installs
    itself here; an installed hook raises to simulate the failure. *)

val build : ?scorer:Scorer.t -> Xmldom.Doc.t -> t
(** [scorer] selects the keyword-evidence function (default
    {!Scorer.Tf_idf}; see {!Scorer}). *)

val extend : t -> Xmldom.Doc.t -> first_new:int -> t
(** [extend idx doc ~first_new] re-covers an index after the document
    grew by {!Xmldom.Doc.append_trees}: [doc] must share elements
    [0 .. first_new - 1] (and all previously indexed chunks) with the
    document [idx] was built over, with [first_new] equal to that
    document's size.  Only the new chunks are tokenized; the result is
    value-identical to [build doc] — same term ids, posting lists,
    token maps, subtree ranges and (bit-for-bit) [avg_scope_len] — so
    delta ingestion scores exactly like an offline rebuild.  Posting
    lists of terms absent from the new text are shared with [idx].
    @raise Invalid_argument when [first_new] is not the size of [idx]'s
    document. *)

val remove : t -> Xmldom.Doc.t -> first:int -> stop:int -> t
(** [remove idx doc ~first ~stop] re-covers an index after
    {!Xmldom.Doc.remove_tree} took the root's child [first], whose
    subtree is [first .. stop - 1], out of [idx]'s document, giving
    [doc].  Nothing is tokenized: the subtree's token range is dropped
    and later positions move down.  The result is value-identical to
    [build doc], as {!extend}'s is: same term ids (renumbered densely
    in first-occurrence order, so words only the subtree held are
    gone), posting lists, token maps, subtree ranges and (bit-for-bit)
    [avg_scope_len].  The intern-table exception of
    {!Xmldom.Doc.remove_tree} does not reach the index, which holds no
    tag ids.
    @raise Invalid_argument when [doc] does not have [stop - first]
    fewer elements than [idx]'s document. *)

val doc : t -> Xmldom.Doc.t
val scorer : t -> Scorer.t

(** {2 Persistence} *)

type portable
(** The index without its document: posting lists, token maps and
    scorer only — a closure-free value safe to [Marshal], sized so the
    document is not duplicated when both are persisted side by side. *)

val to_portable : t -> portable

val of_portable : Xmldom.Doc.t -> portable -> t
(** Re-attaches the document [to_portable] stripped.
    @raise Invalid_argument when the portable index does not cover
    exactly the document's elements (it was built from a different
    document). *)

val n_tokens : t -> int
(** Number of indexed (non-stopword) tokens. *)

val distinct_terms : t -> int

val term_positions : t -> string -> int array
(** [term_positions idx w] is the sorted posting list of [stem w];
    [[||]] for unknown terms.  Shared: do not mutate. *)

val tok_range : t -> Xmldom.Doc.elem -> int * int
(** [(lo, hi)]: the subtree of the element covers token positions
    [lo .. hi - 1]. *)

(** {2 Compiled expressions}

    Every evaluation below goes through {!compile}.  A caller that
    evaluates one expression on many elements — a join operator
    testing candidates, a ranker scoring answers — compiles it once and
    keeps the result for that one evaluation. *)

type compiled
(** An expression analysed against one index or scoring view: stopwords
    dropped, keywords stemmed and resolved to posting lists, each term's
    scoring df (the overlay's corpus-wide count under {!with_overlay})
    and idf factor taken, and the normalization denominator computed.
    It is immutable, holds no lock and no cache, and is never stored on
    the index: callers build one per evaluation and drop it after. *)

val compile : t -> Ftexp.t -> compiled

val holds : compiled -> Xmldom.Doc.elem -> bool
(** [holds (compile idx f) e] is [satisfies idx f e]. *)

val score : compiled -> Xmldom.Doc.elem -> float
(** [score (compile idx f) e] is [normalized_score idx f e], to the
    bit. *)

(** {2 One-shot evaluation}

    Each function compiles its expression, then evaluates it. *)

val satisfies : t -> Ftexp.t -> Xmldom.Doc.elem -> bool
(** [satisfies idx f e]: does the subtree text of [e] satisfy [f]? *)

val all_satisfying : t -> Ftexp.t -> Xmldom.Doc.elem list
(** All elements satisfying [f], sorted by pre-order id.  For positive
    expressions this set is closed under ancestors. *)

val most_specific : t -> Ftexp.t -> Xmldom.Doc.elem list
(** Elements satisfying [f] with no satisfying descendant, sorted by
    pre-order id. *)

val raw_score : t -> Ftexp.t -> Xmldom.Doc.elem -> float
(** tf·idf evidence for [f] within [e]'s subtree; 0 when [e] does not
    satisfy [f].  Monotone along ancestor paths for positive [f]. *)

val normalized_score : t -> Ftexp.t -> Xmldom.Doc.elem -> float
(** [raw_score] divided by the document root's raw score (the maximum
    for positive expressions); always in [0, 1].  Under an overlay the
    root is the virtual root of the whole corpus. *)

val matches : t -> Ftexp.t -> (Xmldom.Doc.elem * float) list
(** Most specific elements with normalized scores, best first — the
    ranked (node, score) list the paper's architecture expects from the
    IR engine. *)

val count_satisfying_with_tag : t -> Ftexp.t -> Xmldom.Tag.t -> int
(** [#contains] statistic of §4.3.1: how many elements with the given
    tag satisfy the expression. *)

(** {2 Corpus-global scoring (sharded corpora)} *)

type overlay
(** Corpus-global scoring statistics — total df per term, total token
    count, global average scope length, and the shard indexes whose
    roots make up the combined root — substituted into shard-local
    indexes so that every shard scores answers exactly as one combined
    index over all shards would.  Immutable once built, so one overlay
    is shared by all worker domains serving a corpus view; the
    combined root's raw score is computed by each {!compile}, not
    memoized here. *)

val overlay_of : t list -> overlay
(** Builds the global view over the given shard indexes.  All indexes
    must use the same scorer: each view scores with its own.  Value
    equivalence with a single combined index is exact for {!Scorer}
    functions and holds for every expression whose phrase/window
    matches do not straddle a document boundary (such matches are
    artifacts of corpus concatenation).
    @raise Invalid_argument on an empty list. *)

val with_overlay : t -> overlay -> t
(** A view of [t] whose {!normalized_score} (and the term evidence
    inside {!raw_score}) uses the overlay's global statistics; all
    element-local operations are unchanged.  The result is a scoring
    view: do not persist or {!extend} it, and {!compile} against the
    view, not against [t]. *)
