(** Document statistics and selectivity estimation.

    The penalty formulas of §4.3.1 need the counts [#(t)], [#pc(t1,t2)],
    [#ad(t1,t2)] and [#contains($i, FTExp)]; the SSO algorithm (§5.1.2)
    additionally needs a selectivity estimator for tree pattern queries.
    Following §6, the estimator pre-processes the document to count
    nodes and edges, then assumes a uniform, location-independent
    distribution of elements: if 60% of A elements have a B child, that
    fraction is assumed wherever A occurs. *)

type t

val build : Xmldom.Doc.t -> t
(** One pass over the document (plus one ancestor-stack pass for the
    [#ad] table). *)

val merged : t list -> t
(** [merged shards]: a read-only view summing every count across the
    shards' statistics by tag {e name}, as if one combined document
    held all their content.  The shards must share one root tag, which
    the view reads off them; it subtracts the [n-1] surplus roots from
    tag counts and element totals, so the numbers match a single
    document whose root adopts all shards' children.  Sources must each
    have an index attached (for [#contains]).  Merged views are
    query-time values: {!extend}, {!remove}, {!set_index} and
    {!to_portable} reject them.
    @raise Invalid_argument on an empty list, a merged source, or
    sources with different root tags. *)

val total_elems : t -> int
(** Total element count (across all shards for a merged view, counting
    the synthetic root once). *)

val doc : t -> Xmldom.Doc.t
(** The underlying document; for a merged view, the first shard's
    (sizes should come from {!total_elems}). *)

val extend : t -> Xmldom.Doc.t -> first_new:int -> t
(** [extend st doc ~first_new] re-covers the statistics after the
    document grew by {!Xmldom.Doc.append_trees}: one pass over the
    {e new} elements only, yielding tables numerically identical to
    [build doc].  The result has no index attached and a fresh
    [count_contains] cache; call {!set_index} with the matching
    extended index.
    @raise Invalid_argument when [first_new] is not the size of [st]'s
    document. *)

val remove : t -> Xmldom.Doc.t -> first:int -> stop:int -> t
(** [remove st doc ~first ~stop] re-covers the statistics after
    {!Xmldom.Doc.remove_tree} took the root's child [first], whose
    subtree is [first .. stop - 1], out of [st]'s document, giving
    [doc]: one pass over the {e removed} elements only, yielding every
    count of [build doc], read by tag name.  The exception is
    {!Xmldom.Doc.remove_tree}'s shared intern table: a tag whose last
    element was removed stays in the tables with count 0, and tag ids
    keep the old numbering.  Like {!extend}, the result has no index
    attached and a fresh [count_contains] cache; call {!set_index} with
    the matching {!Fulltext.Index.remove}d index.
    @raise Invalid_argument when [doc] does not have [stop - first]
    fewer elements than [st]'s document. *)

(** {2 Persistence} *)

type portable
(** The count tables without the document, attached index or
    memoization cache — a closure-free value safe to [Marshal] next to
    a separately persisted document. *)

val to_portable : t -> portable

val of_portable : Xmldom.Doc.t -> portable -> t
(** Re-attaches a document and starts a fresh [count_contains] cache;
    call {!set_index} afterwards to restore [#contains] counting.
    @raise Invalid_argument when the tables do not cover exactly the
    document's tag set (they were built from a different document). *)

(** {2 Counts (§4.3.1 notation)} *)

val count_tag : t -> string -> int
(** [#(t)]: number of elements with tag [t]. *)

val count_pc : t -> string -> string -> int
(** [#pc(t1,t2)]: parent-child pairs with those tags. *)

val count_ad : t -> string -> string -> int
(** [#ad(t1,t2)]: ancestor-descendant pairs (strict) with those tags. *)

val count_contains : t -> string -> Fulltext.Ftexp.t -> int
(** [#contains]: elements with the given tag satisfying the expression.
    Needs an index: computed on first use via {!set_index} and cached
    per (tag, expression). *)

val set_index : t -> Fulltext.Index.t -> unit
(** Attach the full-text index used by {!count_contains} and
    {!contains_fraction}.  (The index is built separately because many
    benchmarks share one index across statistics objects.) *)

(** {2 Fractions used by penalties and the estimator} *)

val pc_fraction : t -> string -> string -> float
(** [#pc(t1,t2) / #ad(t1,t2)], the §4.3.1 factor for relaxing a
    pc-predicate to ad; 0 when no ad pairs exist. *)

val ad_density : t -> string -> string -> float
(** [#ad(t1,t2) / (#(t1) · #(t2))], the factor for dropping an
    ad-predicate; 0 when either tag is absent. *)

val contains_fraction : t -> child:string -> parent:string -> Fulltext.Ftexp.t -> float
(** [#contains(child_tag, F) / #contains(parent_tag, F)], the factor for
    promoting a contains predicate from a child to its parent; 1 when
    the denominator is 0. *)

(** {2 Selectivity estimation (§6)} *)

val estimate_answers : t -> Tpq.Query.t -> float
(** Expected number of distinct bindings of the distinguished variable
    under the uniform-distribution assumption.  A lower-is-safer
    estimate: SSO restarts when the real count falls short (§5.1.2). *)

val estimate_matches : t -> Tpq.Query.t -> float
(** Expected number of full matches (can exceed [estimate_answers]). *)

val pp : Format.formatter -> t -> unit
(** Summary: distinct tags, pc/ad table sizes. *)
