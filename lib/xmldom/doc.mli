(** Arena representation of an XML document.

    Elements are numbered by pre-order position ([0 .. size - 1]); the
    classic (pre, post, level) numbering supports O(1) containment tests,
    which is the interface the structural-join algorithms of Al-Khalifa
    et al. (ICDE 2002) require.  Character data is kept as a flat array of
    (owner, text) chunks in document order, so full-text indexing can
    assign globally increasing token positions whose per-subtree ranges
    are contiguous.

    Next to those columns a document holds one derived column, each
    element's 1-based rank among its same-tag siblings, which
    {!path_to_root} reads.  It is recomputed, never stored: the fields
    of [t] are not the snapshot format, {!portable} is. *)

type elem = int
(** An element id: the pre-order rank of the element. *)

type t

val of_tree : Xml.t -> t
(** [of_tree t] builds the arena for the tree rooted at [t].
    @raise Invalid_argument if the root is a text node. *)

val of_string : string -> (t, Xml_parser.error) result
(** Parse then build. *)

val of_file : string -> (t, Xml_parser.error) result

val size : t -> int
(** Number of elements. *)

val root : t -> elem
(** The document element (always [0]). *)

val tags : t -> Tag.table
(** The intern table used by this document. *)

val tag : t -> elem -> Tag.t
val tag_name : t -> elem -> string
val post : t -> elem -> int
val level : t -> elem -> int
(** [level d e] is the depth of [e]; the root has level 0. *)

val parent : t -> elem -> elem option
val first_child : t -> elem -> elem option
val next_sibling : t -> elem -> elem option
val children : t -> elem -> elem list
val attributes : t -> elem -> Xml.attr list
val attribute : t -> elem -> string -> string option

val subtree_end : t -> elem -> int
(** [subtree_end d e] is one past the last pre-order id in the subtree of
    [e]; descendants of [e] are exactly [e + 1 .. subtree_end d e - 1]. *)

val is_ancestor : t -> elem -> elem -> bool
(** [is_ancestor d a b] — strict: [a <> b]. *)

val is_parent : t -> elem -> elem -> bool

val ancestors : t -> elem -> elem list
(** Ancestors of [e], nearest first, excluding [e]. *)

val by_tag : t -> Tag.t -> elem array
(** [by_tag d t] is the array of elements with tag [t], sorted by
    pre-order id.  The returned array is shared: do not mutate. *)

val by_tag_name : t -> string -> elem array
(** Like {!by_tag}, resolving the name first; [||] for unknown tags. *)

val levels : t -> int array
(** The packed level column, indexed by element id.  Shared with the
    document: do not mutate.  For join inner loops that cannot afford a
    call per node. *)

val parents : t -> int array
(** The packed parent column ([-1] for the root).  Shared: do not
    mutate. *)

val subtree_ends : t -> int array
(** The packed subtree-end column (see {!subtree_end}).  Shared: do not
    mutate. *)

(** Cursor-style access to sorted posting arrays (per-tag element
    streams, or any pre-order-sorted element array).  A cursor only
    moves forward; {!Postings.seek_geq} gallops, so a monotone sequence
    of seeks costs O(n) over the whole stream regardless of how far the
    individual jumps are.  This is the access path the holistic twig
    join uses: branch-light sequential scans, no per-tuple list
    allocation. *)
module Postings : sig
  type cursor

  val of_array : elem array -> cursor
  (** Cursor at the start of the (borrowed, not copied) array. *)

  val length : cursor -> int
  val at_end : cursor -> bool

  val peek : cursor -> elem
  (** The element under the cursor.  Undefined when [at_end]. *)

  val advance : cursor -> unit

  val seek_geq : cursor -> elem -> unit
  (** Move forward to the first element [>= x] (or the end).  Never
      moves backward: seeking below the current position is a no-op. *)
end

val chunk_count : t -> int
val chunk_owner : t -> int -> elem
val chunk_text : t -> int -> string

val direct_text : t -> elem -> string
(** Concatenated character data directly under [e]. *)

val deep_text : t -> elem -> string
(** Concatenated character data in the subtree of [e], document order. *)

val iter_elements : t -> (elem -> unit) -> unit

val append_trees : t -> Xml.t list -> t
(** [append_trees d kids] is the arena [of_tree] would produce for [d]'s
    tree with [kids] appended, in order, as the root's last children —
    every array is element-for-element identical to that fresh build.
    [d] itself is untouched (its intern table is copied first), so a
    generation still being served and its successor can coexist; the
    cost is O(size of result), but old posting and content arrays are
    shared wherever the append leaves them unchanged.
    @raise Invalid_argument if any of [kids] is a text node. *)

val remove_tree : t -> elem -> t
(** [remove_tree d c] is the arena [of_tree] would produce for [d]'s
    tree without the root's child [c] and its subtree, the mirror of
    {!append_trees}: every element's id, post number, level, parent,
    subtree end, attributes, content, text chunks, location path and
    per-tag stream are those of that fresh build.  The one exception is
    the intern table, which is shared with [d], not rebuilt: nothing
    interns into a published document's table ({!append_trees} copies
    it first).  So it may keep a tag whose last element was in [c]'s
    subtree, whose {!by_tag} array is then empty, as an unknown tag's
    is; and tag ids keep [d]'s numbering, so compare tags by name.
    [d] itself is untouched; content and per-tag arrays that reference
    nothing after the subtree are shared with it.
    @raise Invalid_argument if [c] is not a child of the root, or if
    its subtree's text chunks are not one consecutive run (as
    {!of_tree} and {!append_trees} always number them). *)

val to_tree : t -> Xml.t
(** Rebuild an {!Xml.t}.  Direct text chunks are emitted in document
    order relative to element children. *)

val tree_of : t -> elem -> Xml.t
(** Like {!to_tree} but for the subtree rooted at the given element. *)

val serialized_size : t -> int
(** Byte length of [Xml.to_string (to_tree d)] — used by benchmarks to
    report document sizes. *)

val path_to_root : t -> elem -> string
(** [path_to_root d e] is [e]'s location path from the root, root step
    included, each step the tag and the element's 1-based rank among
    its same-tag siblings: ["collection[1]/article[3]/section[1]"].
    O(depth of [e]): the ranks are a column of [d], not a scan of each
    parent's children. *)

(** {2 Snapshot form} *)

type portable
(** The document without its derived columns: what snapshot storage
    marshals.  Its layout is the record [t] had before the sibling-rank
    column, so snapshots written before and after that column are the
    same bytes.  Closure-free, safe to [Marshal]. *)

val to_portable : t -> portable
(** [to_portable d] shares every array with [d]; it copies none. *)

val of_portable : portable -> t
(** Shares every array with the portable form and recomputes the
    derived column in one pass over the content arrays.
    @raise Invalid_argument when the columns disagree (an element id out
    of range), which a payload [to_portable] produced never does. *)
