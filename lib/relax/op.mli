(** The relaxation operators of §3.5, plus the §3.4 tag
    generalization.

    Theorem 2: compositions of the four core operators generate exactly
    the valid structural and contains relaxations of a tree pattern
    query.  Each application strictly enlarges the query's answer set
    over every document.  Tag generalization (replacing a tag with its
    supertype from a type hierarchy) is the paper's first "other
    relaxation" and composes with the rest; it only applies when a
    hierarchy is supplied. *)

type t =
  | Axis_generalization of int
      (** [γ_pc($x,$y)] (§3.5.1): the pc-edge into the given variable
          becomes an ad-edge. *)
  | Leaf_deletion of int
      (** [λ_$x] (§3.5.2): delete a leaf variable; its value-based
          predicates disappear; a distinguished leaf passes the role to
          its parent.  The root is never deletable. *)
  | Subtree_promotion of int
      (** [σ_$x] (§3.5.3): the subtree rooted at the variable moves
          under its grandparent, connected by an ad-edge. *)
  | Contains_promotion of int * Fulltext.Ftexp.t
      (** [κ_$x] (§3.5.4): the contains predicate moves from the
          variable to its parent. *)
  | Tag_generalization of int * string
      (** §3.4: the variable's tag is replaced by the given tag, which
          must be its immediate supertype in the hierarchy. *)

val apply : ?hierarchy:Tpq.Hierarchy.t -> Tpq.Query.t -> t -> (Tpq.Query.t, string) result
(** [apply q op] — fails when [op] is not applicable to [q] (wrong edge
    kind, not a leaf, no grandparent, missing contains, tag not a
    declared subtype, ...). *)

val apply_exn : ?hierarchy:Tpq.Hierarchy.t -> Tpq.Query.t -> t -> Tpq.Query.t

val candidates : ?hierarchy:Tpq.Hierarchy.t -> Tpq.Query.t -> t list
(** Every operator whose shape fits [q] (a child edge to generalize, a
    non-root leaf, a node with a grandparent, a contains off the root, a
    tag with a declared supertype), in a fixed order.  Applying one may
    still fail (the distinguished leaf) or yield a query equivalent to
    [q]. *)

val equivalent : ?hierarchy:Tpq.Hierarchy.t -> Tpq.Query.t -> Tpq.Query.t -> bool
(** Containment both ways, by the homomorphism test of
    {!Tpq.Containment}. *)

val applicable : ?hierarchy:Tpq.Hierarchy.t -> Tpq.Query.t -> t list
(** The {!candidates} that apply and produce a query not {!equivalent}
    to [q], in the same order. *)

val compare : t -> t -> int
val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
val to_string : t -> string
