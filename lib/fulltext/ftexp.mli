(** Full-text search expressions — the [FTExp] language of the paper's
    [contains($i, FTExp)] predicate (§2.1).

    An expression is evaluated relative to a context element: it holds on
    an element when the element's subtree text satisfies it.  Supported
    forms: keywords (stemmed), conjunction, disjunction, negation,
    phrases and proximity windows — "as complex as an IR engine can
    handle" per the paper.

    Evaluation ({!Index.compile}) skips stopwords as indexing does: they
    are dropped from every word list, and token positions count indexed
    (non-stopword) tokens only.  The values below keep the words as
    written; printing and parsing round-trip them unchanged. *)

type t =
  | Term of string
      (** A single keyword, matched after stemming.  A stopword never
          matches. *)
  | And of t * t
  | Or of t * t
  | Not of t  (** Satisfied when the operand is not. *)
  | Phrase of string list
      (** Consecutive indexed tokens, in order, stopwords skipped:
          ["state of the art"] matches as ["state art"].  A phrase of
          stopwords only never matches. *)
  | Window of int * string list
      (** [Window (n, ws)]: all non-stopwords of [ws] occur within some
          span of [n] consecutive indexed tokens, in any order.  A window
          of stopwords only never matches. *)

val term : string -> t
val ( &&& ) : t -> t -> t
val ( ||| ) : t -> t -> t
val not_ : t -> t
val phrase : string list -> t
val window : int -> string list -> t

val keywords : t -> string list
(** All keywords mentioned, in first-occurrence order, unstemmed. *)

val is_positive : t -> bool
(** [true] when the expression contains no [Not]: satisfaction is then
    monotone, i.e. preserved by ancestors ([ad + contains] inference
    rule of Figure 3 applies unconditionally). *)

val compare : t -> t -> int
val equal : t -> t -> bool

val pp : Format.formatter -> t -> unit
(** Prints in the paper's concrete syntax, e.g.
    ["XML" and "streaming"]. *)

val to_string : t -> string

type parse_error = { position : int; message : string }

val of_string : string -> (t, parse_error) result
(** Parses the concrete syntax: quoted words or bare words, [and], [or],
    [not], parentheses, ["w1 w2"] phrases (a quoted string with spaces),
    and [window(n, "w1", "w2", ...)]. *)

val of_string_exn : string -> t
(** @raise Invalid_argument on parse errors. *)
