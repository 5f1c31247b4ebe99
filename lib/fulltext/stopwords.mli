(** A small English stopword list.

    Stopwords are skipped on both sides of [contains] so that scores are
    not dominated by function words: indexing gives them no token
    position ({!Index.build}), and query analysis ({!Index.compile})
    drops them from terms, phrases and windows.  A phrase with a
    stopword therefore matches across it, and an expression part made
    of stopwords only never matches. *)

val is_stopword : string -> bool
(** [is_stopword w] — [w] must be lowercase. *)

val all : string list
