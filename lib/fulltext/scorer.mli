(** Keyword-evidence scoring functions.

    §4.1 deliberately does not commit to an IR ranking algorithm ("our
    intention is not to propose yet another ranking algorithm for
    keyword search"), so the index takes the scorer as a parameter.
    Two standard choices are provided; both consume the same term
    statistics. *)

type t =
  | Tf_idf
      (** [(1 + ln tf) · ln(1 + N/df)] per matched term — the default,
          monotone along ancestor paths. *)
  | Bm25 of { k1 : float; b : float }
      (** Okapi BM25 with element-length normalization.  Longer scopes
          are discounted, so scores are {e not} monotone along ancestor
          paths (an exact paragraph can outscore its section). *)

val default : t
val bm25 : ?k1:float -> ?b:float -> unit -> t
(** Standard parameters k1 = 1.2, b = 0.75. *)

val term_score :
  t -> tf:int -> df:int -> n_tokens:int -> scope_len:int -> avg_scope_len:float -> float
(** Evidence contributed by one term occurring [tf] times in a scope of
    [scope_len] tokens; [df] is the term's collection frequency and
    [n_tokens] the collection size. *)

type term_weight
(** One term's scoring constants — its idf factor and the collection's
    length-normalization inputs — computed once so that scoring the
    term in many scopes repeats only the tf- and length-dependent part.
    {!term_score} is defined through it, so both give the same bits. *)

val term_weight : t -> df:int -> n_tokens:int -> avg_scope_len:float -> term_weight

val evidence : term_weight -> tf:int -> scope_len:int -> float
(** [evidence (term_weight t ~df ~n_tokens ~avg_scope_len) ~tf ~scope_len]
    is [term_score t ~tf ~df ~n_tokens ~scope_len ~avg_scope_len]. *)

val to_string : t -> string
val of_string : string -> (t, string) result
