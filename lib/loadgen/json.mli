(** A minimal JSON tree, emitter and parser — just enough for the
    bench artifacts ([BENCH_*.json]) to be written, re-read and
    schema-checked without an external dependency.

    Numbers are floats (JSON's own model); integral values are
    rendered without a decimal point.  The parser accepts the full
    JSON grammar except that [\uXXXX] escapes outside the BMP's
    surrogate range are decoded to UTF-8 and surrogate pairs are not
    combined (the bench never emits them). *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

val to_string : ?indent:int -> t -> string
(** Render with [indent]-space pretty-printing (default 2); [0] emits
    compact single-line JSON. *)

val parse : string -> (t, string) result
(** Parse one JSON document; the error message carries a byte offset.
    Trailing whitespace is allowed, trailing garbage is not. *)

(** {2 Accessors} (all total: [None]/[[]] on shape mismatch) *)

val member : string -> t -> t option
val to_float : t -> float option
val to_int : t -> int option
val to_list : t -> t list
