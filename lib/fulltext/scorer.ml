type t = Tf_idf | Bm25 of { k1 : float; b : float }

let default = Tf_idf
let bm25 ?(k1 = 1.2) ?(b = 0.75) () = Bm25 { k1; b }

(* A term's constants, hoisted out of the per-scope formula: the idf
   factor and the length-normalization inputs.  [term_score] is
   [evidence] of [term_weight], so hoisting performs the same float
   operations in the same order and every score keeps its bits. *)
type term_weight =
  | No_evidence
  | Tf_idf_weight of float (* ln(1 + N/df) *)
  | Bm25_weight of { idf : float; k1 : float; b : float; avg_scope_len : float }

let term_weight t ~df ~n_tokens ~avg_scope_len =
  if df <= 0 then No_evidence
  else begin
    let df = float_of_int df in
    let n = float_of_int n_tokens in
    match t with
    | Tf_idf -> Tf_idf_weight (log (1.0 +. (n /. df)))
    | Bm25 { k1; b } ->
      Bm25_weight { idf = log (1.0 +. ((n -. df +. 0.5) /. (df +. 0.5))); k1; b; avg_scope_len }
  end

let evidence w ~tf ~scope_len =
  if tf <= 0 then 0.0
  else begin
    let tf = float_of_int tf in
    match w with
    | No_evidence -> 0.0
    | Tf_idf_weight idf -> (1.0 +. log tf) *. idf
    | Bm25_weight { idf; k1; b; avg_scope_len } ->
      let norm =
        if avg_scope_len <= 0.0 then 1.0
        else 1.0 -. b +. (b *. float_of_int scope_len /. avg_scope_len)
      in
      idf *. (tf *. (k1 +. 1.0) /. (tf +. (k1 *. norm)))
  end

let term_score t ~tf ~df ~n_tokens ~scope_len ~avg_scope_len =
  evidence (term_weight t ~df ~n_tokens ~avg_scope_len) ~tf ~scope_len

let to_string = function
  | Tf_idf -> "tfidf"
  | Bm25 { k1; b } -> Printf.sprintf "bm25(k1=%g,b=%g)" k1 b

let of_string s =
  match String.lowercase_ascii (String.trim s) with
  | "tfidf" | "tf-idf" -> Ok Tf_idf
  | "bm25" -> Ok (bm25 ())
  | other -> Error (Printf.sprintf "unknown scorer %S (expected tfidf or bm25)" other)
