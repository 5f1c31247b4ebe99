type t =
  | Term of string
  | And of t * t
  | Or of t * t
  | Not of t
  | Phrase of string list
  | Window of int * string list

let term w = Term w
let ( &&& ) a b = And (a, b)
let ( ||| ) a b = Or (a, b)
let not_ a = Not a
let phrase ws = Phrase ws
let window n ws = Window (n, ws)

let keywords e =
  let seen = Hashtbl.create 8 in
  let out = ref [] in
  let add w =
    if not (Hashtbl.mem seen w) then begin
      Hashtbl.add seen w ();
      out := w :: !out
    end
  in
  let rec go = function
    | Term w -> add w
    | And (a, b) | Or (a, b) ->
      go a;
      go b
    | Not a -> go a
    | Phrase ws | Window (_, ws) -> List.iter add ws
  in
  go e;
  List.rev !out

let rec is_positive = function
  | Term _ | Phrase _ | Window _ -> true
  | And (a, b) | Or (a, b) -> is_positive a && is_positive b
  | Not _ -> false

let compare = Stdlib.compare
let equal a b = compare a b = 0

let rec pp fmt e =
  match e with
  | And (a, b) -> Format.fprintf fmt "%a and %a" pp_and_operand a pp_and_operand b
  | Or (a, b) -> Format.fprintf fmt "%a or %a" pp a pp b
  | e -> pp_atom fmt e

and pp_and_operand fmt e =
  match e with
  | Or _ -> Format.fprintf fmt "(%a)" pp e
  | e -> pp fmt e

and pp_atom fmt = function
  | Term w -> Format.fprintf fmt "%S" w
  | Phrase ws -> Format.fprintf fmt "%S" (String.concat " " ws)
  | Window (n, ws) ->
    Format.fprintf fmt "window(%d%t)" n (fun fmt ->
        List.iter (fun w -> Format.fprintf fmt ", %S" w) ws)
  | Not a -> Format.fprintf fmt "not %a" pp_atom a
  | (And _ | Or _) as e -> Format.fprintf fmt "(%a)" pp e

let to_string e = Format.asprintf "%a" pp e

type parse_error = { position : int; message : string }

(* Recursive-descent parser over a token stream. *)
type tok =
  | Tword of string  (* bare word *)
  | Tquoted of string  (* quoted string, possibly multi-word *)
  | Tand
  | Tor
  | Tnot
  | Twindow
  | Tlparen
  | Trparen
  | Tcomma
  | Tint of int

exception Err of parse_error

let lex s =
  let n = String.length s in
  let out = ref [] in
  let i = ref 0 in
  let fail pos message = raise (Err { position = pos; message }) in
  while !i < n do
    let c = s.[!i] in
    if c = ' ' || c = '\t' || c = '\n' || c = '\r' then incr i
    else if c = '(' then begin
      out := (Tlparen, !i) :: !out;
      incr i
    end
    else if c = ')' then begin
      out := (Trparen, !i) :: !out;
      incr i
    end
    else if c = ',' then begin
      out := (Tcomma, !i) :: !out;
      incr i
    end
    else if c = '"' then begin
      let start = !i in
      incr i;
      let b = Buffer.create 16 in
      while !i < n && s.[!i] <> '"' do
        Buffer.add_char b s.[!i];
        incr i
      done;
      if !i >= n then fail start "unterminated string";
      incr i;
      out := (Tquoted (Buffer.contents b), start) :: !out
    end
    else begin
      let start = !i in
      let is_wordc c =
        match c with
        | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '-' -> true
        | c -> Char.code c >= 128
      in
      if not (is_wordc c) then fail start (Printf.sprintf "unexpected character %C" c);
      while !i < n && is_wordc s.[!i] do
        incr i
      done;
      let w = String.sub s start (!i - start) in
      let tok =
        match String.lowercase_ascii w with
        | "and" -> Tand
        | "or" -> Tor
        | "not" -> Tnot
        | "window" -> Twindow
        | w' -> ( match int_of_string_opt w' with Some k -> Tint k | None -> Tword w)
      in
      out := (tok, start) :: !out
    end
  done;
  List.rev !out

type stream = { mutable toks : (tok * int) list; src_len : int }

let peek st = match st.toks with [] -> None | (t, p) :: _ -> Some (t, p)

let next st =
  match st.toks with
  | [] -> raise (Err { position = st.src_len; message = "unexpected end of expression" })
  | (t, p) :: rest ->
    st.toks <- rest;
    (t, p)

let expect st what pred =
  let t, p = next st in
  if not (pred t) then raise (Err { position = p; message = "expected " ^ what })

let quoted_to_exp q pos =
  match Tokenizer.tokens q with
  | [] -> raise (Err { position = pos; message = "empty keyword" })
  | [ w ] -> Term w
  | ws -> Phrase ws

let rec parse_or st =
  let left = parse_and st in
  match peek st with
  | Some (Tor, _) ->
    ignore (next st);
    Or (left, parse_or st)
  | _ -> left

and parse_and st =
  let left = parse_atom st in
  match peek st with
  | Some (Tand, _) ->
    ignore (next st);
    And (left, parse_and st)
  | _ -> left

and parse_atom st =
  let t, p = next st in
  match t with
  | Tquoted q -> quoted_to_exp q p
  | Tword w -> (
    match Tokenizer.tokens w with
    | [ w' ] -> Term w'
    | _ -> raise (Err { position = p; message = "invalid keyword" }))
  | Tnot -> Not (parse_atom st)
  | Tlparen ->
    let e = parse_or st in
    expect st "')'" (fun t -> t = Trparen);
    e
  | Twindow ->
    expect st "'('" (fun t -> t = Tlparen);
    let n, np = next st in
    let width =
      match n with
      | Tint k when k > 0 -> k
      | _ -> raise (Err { position = np; message = "expected window width" })
    in
    let words = ref [] in
    let rec more () =
      match next st with
      | Tcomma, _ ->
        let t, p = next st in
        (match t with
        | Tquoted q | Tword q -> (
          match Tokenizer.tokens q with
          | [ w ] -> words := w :: !words
          | _ -> raise (Err { position = p; message = "window takes single words" }))
        | _ -> raise (Err { position = p; message = "expected a word" }));
        more ()
      | Trparen, _ -> ()
      | _, p -> raise (Err { position = p; message = "expected ',' or ')'" })
    in
    more ();
    if !words = [] then raise (Err { position = p; message = "window needs at least one word" });
    Window (width, List.rev !words)
  | Tint k -> Term (string_of_int k)
  | Tand | Tor | Trparen | Tcomma ->
    raise (Err { position = p; message = "expected a keyword or '('" })

let of_string s =
  try
    let st = { toks = lex s; src_len = String.length s } in
    let e = parse_or st in
    match st.toks with
    | [] -> Ok e
    | (_, p) :: _ -> Error { position = p; message = "trailing tokens" }
  with Err e -> Error e

let of_string_exn s =
  match of_string s with
  | Ok e -> e
  | Error { position; message } ->
    invalid_arg (Printf.sprintf "Ftexp.of_string_exn: at %d: %s" position message)
