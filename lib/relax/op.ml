module Query = Tpq.Query
module Containment = Tpq.Containment
module Hierarchy = Tpq.Hierarchy
module Ftexp = Fulltext.Ftexp

type t =
  | Axis_generalization of int
  | Leaf_deletion of int
  | Subtree_promotion of int
  | Contains_promotion of int * Ftexp.t
  | Tag_generalization of int * string

let apply ?(hierarchy = Hierarchy.empty) q op =
  match op with
  | Axis_generalization v -> (
    match Query.parent q v with
    | Some (_, Query.Child) -> Ok (Query.set_axis q v Query.Descendant)
    | Some (_, Query.Descendant) -> Error "edge is already ancestor-descendant"
    | None -> Error "root has no incoming edge")
  | Leaf_deletion v ->
    (* §3.5.2 moves the distinguished role to the parent when the
       distinguished leaf is deleted, but the resulting query's answers
       then bind a different variable — it is not a containing query,
       so it is not a relaxation (Definition 1).  The paper's examples
       never hit this case (their distinguished node is the root); we
       forbid it. *)
    if Query.distinguished q = v then
      Error "cannot delete the distinguished variable: the result would not contain the query"
    else Query.delete_leaf q v
  | Subtree_promotion v -> (
    match Query.parent q v with
    | None -> Error "cannot promote the root"
    | Some (p, _) -> (
      match Query.parent q p with
      | None -> Error "no grandparent to promote to"
      | Some (g, _) -> Query.reparent q v g Query.Descendant))
  | Contains_promotion (v, f) -> (
    match Query.parent q v with
    | None -> Error "cannot promote contains from the root"
    | Some (p, _) ->
      Result.map
        (fun q' ->
          (* collapse duplicates the move may create on the parent *)
          Query.update_node q' p (fun n ->
              let seen = ref [] in
              let contains =
                List.filter
                  (fun e ->
                    if List.exists (Ftexp.equal e) !seen then false
                    else begin
                      seen := e :: !seen;
                      true
                    end)
                  n.contains
              in
              { n with contains }))
        (Query.move_contains q ~from_var:v ~to_var:p f))
  | Tag_generalization (v, super) -> (
    if not (Query.mem q v) then Error "unknown variable"
    else
      match (Query.node q v).tag with
      | None -> Error "wildcard tags cannot be generalized"
      | Some tag ->
        if Hierarchy.supertype hierarchy tag = Some super then
          Ok (Query.update_node q v (fun n -> { n with tag = Some super }))
        else Error (Printf.sprintf "%s is not the declared supertype of %s" super tag))

let apply_exn ?hierarchy q op =
  match apply ?hierarchy q op with
  | Ok q' -> q'
  | Error msg -> invalid_arg ("Op.apply_exn: " ^ msg)

let equivalent ?(hierarchy = Hierarchy.empty) a b =
  Containment.contained ~hierarchy a b && Containment.contained ~hierarchy b a

let candidates ?(hierarchy = Hierarchy.empty) q =
  let vars = Query.vars q in
  let axis_gens =
    List.filter_map
      (fun v ->
        match Query.parent q v with
        | Some (_, Query.Child) -> Some (Axis_generalization v)
        | _ -> None)
      vars
  in
  let deletions =
    List.filter_map
      (fun v -> if v <> Query.root q && Query.is_leaf q v then Some (Leaf_deletion v) else None)
      vars
  in
  let promotions =
    List.filter_map
      (fun v ->
        match Query.parent q v with
        | Some (p, _) when Query.parent q p <> None -> Some (Subtree_promotion v)
        | _ -> None)
      vars
  in
  let contains_promotions =
    List.concat_map
      (fun v ->
        if v = Query.root q then []
        else List.map (fun f -> Contains_promotion (v, f)) (Query.node q v).contains)
      vars
  in
  let tag_generalizations =
    if Hierarchy.is_empty hierarchy then []
    else
      List.filter_map
        (fun v ->
          match (Query.node q v).tag with
          | Some tag -> (
            match Hierarchy.supertype hierarchy tag with
            | Some super -> Some (Tag_generalization (v, super))
            | None -> None)
          | None -> None)
        vars
  in
  axis_gens @ deletions @ promotions @ contains_promotions @ tag_generalizations

let applicable ?(hierarchy = Hierarchy.empty) q =
  List.filter
    (fun op ->
      match apply ~hierarchy q op with
      | Error _ -> false
      | Ok q' -> not (equivalent ~hierarchy q q'))
    (candidates ~hierarchy q)

let compare = Stdlib.compare
let equal a b = compare a b = 0

let pp fmt = function
  | Axis_generalization v -> Format.fprintf fmt "generalize-axis($%d)" v
  | Leaf_deletion v -> Format.fprintf fmt "delete-leaf($%d)" v
  | Subtree_promotion v -> Format.fprintf fmt "promote-subtree($%d)" v
  | Contains_promotion (v, f) -> Format.fprintf fmt "promote-contains($%d, %a)" v Ftexp.pp f
  | Tag_generalization (v, super) -> Format.fprintf fmt "generalize-tag($%d, %s)" v super

let to_string op = Format.asprintf "%a" pp op
