module Query = Tpq.Query

type entry = { query : Query.t; ops : Op.t list; penalty : float; score : float }

let enumerate ?(hierarchy = Tpq.Hierarchy.empty) ?(max_queries = 500) q0 =
  let seen = Hashtbl.create 64 in
  Hashtbl.add seen (Query.canonical_key q0) ();
  let out = ref [ (q0, []) ] in
  let queue = Queue.create () in
  Queue.add (q0, []) queue;
  let count = ref 1 in
  while (not (Queue.is_empty queue)) && !count < max_queries do
    let q, ops = Queue.pop queue in
    List.iter
      (fun op ->
        if !count < max_queries then begin
          match Op.apply ~hierarchy q op with
          | Error _ -> ()
          | Ok q' ->
            let key = Query.canonical_key q' in
            if not (Hashtbl.mem seen key) then begin
              Hashtbl.add seen key ();
              incr count;
              let entry = (q', ops @ [ op ]) in
              out := entry :: !out;
              Queue.add entry queue
            end
        end)
      (Op.applicable ~hierarchy q)
  done;
  List.rev !out

(* Each candidate is applied once.  Its mask gives the penalty, and,
   where the homomorphism is forced, equivalence with [q] as well;
   otherwise equivalence takes the containment test. *)
let cheapest_next env q =
  let hierarchy = Penalty.hierarchy env in
  let equivalent =
    if Penalty.forced env then begin
      let m = Penalty.mask env q in
      fun _ m' -> Penalty.mask_equal m m'
    end
    else fun q' _ -> Op.equivalent ~hierarchy q q'
  in
  let best = ref None in
  List.iter
    (fun op ->
      match Op.apply ~hierarchy q op with
      | Error _ -> ()
      | Ok q' ->
        let m' = Penalty.mask env q' in
        if not (equivalent q' m') then begin
          let p = Penalty.mask_penalty env m' in
          let better =
            match !best with
            | None -> true
            | Some (op0, _, p0) ->
              p < p0 -. 1e-12 || (Float.abs (p -. p0) <= 1e-12 && Op.compare op op0 < 0)
          in
          if better then best := Some (op, q', p)
        end)
    (Op.candidates ~hierarchy q);
  !best

let entry_to_string i e =
  let ops =
    match e.ops with
    | [] -> "(original)"
    | ops -> String.concat "; " (List.map Op.to_string ops)
  in
  Printf.sprintf "%2d. score=%.4f penalty=%.4f  %s\n    %s" i e.score e.penalty ops
    (Tpq.Xpath.to_string e.query)

let sequence ?(max_steps = 32) env =
  let q0 = Penalty.original env in
  let base = Penalty.base_score env in
  let rec go q ops steps acc =
    if steps >= max_steps then List.rev acc
    else
      match cheapest_next env q with
      | None -> List.rev acc
      | Some (op, q', p) ->
        let ops = ops @ [ op ] in
        let entry = { query = q'; ops; penalty = p; score = base -. p } in
        go q' ops (steps + 1) (entry :: acc)
  in
  go q0 [] 0 [ { query = q0; ops = []; penalty = 0.0; score = base } ]
