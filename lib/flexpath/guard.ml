type budget = {
  deadline_ms : float option;
  tuple_budget : int option;
  step_budget : int option;
  restart_cap : int option;
}

let unlimited = { deadline_ms = None; tuple_budget = None; step_budget = None; restart_cap = None }

let budget ?deadline_ms ?tuple_budget ?step_budget ?restart_cap () =
  { deadline_ms; tuple_budget; step_budget; restart_cap }

type reason = Deadline | Tuples | Steps

let reason_to_string = function
  | Deadline -> "deadline"
  | Tuples -> "tuple budget"
  | Steps -> "step budget"

type t = {
  budget : budget;
  clock : Monotime.t;
  mutable tuples : int;
  mutable trip : reason option;
}

(* [none]'s clock is never consulted: every deadline check tests
   [budget.deadline_ms = None] first, so the shared unlimited guard
   stays immutable and safe to use from any domain. *)
let none = { budget = unlimited; clock = Monotime.create (); tuples = 0; trip = None }
let start budget = { budget; clock = Monotime.create (); tuples = 0; trip = None }
let tripped g = g.trip
let tuples_consumed g = g.tuples

let past_deadline g =
  match g.budget.deadline_ms with
  | None -> false
  | Some ms -> Monotime.elapsed_ms g.clock >= ms

let over_tuples g =
  match g.budget.tuple_budget with None -> false | Some b -> g.tuples >= b

let record g r =
  (match g.trip with None -> g.trip <- Some r | Some _ -> ());
  true

let cancel_fn g =
  match (g.budget.deadline_ms, g.budget.tuple_budget) with
  | None, None -> None
  | _ ->
    Some
      (fun produced ->
        g.tuples <- g.tuples + produced;
        match g.trip with
        | Some _ -> true
        | None ->
          if over_tuples g then record g Tuples
          else if past_deadline g then record g Deadline
          else false)

let pass_allowed g ~passes =
  match g.trip with
  | Some r -> Some r
  | None ->
    let blocked r = ignore (record g r) in
    (match g.budget.step_budget with
    | Some b when passes >= b -> blocked Steps
    | _ ->
      if over_tuples g then blocked Tuples else if past_deadline g then blocked Deadline);
    g.trip

let restart_exhausted g ~restarts =
  match g.budget.restart_cap with None -> false | Some cap -> restarts >= cap
