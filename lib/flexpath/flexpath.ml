module Ranking = Ranking
module Env = Env
module Answer = Answer
module Common = Common
module Dpo = Dpo
module Sso = Sso
module Hybrid = Hybrid
module Storage = Storage
module Error = Error
module Guard = Guard
module Failpoint = Failpoint
module Monotime = Monotime
module Qcache = Qcache
module Wal = Wal
module Ingest = Ingest
module Corpus = Corpus
module Taskpool = Taskpool

(* Plant the fault-injection registry into the lower layers (and arm
   FLEXPATH_FAILPOINTS) as soon as the library is initialized. *)
let () = Failpoint.install ()

exception Failed of Error.t

type algorithm = Common.algorithm = DPO | SSO | Hybrid

let algorithm_to_string = Common.algorithm_to_string
let algorithm_of_string = Common.algorithm_of_string
let all_algorithms = Common.all_algorithms

(* A run's entry in the cache's result tier.  Only [Complete],
   non-degraded results are stored: a [Truncated] (wire [PARTIAL]) or
   degraded result reflects the budget of the run that produced it, not
   the query, and must never be replayed. *)
type Qcache.ext += Cached_result of Common.result

let cacheable (r : Common.result) =
  (match r.Common.completeness with Common.Complete -> true | Common.Truncated _ -> false)
  && not r.Common.degraded

let result_cost (r : Common.result) = 192 + (64 * List.length r.Common.answers)

let run ?(algorithm = Hybrid) ?(scheme = Ranking.Structure_first) ?budget ?cache
    ?(executor = Joins.Exec.Auto) env ~k q =
  let keys =
    lazy
      (let pk = Qcache.plan_key ~algorithm ~scheme q in
       (pk, Qcache.answer_key ~plan_key:pk ~k ~budget ~executor))
  in
  match Option.bind cache (fun c -> Qcache.find_ext c (snd (Lazy.force keys))) with
  | Some (Cached_result result) -> Ok result
  | Some _ | None -> (
    let guard = match budget with None -> Guard.none | Some b -> Guard.start b in
    let eval () =
      let plan =
        match cache with
        | None -> None
        | Some c -> (
          let pk = fst (Lazy.force keys) in
          match Qcache.find_plan c pk with
          | Some p -> Some p
          | None ->
            let p = Common.build_plan env q in
            Qcache.store_plan c pk p;
            Some p)
      in
      match algorithm with
      | DPO -> Dpo.run ?plan ~guard ~executor env ~scheme ~k q
      | SSO -> Sso.run ?plan ~guard ~executor env ~scheme ~k q
      | Hybrid -> Hybrid.run ?plan ~guard ~executor env ~scheme ~k q
    in
    match eval () with
    | result ->
      (match cache with
      | Some c when cacheable result ->
        Qcache.store_ext c (snd (Lazy.force keys)) (Cached_result result)
          ~size:(result_cost result)
      | Some _ | None -> ());
      Ok result
    | exception Joins.Exec.Capacity_exceeded { what; limit; actual } ->
      Error (Error.Capacity { what; limit; actual })
    | exception Failpoint.Injected point -> Error (Error.Fault point))

let run_exn ?algorithm ?scheme ?budget ?cache ?executor env ~k q =
  match run ?algorithm ?scheme ?budget ?cache ?executor env ~k q with
  | Ok result -> result
  | Error e -> raise (Failed e)

let top_k ?algorithm ?scheme ?budget ?cache ?executor env ~k q =
  (run_exn ?algorithm ?scheme ?budget ?cache ?executor env ~k q).Common.answers

let top_k_xpath ?algorithm ?scheme ?budget ?cache ?executor env ~k s =
  match Tpq.Xpath.parse s with
  | Error { offset; message } -> Error (Error.Query_error { offset; message })
  | Ok q ->
    Result.map
      (fun r -> r.Common.answers)
      (run ?algorithm ?scheme ?budget ?cache ?executor env ~k q)

let exact_answers (env : Env.t) q =
  Tpq.Semantics.answers ~hierarchy:env.hierarchy env.doc env.index q
