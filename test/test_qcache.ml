(* The two-tier query cache (DESIGN.md §4f): LRU eviction at the byte
   bound, the cacheability rules, and transparency — a hit returns
   exactly what a cold run returns, without touching the executor. *)

module Env = Flexpath.Env
module Common = Flexpath.Common
module Qcache = Flexpath.Qcache
module Failpoint = Flexpath.Failpoint
module Query = Tpq.Query
module Xpath = Tpq.Xpath

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let make_env ?(seed = 7) ?(count = 30) () = Env.make (Xmark.Articles.doc ~seed ~count ())

let q () =
  Xpath.parse_exn "//article[./section[./paragraph[.contains(\"xml\" and \"streaming\")]]]"

(* A result-tier value of a known size, for the LRU mechanics. *)
type Qcache.ext += Blob of string

let store_blob c key = Qcache.store_ext c key (Blob key) ~size:192
let resident c key = Qcache.find_ext c key = Some (Blob key)

let with_failpoint name f =
  (match Failpoint.activate name with
  | Ok () -> ()
  | Error msg -> Alcotest.fail msg);
  Fun.protect ~finally:(fun () -> Failpoint.deactivate name) f

let run_ok ?algorithm ?budget ?cache ?k env query =
  let k = Option.value k ~default:5 in
  match Flexpath.run ?algorithm ?budget ?cache env ~k query with
  | Ok r -> r
  | Error e -> Alcotest.fail (Flexpath.Error.to_string e)

(* ------------------------------------------------------------------ *)
(* LRU mechanics *)

let test_lru_eviction_at_byte_bound () =
  (* A 192-byte value is charged 196 bytes (namespaced key "X:kN" on
     top), so a 500-byte budget holds exactly two. *)
  let c = Qcache.create ~max_bytes:500 () in
  store_blob c "k1";
  store_blob c "k2";
  let ctr = Qcache.counters c in
  check_int "two resident" 2 ctr.Qcache.entries;
  check_int "no evictions yet" 0 ctr.Qcache.evictions;
  check_bool "bytes within budget" true (ctr.Qcache.bytes <= 500);
  (* Touch k1 so k2 becomes the least recently used. *)
  check_bool "k1 hit" true (resident c "k1");
  store_blob c "k3";
  let ctr = Qcache.counters c in
  check_int "one eviction at the byte bound" 1 ctr.Qcache.evictions;
  check_int "still two resident" 2 ctr.Qcache.entries;
  check_bool "bytes still within budget" true (ctr.Qcache.bytes <= 500);
  check_bool "LRU victim evicted" true (Qcache.find_ext c "k2" = None);
  check_bool "recently used survives" true (resident c "k1");
  check_bool "new entry resident" true (resident c "k3")

let test_oversized_entry_refused () =
  (* An entry that alone exceeds the whole budget must not flush the
     cache to make room it can never get — in either tier. *)
  let c = Qcache.create ~max_bytes:250 () in
  store_blob c "small";
  Qcache.store_ext c "big" (Blob "big") ~size:704;
  let env = make_env ~count:4 () in
  let plan = Common.build_plan env (q ()) in
  Qcache.store_plan c "plan" plan;
  let ctr = Qcache.counters c in
  check_bool "oversized result refused" true (Qcache.find_ext c "big" = None);
  check_bool "oversized plan refused" true (Qcache.find_plan c "plan" = None);
  check_bool "resident entry untouched" true (resident c "small");
  check_int "no evictions" 0 ctr.Qcache.evictions

(* ------------------------------------------------------------------ *)
(* Cacheability, through [Flexpath.run ?cache]: a run whose result is
   not stored leaves only its plan resident, and its repeat reaches the
   executor again (the armed [exec.run] failpoint fires). *)

let check_stored ~what ~stored ?algorithm ?budget env query ~k =
  let cache = Qcache.create () in
  let r = run_ok ?algorithm ?budget ~cache ~k env query in
  check_int (what ^ ": resident entries") (if stored then 2 else 1)
    (Qcache.counters cache).Qcache.entries;
  with_failpoint "exec.run" (fun () ->
      match (Flexpath.run ?algorithm ?budget ~cache env ~k query, stored) with
      | Ok hit, true -> check_bool (what ^ ": hit equals the run") true (hit = r)
      | Error (Flexpath.Error.Fault "exec.run"), false -> ()
      | Ok _, false -> Alcotest.failf "%s: repeat was served from the cache" what
      | Error e, _ -> Alcotest.failf "%s: %s" what (Flexpath.Error.to_string e));
  r

let test_truncated_never_cached () =
  (* A one-tuple budget trips inside the first pass. *)
  let budget = Flexpath.Guard.budget ~tuple_budget:1 () in
  let r = check_stored ~what:"truncated" ~stored:false ~budget (make_env ()) (q ()) ~k:5 in
  check_bool "fixture is truncated" true
    (match r.Common.completeness with Common.Truncated _ -> true | Common.Complete -> false)

let test_degraded_never_cached () =
  (* On this auction document SSO's estimator underestimates Q2, so a
     zero restart cap falls back to DPO (the fixture of test_faults.ml's
     restart-cap case). *)
  let env = Env.make (Xmark.Auction.doc ~seed:22 ~items:100 ()) in
  let q2 = Xpath.parse_exn "//item[./description/parlist and ./mailbox/mail/text]" in
  let budget = Flexpath.Guard.budget ~restart_cap:0 () in
  let r =
    check_stored ~what:"degraded" ~stored:false ~algorithm:Flexpath.SSO ~budget env q2 ~k:20
  in
  check_bool "fixture is degraded" true r.Common.degraded;
  let r = check_stored ~what:"uncapped" ~stored:true ~algorithm:Flexpath.SSO env q2 ~k:20 in
  check_bool "uncapped run is complete and not degraded" true
    (r.Common.completeness = Common.Complete && not r.Common.degraded)

(* ------------------------------------------------------------------ *)
(* End-to-end transparency *)

let test_hit_matches_cold_run () =
  let env = make_env () in
  let cache = Qcache.create () in
  List.iter
    (fun algorithm ->
      let cold = run_ok ~algorithm env (q ()) in
      let miss = run_ok ~algorithm ~cache env (q ()) in
      let hit = run_ok ~algorithm ~cache env (q ()) in
      check_bool "miss matches cold answers" true (cold.Common.answers = miss.Common.answers);
      check_bool "hit matches cold answers" true (cold.Common.answers = hit.Common.answers);
      check_bool "hit is complete" true (hit.Common.completeness = Common.Complete))
    Flexpath.all_algorithms;
  (* Per algorithm: the first cached run misses both tiers (answer then
     plan), the second hits the answer tier. *)
  let ctr = Qcache.counters cache in
  check_int "answer hits" 3 ctr.Qcache.hits;
  check_int "tier misses" 6 ctr.Qcache.misses;
  check_bool "resident bytes accounted" true (ctr.Qcache.bytes > 0)

(* Rebuild [q] with variable ids mapped through [f]: isomorphic, so it
   must share the cached plan and answers. *)
let remap f query =
  let vars = Query.vars query in
  let nodes = List.map (fun v -> (f v, Query.node query v)) vars in
  let edges =
    List.filter_map
      (fun v -> Option.map (fun (p, a) -> (f p, f v, a)) (Query.parent query v))
      vars
  in
  Query.make_exn
    ~root:(f (Query.root query))
    ~nodes ~edges
    ~distinguished:(f (Query.distinguished query))

let test_isomorphic_hit_skips_executor () =
  let env = make_env () in
  let cache = Qcache.create () in
  let qa = q () in
  let qb = remap (fun v -> 40 - v) qa in
  let cold = run_ok ~cache env qa in
  with_failpoint "exec.run" (fun () ->
      (* The isomorphic repeat is served from the answer tier: the armed
         executor failpoint is never reached. *)
      let warm = run_ok ~cache env qb in
      check_bool "isomorphic hit equals cold answers" true
        (cold.Common.answers = warm.Common.answers);
      (* A shape not in the cache does reach the executor and faults. *)
      let other = Xpath.parse_exn "//section[./algorithm]" in
      match Flexpath.run ~cache env ~k:5 other with
      | Error (Flexpath.Error.Fault "exec.run") -> ()
      | Ok _ -> Alcotest.fail "uncached query bypassed the executor"
      | Error e -> Alcotest.fail (Flexpath.Error.to_string e))

let test_plan_tier_skips_chain_build () =
  let env = make_env () in
  let cache = Qcache.create () in
  let _ = run_ok ~cache env ~k:5 (q ()) in
  with_failpoint "chain.build" (fun () ->
      (* Same shape, different k: an answer-tier miss that finds the
         plan tier populated — the chain is not rebuilt. *)
      let r = run_ok ~cache env ~k:7 (q ()) in
      check_bool "served via cached plan" true (r.Common.completeness = Common.Complete);
      (* Without the cache the same call must rebuild the chain and
         trip the failpoint. *)
      match Flexpath.run env ~k:7 (q ()) with
      | Error (Flexpath.Error.Fault "chain.build") -> ()
      | Ok _ -> Alcotest.fail "uncached run did not rebuild the chain"
      | Error e -> Alcotest.fail (Flexpath.Error.to_string e))

let () =
  Alcotest.run "qcache"
    [
      ( "lru",
        [
          Alcotest.test_case "eviction at the byte bound" `Quick test_lru_eviction_at_byte_bound;
          Alcotest.test_case "oversized entry refused" `Quick test_oversized_entry_refused;
        ] );
      ( "cacheability",
        [
          Alcotest.test_case "truncated never cached" `Quick test_truncated_never_cached;
          Alcotest.test_case "degraded never cached" `Quick test_degraded_never_cached;
        ] );
      ( "transparency",
        [
          Alcotest.test_case "hit matches cold run" `Quick test_hit_matches_cold_run;
          Alcotest.test_case "isomorphic hit skips executor" `Quick
            test_isomorphic_hit_skips_executor;
          Alcotest.test_case "plan tier skips chain build" `Quick test_plan_tier_skips_chain_build;
        ] );
    ]
