(* Robustness tests: resource-governed execution (budgets, graceful
   degradation), typed errors for every user-provocable failure, and
   deterministic fault injection through every registered failpoint.

   These are the acceptance tests of the governance subsystem:
   - a budget-exceeded query returns [Truncated] with a non-empty,
     correctly ordered partial top-K and a sound score bound;
   - no exception escapes [Flexpath.run] on user input;
   - every failpoint in [Failpoint.catalog] yields a typed [Error.t]. *)

module Xpath = Tpq.Xpath
module Ranking = Flexpath.Ranking
module Answer = Flexpath.Answer
module Common = Flexpath.Common
module Env = Flexpath.Env
module Error = Flexpath.Error
module Guard = Flexpath.Guard
module Failpoint = Flexpath.Failpoint

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let q1_str =
  "//article[./section[./algorithm and ./paragraph[.contains(\"XML\" and \"streaming\")]]]"

let xmark_q2 = "//item[./description/parlist and ./mailbox/mail/text]"

let article_env = lazy (Env.make (Xmark.Articles.doc ~seed:21 ~count:80 ()))
let auction_env = lazy (Env.make (Xmark.Auction.doc ~seed:22 ~items:100 ()))

let scheme = Ranking.Structure_first

let answer_key (a : Answer.t) =
  (a.Answer.node, Float.round (a.Answer.sscore *. 1e6), Float.round (a.Answer.kscore *. 1e6))

let is_sorted answers =
  let rec go = function
    | a :: (b :: _ as rest) ->
      Ranking.compare_desc scheme (Answer.score a) (Answer.score b) <= 0 && go rest
    | _ -> true
  in
  go answers

(* ------------------------------------------------------------------ *)
(* Budget truncation: graceful degradation with sound bounds. *)

(* One-pass DPO via the step budget: the original query's pass
   completes, the second pass is denied — the anytime contract says the
   answers collected so far come back ordered and bounded. *)
let test_step_budget_truncates () =
  let env = Lazy.force article_env in
  let q = Xpath.parse_exn q1_str in
  let k = 100 in
  let full = Flexpath.run_exn ~algorithm:Flexpath.DPO ~scheme env ~k q in
  check_bool "fixture needs several passes" true (full.Common.passes > 1);
  let r =
    Flexpath.run_exn ~algorithm:Flexpath.DPO ~scheme
      ~budget:(Guard.budget ~step_budget:1 ())
      env ~k q
  in
  check_int "exactly one pass ran" 1 r.Common.passes;
  (match r.Common.completeness with
  | Common.Truncated { reason = Guard.Steps; score_bound } ->
    check_bool "partial top-K is non-empty" true (r.Common.answers <> []);
    check_bool "partial top-K is correctly ordered" true (is_sorted r.Common.answers);
    (* Soundness: every answer of the full run that the truncated run
       missed scores no better than the reported bound. *)
    let partial = List.map answer_key r.Common.answers in
    List.iter
      (fun (a : Answer.t) ->
        if not (List.mem (answer_key a) partial) then
          check_bool "missed answer is within the reported bound" true
            (Ranking.total scheme (Answer.score a) <= score_bound +. 1e-9))
      full.Common.answers
  | c ->
    Alcotest.failf "expected Truncated Steps, got %s"
      (match c with Common.Complete -> "Complete" | _ -> "Truncated (other reason)"));
  (* The partial answers are exactly what one pass can know: they all
     reappear in the full run. *)
  let full_keys = List.map answer_key full.Common.answers in
  List.iter
    (fun a -> check_bool "partial answer appears in the full top-K" true
        (List.mem (answer_key a) full_keys))
    r.Common.answers

(* Tuple budget: measure pass 1's exact guard-counted tuple consumption,
   then allow exactly one tuple more — pass 1 completes, pass 2 trips at
   its first poll, and pass 1's answers survive. *)
let test_tuple_budget_truncates () =
  let env = Lazy.force article_env in
  let q = Xpath.parse_exn q1_str in
  let k = 100 in
  let probe = Guard.start (Guard.budget ~tuple_budget:max_int ~step_budget:1 ()) in
  let r1 = Flexpath.Dpo.run ~guard:probe env ~scheme ~k q in
  let pass1_tuples = Guard.tuples_consumed probe in
  check_bool "pass 1 consumed tuples" true (pass1_tuples > 0);
  let r =
    Flexpath.run_exn ~algorithm:Flexpath.DPO ~scheme
      ~budget:(Guard.budget ~tuple_budget:(pass1_tuples + 1) ())
      env ~k q
  in
  (match r.Common.completeness with
  | Common.Truncated { reason = Guard.Tuples; _ } -> ()
  | _ -> Alcotest.fail "expected Truncated Tuples");
  check_bool "pass 1 answers survive the mid-pass-2 trip" true (r.Common.answers <> []);
  check_bool "same answers as the one-pass run" true
    (List.map answer_key r.Common.answers = List.map answer_key r1.Common.answers)

(* A hopeless budget never raises and reports honestly, for every
   algorithm and axis. *)
let test_hopeless_budgets_never_raise () =
  let env = Lazy.force article_env in
  let q = Xpath.parse_exn q1_str in
  List.iter
    (fun algorithm ->
      List.iter
        (fun (name, budget, reason) ->
          match Flexpath.run ~algorithm ~scheme ~budget env ~k:5 q with
          | Error e -> Alcotest.failf "%s: unexpected error %s" name (Error.to_string e)
          | Ok r -> (
            match r.Common.completeness with
            | Common.Truncated { reason = got; score_bound } ->
              check_string (name ^ ": trip reason") (Guard.reason_to_string reason)
                (Guard.reason_to_string got);
              check_bool (name ^ ": bound is finite and meaningful") true
                (Float.is_finite score_bound)
            | Common.Complete -> Alcotest.failf "%s: expected truncation" name))
        [
          ("deadline=0", Guard.budget ~deadline_ms:0.0 (), Guard.Deadline);
          ("tuples=1", Guard.budget ~tuple_budget:1 (), Guard.Tuples);
          ("steps=0", Guard.budget ~step_budget:0 (), Guard.Steps);
        ])
    Flexpath.all_algorithms

(* ------------------------------------------------------------------ *)
(* SSO/Hybrid restart cap and fallback to DPO. *)

let test_restart_cap_degrades () =
  let env = Lazy.force auction_env in
  let q = Xpath.parse_exn xmark_q2 in
  let k = 20 in
  (* Fixture property: on this document SSO's estimator underestimates
     and the uncapped run needs several restarts. *)
  let free = Flexpath.run_exn ~algorithm:Flexpath.SSO ~scheme env ~k q in
  check_bool "fixture forces restarts" true (free.Common.restarts > 0);
  check_bool "uncapped run is complete" true (free.Common.completeness = Common.Complete);
  let dpo = Flexpath.run_exn ~algorithm:Flexpath.DPO ~scheme env ~k q in
  List.iter
    (fun algorithm ->
      let r =
        Flexpath.run_exn ~algorithm ~scheme ~budget:(Guard.budget ~restart_cap:0 ()) env ~k q
      in
      let name = Flexpath.algorithm_to_string algorithm in
      check_bool (name ^ " fell back to DPO") true r.Common.degraded;
      check_bool (name ^ " fallback is complete") true
        (r.Common.completeness = Common.Complete);
      check_bool (name ^ " fallback answers match DPO") true
        (List.map answer_key r.Common.answers = List.map answer_key dpo.Common.answers))
    [ Flexpath.SSO; Flexpath.Hybrid ];
  (* A cap the run fits under changes nothing. *)
  let roomy =
    Flexpath.run_exn ~algorithm:Flexpath.SSO ~scheme
      ~budget:(Guard.budget ~restart_cap:(free.Common.restarts + 1) ())
      env ~k q
  in
  check_bool "roomy cap: no degradation" true (not roomy.Common.degraded);
  check_bool "roomy cap: same answers" true
    (List.map answer_key roomy.Common.answers = List.map answer_key free.Common.answers)

(* ------------------------------------------------------------------ *)
(* Capacity: the executor's closure limit is a typed error, not a
   crash. *)

let test_capacity_error () =
  let env = Lazy.force article_env in
  (* A 12-step path closes into 11 parent-child + 66 ancestor-descendant
     scored predicates — past the executor's 62-bit score mask. *)
  let q = Xpath.parse_exn "//a/b/c/d/e/f/g/h/i/j/k/l" in
  match Flexpath.run env ~k:5 q with
  | Ok _ -> Alcotest.fail "expected a capacity error"
  | Error (Error.Capacity { what = _; limit; actual }) ->
    check_int "limit is the scored-predicate capacity" Joins.Exec.max_scored_preds limit;
    check_bool "actual exceeds the limit" true (actual > limit);
    check_int "capacity errors are internal-limit failures (exit 1)" 1
      (Error.exit_code (Error.Capacity { what = ""; limit; actual }))
  | Error e -> Alcotest.failf "expected Capacity, got %s" (Error.to_string e)

(* The planner refuses the same query before building its chain: a
   relaxation chain no evaluation could use is never paid for. *)
let test_capacity_before_planning () =
  let env = Lazy.force article_env in
  let q = Xpath.parse_exn "//a/b/c/d/e/f/g/h/i/j/k/l" in
  match Common.build_plan env q with
  | _ -> Alcotest.fail "expected Capacity_exceeded from build_plan"
  | exception Joins.Exec.Capacity_exceeded { limit; actual; _ } ->
    check_int "limit" Joins.Exec.max_scored_preds limit;
    check_int "11 pc + 66 ad scored predicates" 77 actual

(* ------------------------------------------------------------------ *)
(* Fault injection: every registered point surfaces as Error.Fault. *)

let with_failpoint point f =
  (match Failpoint.activate point with
  | Ok () -> ()
  | Error e -> Alcotest.failf "cannot activate %s: %s" point e);
  Fun.protect ~finally:Failpoint.reset f

let test_query_failpoints () =
  let env = Lazy.force article_env in
  let q = Xpath.parse_exn q1_str in
  List.iter
    (fun point ->
      with_failpoint point (fun () ->
          List.iter
            (fun algorithm ->
              match Flexpath.run ~algorithm env ~k:5 q with
              | Error (Error.Fault p) -> check_string ("fault point via run") point p
              | Ok _ -> Alcotest.failf "%s: fault did not fire" point
              | Error e ->
                Alcotest.failf "%s: expected Fault, got %s" point (Error.to_string e))
            Flexpath.all_algorithms))
    [ "exec.compile"; "exec.run"; "exec.stage"; "chain.build" ]

let test_env_failpoints () =
  List.iter
    (fun point ->
      with_failpoint point (fun () ->
          match Env.of_string "<a><b>text</b></a>" with
          | Error (Error.Fault p) -> check_string "fault point via of_string" point p
          | Ok _ -> Alcotest.failf "%s: fault did not fire" point
          | Error e -> Alcotest.failf "%s: expected Fault, got %s" point (Error.to_string e)))
    [ "env.make"; "index.build" ]

let test_failpoint_registry () =
  (* Unknown names are rejected, not silently armed. *)
  check_bool "unknown point rejected" true (Result.is_error (Failpoint.activate "no.such"));
  check_bool "nothing armed" true (Failpoint.active () = []);
  (* Activation is visible and reversible. *)
  with_failpoint "exec.run" (fun () ->
      check_bool "armed point listed" true (Failpoint.is_active "exec.run");
      Failpoint.deactivate "exec.run";
      check_bool "deactivated" false (Failpoint.is_active "exec.run");
      (* A disarmed point is free to pass. *)
      Failpoint.hit "exec.run");
  check_bool "reset disarms" true (Failpoint.active () = []);
  (* Every catalog point can be armed. *)
  List.iter
    (fun p -> check_bool ("catalog point " ^ p) true (Result.is_ok (Failpoint.activate p)))
    Failpoint.catalog;
  check_int "all armed" (List.length Failpoint.catalog) (List.length (Failpoint.active ()));
  Failpoint.reset ()

(* Counted arming: [activate_n p n] fires exactly [n] times, then the
   point disarms itself.  This is what keeps the loss-injection points
   ([worker_wedge], [worker_die]) from also wedging every replacement
   worker the supervisor spawns. *)
let test_counted_arming () =
  (match Failpoint.activate_n "exec.run" 2 with
  | Ok () -> ()
  | Error msg -> Alcotest.fail msg);
  check_bool "unknown names rejected" true (Result.is_error (Failpoint.activate_n "no.such" 1));
  let fires p = match Failpoint.hit p with () -> false | exception Failpoint.Injected _ -> true in
  check_bool "first hit fires" true (fires "exec.run");
  check_bool "still armed after one of two" true (Failpoint.is_active "exec.run");
  check_bool "second hit fires" true (fires "exec.run");
  check_bool "exhausted point self-disarms" false (Failpoint.is_active "exec.run");
  check_bool "third hit passes" false (fires "exec.run");
  (* Re-arming replaces the remaining count rather than accumulating. *)
  (match Failpoint.activate_n "exec.run" 5 with Ok () -> () | Error m -> Alcotest.fail m);
  (match Failpoint.activate_n "exec.run" 1 with Ok () -> () | Error m -> Alcotest.fail m);
  check_bool "re-armed count fires" true (fires "exec.run");
  check_bool "and is spent" false (fires "exec.run");
  (* Plain [activate] stays unlimited. *)
  (match Failpoint.activate "exec.run" with Ok () -> () | Error m -> Alcotest.fail m);
  check_bool "unlimited fires" true (fires "exec.run");
  check_bool "unlimited keeps firing" true (fires "exec.run");
  Failpoint.reset ()

(* After a fault fired, the engine is not poisoned: the same query
   succeeds once the point is disarmed. *)
let test_fault_then_recover () =
  let env = Lazy.force article_env in
  let q = Xpath.parse_exn q1_str in
  with_failpoint "exec.run" (fun () ->
      check_bool "fault fires" true (Result.is_error (Flexpath.run env ~k:5 q)));
  match Flexpath.run env ~k:5 q with
  | Ok r -> check_bool "recovered: answers flow again" true (r.Common.answers <> [])
  | Error e -> Alcotest.failf "did not recover: %s" (Error.to_string e)

(* ------------------------------------------------------------------ *)
(* Malformed XML: structured errors with positions, never exceptions. *)

let test_malformed_xml_corpus () =
  let cases =
    [
      ("unclosed tag", "<a>\n  <b></a>", 2, 9, "mismatched closing tag: expected </b>, got </a>");
      ("bad entity", "<a>&nosuch;</a>", 1, 12, "unknown entity &nosuch;");
      ("truncated input", "<a><b>text", 1, 11, "unterminated element <b>");
      ("non-element root", "hello", 1, 1, "expected document element");
      ("empty input", "", 1, 1, "expected document element");
      ("two roots", "<a/><b/>", 1, 5, "trailing content after document element");
    ]
  in
  List.iter
    (fun (name, input, line, column, message) ->
      match Env.of_string input with
      | Ok _ -> Alcotest.failf "%s: accepted malformed input" name
      | Error (Error.Xml_error e) ->
        check_int (name ^ ": line") line e.line;
        check_int (name ^ ": column") column e.column;
        check_string (name ^ ": message") message e.message;
        check_int (name ^ ": parse errors exit 2") 2 (Error.exit_code (Error.Xml_error e))
      | Error e -> Alcotest.failf "%s: expected Xml_error, got %s" name (Error.to_string e))
    cases

let test_missing_file_is_io_error () =
  match Env.of_file "/no/such/flexpath-test-file.xml" with
  | Ok _ -> Alcotest.fail "accepted a missing file"
  | Error (Error.Io_error _) -> ()
  | Error e -> Alcotest.failf "expected Io_error, got %s" (Error.to_string e)

let test_query_error_offsets () =
  let env = Lazy.force article_env in
  (match Flexpath.top_k_xpath env ~k:3 "//[" with
  | Error (Error.Query_error { offset; _ }) -> check_int "offset points at the hole" 2 offset
  | Error e -> Alcotest.failf "expected Query_error, got %s" (Error.to_string e)
  | Ok _ -> Alcotest.fail "accepted a malformed query");
  (* An FTExp error inside a predicate is rebased into the whole query
     string. *)
  match Flexpath.top_k_xpath env ~k:3 "//article[.contains(\"a\" and)]" with
  | Error (Error.Query_error { offset; _ }) ->
    check_bool "offset is inside the contains(...)" true (offset > 10)
  | Error e -> Alcotest.failf "expected Query_error, got %s" (Error.to_string e)
  | Ok _ -> Alcotest.fail "accepted a malformed full-text expression"

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "faults"
    [
      ( "budget",
        [
          Alcotest.test_case "step budget truncates soundly" `Quick test_step_budget_truncates;
          Alcotest.test_case "tuple budget keeps completed passes" `Quick
            test_tuple_budget_truncates;
          Alcotest.test_case "hopeless budgets never raise" `Quick
            test_hopeless_budgets_never_raise;
        ] );
      ( "fallback",
        [ Alcotest.test_case "restart cap degrades to DPO" `Quick test_restart_cap_degrades ] );
      ( "errors",
        [
          Alcotest.test_case "closure capacity is typed" `Quick test_capacity_error;
          Alcotest.test_case "capacity refused before planning" `Quick test_capacity_before_planning;
          Alcotest.test_case "malformed XML corpus" `Quick test_malformed_xml_corpus;
          Alcotest.test_case "missing file" `Quick test_missing_file_is_io_error;
          Alcotest.test_case "query error offsets" `Quick test_query_error_offsets;
        ] );
      ( "failpoints",
        [
          Alcotest.test_case "query-path points" `Quick test_query_failpoints;
          Alcotest.test_case "env-build points" `Quick test_env_failpoints;
          Alcotest.test_case "registry" `Quick test_failpoint_registry;
          Alcotest.test_case "counted arming" `Quick test_counted_arming;
          Alcotest.test_case "fault then recover" `Quick test_fault_then_recover;
        ] );
    ]
