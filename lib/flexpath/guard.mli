(** Resource governance for query execution.

    A {!budget} bounds what one top-K evaluation may consume: wall-clock
    time, tuples produced by the join executor, and relaxation steps
    (evaluation passes).  A running query carries a guard — the mutable
    runtime state of its budget — and the executor polls it
    cooperatively from its hot join loop (amortized, every 4096
    tuples, so ungoverned runs pay nothing).

    Exhausting a budget is {e not} an error: the §5 top-K algorithms
    degrade gracefully, returning the best-effort top-K collected so
    far, marked [Truncated] and accompanied by a sound bound on what any
    unreported answer could still score (see {!Common.completeness}).
    Early termination over the penalty-ordered relaxation chain is
    already part of the algorithms' soundness argument
    ({!Common.unseen_bound}); a budget merely forces the cut earlier. *)

type budget = {
  deadline_ms : float option;
      (** Elapsed-time limit from {!start}, in milliseconds, measured on
          the monotonized clock of {!Monotime} (immune to backward
          wall-clock jumps). *)
  tuple_budget : int option;
      (** Limit on tuples produced by the executor, cumulative over
          every pass of the evaluation. *)
  step_budget : int option;
      (** Limit on relaxation steps (evaluation passes) started. *)
  restart_cap : int option;
      (** SSO/Hybrid restarts allowed after an underestimated cut before
          the engine falls back to DPO's exact per-step evaluation. *)
}

val unlimited : budget

val budget :
  ?deadline_ms:float ->
  ?tuple_budget:int ->
  ?step_budget:int ->
  ?restart_cap:int ->
  unit ->
  budget

type reason = Deadline | Tuples | Steps  (** Which budget tripped first. *)

val reason_to_string : reason -> string

type t
(** A budget plus its runtime state: start time, cumulative tuple count
    and the first trip, if any.  One guard governs one evaluation
    end-to-end (all passes and restarts share it). *)

val none : t
(** The permanent unlimited guard: never trips, costs nothing. *)

val start : budget -> t
(** Arms [budget] now; the deadline counts from this call. *)

val tripped : t -> reason option
(** The first recorded trip. *)

val tuples_consumed : t -> int

val cancel_fn : t -> (int -> bool) option
(** The cooperative cancellation callback for {!Joins.Exec.run}: called
    with the number of tuples produced since the previous call, it
    accumulates them, re-checks the deadline and the tuple budget, and
    returns [true] (recording the trip) when either is exhausted.
    [None] when the guard can never trip on those axes, so the executor
    skips polling entirely. *)

val pass_allowed : t -> passes:int -> reason option
(** Checked before starting an evaluation pass: [passes] passes have
    already run.  Returns the blocking reason — a previously recorded
    trip, an exhausted step budget, a passed deadline or an exhausted
    tuple budget — or [None] to proceed.  A returned reason is
    recorded. *)

val restart_exhausted : t -> restarts:int -> bool
(** Would one more SSO/Hybrid restart exceed the cap? *)
