(** The end-to-end constraint checker: typing → §4.4 rewrites →
    compilation to BDD operations over the logical indices → O(1)
    verdict off the final BDD — falling back to the SQL violation
    query (or, outside the safe fragment, the naive evaluator) when
    the node budget trips. *)

type method_used = Bdd | Sql | Naive

val method_name : method_used -> string

type strategy =
  | Auto
      (** the paper's thresholding: try the BDD pipeline, fall back to
          the BDD-free engine when the node budget trips *)
  | Force_sql
      (** straight to the BDD-free engine, paying no abandoned BDD
          attempt: the SQL violation query for a hard spec (naive
          evaluator outside the safe fragment), the naive recount for
          a soft one *)

val strategy_name : strategy -> string

type outcome = Satisfied | Violated

type rate = {
  violations : Fcv_bdd.Nat.t;  (** bindings falsifying the body *)
  total : Fcv_bdd.Nat.t;  (** bindings satisfying the hypothesis *)
  ratio : float;  (** violations / total; [0.] when [total] is zero *)
  threshold : float;
}
(** The measured violation rate of a soft (thresholded) check.  The
    counts are exact ({!Fcv_bdd.Nat}); [ratio] is their correctly
    rounded float quotient, for display — the verdict itself never
    goes through float arithmetic. *)

type result = {
  outcome : outcome;
  method_used : method_used;
  elapsed_ms : float;
  bdd_overhead_ms : float;
      (** cost of the abandoned BDD attempt when a fallback ran — the
          paper's "constant overhead" of the thresholding strategy *)
  fallback_ms : float;
      (** time spent in the fallback engine after a budget trip; [0.]
          when no trip occurred — in particular [0.] when the SQL path
          was chosen up-front ([Force_sql]), which pays neither the
          abandoned attempt nor a "fallback" *)
  rewritten : Formula.t;
  rate : rate option;
      (** measured violation rate; [Some] exactly on soft checks
          ({!check_spec} with threshold < 1), [None] on every hard
          check *)
}

type polarity = Direct | Violation
(** [Violation] (default) compiles {!Rewrite.violation} of the
    matrix (nnf(¬matrix), ∀ pushed down, single-atom variables
    projected) and tests unsatisfiability — negation sits on small
    sparse atom BDDs and ∧ short-circuits.  [Direct] compiles the
    matrix and tests validity. *)

type pipeline = {
  rewrite : Formula.t -> Rewrite.check * Formula.t;
  use_appquant : bool;
  polarity : polarity;
  use_fd_fast_path : bool;
      (** route FD-shaped constraints to {!Fd_check.fd_holds} (the
          Fig. 5(b) projection-count method) instead of compiling the
          self-join *)
}

val default_pipeline : pipeline
(** Full §4.4 rewrites, fused quantifiers, violation polarity. *)

val direct_pipeline : pipeline
(** Full rewrites, direct validity test (polarity ablation). *)

val naive_pipeline : pipeline
(** No rewrites, unfused quantifiers (rewrite ablation). *)

val clears :
  threshold:float -> violations:Fcv_bdd.Nat.t -> total:Fcv_bdd.Nat.t -> bool
(** Exact threshold test: does the satisfied fraction
    [(total − violations) / total] reach [threshold]?  The threshold
    is read off its float representation as a dyadic rational P/2^k
    and the comparison runs entirely in {!Fcv_bdd.Nat} arithmetic — a
    near-threshold count cannot round across the verdict boundary.  A
    zero [total] holds vacuously. *)

val check_spec :
  ?pipeline:pipeline -> ?strategy:strategy -> Index.t -> Formula.spec -> result
(** Check one constraint spec — the only check route.  Every mentioned
    relation needs a covering index ({!ensure_indices}).  Hard and
    soft specs take the same route and differ only in what each engine
    measures:

    - the BDD engine, under the node budget: on an indexed FD the
      projection-count method ({!Fd_check.fd_holds} /
      {!Fd_check.fd_soft_counts}); otherwise the compiled verdict
      (hard) or exact counts over the violation BDD
      ({!Violations.soft_counts}, soft);
    - the BDD-free engine: the SQL violation query (hard; the naive
      evaluator outside the safe fragment) or the naive recount
      ({!Naive_eval.soft_counts}, soft).

    [strategy] (default [Auto]) picks the engine: the planner
    ({!Planner}) passes [Force_sql] for constraints it expects to trip
    the budget, skipping the abandoned BDD attempt.  Under [Auto] a
    budget trip anywhere in the BDD attempt, FD fast path included,
    goes once to the BDD-free engine.  Soft specs compare the
    satisfied fraction against the threshold in arbitrary precision
    ({!clears}) and report it in [result.rate]; hard specs report
    [rate = None].  Verdicts are strategy-independent.
    @raise Invalid_argument on open formulas.
    @raise Typing.Type_error on ill-typed constraints. *)

val check : ?pipeline:pipeline -> ?strategy:strategy -> Index.t -> Formula.t -> result
(** {!check_spec} on the constraint's hard spec ({!Formula.hard}). *)

val check_all :
  ?pipeline:pipeline ->
  ?jobs:int ->
  ?strategies:strategy list ->
  Index.t ->
  Formula.spec list ->
  result list
(** Check a batch, in order.  [jobs > 1] (default 1) fans out over a
    transient pool of worker domains, each with a private replica of
    [index] ({!Replica}), one task per constraint claimed in input
    order ({!check_all_pooled} with no costs); verdicts are identical
    to the sequential run.  Singleton and empty batches always run
    sequentially.
    [strategies] gives one {!strategy} per constraint (default all
    [Auto]).
    @raise Invalid_argument if [strategies] has the wrong length. *)

val check_all_pooled :
  ?pipeline:pipeline ->
  ?costs:float option list ->
  ?strategies:strategy list ->
  pool:Fcv_util.Pool.t ->
  Replica.t ->
  Formula.spec list ->
  result list
(** [check_all] against a caller-owned pool and replica set — the
    long-running form (server, monitor) that amortises worker spawn
    and replica hydration across batches.  Every mentioned relation
    must already be indexed in the replica master; {!Replica.prepare}
    runs first.  Workers copy the master or replay its row journal
    while the batch runs: from {!Replica.prepare} until every task has
    settled, the calling domain blocks in the pool and neither mutates
    nor walks the master.

    Each constraint is one task, claimed through the pool's atomic
    cursor ({!Fcv_util.Pool.run_ordered}) most expensive first by
    [costs] (milliseconds, from the caller's planner or measured
    history).  A [None] cost means "not measured": those tasks run
    before every costed one, in input order, and ties keep input
    order.  Costs only order the work; verdicts are identical to the
    sequential run.  [strategies] gives one {!strategy} per
    constraint (default all [Auto]).  Results come back in input
    order; if a check raised, the first failure in input order is
    re-raised after every task has settled.
    @raise Invalid_argument if [costs] or [strategies] is given with
    the wrong length. *)

val ensure_indices : ?strategy:Ordering.strategy -> Index.t -> Formula.t list -> unit
(** Build missing full-attribute indices for every mentioned relation
    (default strategy: Prob-Converge, the paper's recommendation). *)

val check_sql : Fcv_relation.Database.t -> Formula.t -> outcome * float
(** The SQL-only baseline: translate to the violation query, run it,
    report the verdict and elapsed milliseconds. *)
