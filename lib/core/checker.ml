(** The constraint checker: the paper's end-to-end pipeline.

    Given a constraint and a database with logical indices:

    + typecheck ({!Typing});
    + apply the §4.4 rewrite pipeline ({!Rewrite.optimize}): prenex →
      leading-quantifier elimination → ∀ push-down;
    + under the violation polarity, build the violation form of a
      validity matrix ({!Rewrite.violation}): its negation with ∀
      pushed down again, and every variable that occurs once, in one
      atom, compiled as a wildcard on a projection of the relation;
    + compile that formula to a BDD over the indices ({!Compile}),
      under the manager's {b node budget};
    + read the answer off the final BDD in O(1): validity or
      satisfiability relative to the free variables' domain guards;
    + if the budget is exceeded ({!Fcv_bdd.Manager.Node_limit}),
      abandon BDD processing and run the SQL violation query
      ({!To_sql}) — or, outside the safe-SQL fragment, the naive
      evaluator ({!Naive_eval}).

    A soft spec ([holds >= p]) takes the same route and measures
    exact violation counts instead of a verdict ({!check_spec}). *)

module M = Fcv_bdd.Manager
module O = Fcv_bdd.Ops
module T = Fcv_util.Telemetry

type method_used = Bdd | Sql | Naive

let method_name = function Bdd -> "BDD" | Sql -> "SQL" | Naive -> "naive"

(** How to check: [Auto] is the paper's thresholding (BDD first, the
    BDD-free engine on budget trip); [Force_sql] goes straight to the
    BDD-free engine, paying no abandoned attempt. *)
type strategy = Auto | Force_sql

let strategy_name = function Auto -> "auto" | Force_sql -> "sql"

type outcome = Satisfied | Violated

(** The measured violation rate of a soft (thresholded) check.  The
    counts are exact ({!Fcv_bdd.Nat}); [ratio] is their correctly
    rounded float quotient, for display — the verdict itself never
    goes through float arithmetic. *)
type rate = {
  violations : Fcv_bdd.Nat.t;  (** bindings falsifying the body *)
  total : Fcv_bdd.Nat.t;  (** bindings satisfying the hypothesis *)
  ratio : float;  (** violations / total; [0.] when [total] is zero *)
  threshold : float;
}

type result = {
  outcome : outcome;
  method_used : method_used;
  elapsed_ms : float;
  bdd_overhead_ms : float;
      (** time spent on the abandoned BDD attempt when a fallback ran *)
  fallback_ms : float;
      (** time spent in the fallback engine after a budget trip; [0.]
          when no trip occurred (in particular on the up-front
          [Force_sql] path) *)
  rewritten : Formula.t;  (** the formula whose BDD was (to be) built *)
  rate : rate option;
      (** measured violation rate; [Some] exactly on soft checks
          ({!check_spec} with threshold < 1), [None] on every hard
          check *)
}

(** How the final test is phrased.  [Violation] compiles the {e
    negation} of the validity matrix, as {!Rewrite.violation} forms it,
    and tests unsatisfiability: negations then sit on the (small,
    sparse) atom BDDs and conjunctions short-circuit, instead of
    negating large dense intermediates, and single-atom variables are
    projected out of their atoms — this is also operationally the
    paper's framing ("identify whether the constraint is violated").
    [Direct] compiles the matrix as-is and tests validity. *)
type polarity = Direct | Violation

type pipeline = {
  rewrite : Formula.t -> Rewrite.check * Formula.t;
  use_appquant : bool;
  polarity : polarity;
  use_fd_fast_path : bool;
      (** route FD-shaped constraints to the projection-count method
          (the paper's Fig. 5(b) technique) instead of compiling the
          self-join *)
}

(** The paper's full pipeline. *)
let default_pipeline =
  {
    rewrite = Rewrite.optimize;
    use_appquant = true;
    polarity = Violation;
    use_fd_fast_path = true;
  }

(** Same rewrites, but the direct validity test (for the polarity
    ablation). *)
let direct_pipeline = { default_pipeline with polarity = Direct }

(** Ablation: skip every rewrite (build the BDD of the closed formula
    and test validity) and use unfused quantification. *)
let naive_pipeline =
  {
    rewrite = Rewrite.no_rewrite;
    use_appquant = false;
    polarity = Direct;
    use_fd_fast_path = false;
  }

(* Decide the outcome from the final BDD.  With leading quantifiers
   eliminated, the matrix has free variables; the test is relative to
   their domain guards (invalid bit patterns are out of scope). *)
let read_answer ctx check root free =
  let m = Compile.mgr ctx in
  match check with
  | Rewrite.Check_valid ->
    let guard = Compile.free_guard ctx free in
    if O.is_true (O.bimp m guard root) then Satisfied else Violated
  | Rewrite.Check_satisfiable ->
    let guard = Compile.free_guard ctx free in
    if O.is_satisfiable (O.band m guard root) then Satisfied else Violated

let free_of f = Formula.Sset.elements (Formula.free_vars f)

(* Compile-and-decide under the chosen polarity. *)
let decide ctx pipeline check_mode rewritten =
  match (pipeline.polarity, check_mode) with
  | Violation, Rewrite.Check_valid ->
    (* C holds iff guard ∧ ¬matrix is unsatisfiable; the violation form
       keeps that test exact while projecting single-atom variables *)
    let violation = Rewrite.violation rewritten in
    let root = T.with_span "compile" (fun () -> Compile.compile ctx violation) in
    T.with_span "verdict" (fun () ->
        let m = Compile.mgr ctx in
        let guard = Compile.free_guard ctx (free_of violation) in
        if O.is_false (O.band m guard root) then Satisfied else Violated)
  | Violation, Rewrite.Check_satisfiable | Direct, _ ->
    let root = T.with_span "compile" (fun () -> Compile.compile ctx rewritten) in
    T.with_span "verdict" (fun () -> read_answer ctx check_mode root (free_of rewritten))

(* What an engine measured: a hard spec's verdict, or a soft spec's
   exact (violations, total) binding counts. *)
type measure = Verdict of outcome | Counts of (Fcv_bdd.Nat.t * Fcv_bdd.Nat.t)

(* 0/1 semantics for a soft spec with no leading ∀-block to count
   over: rate 1 when violated, 0 when satisfied — the outcome is the
   plain verdict for any threshold in (0, 1]. *)
let counts_of_verdict o =
  Counts ((if o = Violated then Fcv_bdd.Nat.one else Fcv_bdd.Nat.zero), Fcv_bdd.Nat.one)

(* The rewrite → compile → verdict pipeline; records the rewritten
   formula in [rewritten] before compiling. *)
let compile_verdict ~pipeline ~rewritten index c =
  let check_mode, rw = T.with_span "rewrite" (fun () -> pipeline.rewrite c) in
  rewritten := rw;
  (* the rewrite renames bound variables apart, so the compile context
     needs a typing of the rewritten formula *)
  let typing_rw = Typing.infer index.Index.db rw in
  let ctx = Compile.make_ctx ~use_appquant:pipeline.use_appquant index typing_rw in
  Fun.protect
    ~finally:(fun () -> Compile.release ctx)
    (fun () -> decide ctx pipeline check_mode rw)

(* The BDD engine, under the node budget: the FD projection-count
   method when the constraint is an indexed FD, else exact violation
   counts (soft) or the compiled verdict (hard). *)
let bdd_measure ~pipeline ~hard ~rewritten index c =
  let fd = if pipeline.use_fd_fast_path then Fd_check.covered_fd index c else None in
  match fd with
  | Some (table_name, lhs, rhs) ->
    T.with_span "fd_fast_path" (fun () ->
        if hard then
          Verdict
            (if Fd_check.fd_holds index ~table_name ~lhs ~rhs:[ rhs ] then Satisfied
             else Violated)
        else Counts (Fd_check.fd_soft_counts index ~table_name ~lhs ~rhs:[ rhs ]))
  | None when hard -> Verdict (compile_verdict ~pipeline ~rewritten index c)
  | None -> (
    match Violations.soft_counts index c with
    | Some counts -> Counts counts
    | None -> counts_of_verdict (compile_verdict ~pipeline ~rewritten index c))

(* The BDD-free engine: the SQL violation query for a hard spec (the
   naive evaluator outside the safe-SQL fragment), the naive recount
   for a soft one — there is no SQL form of the rate query. *)
let bdd_free_measure ~hard db typing c =
  if hard then
    match To_sql.violated db typing c with
    | violated -> (Verdict (if violated then Violated else Satisfied), Sql)
    | exception To_sql.Not_safe _ ->
      (Verdict (if Naive_eval.holds ~typing db c then Satisfied else Violated), Naive)
  else
    let v, t = Naive_eval.soft_counts ~typing db c in
    (Counts (Fcv_bdd.Nat.of_int v, Fcv_bdd.Nat.of_int t), Naive)

(* Post-check telemetry: per-check outcome event with the kernel-stat
   deltas (apply-cache hit rate, nodes allocated, peak) plus the
   method counters; [before] is the manager snapshot taken on entry. *)
let tel_check_done ~before ~mgr ~method_used ~outcome ~elapsed_ms ~overhead_ms =
  if T.enabled () then begin
    T.incr (T.counter "checker.checks");
    (match method_used with
    | Bdd -> ()
    | Sql -> T.incr (T.counter "checker.fallbacks.sql")
    | Naive -> T.incr (T.counter "checker.fallbacks.naive"));
    let after = M.stats mgr in
    T.observe (T.histogram "checker.elapsed_ms") elapsed_ms;
    T.event "check.done"
      [
        ("method", T.String (method_name method_used));
        ("outcome", T.String (match outcome with Satisfied -> "satisfied" | Violated -> "violated"));
        ("elapsed_ms", T.Float elapsed_ms);
        ("bdd_overhead_ms", T.Float overhead_ms);
        ("cache_hit_rate", T.Float (M.cache_hit_rate ~before after));
        ("nodes_allocated", T.Int (after.M.unique_misses - before.M.unique_misses));
        ("peak_nodes", T.Int after.M.peak_nodes);
        ("budget_trips", T.Int (after.M.budget_trips - before.M.budget_trips));
      ]
  end

let ratio_of ~violations ~total =
  if Fcv_bdd.Nat.is_zero total then 0.
  else Fcv_bdd.Nat.to_float violations /. Fcv_bdd.Nat.to_float total

(** Exact threshold test: does the satisfied fraction reach
    [threshold]?  [threshold] is read off its float representation as
    the dyadic rational P/2^k (frexp), and the comparison
    [(total − violations)·2^k ≥ P·total] runs entirely in {!Fcv_bdd.Nat}
    arithmetic — no float ever touches the counts, so a near-threshold
    count cannot round across the verdict boundary (the [2^53]
    landmine of the float sat-counts).  A zero [total] holds
    vacuously. *)
let clears ~threshold ~violations ~total =
  let module N = Fcv_bdd.Nat in
  if N.is_zero total then true
  else begin
    (* threshold = mp·2^ep with mp ∈ [0.5, 1); mp·2^53 is an integer *)
    let mp, ep = Float.frexp threshold in
    let p = N.of_int (int_of_float (Float.ldexp mp 53)) in
    let k = 53 - ep in
    let satisfied = N.sub total violations in
    N.compare (N.shift_left satisfied k) (N.mul p total) >= 0
  end

(** Check one constraint spec — the only check route.  [index]
    supplies the BDD manager, node budget and logical indices; every
    relation mentioned by the constraint must have a covering index
    (see {!ensure_indices}).  Hard and soft specs differ only in what
    each engine measures: a verdict, or exact counts compared against
    the threshold in arbitrary precision ({!clears}).  A budget trip
    anywhere in the BDD attempt goes once to the BDD-free engine. *)
let check_spec ?(pipeline = default_pipeline) ?(strategy = Auto) index
    (spec : Formula.spec) =
  let c = spec.Formula.formula in
  if not (Formula.is_closed c) then
    invalid_arg "Checker.check_spec: constraint must be a closed formula";
  let hard = Formula.is_hard spec in
  T.with_span (if hard then "check" else "check_soft") @@ fun () ->
  let mgr = Index.mgr index in
  let kstats0 = M.stats mgr in
  let db = index.Index.db in
  let typing = T.with_span "typing" (fun () -> Typing.infer_spec db spec) in
  let rewritten = ref c in
  let ms_since t = (Fcv_util.Timer.now () -. t) *. 1000. in
  let bdd_free () = T.with_span "fallback" (fun () -> bdd_free_measure ~hard db typing c) in
  let t0 = Fcv_util.Timer.now () in
  let measure, method_used, bdd_overhead_ms, fallback_ms, elapsed_ms =
    match strategy with
    | Force_sql ->
      (* planned straight to the BDD-free engine: neither an abandoned
         attempt nor a "fallback" is paid *)
      let m, method_used = bdd_free () in
      (m, method_used, 0., 0., ms_since t0)
    | Auto -> (
      match bdd_measure ~pipeline ~hard ~rewritten index c with
      | m -> (m, Bdd, 0., 0., ms_since t0)
      | exception (M.Node_limit _ | M.Level_limit _) ->
        let overhead = ms_since t0 in
        let t1 = Fcv_util.Timer.now () in
        let m, method_used = bdd_free () in
        let fallback_ms = ms_since t1 in
        if T.enabled () then
          T.event "check.fallback"
            [
              ("method", T.String (method_name method_used));
              ("bdd_overhead_ms", T.Float overhead);
              ("fallback_ms", T.Float fallback_ms);
            ];
        (m, method_used, overhead, fallback_ms, fallback_ms))
  in
  let outcome, rate =
    match measure with
    | Verdict o -> (o, None)
    | Counts (violations, total) ->
      let threshold = spec.Formula.threshold in
      ( (if clears ~threshold ~violations ~total then Satisfied else Violated),
        Some { violations; total; ratio = ratio_of ~violations ~total; threshold } )
  in
  tel_check_done ~before:kstats0 ~mgr ~method_used ~outcome ~elapsed_ms
    ~overhead_ms:bdd_overhead_ms;
  { outcome; method_used; elapsed_ms; bdd_overhead_ms; fallback_ms; rewritten = !rewritten; rate }

(** Check one closed constraint: {!check_spec} on its hard spec. *)
let check ?pipeline ?strategy index constraint_ =
  check_spec ?pipeline ?strategy index (Formula.hard constraint_)

(** Check a batch against a live pool: every relation each constraint
    mentions must already be indexed in the replica set's master, which
    workers copy.  From {!Replica.prepare} until every task settles,
    this domain blocks in the pool and neither mutates nor walks the
    master.  Results come back in input order; a failing check fails
    the whole batch, like the sequential [List.map] would.

    Each constraint is one task, claimed through the pool's atomic
    cursor ({!Fcv_util.Pool.run_ordered}) most expensive first by
    [costs] (the caller's measured milliseconds), so the
    long poles start first.  A [None] cost is not measured: those
    tasks run before every costed one, in input order. *)
let check_all_pooled ?pipeline ?costs ?strategies ~pool replica specs =
  Replica.prepare replica;
  let n = List.length specs in
  let per_spec what default = function
    | Some l when List.length l = n -> Array.of_list l
    | Some _ -> invalid_arg ("Checker.check_all_pooled: " ^ what ^ " length mismatch")
    | None -> Array.make n default
  in
  let strats = per_spec "strategies" Auto strategies in
  let costs = per_spec "costs" None costs in
  (* None sorts before Some, and negated costs put the dearest first;
     the stable sort keeps input order among ties *)
  let order = Array.init n Fun.id in
  let key i = Option.map Float.neg costs.(i) in
  Array.stable_sort (fun a b -> compare (key a) (key b)) order;
  let tasks =
    Array.mapi
      (fun i sp () -> check_spec ?pipeline ~strategy:strats.(i) (Replica.get replica) sp)
      (Array.of_list specs)
  in
  Array.to_list (Fcv_util.Pool.run_ordered pool ~order tasks)

(** Check a batch of specs (the paper's setting: many
    user-defined constraints validated together); returns results in
    order.  [jobs > 1] fans the batch out over that many worker
    domains, each checking against a private copy of [index] — worth
    it for batches whose combined check time dwarfs the copies;
    singleton or empty batches always run sequentially.  Verdicts are
    identical to the sequential run (same pipeline, same node budget,
    same fallbacks), only wall-clock differs. *)
let check_all ?pipeline ?(jobs = 1) ?strategies index specs =
  let n = List.length specs in
  (match strategies with
  | Some l when List.length l <> n ->
    invalid_arg "Checker.check_all: strategies length mismatch"
  | Some _ | None -> ());
  if jobs <= 1 || n <= 1 then begin
    let strats =
      match strategies with Some l -> Array.of_list l | None -> Array.make n Auto
    in
    List.mapi (fun i sp -> check_spec ?pipeline ~strategy:strats.(i) index sp) specs
  end
  else begin
    let pool = Fcv_util.Pool.create ~name:"check" ~jobs:(min jobs n) () in
    Fun.protect
      ~finally:(fun () -> Fcv_util.Pool.shutdown pool)
      (fun () -> check_all_pooled ?pipeline ?strategies ~pool (Replica.create index) specs)
  end

(** Make sure every relation mentioned in [constraints] has a
    full-attribute logical index, building missing ones with
    [strategy] (default Prob-Converge, the paper's recommendation). *)
let ensure_indices ?(strategy = Ordering.Prob_converge) index constraints =
  let needed =
    List.concat_map Formula.relations constraints |> List.sort_uniq compare
  in
  List.iter
    (fun rel ->
      if Index.entries_for index rel = [] then
        ignore (Index.add index ~table_name:rel ~strategy ()))
    needed

(** Check using the SQL engine only (the baseline side of every
    BDD-vs-SQL figure). *)
let check_sql db constraint_ =
  let typing = Typing.infer db constraint_ in
  let t0 = Fcv_util.Timer.now () in
  let violated = To_sql.violated db typing constraint_ in
  let elapsed_ms = (Fcv_util.Timer.now () -. t0) *. 1000. in
  ((if violated then Violated else Satisfied), elapsed_ms)
