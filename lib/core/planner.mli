(** Cost-based adaptive strategy planner — EXPLAIN for constraints.

    The paper's thresholding strategy is a one-bit planner: always try
    the BDD pipeline and fall back to SQL when the node budget trips,
    paying the abandoned-attempt cost ([Checker.result.bdd_overhead_ms])
    every time.  This module chooses {e before} paying: per-strategy
    cost estimates from index statistics (entry node counts, block
    widths / domain sizes, sat-counts, table cardinalities) are blended
    with measured per-constraint history (an EWMA of elapsed ms per
    method), and the cheaper side wins.

    Online learning closes the loop ({!observe}): a constraint that
    keeps tripping the budget ([trip_demote] consecutive trips) is
    planned straight to SQL; one whose watched data shrank well below
    what tripped the budget is re-promoted (the trip evidence is
    forgotten and the model re-decides); and a deterministic ε-probe
    re-runs the guarded BDD pipeline every [probe_every]-th execution
    of an SQL-demoted constraint so its BDD-side estimate never goes
    stale.

    Plans are cached per constraint and invalidated by
    {!Index.t.structure_version} bumps, by size drift beyond
    [drift_band], and by decision flips detected during feedback.
    Telemetry counters: [planner.hit], [planner.miss], [planner.probe],
    [planner.replans].

    The module also hosts the Kenig–Suciu-direction implication check
    used for register-time dedup: an FD syntactically entailed by
    already-registered FDs (reflexivity / augmentation / transitivity
    closure) can be skipped while its entailers hold ({!entails}). *)

(** {1 Plans} *)

type choice = Use_bdd | Use_sql

val choice_name : choice -> string
(** ["BDD"] / ["SQL"]. *)

type node = {
  op : string;  (** operator, e.g. ["bdd-pipeline"], ["index-scan"] *)
  detail : string;
  est_ms : float;
  actual_ms : float option;  (** last measured cost, when history has one *)
  chosen : bool;  (** on the branch the plan executes *)
  children : node list;
}
(** One node of the costed plan tree ({!render} prints it
    EXPLAIN-VERBOSE-style). *)

type plan = {
  choice : choice;
  strategy : Checker.strategy;
      (** what to hand {!Checker.check_spec}: [Auto] (budget-guarded
          BDD) for [Use_bdd] and probes, [Force_sql] for [Use_sql] *)
  est_bdd_ms : float;  (** blended estimate of the BDD side *)
  est_sql_ms : float;  (** blended estimate of the SQL side *)
  cost_ms : float;
      (** estimate of the chosen side — the pool-ordering key *)
  reason : string;  (** why this choice, for EXPLAIN output *)
  probe : bool;  (** an ε-probe execution, not a steady-state choice *)
  tree : node;  (** root: the constraint; children: both strategies *)
}

(** {1 The planner} *)

type config = {
  ewma_alpha : float;  (** weight of the newest measurement (default 0.3) *)
  trip_demote : int;
      (** consecutive budget trips before a constraint is planned
          straight to SQL regardless of estimates (default 2) *)
  probe_every : int;
      (** every n-th execution of an SQL-demoted constraint re-probes
          the guarded BDD pipeline (default 16) *)
  drift_band : float;
      (** cached plans survive size drift within a factor of this;
          shrinking below [1/drift_band] also forgets trip evidence —
          the re-promotion rule (default 2.0) *)
}

val default_config : config

type t

val create : ?config:config -> unit -> t

val config : t -> config

val plan : t -> Index.t -> Formula.spec -> plan
(** The plan for one constraint spec: cached when the index structure
    and data size are unchanged, recomputed (and re-cached) otherwise.
    Specs are keyed by their printed form ({!Formula.spec_to_string}),
    so equal specs share history.  A soft spec's [Force_sql] engine
    is the naive recount (there is no SQL rate query), so a soft spec
    is planned to [Use_sql] only by trip demotion, never on estimated
    cost. *)

val observe : t -> Formula.spec -> Checker.result -> unit
(** Feed a measured result back: updates the per-method EWMAs and trip
    counts, and drops the cached plan when the evidence now favours
    the other strategy.  A budget-tripping fallback charges the BDD
    side the {e full} price actually paid (abandoned attempt +
    fallback). *)

val invalidate : t -> unit
(** Drop every cached plan (history survives). *)

type stats = { hits : int; misses : int; probes : int; replans : int }

val stats : t -> stats

(** {1 Cost model}

    Exposed for the property tests.  Both estimates are monotone in
    their statistics: the BDD side in entry node count and block width
    (domain size), the SQL side in table cardinality. *)

type stats_memo
(** Cache of per-entry BDD statistics (node counts, sat-counts) keyed
    by [(structure_version, root)] — both walk the entry BDD, so the
    planner memoizes them; a real entry change changes the root
    (hash-consing) and retires the stale key. *)

val stats_memo : unit -> stats_memo
(** A fresh, empty cache (the planner carries its own internally). *)

val estimate_bdd_ms : ?memo:stats_memo -> Index.t -> Formula.t -> float
(** Model-only estimate (no history) of the guarded BDD pipeline.
    Bare calls recount the entry statistics every time. *)

val estimate_sql_ms : Index.t -> Formula.t -> float
(** Model-only estimate (no history) of the SQL violation query. *)

(** {1 Rendering} *)

val render : plan -> string
(** Multi-line EXPLAIN-VERBOSE-style text: header (choice + reason),
    then the plan tree with estimated and last-actual cost per node. *)

val plan_json : plan -> Fcv_util.Telemetry.json
(** The same plan as JSON (the [explain] protocol op's payload). *)

(** {1 FD implication} *)

type fd = { table : string; lhs : string list; rhs : string }

val fd_of : Fcv_relation.Database.t -> Formula.t -> fd option
(** The FD shape of a formula, via {!Fd_check.recognize_fd}. *)

val entails : by:(int * fd) list -> fd -> int list option
(** [entails ~by fd] is [Some ids] when [fd] is in the Armstrong
    closure (reflexivity / augmentation / transitivity) of the FDs in
    [by] on the same table — [ids] are the entailing constraints
    actually used ([[]] for a reflexive FD, which holds vacuously).
    [None] when not entailed.  Soundness of skipping: whenever every
    FD in [ids] holds on the current data, [fd] holds too. *)
