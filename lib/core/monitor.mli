(** Continuous constraint validation over a dynamic database: register
    constraints once, stream updates through the logical indices, and
    re-validate lazily.

    Staleness is per constraint.  {!add} files each atom occurrence of
    the constraint's violation form (the NNF of its negation, each bound
    variable of a one-atom quantifier read as a wildcard) under its
    table, with its constant positions and, for a hard constraint, its
    blockers: the literals over other tables beside it, as a conjunct or
    a disjunct, on its path to the root.  An {!insert} or {!delete} that
    changed a row marks a constraint stale when an occurrence over that
    table has constants the row carries (its code at each constant
    position is the code the column's dictionary gives the constant now)
    and no blocker fires.  Each blocker is decided by one existence test
    on its table at the row's codes and the literal's constants: when no
    row matches, a positive literal is false at every extension of the
    row's binding and a negated one true; when the fully fixed row is
    present (wildcards aside), the converse; otherwise it is undecided.
    A conjunct fires when false, a disjunct when true, and a literal
    over the row's own table never fires, as the mutation changes it
    too.  A soft constraint's rate counts the hypothesis, which a
    blocker above it does not protect, so soft constraints mark by
    constants alone.  {!validate} re-checks a constraint only when it
    was never checked, was marked stale, or a dictionary behind a
    column of one of its tables grew since the last completed pass —
    quantifiers range over whole dictionaries, so a code interned
    through another table can flip a verdict that no changed row
    reached.

    With [jobs > 1] a pass pools its stale batch only when the pool
    pays for itself: when the batch's measured sequential cost W (the
    sum of its constraints' mean check times on the calling domain)
    exceeds P plus the pooled span (the longest of W / jobs and the
    batch's dearest check).  P is the pool's fixed cost: a cold start
    priced from the store's size, which each pooled pass after the one
    that started the pool moves a quarter of the way to its own wall
    time minus its span. *)

type registered = {
  id : int;
  source : string;
  formula : Formula.t;
  threshold : float;
      (** verdict threshold; [1.0] = hard (classical), values in
          (0, 1) make the constraint soft — satisfied while the
          satisfied fraction of bindings stays ≥ threshold *)
  tables : string list;
  mutable last_outcome : Checker.outcome option;
  mutable last_rate : Checker.rate option;
      (** measured rate of the last fresh soft check; [None] for hard
          constraints and never-checked soft ones *)
  mutable checks_run : int;  (** fresh checks run on the calling domain *)
  mutable checks_skipped : int;  (** passes that kept its cached verdict *)
  mutable total_check_ms : float;
      (** cumulative time of those checks: the measured sequential cost
          the pool gate of {!validate} reads (a check run on a pool
          worker counts in neither field) *)
  mutable entailed_by : int list option;
      (** register-time implication dedup (Kenig–Suciu direction):
          [Some ids] when this FD is in the Armstrong closure of the
          other registered FDs — validation may settle it as satisfied
          whenever every entailer currently holds *)
}

(** Validation strategy selection: [Planned] (default) consults the
    {!Planner} per constraint and learns from every result; [Forced s]
    pins one strategy for every constraint (ablations, benchmarks) —
    [Forced Auto] is the paper's blind try-BDD-first thresholding. *)
type planning = Planned | Forced of Checker.strategy

type t

val create :
  ?pipeline:Checker.pipeline ->
  ?planning:planning ->
  ?gc:Lifecycle.policy option ->
  Index.t ->
  t
(** [gc] is the automatic-reclamation policy run between validations
    (default {!Lifecycle.default_policy}; [None] disables). *)

val index : t -> Index.t

val planner : t -> Planner.t

val planning : t -> planning

val set_planning : t -> planning -> unit

val jobs : t -> int
(** The recorded validation width (1 = sequential, the default),
    whether or not a pool has started. *)

val set_jobs : t -> int -> unit
(** Let validation use up to [n] worker domains.  Only the width is
    recorded: the first {!validate} pass that pays for a pool starts
    one, whose workers each hold a private replica of the index store,
    refreshed lazily after updates.  A changed width (and {!stop})
    joins a started pool; values [<= 1] validate on the calling
    domain.  Verdicts are identical either way. *)

val stop : t -> unit
(** [set_jobs t 1]: join the worker domains if a pool started (a
    monitor whose pool never started has none to join); the monitor
    stays usable sequentially. *)

val constraints : t -> registered list
(** The registered constraints, oldest first. *)

val add : ?id:int -> t -> string -> registered
(** Register a constraint (concrete syntax, optionally prefixed
    [holds >= p .] for a soft constraint); builds missing indices.
    [id] pins the assigned id (recovery re-registers constraints under
    their original ids); fresh ids stay above any pinned one.
    @raise Fol_parser.Error / Typing.Type_error / Invalid_argument
    ([Invalid_argument] for a taken [id], before any index is built). *)

val remove : t -> int -> unit
(** Unregister; index entries on tables no remaining constraint
    watches are dropped too (the next GC reclaims their nodes) and
    replicas are invalidated. *)

val maybe_gc : t -> Lifecycle.action
(** Run the automatic-reclamation policy once (also runs at the start
    of every {!validate}).  Safe only between checks. *)

val gc : t -> int
(** Reclaim memory now — level recycle if needed, else GC; replicas
    are invalidated only by the recycle (a content-preserving compact
    is invisible to them).  Returns nodes reclaimed.  Backs the
    [compact] protocol op. *)

val mark_dirty : t -> string -> unit
(** Mark stale every constraint with an atom over the table, without
    changing it: the next {!validate} re-checks each of them (what
    [fcv explain --warm] does before each pass). *)

val insert : t -> table_name:string -> int array -> unit
(** Rows are coded [int array]s.  Marks stale the constraints with an
    occurrence over the table whose constants the row carries and whose
    blockers let the change through; the existence tests of one
    mutation make at most one pass over each table they read.  Once a
    pass has started the pool, the mutation is delta-noted to its
    replica set ({!Replica.note_insert}) rather than invalidating it:
    the next pooled pass catches workers up by replaying the row ops
    instead of copying the master. *)

val delete : t -> table_name:string -> int array -> bool
(** Delete one occurrence of a coded row; [false] when it was absent.
    A removed row marks stale as {!insert} does; an absent one marks
    nothing. *)

val replica_stats : t -> Replica.stats option
(** Hydration-mode telemetry of the worker replica set ([None] until a
    pass starts the pool): how many worker refreshes were cheap delta
    catch-ups versus copies of the master. *)

type pool_stats = {
  started : bool;  (** a pass has started the pool *)
  pooled_passes : int;  (** passes whose stale batch ran on the pool *)
  sequential_passes : int;
      (** passes whose non-empty stale batch ran on the calling domain *)
  price_ms : float;  (** P, the fixed cost the next pooled pass is priced at *)
}

val pool_stats : t -> pool_stats
(** The pool gate's state; field reads only. *)

type report = {
  constraint_ : registered;
  outcome : Checker.outcome;
  fresh : bool;  (** false when a cached verdict was still valid *)
  elapsed_ms : float;
  rate : Checker.rate option;
      (** the soft constraint's measured (or cached) rate; [None] for
          hard constraints *)
}

val validate : t -> report list
(** Re-check each constraint that was never checked, was marked stale,
    or has a dictionary behind one of its tables' columns that grew
    since the last completed pass; reuse the cached verdict of every
    other.  Stale hard and soft constraints run as one batch through
    {!Checker.check_spec}.  With [jobs > 1] the batch is pooled when
    every constraint in it has been checked on this monitor before and
    its measured cost W exceeds P plus its pooled span (see the top of
    this interface); the first such pass starts the pool.  Every input
    of that decision is a field read.  Under [Planned] the
    planner chooses each strategy, planned costs order the parallel
    pool, results feed the planner back, and a stale hard FD entailed
    by currently-holding hard FDs is settled as satisfied without a
    check ([fresh = false]).  Soft constraints never participate in
    entailment.  Stale flags and recorded dictionary sizes reset only
    when a pass completes, so the pass after one that raised re-checks
    what it left unchecked. *)

val violated : t -> registered list

val verdicts : t -> (int * Checker.outcome) list
(** Validate and return just [(id, outcome)] pairs sorted by id — the
    extensional verdict set the differential and fault-injection
    harnesses compare across configurations and crash recoveries. *)

val explain : t -> int -> (registered * Planner.plan) option
(** The costed plan tree for one registered constraint (the [explain]
    protocol op and [fcv explain]); [None] for unknown ids. *)
