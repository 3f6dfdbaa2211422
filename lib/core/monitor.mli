(** Continuous constraint validation over a dynamic database: register
    constraints once, stream updates through the logical indices, and
    re-validate lazily — only constraints whose tables changed since
    their last check are re-run. *)

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
  mutable checks_run : int;
  mutable checks_skipped : int;
  mutable total_check_ms : float;  (** cumulative time of fresh checks *)
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
(** Current validation parallelism (1 = sequential, the default). *)

val set_jobs : t -> int -> unit
(** Validate with [n] worker domains, each holding a private replica
    of the index store; replicas refresh lazily after updates.  Values
    [<= 1] (and {!stop}) release the pool and validate on the calling
    domain.  Verdicts are identical either way. *)

val stop : t -> unit
(** Join any worker domains; the monitor stays usable sequentially. *)

val constraints : t -> registered list
(** The registered constraints, oldest first. *)

val add : ?id:int -> t -> string -> registered
(** Register a constraint (concrete syntax, optionally prefixed
    [holds >= p .] for a soft constraint); builds missing indices.
    [id] pins the assigned id (recovery re-registers constraints under
    their original ids); fresh ids stay above any pinned one.
    @raise Fol_parser.Error / Typing.Type_error / Invalid_argument. *)

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
(** Mark a table dirty, as a mutation of it would, without changing
    it: the next {!validate} re-checks every constraint over it. *)

val insert : t -> table_name:string -> int array -> unit
(** Rows are coded [int array]s.  In parallel mode the mutation is
    delta-noted to the replica set ({!Replica.note_insert}) rather
    than invalidating it: the next validation catches workers up by
    replaying the row ops instead of rehydrating snapshots. *)

val delete : t -> table_name:string -> int array -> bool

val replica_stats : t -> Replica.stats option
(** Hydration-mode telemetry of the worker replica set ([None] when
    sequential): how many worker refreshes were cheap delta catch-ups
    versus full snapshot hydrations. *)

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
(** Check dirty constraints, reuse cached verdicts for clean ones,
    clear the dirty set.  Dirty hard and soft constraints run as one
    batch through {!Checker.check_spec}, pooled when [jobs > 1].
    Under [Planned] the planner chooses each strategy, planned costs
    order the parallel pool, results feed the planner back, and a
    dirty hard FD entailed by currently-holding hard FDs is settled as
    satisfied without a check ([fresh = false]).  Soft constraints
    never participate in entailment. *)

val violated : t -> registered list

val verdicts : t -> (int * Checker.outcome) list
(** Validate and return just [(id, outcome)] pairs sorted by id — the
    extensional verdict set the differential and fault-injection
    harnesses compare across configurations and crash recoveries. *)

val explain : t -> int -> (registered * Planner.plan) option
(** The costed plan tree for one registered constraint (the [explain]
    protocol op and [fcv explain]); [None] for unknown ids. *)
