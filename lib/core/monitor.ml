(** Continuous constraint validation — the paper's motivating scenario
    ("databases are primarily dynamic ... being able to identify
    constraints that are violated within and across tables is highly
    important") turned into an API: register constraints once, stream
    updates through the logical indices, and re-validate lazily —
    only constraints touching tables dirtied since their last check
    are re-run. *)

module R = Fcv_relation
module M = Fcv_bdd.Manager
module T = Fcv_util.Telemetry

type registered = {
  id : int;
  source : string;  (** the constraint's concrete syntax, for reporting *)
  formula : Formula.t;
  threshold : float;
      (** verdict threshold; [1.0] = hard (classical) constraint, a
          value in (0, 1) makes the constraint soft: satisfied while
          the satisfied fraction of bindings stays ≥ threshold *)
  tables : string list;
  mutable last_outcome : Checker.outcome option;
  mutable last_rate : Checker.rate option;
      (** measured rate of the last fresh soft check; [None] for hard
          constraints and never-checked soft ones *)
  mutable checks_run : int;
  mutable checks_skipped : int;  (** skipped because no watched table changed *)
  mutable total_check_ms : float;  (** cumulative time of fresh checks *)
  mutable entailed_by : int list option;
      (** Kenig–Suciu implication dedup: [Some ids] when this FD is in
          the Armstrong closure of the other registered FDs — it can be
          skipped whenever every entailer currently holds *)
}

(** How validation picks the check engine.  [Planned] (the default)
    asks the {!Planner} per constraint and feeds results back;
    [Forced s] pins one {!Checker.strategy} for every constraint —
    [Forced Auto] is the paper's blind try-BDD-first thresholding (the
    bench baseline). *)
type planning = Planned | Forced of Checker.strategy

type t = {
  index : Index.t;
  pipeline : Checker.pipeline;
  planner : Planner.t;
  mutable planning : planning;
  mutable constraints : registered list;
      (** stored {b newest first} so registration is O(1); every
          external view reverses (see {!constraints}) *)
  mutable next_id : int;
  dirty : (string, unit) Hashtbl.t;  (** tables updated since the last validation *)
  mutable par : (Fcv_util.Pool.t * Replica.t) option;
      (** worker pool + replica set when [jobs > 1]; the pool outlives
          validations so workers and hydrated replicas are reused *)
  gc_policy : Lifecycle.policy option;
      (** [None] disables automatic reclamation; on by default *)
}

let create ?(pipeline = Checker.default_pipeline) ?(planning = Planned)
    ?(gc = Some Lifecycle.default_policy) index =
  {
    index;
    pipeline;
    planner = Planner.create ();
    planning;
    constraints = [];
    next_id = 0;
    dirty = Hashtbl.create 8;
    par = None;
    gc_policy = gc;
  }

let index t = t.index
let constraints t = List.rev t.constraints
let planner t = t.planner
let planning t = t.planning
let set_planning t p = t.planning <- p
let jobs t = match t.par with Some (p, _) -> Fcv_util.Pool.size p | None -> 1

(** Set the validation parallelism.  [jobs <= 1] (the initial state)
    validates on the calling domain; larger values keep a worker pool
    and per-worker index replicas alive across validations. *)
let set_jobs t n =
  let n = max 1 n in
  if n <> jobs t then begin
    (match t.par with Some (p, _) -> Fcv_util.Pool.shutdown p | None -> ());
    t.par <-
      (if n = 1 then None
       else Some (Fcv_util.Pool.create ~name:"monitor" ~jobs:n (), Replica.create t.index))
  end

(** Release the worker pool (if any); the monitor stays usable
    sequentially.  Call before discarding a parallel monitor so worker
    domains are joined. *)
let stop t = set_jobs t 1

let invalidate_replicas t =
  match t.par with Some (_, r) -> Replica.invalidate r | None -> ()

let spec_of r = { Formula.threshold = r.threshold; formula = r.formula }

(* Re-derive every [entailed_by] flag from the current FD set — run
   after each register/unregister, never per pass: entailment is a
   property of the constraint set, not the data.  Only {e hard} FDs
   participate: a soft FD neither entails (it may be violated below
   its threshold) nor is entailed (its rate must be measured, not
   inferred from the Armstrong closure). *)
let recompute_entailment t =
  let db = t.index.Index.db in
  let regs = constraints t in
  let fds =
    List.filter_map
      (fun r ->
        if not (Formula.is_hard (spec_of r)) then None
        else
          match Planner.fd_of db r.formula with Some fd -> Some (r, fd) | None -> None)
      regs
  in
  List.iter (fun r -> r.entailed_by <- None) regs;
  List.iter
    (fun (r, fd) ->
      let others =
        List.filter_map
          (fun (o, ofd) -> if o.id <> r.id then Some (o.id, ofd) else None)
          fds
      in
      r.entailed_by <- Planner.entails ~by:others fd)
    fds

let replica_stats t = match t.par with Some (_, r) -> Some (Replica.stats r) | None -> None

(** Register a constraint (given as concrete syntax); builds any
    missing indices.  Returns its id — the caller may pin one (WAL
    replay / snapshot recovery re-registers constraints under their
    original ids so logged [unregister] records stay valid). *)
let add ?id t source =
  let spec = Fol_parser.spec_of_string source in
  let formula = spec.Formula.formula in
  if not (Formula.is_closed formula) then
    invalid_arg "Monitor.add: constraint must be closed";
  ignore (Typing.infer_spec t.index.Index.db spec);
  (* build missing indices transactionally: if the node budget (or
     level space) trips mid-registration, entries already built for
     this registration are rolled back so the monitor is unchanged.
     Out of level space we first recycle (dense rebuild) and retry
     once — registration is between checks, so renumbering is safe. *)
  let ensure () =
    let before = t.index.Index.entries in
    try Checker.ensure_indices t.index [ formula ]
    with e ->
      t.index.Index.entries <-
        List.filter (fun e -> List.memq e before) t.index.Index.entries;
      raise e
  in
  (try ensure ()
   with M.Level_limit _ ->
     ignore (Lifecycle.recycle t.index);
     invalidate_replicas t;
     ensure ());
  let id =
    match id with
    | Some i ->
      if List.exists (fun r -> r.id = i) t.constraints then
        invalid_arg "Monitor.add: duplicate constraint id";
      t.next_id <- max t.next_id (i + 1);
      i
    | None ->
      let i = t.next_id in
      t.next_id <- i + 1;
      i
  in
  let reg =
    {
      id;
      source;
      formula;
      threshold = spec.Formula.threshold;
      tables = Formula.relations formula;
      last_outcome = None;
      last_rate = None;
      checks_run = 0;
      checks_skipped = 0;
      total_check_ms = 0.;
      entailed_by = None;
    }
  in
  t.constraints <- reg :: t.constraints;
  recompute_entailment t;
  (* ensure_indices may have built new entries *)
  invalidate_replicas t;
  reg

(** Unregister a constraint.  Index entries on tables no other
    registered constraint watches are dropped with it (their nodes
    become dead and the next GC reclaims them) and replicas are
    invalidated — a long-running server must not retain the index of
    every constraint it ever saw. *)
let remove t id =
  let doomed, kept = List.partition (fun r -> r.id = id) t.constraints in
  t.constraints <- kept;
  if doomed <> [] then begin
    let still_watched tbl = List.exists (fun r -> List.mem tbl r.tables) kept in
    List.iter
      (fun r ->
        List.iter
          (fun tbl ->
            if not (still_watched tbl) then
              ignore (Index.remove_entries_for t.index tbl))
          r.tables)
      doomed;
    recompute_entailment t;
    invalidate_replicas t
  end

(** Run the automatic-reclamation policy once — called between
    validations, never mid-check.  Bumps replica epochs only when node
    ids were renumbered (a level recycle): a content-preserving
    compact renumbers nothing a replica can see, so replicas survive
    it untouched. *)
let maybe_gc t =
  match t.gc_policy with
  | None -> Lifecycle.no_action
  | Some policy ->
    let action = Lifecycle.maybe_gc ~policy t.index in
    if action.Lifecycle.recycled then invalidate_replicas t;
    action

(** Reclaim memory {e now} (the [compact] protocol op): a level
    recycle when the policy demands one, otherwise a plain GC.
    Replicas are invalidated only on a recycle (a pure compact is
    invisible to them).  Returns nodes reclaimed. *)
let gc t =
  let policy = Option.value ~default:Lifecycle.default_policy t.gc_policy in
  let recycle = Lifecycle.needs_recycle policy t.index in
  let reclaimed =
    if recycle then Lifecycle.recycle t.index else Index.compact t.index
  in
  Index.publish_gauges t.index;
  if recycle then invalidate_replicas t;
  reclaimed

(** Mark a table dirty, as a mutation of it would: the next
    {!validate} re-checks every constraint over it. *)
let mark_dirty t table_name = Hashtbl.replace t.dirty table_name ()

(** Stream one row insertion through the base table and indices; marks
    the table dirty.  Replicas get a row-level delta note, not a full
    invalidation — the mutation epoch does not cost workers a copy of
    the master. *)
let insert t ~table_name row =
  Index.insert t.index ~table_name row;
  mark_dirty t table_name;
  (match t.par with
  | Some (_, r) -> Replica.note_insert r ~table_name row
  | None -> ());
  if T.enabled () then T.incr (T.counter "monitor.inserts")

(** Stream one row deletion; marks the table dirty if a row was
    removed.  Delta-noted like {!insert}. *)
let delete t ~table_name row =
  let removed = Index.delete t.index ~table_name row in
  if removed then begin
    mark_dirty t table_name;
    match t.par with
    | Some (_, r) -> Replica.note_delete r ~table_name row
    | None -> ()
  end;
  if T.enabled () then T.incr (T.counter "monitor.deletes");
  removed

type report = {
  constraint_ : registered;
  outcome : Checker.outcome;
  fresh : bool;  (** false when the cached verdict was still valid *)
  elapsed_ms : float;
  rate : Checker.rate option;
      (** the soft constraint's measured (or cached) rate; [None] for
          hard constraints *)
}

(** Validate the registered constraints: a constraint is re-checked
    only when it has never been checked or one of its tables changed
    since its last check; otherwise the cached verdict is returned.
    Stale hard and soft constraints are checked as one batch, pooled
    when [jobs > 1].  Under [Planned] (the default) the {!Planner}
    chooses each stale constraint's strategy, planned costs order the
    parallel pool, every fresh result is fed back, and FDs entailed by
    currently-holding FDs are settled without a check.  Clears the
    dirty set. *)
let validate t =
  (* reclamation happens here, strictly before any check compiles
     against the manager — never mid-check *)
  ignore (maybe_gc t);
  T.with_span "monitor.validate" @@ fun () ->
  let regs = constraints t in
  let needs_check reg =
    reg.last_outcome = None || List.exists (Hashtbl.mem t.dirty) reg.tables
  in
  let planned = t.planning = Planned in
  (* registered-record bookkeeping happens on the calling domain only:
     in the parallel path workers return bare Checker.results and the
     mutations below run once the whole batch is in *)
  let fresh_report reg r =
    if planned then Planner.observe t.planner (spec_of reg) r;
    reg.last_outcome <- Some r.Checker.outcome;
    (match r.Checker.rate with Some _ as rt -> reg.last_rate <- rt | None -> ());
    reg.checks_run <- reg.checks_run + 1;
    reg.total_check_ms <- reg.total_check_ms +. r.Checker.elapsed_ms;
    if T.enabled () then T.incr (T.counter "monitor.checks_run");
    {
      constraint_ = reg;
      outcome = r.Checker.outcome;
      fresh = true;
      elapsed_ms = r.Checker.elapsed_ms;
      rate = r.Checker.rate;
    }
  in
  let cached_report reg =
    reg.checks_skipped <- reg.checks_skipped + 1;
    if T.enabled () then T.incr (T.counter "monitor.checks_skipped");
    match reg.last_outcome with
    | Some outcome ->
      { constraint_ = reg; outcome; fresh = false; elapsed_ms = 0.; rate = reg.last_rate }
    | None -> assert false
  in
  let entailed_report reg =
    (* sound: every entailer settled Satisfied this pass, and the
       Armstrong closure guarantees the entailed FD then holds too *)
    reg.last_outcome <- Some Checker.Satisfied;
    reg.checks_skipped <- reg.checks_skipped + 1;
    if T.enabled () then begin
      T.incr (T.counter "monitor.checks_skipped");
      T.incr (T.counter "planner.entailed_skips")
    end;
    {
      constraint_ = reg;
      outcome = Checker.Satisfied;
      fresh = false;
      elapsed_ms = 0.;
      rate = None;
    }
  in
  let stale = List.filter needs_check regs in
  (* entailed FDs settle from their entailers' verdicts when possible
     (Planned mode only); everything else, hard and soft, is one batch *)
  let stale_main, stale_ent =
    if planned then List.partition (fun r -> r.entailed_by = None) stale else (stale, [])
  in
  let plan reg = Planner.plan t.planner t.index (spec_of reg) in
  let strategies, costs =
    List.split
      (List.map
         (fun reg ->
           match t.planning with
           | Planned ->
             (* the planner's costed estimate orders the pool *)
             let p = plan reg in
             (p.Planner.strategy, Some p.Planner.cost_ms)
           | Forced s ->
             (* measured per-constraint history orders the pool *)
             ( s,
               if reg.checks_run > 0 then
                 Some (reg.total_check_ms /. float_of_int reg.checks_run)
               else None ))
         stale_main)
  in
  let specs = List.map spec_of stale_main in
  let results =
    match t.par with
    | Some (pool, replica) when List.length stale_main > 1 ->
      Checker.check_all_pooled ~pipeline:t.pipeline ~costs ~strategies ~pool replica specs
    | _ -> Checker.check_all ~pipeline:t.pipeline ~strategies t.index specs
  in
  let fresh = Hashtbl.create (List.length stale + 1) in
  List.iter2 (fun reg r -> Hashtbl.replace fresh reg.id r) stale_main results;
  (* outcomes valid for THIS pass: clean cached verdicts + fresh results *)
  let settled = Hashtbl.create (List.length regs + 1) in
  List.iter
    (fun reg ->
      if not (needs_check reg) then
        match reg.last_outcome with
        | Some o -> Hashtbl.replace settled reg.id o
        | None -> ())
    regs;
  Hashtbl.iter
    (fun id (r : Checker.result) -> Hashtbl.replace settled id r.Checker.outcome)
    fresh;
  (* dirty entailed FDs: skip when every entailer settled Satisfied,
     check otherwise.  Iterate because entailers may themselves be
     entailed; a stall (mutual entailment among dirty FDs) is broken
     by checking the lowest id *)
  let skipped_ent = Hashtbl.create 8 in
  let check_now reg =
    let strategy = (plan reg).Planner.strategy in
    let r = Checker.check_spec ~pipeline:t.pipeline ~strategy t.index (spec_of reg) in
    Hashtbl.replace fresh reg.id r;
    Hashtbl.replace settled reg.id r.Checker.outcome
  in
  let pending = ref stale_ent in
  while !pending <> [] do
    let progress = ref false in
    pending :=
      List.filter
        (fun reg ->
          let ids = match reg.entailed_by with Some ids -> ids | None -> assert false in
          let known = List.filter_map (fun i -> Hashtbl.find_opt settled i) ids in
          if List.length known = List.length ids then begin
            progress := true;
            if List.for_all (fun o -> o = Checker.Satisfied) known then begin
              Hashtbl.replace skipped_ent reg.id ();
              Hashtbl.replace settled reg.id Checker.Satisfied
            end
            else check_now reg;
            false
          end
          else true)
        !pending;
    if (not !progress) && !pending <> [] then begin
      let reg =
        List.fold_left
          (fun a b -> if b.id < a.id then b else a)
          (List.hd !pending) (List.tl !pending)
      in
      check_now reg;
      pending := List.filter (fun r -> r.id <> reg.id) !pending
    end
  done;
  let reports =
    List.map
      (fun reg ->
        match Hashtbl.find_opt fresh reg.id with
        | Some r -> fresh_report reg r
        | None ->
          if Hashtbl.mem skipped_ent reg.id then entailed_report reg
          else cached_report reg)
      regs
  in
  Hashtbl.reset t.dirty;
  reports

(** The registered constraints currently violated (validating first). *)
let violated t =
  List.filter_map
    (fun r -> if r.outcome = Checker.Violated then Some r.constraint_ else None)
    (validate t)

(** The extensional verdict set: (id, outcome) sorted by id.  This is
    the oracle view the differential and fault-injection harnesses
    compare — identical across sequential / parallel validation and
    across crash recovery. *)
let verdicts t =
  List.sort compare
    (List.map (fun r -> (r.constraint_.id, r.outcome)) (validate t))

(** The costed plan tree for one registered constraint — the [explain]
    protocol op and [fcv explain].  Goes through the planner cache
    like a real validation would, so estimates and last-actuals
    reflect what the next check will do. *)
let explain t id =
  List.find_opt (fun r -> r.id = id) t.constraints
  |> Option.map (fun reg -> (reg, Planner.plan t.planner t.index (spec_of reg)))
