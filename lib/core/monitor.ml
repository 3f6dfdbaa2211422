(** Continuous constraint validation — the paper's motivating scenario
    ("databases are primarily dynamic ... being able to identify
    constraints that are violated within and across tables is highly
    important") turned into an API: register constraints once, stream
    updates through the logical indices, and re-validate lazily.

    Staleness is per constraint, by the irrelevant-update test of view
    maintenance (Blakeley, Coburn and Larson, TODS 1989), extended from
    constants to join partners.  Each atom occurrence is filed under its
    table with its constants and, for a hard constraint, its blockers:
    the literals over other tables beside it, as a conjunct or a
    disjunct, on the path to the root of the violation form (the NNF of
    the negated constraint, with each bound variable of a one-atom
    quantifier read as a wildcard).  A mutation that changed a row marks
    a constraint stale when an occurrence over its table has constants
    the row carries and no blocker fires.  A blocker is decided by one
    existence test on its table, at the row's codes and the literal's
    constants: a conjunct fires when it is false at every extension of
    the row's binding, a disjunct when it is true at every one; either
    way the occurrence cannot change the verdict.  A soft constraint's
    rate counts the hypothesis, which a blocker above it does not
    protect, so soft constraints mark by constants alone.

    A pass re-checks a constraint only when it was never checked, was
    marked stale, or a dictionary behind a column of one of its tables
    grew since the last completed pass (quantifiers range over whole
    dictionaries, so a new code anywhere in a domain can flip a verdict
    whose atoms no row reached).  Everything else keeps its cached
    verdict.

    A pass pools its stale batch only when the pool pays for itself,
    pricing it as Postgres prices a plan, startup plus run: the batch's
    measured sequential cost W (each constraint's mean check time on
    the calling domain) must exceed P + span, where span is the longest
    of W / jobs and the dearest single check, and P is the pool's fixed
    cost: a cold start priced from the store's size, then moved toward
    what each later pooled pass measures. *)

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
  mutable checks_run : int;  (** fresh checks run on the calling domain *)
  mutable checks_skipped : int;  (** skipped because no mutation reached it *)
  mutable total_check_ms : float;
      (** cumulative time of those checks: the sequential cost the pool
          gate reads, so a worker's slower check is not folded in *)
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

(* Per-constraint state beside the public record: the planner history
   resolved at registration, the stale flag, and the dictionaries whose
   growth re-checks it with their sizes at the last completed pass. *)
type slot = {
  reg : registered;
  history : Planner.history;
  mutable stale : bool;  (** a mutation reached one of its atoms since the last pass *)
  dicts : R.Dict.t array;  (** the distinct dictionaries behind its tables' columns *)
  sizes : int array;  (** their sizes when the last pass completed *)
}

(* A constant of an atom at a column position.  [code] caches the code
   the column's dictionary gives it once it has one (codes never
   change), -1 while the dictionary lacks it. *)
type constant = { pos : int; dict : R.Dict.t; value : R.Value.t; mutable code : int }

(* A position of a blocker's literal: the mutated row's code at a
   position of the occurrence, a constant, a wildcard, or a variable
   the row does not bind. *)
type probe_term = Row of int | Fixed of constant | Any | Free

(* A literal over another table beside an occurrence: a conjunct
   ([conj]) or a disjunct on the occurrence's path to the root.  At a
   mutation [key] holds the codes its existence test matches (-1 where
   any code does) and [found] the test's answer. *)
type blocker = {
  conj : bool;
  positive : bool;
  table : R.Table.t;
  terms : probe_term array;
  closed : bool;  (** no [Free] position: a matching row decides the literal *)
  key : int array;
  mutable found : bool;
}

(* One atom occurrence of a registered constraint as a filter on its
   table's rows: a row reaches it when it carries every constant, and
   the reach counts unless a blocker fires. *)
type filter = { slot : slot; constants : constant array; blockers : blocker array }

(* A started worker pool with its replica set.  [overhead_ms] is P: the
   cold start's price when the pool started, then moved a quarter of
   the way to each later pooled pass's wall time minus its predicted
   span, so the workers' catch-ups, fresh copies and slower checks all
   count against the pool.  The pass that starts the pool is not one of
   them: its copies and cold caches are the one-time cost the cold
   price stood for. *)
type pool = { workers : Fcv_util.Pool.t; replica : Replica.t; mutable overhead_ms : float }

type t = {
  index : Index.t;
  pipeline : Checker.pipeline;
  planner : Planner.t;
  mutable planning : planning;
  mutable slots : slot list;
      (** stored {b newest first} so registration is O(1); every
          external view reverses (see {!constraints}) *)
  filters : (string, filter list) Hashtbl.t;
      (** every registered atom by table, so a mutation scans only the
          atoms over its table *)
  mutable next_id : int;
  mutable jobs : int;  (** the width a pass that pays pools at *)
  mutable par : pool option;
      (** started by the first pass that pools, then kept across
          validations so workers and their replicas are reused *)
  mutable pooled_passes : int;
  mutable sequential_passes : int;
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
    slots = [];
    filters = Hashtbl.create 8;
    next_id = 0;
    jobs = 1;
    par = None;
    pooled_passes = 0;
    sequential_passes = 0;
    gc_policy = gc;
  }

let index t = t.index
let constraints t = List.rev_map (fun s -> s.reg) t.slots
let planner t = t.planner
let planning t = t.planning
let set_planning t p = t.planning <- p
let jobs t = t.jobs

(** Set the validation parallelism: only the width is recorded, and
    the first pass that pays for a pool starts one (see {!validate}).
    A changed width joins a started pool; the next pass that pays
    starts one of the new width. *)
let set_jobs t n =
  let n = max 1 n in
  if n <> t.jobs then begin
    Option.iter (fun p -> Fcv_util.Pool.shutdown p.workers) t.par;
    t.par <- None;
    t.jobs <- n
  end

(** Validate on the calling domain from now on, joining the worker
    domains if a pool started.  Call before discarding a parallel
    monitor. *)
let stop t = set_jobs t 1

let invalidate_replicas t = Option.iter (fun p -> Replica.invalidate p.replica) t.par

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

let replica_stats t = Option.map (fun p -> Replica.stats p.replica) t.par

(* The cold start of a pool: a per-domain start plus a per-node copy,
   fitted to the first pooled copies of a store timed on 2 vCPUs at
   [-j 2], medians of 7 (DESIGN.md, "Where it is wired"): 9-13 ms at
   30k store nodes (university, 500 students), 8-13 ms at 159k and
   261k (3,000 and 5,000 students), 37-44 ms at 685k (retail).  Read
   from [M.size], one field: a copy takes only the live nodes, so a
   store holding garbage prices high, never low. *)
let domain_start_ms = 4.
let copy_ms_per_node = 4e-5

(* P: what a pooled pass costs beyond its span. *)
let pool_price t =
  match t.par with
  | Some p -> p.overhead_ms
  | None ->
    (float_of_int t.jobs *. domain_start_ms)
    +. (copy_ms_per_node *. float_of_int (M.size t.index.Index.mgr))

type pool_stats = {
  started : bool;
  pooled_passes : int;
  sequential_passes : int;
  price_ms : float;
}

let pool_stats t =
  {
    started = t.par <> None;
    pooled_passes = t.pooled_passes;
    sequential_passes = t.sequential_passes;
    price_ms = pool_price t;
  }

(* The distinct dictionaries behind the columns of [tables]. *)
let dictionaries db tables =
  List.fold_left
    (fun acc tbl ->
      let table = R.Database.table db tbl in
      List.fold_left
        (fun acc j ->
          let d = R.Table.dict table j in
          if List.memq d acc then acc else d :: acc)
        acc
        (List.init (R.Table.arity table) Fun.id))
    [] tables
  |> Array.of_list

(* The literals a subformula contributes beside a sibling: itself when
   it is a literal, and the literals of its same-connective chain. *)
let rec literals conj = function
  | Formula.And (a, b) when conj -> literals conj a @ literals conj b
  | Formula.Or (a, b) when not conj -> literals conj a @ literals conj b
  | Formula.Atom (tbl, terms) -> [ (conj, true, tbl, terms) ]
  | Formula.Not (Formula.Atom (tbl, terms)) -> [ (conj, false, tbl, terms) ]
  | _ -> []

(* Every atom occurrence of an NNF formula, with the literals beside it
   on its path to the root. *)
let rec occurrences beside = function
  | Formula.Atom (tbl, terms) | Not (Atom (tbl, terms)) -> [ (tbl, terms, beside) ]
  | And (a, b) ->
    occurrences (literals true b @ beside) a @ occurrences (literals true a @ beside) b
  | Or (a, b) ->
    occurrences (literals false b @ beside) a @ occurrences (literals false a @ beside) b
  | Exists (_, g) | Forall (_, g) -> occurrences beside g
  | True | False | Eq _ | In _ | Not _ | Implies _ | Iff _ -> []

let constant table pos value = { pos; dict = R.Table.dict table pos; value; code = -1 }

(* File each atom occurrence of the slot's constraint under its table,
   as a filter on the rows a mutation changes.  Occurrences come from
   the violation form; a hard constraint's keep the literals over other
   tables beside them as blockers. *)
let add_filters t slot =
  let db = t.index.Index.db in
  let hard = Formula.is_hard (spec_of slot.reg) in
  let violation =
    Rewrite.project_bound
      (Rewrite.nnf (Formula.Not (Rewrite.rename_apart slot.reg.formula)))
  in
  List.iter
    (fun (tbl, terms, beside) ->
      let table = R.Database.table db tbl in
      let blocker (conj, positive, btbl, bterms) =
        let btable = R.Database.table db btbl in
        let terms =
          List.mapi
            (fun pos -> function
              | Formula.Var x -> (
                match List.find_index (( = ) (Formula.Var x)) terms with
                | Some p -> Row p
                | None -> Free)
              | Formula.Const value -> Fixed (constant btable pos value)
              | Formula.Wildcard -> Any)
            bterms
          |> Array.of_list
        in
        {
          conj;
          positive;
          table = btable;
          terms;
          closed = not (Array.exists (function Free -> true | _ -> false) terms);
          key = Array.make (Array.length terms) (-1);
          found = false;
        }
      in
      let blockers =
        if hard then
          List.filter_map
            (fun ((_, _, btbl, _) as l) -> if btbl = tbl then None else Some (blocker l))
            beside
        else []
      in
      let constants =
        List.mapi
          (fun pos -> function
            | Formula.Const value -> Some (constant table pos value)
            | Formula.Var _ | Formula.Wildcard -> None)
          terms
        |> List.filter_map Fun.id
      in
      let f =
        { slot; constants = Array.of_list constants; blockers = Array.of_list blockers }
      in
      Hashtbl.replace t.filters tbl
        (f :: Option.value ~default:[] (Hashtbl.find_opt t.filters tbl)))
    (occurrences [] violation)

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
  (* a taken id is rejected before any index is built for it *)
  (match id with
  | Some i when List.exists (fun s -> s.reg.id = i) t.slots ->
    invalid_arg "Monitor.add: duplicate constraint id"
  | _ -> ());
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
  let dicts = dictionaries t.index.Index.db reg.tables in
  let slot =
    {
      reg;
      history = Planner.history t.planner spec;
      stale = false;
      dicts;
      sizes = Array.map R.Dict.size dicts;
    }
  in
  add_filters t slot;
  t.slots <- slot :: t.slots;
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
  let doomed, kept = List.partition (fun s -> s.reg.id = id) t.slots in
  t.slots <- kept;
  if doomed <> [] then begin
    Hashtbl.filter_map_inplace
      (fun _ fs ->
        match List.filter (fun f -> f.slot.reg.id <> id) fs with [] -> None | fs -> Some fs)
      t.filters;
    let still_watched tbl = List.exists (fun s -> List.mem tbl s.reg.tables) kept in
    List.iter
      (fun s ->
        List.iter
          (fun tbl ->
            if not (still_watched tbl) then
              ignore (Index.remove_entries_for t.index tbl))
          s.reg.tables)
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

(* The row's code at the constant's position is the code the column's
   dictionary gives the constant (a constant the dictionary lacks is
   carried by no row). *)
let resolve c =
  if c.code < 0 then
    match R.Dict.code c.dict c.value with Some k -> c.code <- k | None -> ()

let carries row c =
  resolve c;
  c.code >= 0 && row.(c.pos) = c.code

(* Set the blocker's key from the mutated row; [false] when a constant
   its dictionary lacks already decides that no row matches. *)
let set_key b row =
  b.found <- false;
  let ok = ref true in
  Array.iteri
    (fun j term ->
      b.key.(j) <-
        (match term with
        | Row p -> row.(p)
        | Fixed c ->
          resolve c;
          if c.code < 0 then ok := false;
          c.code
        | Any | Free -> -1))
    b.terms;
  !ok

let matches key row =
  let rec go j = j = Array.length key || ((key.(j) < 0 || row.(j) = key.(j)) && go (j + 1)) in
  go 0

(* One pass over the table answers every blocker on it: a row that
   misses a code all their keys share matches none, so only the others
   are tested against each key. *)
let scan table blockers =
  let shared = Array.copy (List.hd blockers).key in
  List.iter
    (fun b -> Array.iteri (fun j k -> if k <> shared.(j) then shared.(j) <- -1) b.key)
    blockers;
  let left = ref (List.length blockers) in
  let n = R.Table.cardinality table in
  let i = ref 0 in
  while !left > 0 && !i < n do
    let row = R.Table.row table !i in
    if matches shared row then
      List.iter
        (fun b ->
          if (not b.found) && matches b.key row then begin
            b.found <- true;
            decr left
          end)
        blockers;
    incr i
  done

(* The blocker's literal is false at every extension of the row's
   binding (no row matches, and it is positive; or the fully fixed row
   is present, and it is negated) or true at every one (the converse);
   a conjunct fires on the first, a disjunct on the second. *)
let fires b = (b.closed || not b.found) && b.found = b.positive <> b.conj

(* Mark stale every unmarked constraint with an occurrence over the
   table whose constants the row carries and whose blockers, each
   decided by one existence test on its table, let the change through.
   The tests of one mutation make one pass over each table they
   read. *)
let mark_row t table_name row =
  match Hashtbl.find_opt t.filters table_name with
  | None -> ()
  | Some fs ->
    let reached =
      List.filter (fun f -> (not f.slot.stale) && Array.for_all (carries row) f.constants) fs
    in
    let by_table = ref [] in
    List.iter
      (fun f ->
        Array.iter
          (fun b ->
            if set_key b row then
              match List.assq_opt b.table !by_table with
              | Some bs -> bs := b :: !bs
              | None -> by_table := (b.table, ref [ b ]) :: !by_table)
          f.blockers)
      reached;
    List.iter (fun (table, bs) -> scan table !bs) !by_table;
    List.iter
      (fun f -> if not (Array.exists fires f.blockers) then f.slot.stale <- true)
      reached

(** Mark every constraint over a table stale, as if a mutation reached
    each of its atoms there: the next {!validate} re-checks them. *)
let mark_dirty t table_name =
  match Hashtbl.find_opt t.filters table_name with
  | Some fs -> List.iter (fun f -> f.slot.stale <- true) fs
  | None -> ()

(** Stream one row insertion through the base table and indices; marks
    stale the constraints with an occurrence over the table whose
    constants the row carries and whose blockers let it through.  A
    started pool's replicas get a row-level delta note, not a full
    invalidation — the mutation epoch does not cost workers a copy of
    the master. *)
let insert t ~table_name row =
  Index.insert t.index ~table_name row;
  mark_row t table_name row;
  Option.iter (fun p -> Replica.note_insert p.replica ~table_name row) t.par;
  if T.enabled () then T.incr (T.counter "monitor.inserts")

(** Stream one row deletion; when a row was removed, marks stale as
    {!insert} does.  Delta-noted like {!insert}. *)
let delete t ~table_name row =
  let removed = Index.delete t.index ~table_name row in
  if removed then begin
    mark_row t table_name row;
    Option.iter (fun p -> Replica.note_delete p.replica ~table_name row) t.par
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

(* A dictionary behind one of the constraint's columns grew since the
   last completed pass. *)
let grown s =
  let rec go i =
    i < Array.length s.dicts && (R.Dict.size s.dicts.(i) <> s.sizes.(i) || go (i + 1))
  in
  go 0

(* The span a pooled run of the batch is predicted to take, when P plus
   that span is below W, the batch's measured sequential cost; [None]
   keeps the batch on the calling domain, as it does any batch holding
   a constraint never checked on this monitor (measure first).  Every
   input is a field read. *)
let pooled_span t batch =
  let rec measure w longest = function
    | [] -> Some (w, longest)
    | s :: rest ->
      let r = s.reg in
      if r.checks_run = 0 then None
      else
        let mean = r.total_check_ms /. float_of_int r.checks_run in
        measure (w +. mean) (Float.max longest mean) rest
  in
  if t.jobs <= 1 then None
  else
    match measure 0. 0. batch with
    | Some (w, longest) ->
      let span = Float.max (w /. float_of_int t.jobs) longest in
      if w > pool_price t +. span then Some span else None
    | None -> None

let start_pool t =
  match t.par with
  | Some p -> p
  | None ->
    let p =
      {
        workers = Fcv_util.Pool.create ~name:"monitor" ~jobs:t.jobs ();
        replica = Replica.create t.index;
        overhead_ms = pool_price t;
      }
    in
    t.par <- Some p;
    p

(** Validate the registered constraints: a constraint is re-checked
    only when it was never checked, a mutation marked it stale, or a
    dictionary behind a column of one of its tables grew since the
    last completed pass; otherwise the cached verdict is returned.
    Stale hard and soft constraints are checked as one batch, pooled
    when [jobs > 1] and the pool pays for itself ({!pooled_span}); the
    first such pass starts the pool.  Under [Planned] (the default)
    the {!Planner} chooses each stale constraint's strategy, planned
    costs order the parallel pool, every fresh result is fed back, and
    FDs entailed by currently-holding FDs are settled without a check.
    Only checks run on the calling domain add to a constraint's
    [checks_run] and [total_check_ms].  A completed pass clears the
    stale flags and records the dictionary sizes; a pass that raises
    leaves them, so the next one re-checks. *)
let validate t =
  (* reclamation happens here, strictly before any check compiles
     against the manager — never mid-check *)
  ignore (maybe_gc t);
  T.with_span "monitor.validate" @@ fun () ->
  let slots = List.rev t.slots in
  let stale, clean =
    List.partition (fun s -> s.stale || s.reg.last_outcome = None || grown s) slots
  in
  let planned = t.planning = Planned in
  (* registered-record bookkeeping happens on the calling domain only:
     in the parallel path workers return bare Checker.results and the
     mutations below run once the whole batch is in *)
  let fresh_report s (r, on_worker) =
    let reg = s.reg in
    if planned then Planner.observe t.planner s.history r;
    reg.last_outcome <- Some r.Checker.outcome;
    (match r.Checker.rate with Some _ as rt -> reg.last_rate <- rt | None -> ());
    if not on_worker then begin
      reg.checks_run <- reg.checks_run + 1;
      reg.total_check_ms <- reg.total_check_ms +. r.Checker.elapsed_ms
    end;
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
  (* entailed FDs settle from their entailers' verdicts when possible
     (Planned mode only); everything else, hard and soft, is one batch *)
  let stale_main, stale_ent =
    if planned then List.partition (fun s -> s.reg.entailed_by = None) stale else (stale, [])
  in
  let plan s = Planner.plan t.planner t.index s.history in
  let strategies, costs =
    List.split
      (List.map
         (fun s ->
           let reg = s.reg in
           match t.planning with
           | Planned ->
             (* the planner's costed estimate orders the pool *)
             let p = plan s in
             (p.Planner.strategy, Some p.Planner.cost_ms)
           | Forced strategy ->
             (* measured per-constraint history orders the pool *)
             ( strategy,
               if reg.checks_run > 0 then
                 Some (reg.total_check_ms /. float_of_int reg.checks_run)
               else None ))
         stale_main)
  in
  let specs = List.map (fun s -> spec_of s.reg) stale_main in
  let pooled, results =
    match pooled_span t stale_main with
    | Some span ->
      let warm = t.par <> None in
      let p = start_pool t in
      let t0 = Fcv_util.Timer.now () in
      let results =
        Checker.check_all_pooled ~pipeline:t.pipeline ~costs ~strategies ~pool:p.workers
          p.replica specs
      in
      if warm then begin
        let overhead = Float.max 0. (((Fcv_util.Timer.now () -. t0) *. 1000.) -. span) in
        p.overhead_ms <- p.overhead_ms +. ((overhead -. p.overhead_ms) /. 4.)
      end;
      t.pooled_passes <- t.pooled_passes + 1;
      (true, results)
    | None ->
      if stale_main <> [] then t.sequential_passes <- t.sequential_passes + 1;
      (false, Checker.check_all ~pipeline:t.pipeline ~strategies t.index specs)
  in
  (* each fresh result, with whether a pool worker produced it *)
  let fresh = Hashtbl.create (List.length stale + 1) in
  List.iter2 (fun s r -> Hashtbl.replace fresh s.reg.id (r, pooled)) stale_main results;
  (* outcomes valid for THIS pass: clean cached verdicts + fresh results *)
  let settled = Hashtbl.create (List.length slots + 1) in
  List.iter
    (fun s ->
      match s.reg.last_outcome with
      | Some o -> Hashtbl.replace settled s.reg.id o
      | None -> ())
    clean;
  Hashtbl.iter
    (fun id ((r : Checker.result), _) -> Hashtbl.replace settled id r.Checker.outcome)
    fresh;
  (* dirty entailed FDs: skip when every entailer settled Satisfied,
     check otherwise.  Iterate because entailers may themselves be
     entailed; a stall (mutual entailment among dirty FDs) is broken
     by checking the lowest id *)
  let skipped_ent = Hashtbl.create 8 in
  let check_now s =
    let strategy = (plan s).Planner.strategy in
    let r = Checker.check_spec ~pipeline:t.pipeline ~strategy t.index (spec_of s.reg) in
    Hashtbl.replace fresh s.reg.id (r, false);
    Hashtbl.replace settled s.reg.id r.Checker.outcome
  in
  let pending = ref stale_ent in
  while !pending <> [] do
    let progress = ref false in
    pending :=
      List.filter
        (fun s ->
          let ids = match s.reg.entailed_by with Some ids -> ids | None -> assert false in
          let known = List.filter_map (fun i -> Hashtbl.find_opt settled i) ids in
          if List.length known = List.length ids then begin
            progress := true;
            if List.for_all (fun o -> o = Checker.Satisfied) known then begin
              Hashtbl.replace skipped_ent s.reg.id ();
              Hashtbl.replace settled s.reg.id Checker.Satisfied
            end
            else check_now s;
            false
          end
          else true)
        !pending;
    if (not !progress) && !pending <> [] then begin
      let s =
        List.fold_left
          (fun a b -> if b.reg.id < a.reg.id then b else a)
          (List.hd !pending) (List.tl !pending)
      in
      check_now s;
      pending := List.filter (fun p -> p.reg.id <> s.reg.id) !pending
    end
  done;
  let reports =
    List.map
      (fun s ->
        match Hashtbl.find_opt fresh s.reg.id with
        | Some r -> fresh_report s r
        | None ->
          if Hashtbl.mem skipped_ent s.reg.id then entailed_report s.reg
          else cached_report s.reg)
      slots
  in
  List.iter
    (fun s ->
      s.stale <- false;
      Array.iteri (fun i d -> s.sizes.(i) <- R.Dict.size d) s.dicts)
    slots;
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
  List.find_opt (fun s -> s.reg.id = id) t.slots
  |> Option.map (fun s -> (s.reg, Planner.plan t.planner t.index s.history))
