(** The logical index store (§2.3, §3): one shared BDD manager per
    database holding a characteristic-function BDD for each indexed
    table (or projection of a table), plus the incremental-maintenance
    hooks of §5.2.

    All indices share one manager so that constraint compilation can
    combine them directly; each index's attribute blocks occupy a
    contiguous range of levels allocated at build time in the order
    chosen by its {!Ordering.strategy}. *)

module R = Fcv_relation
module M = Fcv_bdd.Manager
module O = Fcv_bdd.Ops
module Fd = Fcv_bdd.Fd

(* A projection of an entry cached by {!projection}: the root it was
   computed at, its BDD, and whether a check has read it since the
   last {!compact}. *)
type projection = { at : int; bdd : int; mutable read : bool }

(* sorted fixed (position, code) pairs, sorted dropped positions, and
   the renamed positions with their targets' levels, sorted *)
type projection_key = (int * int) list * int list * (int * int array) list

type entry = {
  table : R.Table.t;
  attrs : int array;  (** indexed schema positions, ascending *)
  order : int array;  (** permutation of [0, |attrs|): order.(k) indexes [attrs] *)
  strategy : Ordering.strategy;
  blocks : Fd.block array;  (** blocks.(i) is the block of attrs.(i) *)
  mutable root : int;
  counts : (int, int) Hashtbl.t;
      (** multiset of projected rows (packed codes) — needed to decide
          when a deletion removes the last witness of a projection *)
  mutable build_time : float;  (** seconds spent constructing [root] *)
  mutable size_at : int;  (** the root [size] was counted at; -1 = not counted *)
  mutable size : int;
  mutable rows_at : int;  (** the root [rows] was counted at; -1 = not counted *)
  mutable rows : float;
  projections : (projection_key, projection) Hashtbl.t;
}

type t = {
  db : R.Database.t;
  mutable mgr : M.t;
      (* mutable so level recycling ({!Lifecycle.recycle}) can swap in
         a fresh manager with dense level assignment in place *)
  mutable entries : entry list;
  scratch_pool : (int, Fd.block list) Hashtbl.t;
      (* reusable scratch blocks by domain size: constraint compilation
         borrows auxiliary blocks and returns them afterwards, so the
         manager's bounded level space is not consumed by repeated
         checks *)
  mutable deferred : (string * string list * Ordering.strategy) list;
      (* entry rebuilds postponed because the manager ran out of
         levels mid-update; {!Lifecycle.maybe_gc} recycles the level
         space and re-adds them before the next validation *)
  mutable structure_version : int;
      (* bumped on every structural change to the entry set (add,
         remove, rebuild, defer, level recycle) — NOT on content-
         preserving GC.  Replicas use it to decide whether a row-level
         delta can still describe the master (see {!Replica}). *)
  mutable gc_base : int;
      (* the live count the GC trigger measures growth from: the
         manager's size right after the last {!compact}, level recycle
         or creation, plus the nodes of each entry {!add} built since *)
  mutable gc_runs : int;  (* automatic + manual compactions *)
  mutable gc_reclaimed : int;  (* nodes reclaimed across all GC runs *)
  mutable level_recycles : int;  (* dense-rebuild epochs *)
  mutable peak_nodes : int;
      (* manager peak carried across level recycles (a fresh manager
         resets its own peak) *)
}

let create ?(max_nodes = 0) ?(max_cache = M.default_max_cache) db =
  {
    db;
    mgr = M.create ~max_nodes ~max_cache ~nvars:0 ();
    entries = [];
    scratch_pool = Hashtbl.create 8;
    deferred = [];
    structure_version = 0;
    gc_base = 2;
    gc_runs = 0;
    gc_reclaimed = 0;
    level_recycles = 0;
    peak_nodes = 2;
  }

(** Borrow an auxiliary block of the given domain size, reusing a
    previously released one when available. *)
let borrow_scratch t ~dom_size =
  match Hashtbl.find_opt t.scratch_pool dom_size with
  | Some (b :: rest) ->
    Hashtbl.replace t.scratch_pool dom_size rest;
    b
  | Some [] | None -> Fd.alloc t.mgr ~name:(Printf.sprintf "scratch/%d" dom_size) ~dom_size

(** Return borrowed blocks to the pool. *)
let release_scratch t blocks =
  List.iter
    (fun b ->
      let dom_size = b.Fd.dom_size in
      let existing = Option.value ~default:[] (Hashtbl.find_opt t.scratch_pool dom_size) in
      Hashtbl.replace t.scratch_pool dom_size (b :: existing))
    blocks

let mgr t = t.mgr
let entries t = t.entries

(* Distinct projection of [table] onto [attrs], as a fresh table
   sharing the same dictionaries (not registered in any database). *)
let project table attrs =
  let schema = R.Table.schema table in
  let sub_schema =
    R.Schema.make
      (Array.to_list
         (Array.map (fun a -> (schema.(a).R.Schema.name, schema.(a).R.Schema.domain)) attrs))
  in
  let dicts = Array.map (fun a -> R.Table.dict table a) attrs in
  let proj =
    R.Table.create ~name:(R.Table.name table ^ "_proj") ~schema:sub_schema ~dicts
  in
  let seen = Hashtbl.create 1024 in
  R.Table.iter table (fun row ->
      let sub = Array.map (fun a -> row.(a)) attrs in
      if not (Hashtbl.mem seen sub) then begin
        Hashtbl.add seen sub ();
        R.Table.insert_coded proj sub
      end);
  proj

(* Pack a projected row into one integer key for the counts multiset
   (attribute blocks are at most 62 bits wide in total for every
   workload we index; wider projections reject maintenance). *)
let pack_key blocks sub =
  let bits = Array.fold_left (fun acc b -> acc + Fd.width b) 0 blocks in
  if bits > 62 then None
  else begin
    let acc = ref 0 in
    Array.iteri (fun i c -> acc := (!acc lsl Fd.width blocks.(i)) lor c) sub;
    Some !acc
  end

(** Build (or rebuild) a logical index on [table_name], restricted to
    [attrs] (attribute names; default: all attributes), ordered by
    [strategy].  Returns the entry; it is also registered in [t]. *)
let add t ~table_name ?attrs ~strategy () =
  let table = R.Database.table t.db table_name in
  let schema = R.Table.schema table in
  let attrs =
    match attrs with
    | None -> Array.init (R.Schema.arity schema) Fun.id
    | Some names ->
      let positions = List.map (R.Schema.position schema) names in
      Array.of_list (List.sort compare positions)
  in
  let proj = project table attrs in
  let order = Ordering.resolve strategy proj in
  let t0 = Fcv_util.Timer.now () in
  let blocks = R.Encode.alloc_blocks t.mgr proj ~order in
  let root = R.Encode.build t.mgr proj ~order ~blocks in
  let build_time = Fcv_util.Timer.now () -. t0 in
  let counts = Hashtbl.create (max 16 (R.Table.cardinality table)) in
  R.Table.iter table (fun row ->
      let sub = Array.map (fun a -> row.(a)) attrs in
      match pack_key blocks sub with
      | Some key ->
        Hashtbl.replace counts key (1 + Option.value ~default:0 (Hashtbl.find_opt counts key))
      | None -> ());
  let entry =
    {
      table;
      attrs;
      order;
      strategy;
      blocks;
      root;
      counts;
      build_time;
      size_at = -1;
      size = 0;
      rows_at = -1;
      rows = 0.;
      projections = Hashtbl.create 8;
    }
  in
  t.entries <- entry :: t.entries;
  t.structure_version <- t.structure_version + 1;
  (* the new entry is live, unlike the intermediates its build left *)
  t.gc_base <- t.gc_base + M.node_count t.mgr root;
  entry

(** Entries indexed on [table_name]. *)
let entries_for t table_name =
  List.filter (fun e -> R.Table.name e.table = table_name) t.entries

(** The first entry on [table_name] whose attribute set covers
    [needed] (schema positions). *)
let find_covering t ~table_name ~needed =
  let covers e = List.for_all (fun p -> Array.exists (( = ) p) e.attrs) needed in
  List.find_opt covers (entries_for t table_name)

(** Does the index contain this projected row? *)
let entry_mem t entry sub =
  let env = Array.make (M.nvars t.mgr) false in
  Array.iteri (fun i c -> Fd.set_env entry.blocks.(i) c env) sub;
  M.eval t.mgr entry.root env

(* The two statistics below walk the whole entry BDD, and every check
   ranks its atoms' entries by size, so each is counted once per root:
   an id names one BDD until {!compact} renumbers the store, which
   carries the counts over to the remapped roots. *)

(** BDD size of an entry (nodes reachable from its root). *)
let entry_size t entry =
  if entry.size_at <> entry.root then begin
    entry.size <- M.node_count t.mgr entry.root;
    entry.size_at <- entry.root
  end;
  entry.size

(** Distinct indexed rows: the sat-count of the root over the entry's
    own levels. *)
let entry_rows t entry =
  if entry.rows_at <> entry.root then begin
    let levels = Array.concat (Array.to_list (Array.map (fun b -> b.Fd.levels) entry.blocks)) in
    Array.sort compare levels;
    entry.rows <-
      (try Fcv_bdd.Sat.count_over t.mgr entry.root ~levels with Invalid_argument _ -> 0.);
    entry.rows_at <- entry.root
  end;
  entry.rows

(* -- projections ------------------------------------------------------------ *)

(** The slot of schema position [p] in [entry.attrs]. *)
let slot_of entry p =
  let rec go i =
    if i = Array.length entry.attrs then
      invalid_arg (Printf.sprintf "Index.slot_of: position %d is not indexed" p)
    else if entry.attrs.(i) = p then i
    else go (i + 1)
  in
  go 0

(* Is [b] an attribute block of an entry of the store? *)
let is_entry_block t b =
  List.exists (fun e -> Array.exists (fun b' -> b'.Fd.levels = b.Fd.levels) e.blocks) t.entries

(** The entry's root restricted to the codes at the [fix] positions,
    with the [drop] positions' blocks ∃-projected out, then each
    [rename] position's block renamed onto its target block (positions
    are schema positions of indexed attributes).  Cached on the entry
    with the root it was computed at.  An un-renamed miss starts from
    the cached un-renamed projection of the same root with the largest
    fixed and dropped subsets, restricts the rest of [fix], then
    projects the rest of [drop]; a renamed miss starts from the
    un-renamed projection.  A rename onto a block no entry owns (a
    scratch block) is computed but not cached, and nothing is cached
    when the node budget trips. *)
let rec projection ?(rename = []) t entry ~fix ~drop =
  let fix = List.sort_uniq compare fix and drop = List.sort_uniq compare drop in
  let block p = entry.blocks.(slot_of entry p) in
  List.iter
    (fun (p, code) ->
      let b = block p in
      if code < 0 || code >= b.Fd.dom_size || List.mem p drop then
        invalid_arg "Index.projection: bad fixed position or code")
    fix;
  let rename =
    List.sort (fun (p, _) (q, _) -> compare p q)
      (List.filter (fun (p, b) -> b.Fd.levels <> (block p).Fd.levels) rename)
  in
  let rec distinct = function
    | (p, _) :: ((q, _) :: _ as rest) -> p <> q && distinct rest
    | _ -> true
  in
  if
    (not (distinct rename))
    || List.exists
         (fun (p, b) ->
           List.mem_assoc p fix || List.mem p drop || Fd.width b < Fd.width (block p))
         rename
  then invalid_arg "Index.projection: bad renamed position or target";
  let module T = Fcv_util.Telemetry in
  let root = entry.root in
  let lookup key =
    match Hashtbl.find_opt entry.projections key with
    | Some p when p.at = root ->
      p.read <- true;
      if T.enabled () then T.incr (T.counter "index.projection_hits");
      Some p.bdd
    | _ -> None
  in
  let store key bdd =
    Hashtbl.replace entry.projections key { at = root; bdd; read = true };
    if T.enabled () then T.incr (T.counter "index.projection_builds");
    bdd
  in
  if rename <> [] then begin
    let key = (fix, drop, List.map (fun (p, b) -> (p, b.Fd.levels)) rename) in
    match lookup key with
    | Some bdd -> bdd
    | None ->
      let bdd =
        Fd.rename_onto t.mgr (projection t entry ~fix ~drop)
          (List.map (fun (p, b) -> (block p, b)) rename)
      in
      (* a cached BDD uses only entry levels, never scratch blocks *)
      if List.for_all (fun (_, b) -> is_entry_block t b) rename then store key bdd else bdd
  end
  else if fix = [] && drop = [] then root
  else
    let key = (fix, drop, []) in
    match lookup key with
    | Some bdd -> bdd
    | None ->
      let base_fix, base_drop, base =
        Hashtbl.fold
          (fun (f, d, r) p ((bf, bd, _) as best) ->
            if
              r = [] && p.at = root
              && List.length f + List.length d > List.length bf + List.length bd
              && List.for_all (fun x -> List.mem x fix) f
              && List.for_all (fun p -> List.mem p drop) d
            then (f, d, p.bdd)
            else best)
          entry.projections ([], [], root)
      in
      let literals =
        List.concat_map
          (fun ((p, code) as x) ->
            if List.mem x base_fix then []
            else
              let b = block p in
              List.init (Fd.width b) (fun j -> (Fd.level_of_bit b j, Fcv_util.Bits.test code j)))
          fix
      in
      let levels =
        List.concat_map
          (fun p -> if List.mem p base_drop then [] else Array.to_list (block p).Fd.levels)
          drop
      in
      let m = t.mgr in
      let bdd = if literals = [] then base else O.restrict m base literals in
      store key (if levels = [] then bdd else O.exists m levels bdd)

let minterm t entry sub =
  Fd.tuple_minterm t.mgr (List.init (Array.length sub) (fun i -> (entry.blocks.(i), sub.(i))))

exception Needs_rebuild of string

(* Apply one base-table update to a single entry. *)
let update_entry t entry ~insert row =
  let sub = Array.map (fun a -> row.(a)) entry.attrs in
  Array.iteri
    (fun i c ->
      if c >= entry.blocks.(i).Fd.dom_size then
        raise
          (Needs_rebuild
             (Printf.sprintf "value code %d exceeds indexed domain of %s" c
                entry.blocks.(i).Fd.name)))
    sub;
  match pack_key entry.blocks sub with
  | None -> raise (Needs_rebuild "projection too wide for incremental maintenance")
  | Some key ->
    let current = Option.value ~default:0 (Hashtbl.find_opt entry.counts key) in
    if insert then begin
      if current = 0 then entry.root <- O.bor t.mgr entry.root (minterm t entry sub);
      Hashtbl.replace entry.counts key (current + 1)
    end
    else begin
      if current <= 0 then ()
      else if current = 1 then begin
        entry.root <- O.bdiff t.mgr entry.root (minterm t entry sub);
        Hashtbl.remove entry.counts key
      end
      else Hashtbl.replace entry.counts key (current - 1)
    end

(* The (table, attrs, strategy) recipe of an entry — what [add] needs
   to rebuild it from scratch. *)
let entry_spec entry =
  let schema = R.Table.schema entry.table in
  let attr_names =
    Array.to_list entry.attrs |> List.map (fun p -> schema.(p).R.Schema.name)
  in
  (R.Table.name entry.table, attr_names, entry.strategy)

(** Rebuild one entry from the current base table (same attributes,
    same strategy), replacing it in the store.  Used when an update
    falls outside the entry's frozen domain capacity: the new entry's
    blocks are sized to the grown dictionaries.  Each block's domain is
    its dictionary's size at build time
    ({!Fcv_relation.Encode.alloc_blocks}), not a power of two, and
    {!update_entry} refuses any code at or past it, so every value the
    dictionary has not seen before rebuilds the entries over its column
    (a stream of new keys pays one rebuild apiece).  The old blocks'
    levels are abandoned until the next level recycle.  The old entry
    is removed only once the replacement is built, so a
    {!Fcv_bdd.Manager.Node_limit} or {!Fcv_bdd.Manager.Level_limit}
    escaping mid-build leaves the store consistent. *)
let rebuild_entry t entry =
  let table_name, attr_names, strategy = entry_spec entry in
  let rebuilt = add t ~table_name ~attrs:attr_names ~strategy () in
  t.entries <- List.filter (fun e -> e != entry) t.entries;
  t.structure_version <- t.structure_version + 1;
  if Fcv_util.Telemetry.enabled () then
    Fcv_util.Telemetry.incr (Fcv_util.Telemetry.counter "index.rebuilds");
  rebuilt

(* Out of level space mid-update: drop the (now stale) entry and queue
   its recipe; {!Lifecycle.maybe_gc} recycles the level space and
   re-adds it before the next validation.  Checks that run before then
   see no covering entry and fall back accordingly. *)
let defer_rebuild t entry =
  t.entries <- List.filter (fun e -> e != entry) t.entries;
  t.deferred <- entry_spec entry :: t.deferred;
  t.structure_version <- t.structure_version + 1;
  if Fcv_util.Telemetry.enabled () then
    Fcv_util.Telemetry.incr (Fcv_util.Telemetry.counter "index.deferred_rebuilds")

let rebuild_or_defer t entry =
  try ignore (rebuild_entry t entry) with M.Level_limit _ -> defer_rebuild t entry

(** Insert a full coded row into the base table and every index on
    it.  An entry whose frozen domain capacity the row exceeds (new
    dictionary codes) is transparently rebuilt in place instead of
    {!Needs_rebuild} escaping to the caller. *)
let insert t ~table_name row =
  let table = R.Database.table t.db table_name in
  R.Table.insert_coded table row;
  List.iter
    (fun e ->
      try update_entry t e ~insert:true row with Needs_rebuild _ -> rebuild_or_defer t e)
    (entries_for t table_name)

(** Drop every entry indexed on [table_name] (their nodes become dead,
    reclaimed by the next {!compact}; their levels are abandoned until
    the next level recycle).  Returns the number of entries dropped. *)
let remove_entries_for t table_name =
  let doomed, kept =
    List.partition (fun e -> R.Table.name e.table = table_name) t.entries
  in
  t.entries <- kept;
  t.deferred <- List.filter (fun (tbl, _, _) -> tbl <> table_name) t.deferred;
  if doomed <> [] then t.structure_version <- t.structure_version + 1;
  List.length doomed

(** Garbage-collect the shared manager: keep exactly the entries'
    current BDDs, dropping the dead intermediates that incremental
    maintenance and past constraint checks left behind.  Returns the
    number of nodes reclaimed. *)
let compact t =
  let before = M.size t.mgr in
  t.peak_nodes <- max t.peak_nodes (M.stats t.mgr).M.peak_nodes;
  let entries = t.entries in
  (* ids are reused after compaction: keep only the projections a
     check read since the last one, at the entry's current root *)
  List.iter
    (fun e ->
      Hashtbl.filter_map_inplace
        (fun _ p -> if p.read && p.at = e.root then Some p else None)
        e.projections)
    entries;
  let kept =
    List.concat_map
      (fun e -> Hashtbl.fold (fun key p acc -> (e, key, p.bdd) :: acc) e.projections [])
      entries
  in
  let roots =
    M.compact t.mgr (List.map (fun e -> e.root) entries @ List.map (fun (_, _, b) -> b) kept)
  in
  let n = List.length entries in
  let entry_roots = List.filteri (fun i _ -> i < n) roots in
  let projected = List.filteri (fun i _ -> i >= n) roots in
  List.iter2
    (fun e root ->
      (* same BDD, new id: a count taken at the old root still holds *)
      let carry at = if at = e.root then root else -1 in
      e.size_at <- carry e.size_at;
      e.rows_at <- carry e.rows_at;
      e.root <- root)
    entries entry_roots;
  List.iter2
    (fun (e, key, _) bdd -> Hashtbl.replace e.projections key { at = e.root; bdd; read = false })
    kept projected;
  let reclaimed = before - M.size t.mgr in
  t.gc_base <- M.size t.mgr;
  t.gc_runs <- t.gc_runs + 1;
  t.gc_reclaimed <- t.gc_reclaimed + reclaimed;
  if Fcv_util.Telemetry.enabled () then
    Fcv_util.Telemetry.incr (Fcv_util.Telemetry.counter "index.gc_runs");
  reclaimed

(** The store copied into a fresh manager (see the interface).  [t] is
    only read: no walk (walks write the stamp array), no
    {!entry_size}/{!entry_rows} (they write the cached counts), and no
    traversal of [t]'s hash tables (a traversal flips a flag in the
    table), only [Hashtbl.copy]. *)
let copy t =
  let cached =
    List.map
      (fun e ->
        Hashtbl.fold
          (fun key p acc -> if p.at = e.root then (key, p) :: acc else acc)
          (Hashtbl.copy e.projections) [])
      t.entries
  in
  let old =
    List.concat
      (List.map2 (fun e ps -> e.root :: List.map (fun (_, p) -> p.bdd) ps) t.entries cached)
  in
  let mgr, fresh = M.copy t.mgr old in
  let id = Hashtbl.create 64 in
  List.iter2 (Hashtbl.replace id) old fresh;
  let id = Hashtbl.find id in
  let entries =
    List.map2
      (fun e ps ->
        let root = id e.root in
        let projections = Hashtbl.create 8 in
        List.iter
          (fun (key, p) -> Hashtbl.replace projections key { p with at = root; bdd = id p.bdd })
          ps;
        let carry at = if at = e.root then root else -1 in
        {
          e with
          root;
          counts = Hashtbl.copy e.counts;
          size_at = carry e.size_at;
          rows_at = carry e.rows_at;
          projections;
        })
      t.entries cached
  in
  {
    db = t.db;
    mgr;
    entries;
    scratch_pool = Hashtbl.copy t.scratch_pool;
    deferred = t.deferred;
    structure_version = t.structure_version;
    gc_base = M.size mgr;
    gc_runs = 0;
    gc_reclaimed = 0;
    level_recycles = 0;
    peak_nodes = 2;
  }

(** Delete one occurrence of a full coded row from the base table and
    every index on it; entries that cannot maintain the deletion
    incrementally are rebuilt in place (see {!insert}). *)
let delete t ~table_name row =
  let table = R.Database.table t.db table_name in
  let removed = R.Table.delete_coded table row in
  if removed then
    List.iter
      (fun e ->
        try update_entry t e ~insert:false row with Needs_rebuild _ -> rebuild_or_defer t e)
      (entries_for t table_name);
  removed

(* -- memory accounting ----------------------------------------------------- *)

(** Nodes reachable from the entries' live roots and from the
    projections cached at those roots (terminals included) — what
    {!compact} would keep if every cached projection were read before
    it. *)
let live_nodes t =
  if t.entries = [] then 2
  else
    M.node_count_shared t.mgr
      (List.concat_map
         (fun e ->
           Hashtbl.fold
             (fun _ p acc -> if p.at = e.root then p.bdd :: acc else acc)
             e.projections [ e.root ])
         t.entries)

(* The fraction of the manager's nodes not reachable from any live
   root, given [live_nodes t], so a caller that reports both walks the
   live store once. *)
let dead_of t live =
  let size = M.size t.mgr in
  if size <= 2 then 0. else float_of_int (size - live) /. float_of_int size

(** Levels referenced by live structures: entry blocks plus the pooled
    scratch blocks (reused by future checks, so not abandoned). *)
let levels_live t =
  let entry_levels =
    List.fold_left
      (fun acc e -> Array.fold_left (fun acc b -> acc + Fd.width b) acc e.blocks)
      0 t.entries
  in
  Hashtbl.fold
    (fun _ blocks acc -> List.fold_left (fun acc b -> acc + Fd.width b) acc blocks)
    t.scratch_pool entry_levels

(** Levels allocated in the manager but no longer referenced by any
    entry or pooled scratch block — dead variable space from entry
    rebuilds and abandoned allocations.  Only a level recycle (dense
    rebuild into a fresh manager) reclaims it. *)
let levels_abandoned t = max 0 (M.nvars t.mgr - levels_live t)

(** Peak node count across the store's lifetime, surviving level
    recycles (which swap in a fresh manager). *)
let peak_nodes t = max t.peak_nodes (M.stats t.mgr).M.peak_nodes

type lifecycle_stats = {
  nodes : int;
  live : int;
  peak : int;
  dead : float;
  levels_used : int;
  levels_alive : int;
  gc_runs : int;
  gc_reclaimed : int;
  level_recycles : int;
  cache_entries : int;
  deferred_rebuilds : int;
}

let lifecycle_stats t =
  let live = live_nodes t in
  {
    nodes = M.size t.mgr;
    live;
    peak = peak_nodes t;
    dead = dead_of t live;
    levels_used = M.nvars t.mgr;
    levels_alive = levels_live t;
    gc_runs = t.gc_runs;
    gc_reclaimed = t.gc_reclaimed;
    level_recycles = t.level_recycles;
    cache_entries = M.cache_entries t.mgr;
    deferred_rebuilds = List.length t.deferred;
  }

(** Refresh the memory-lifecycle gauges (dead ratio is reported as a
    percentage because gauges are integer-valued). *)
let publish_gauges t =
  let module T = Fcv_util.Telemetry in
  if T.enabled () then begin
    let live = live_nodes t in
    T.gauge_set (T.gauge "bdd.live_nodes") live;
    T.gauge_set (T.gauge "bdd.dead_ratio") (int_of_float (dead_of t live *. 100.));
    T.gauge_set (T.gauge "bdd.levels_used") (M.nvars t.mgr)
  end
