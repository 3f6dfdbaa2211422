(** The logical index store: one shared BDD manager per database, one
    characteristic-function BDD per indexed table (or projection),
    plus the §5.2 incremental maintenance. *)

type projection = {
  at : int;  (** the root the projection was computed at *)
  bdd : int;
  mutable read : bool;  (** read by a check since the last {!compact} *)
}
(** A projection of an entry cached by {!val-projection}. *)

type projection_key = (int * int) list * int list
(** Sorted fixed [(position, code)] pairs and sorted dropped
    positions (schema positions of indexed attributes). *)

type entry = {
  table : Fcv_relation.Table.t;
  attrs : int array;  (** indexed schema positions, ascending *)
  order : int array;  (** permutation of [0, |attrs|) over [attrs] *)
  strategy : Ordering.strategy;
  blocks : Fcv_bdd.Fd.block array;  (** blocks.(i) belongs to attrs.(i) *)
  mutable root : int;
  counts : (int, int) Hashtbl.t;
      (** multiset of projected rows — deletions must know when the
          last witness of a projection disappears *)
  mutable build_time : float;  (** seconds spent building [root] *)
  mutable size_at : int;
      (** the root [size] was counted at; -1 = not counted.  Read the
          statistics through {!entry_size} and {!entry_rows}. *)
  mutable size : int;
  mutable rows_at : int;  (** the root [rows] was counted at; -1 = not counted *)
  mutable rows : float;
  projections : (projection_key, projection) Hashtbl.t;
      (** projections cached per root; read them through
          {!val-projection} *)
}

type t = {
  db : Fcv_relation.Database.t;
  mutable mgr : Fcv_bdd.Manager.t;
      (** mutable so level recycling ({!Lifecycle.recycle}) can swap in
          a fresh, densely-numbered manager in place *)
  mutable entries : entry list;
  scratch_pool : (int, Fcv_bdd.Fd.block list) Hashtbl.t;
      (** reusable auxiliary blocks by domain size, so repeated checks
          do not consume the manager's bounded level space *)
  mutable deferred : (string * string list * Ordering.strategy) list;
      (** entry rebuilds postponed because the manager ran out of
          levels mid-update; recycled and re-added before the next
          validation *)
  mutable structure_version : int;
      (** bumped on every structural change to the entry set (add,
          remove, rebuild, defer, level recycle) but not on
          content-preserving GC — how {!Replica} decides whether a
          row-level delta can still describe the master *)
  mutable gc_runs : int;
  mutable gc_reclaimed : int;
  mutable level_recycles : int;
  mutable peak_nodes : int;  (** peak carried across level recycles *)
}

exception Needs_rebuild of string
(** An update fell outside an index's frozen domain capacity (new
    dictionary codes) or maintenance capability; rebuild the entry. *)

val create : ?max_nodes:int -> ?max_cache:int -> Fcv_relation.Database.t -> t
(** [max_nodes] is the shared node budget (0 = unlimited);
    [max_cache] the manager's per-op-cache slot cap (default
    {!Fcv_bdd.Manager.default_max_cache}). *)

val mgr : t -> Fcv_bdd.Manager.t
val entries : t -> entry list

val borrow_scratch : t -> dom_size:int -> Fcv_bdd.Fd.block
(** Borrow an auxiliary block (reused from the pool when possible). *)

val release_scratch : t -> Fcv_bdd.Fd.block list -> unit
(** Return borrowed blocks; their BDDs must no longer be consulted. *)

val project : Fcv_relation.Table.t -> int array -> Fcv_relation.Table.t
(** Distinct projection as a fresh (unregistered) table sharing the
    same dictionaries. *)

val add :
  t ->
  table_name:string ->
  ?attrs:string list ->
  strategy:Ordering.strategy ->
  unit ->
  entry
(** Build and register an index on a table (default: all attributes)
    under the ordering chosen by [strategy]. *)

val entries_for : t -> string -> entry list

val find_covering : t -> table_name:string -> needed:int list -> entry option
(** First entry on the table whose attribute set covers [needed]. *)

val entry_mem : t -> entry -> int array -> bool
(** Is this projected row in the index? *)

val slot_of : entry -> int -> int
(** The slot of a schema position in [entry.attrs] (and so in
    [entry.blocks]).
    @raise Invalid_argument if the entry does not index it. *)

(** {2 Entry statistics and projections}

    The index is the one owner of its entries' statistics and
    projections.  Each statistic is a walk of the whole entry BDD, and
    each projection a restrict and an ∃ over it, so an entry caches
    them with the root they were computed at and returns the cached
    value while [entry.root] is unchanged; the first read after the
    root changes (an {!insert} or {!delete} that changes the indexed
    set) recomputes once.

    A projection is cached under its {!projection_key}: the sorted
    fixed [(position, code)] pairs and the sorted dropped positions.
    Its BDD uses only the entry's own levels.  A miss starts from the
    cached projection of the same root whose fixed and dropped sets
    are the largest subsets of the requested ones (so π{_ lhs} comes
    from π{_ lhs ∪ rhs}), restricts the remaining fixed codes, then
    projects the remaining dropped blocks.  A
    {!Fcv_bdd.Manager.Node_limit} raised inside leaves the cache as it
    was.

    {!compact} renumbers the store but keeps every entry's BDD, so it
    carries the counts over to the remapped roots.  It keeps and
    remaps the projections a check read since the previous
    compaction, and drops the ones computed at a stale root (ids are
    reused after compaction) or not read since, so the cache holds
    only the keys checks read between two compactions.  Entries built
    by {!add} (and so by {!rebuild_entry}), by [Index_io] (and so by
    a level recycle and replica hydration) start with nothing
    counted and nothing cached; [Index_io.save] writes entry roots
    only. *)

val entry_size : t -> entry -> int
(** Nodes reachable from the entry's root, terminals included. *)

val entry_rows : t -> entry -> float
(** Distinct indexed rows: the root's sat-count over the entry's own
    levels. *)

val projection : t -> entry -> fix:(int * int) list -> drop:int list -> int
(** The entry's root restricted to the code at each [fix] position,
    with the [drop] positions' blocks ∃-projected out (positions are
    schema positions of the entry's attributes).  Cached per root, see
    above; telemetry counts [index.projection_builds] and
    [index.projection_hits].
    @raise Invalid_argument on a position the entry does not index, a
    code outside its block's domain, or a position both fixed and
    dropped.
    @raise Fcv_bdd.Manager.Node_limit past the node budget (nothing
    is cached then). *)

val minterm : t -> entry -> int array -> int

val update_entry : t -> entry -> insert:bool -> int array -> unit
(** Apply one base-row update to one entry (exposed for benchmarks);
    normally use {!insert}/{!delete}.  @raise Needs_rebuild *)

val rebuild_entry : t -> entry -> entry
(** Rebuild an entry from the current base table (same attributes and
    strategy), replacing it in the store — the recovery for
    {!Needs_rebuild} after the base table / dictionaries changed. *)

val insert : t -> table_name:string -> int array -> unit
(** Insert a full coded row into the base table and every index on
    it.  The row's codes must already be interned in the table's
    dictionaries; an entry whose capacity they exceed is transparently
    rebuilt ({!rebuild_entry}) rather than raising. *)

val delete : t -> table_name:string -> int array -> bool
(** Delete one occurrence of a row from the base table and every
    index; returns whether a row existed.  Rebuilds entries that
    cannot maintain the deletion incrementally.  An entry that cannot
    be rebuilt for lack of level space is deferred (see {!t.deferred})
    rather than raising. *)

val remove_entries_for : t -> string -> int
(** Drop every entry (and deferred rebuild) indexed on a table,
    returning how many entries were dropped.  Their nodes become dead
    — reclaimed by the next {!compact}. *)

val compact : t -> int
(** Garbage-collect the shared manager down to the entries' live
    BDDs and the projections read since the previous compaction (see
    {!val-projection}); returns the number of nodes reclaimed.  Call
    between checks, never while holding node ids from an ongoing
    compilation. *)

(** {2 Memory accounting} — the inputs to the {!Lifecycle} GC policy. *)

val live_nodes : t -> int
(** Nodes reachable from the entries' live roots and from the
    projections cached at them (terminals included): one walk of the
    live store.  Right after {!compact} it equals the manager's
    size. *)

val dead_ratio : t -> float
(** Fraction of the manager's nodes unreachable from any live root or
    cached projection (one {!live_nodes} walk), so the GC policy never
    counts a projection {!compact} keeps as garbage. *)

val levels_live : t -> int
(** Levels referenced by entry blocks and pooled scratch blocks. *)

val levels_abandoned : t -> int
(** Allocated levels no longer referenced — reclaimable only by a
    level recycle (dense rebuild into a fresh manager). *)

val peak_nodes : t -> int
(** Lifetime peak node count, surviving level recycles. *)

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

val lifecycle_stats : t -> lifecycle_stats
(** Every field above, walking the live store once ([live] and [dead]
    share the walk). *)

val publish_gauges : t -> unit
(** Refresh the [bdd.live_nodes] / [bdd.dead_ratio] (percent) /
    [bdd.levels_used] telemetry gauges (one walk of the live store);
    no-op when telemetry is off. *)
