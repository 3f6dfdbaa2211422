(** The sharded serving tier: N {!Shard}s behind one {!Router}, with
    group commit.  Tables partition by a stable hash; a constraint
    lives on the shard owning its first watched table, which keeps
    journaled, synced replicas of any watched table it does not own
    (populated by a textual row-diff {e migration} at registration,
    maintained by mutation fan-out).  Validation fans out per shard
    and merges verdicts by constraint id — an N-shard tier answers
    exactly what the 1-shard tier would.  Shard WALs are un-fsynced;
    {!flush} is the group commit: one fsync per dirty WAL covering
    every journaled mutation, after which (and only after which)
    acknowledgements may be released. *)

type t

val of_shards : ?fsync:bool -> Shard.t array -> t
(** Wrap existing shards (at least one); constraint-id allocation and
    watcher sets are derived from their registries.  [fsync:false]
    makes {!flush} a bookkeeping no-op (no durability). *)

val create_fresh :
  ?fsync:bool ->
  ?max_nodes:int ->
  shards:int ->
  load_base:(unit -> Fcv_relation.Database.t) ->
  unit ->
  t
(** A fresh in-memory tier: each shard gets its own monitor over its
    own [load_base ()] copy. *)

val recover :
  ?max_nodes:int ->
  ?shards:int ->
  ?fsync:bool ->
  state_dir:string ->
  load_base:(unit -> Fcv_relation.Database.t) ->
  unit ->
  t * Shard.recovered array
(** Recover an N-shard tier from [state_dir] (per-shard snapshot +
    WAL replay; [shards = 1] keeps the flat single-shard layout,
    [shards > 1] uses [shard-<i>/] subdirectories).  The directory's
    [SHARDS] lineage file is checked first —
    @raise Invalid_argument when [state_dir] was built with a
    different shard count: re-sharding an existing directory is
    explicitly refused, not silently misrouted. *)

val shards : t -> Shard.t array
val shard_count : t -> int

val pending : t -> int
(** Records journaled since the last {!flush} — the group-commit
    window trigger. *)

val clear_pending : t -> unit
(** Reset the window counter without syncing (the simulator's planted
    skip-fsync bugs use this to model a buggy flush). *)

val flush : t -> unit
(** Group commit: fsync every dirty shard's WAL, then reset the
    window.  Acknowledgements staged for journaled mutations may be
    released once this returns. *)

val targets : t -> Protocol.request -> int list
(** The shards a logged request journals on (owner first; empty for
    non-mutating or unroutable requests).  Registration may journal
    additional migration records on the constraint's shard. *)

val register : ?id:int -> t -> string -> Core.Monitor.registered
(** Place, migrate-for and register one constraint under a
    tier-allocated (or pinned) id, journaling on its shard.
    @raise the {!Core.Monitor.add} errors on a bad constraint. *)

val apply : t -> Protocol.request -> ((string * Fcv_util.Telemetry.json) list, Protocol.error_code * string) result
(** Answer one mutating request tier-wide ({!Mutator.apply}'s
    contract): apply on the owner — whose verdict is the response —
    then fan out to watchers, journaling on every shard that applied.
    Non-mutating requests return [Ok []] — except [Repair], which
    plans a deletion repair against the tier-wide logical state
    (owner copies, decoded — shard dictionaries are not code-
    compatible) and, with [apply:true], executes each planned
    deletion through this same function: owner-first fan-out,
    journaled as ordinary [Delete] records, inside the caller's
    group-commit window, so recovery replays the repair without ever
    re-running a planner. *)

val validate : t -> Core.Monitor.report list
(** One dirty-set pass per shard, reports merged by constraint id. *)

val verdicts : t -> (int * Core.Checker.outcome) list
(** Merged [(id, outcome)] pairs sorted by id. *)

val constraints : t -> Core.Monitor.registered list
(** Every shard's registrations, sorted by id. *)

val snapshot : t -> unit
(** Rotate every shard's snapshot generation (covers all applied
    mutations, so this implies a flush). *)

val auto_snapshot : t -> every:int -> unit
(** Rotate only the shards whose WAL grew past [every] records since
    their last rotation — per-shard snapshot lifecycle. *)

val set_jobs : t -> int -> unit
(** {!Core.Monitor.set_jobs} on every shard; {!close} joins any started
    pool. *)

val gc : t -> int
(** Reclaim memory on every shard; total nodes reclaimed. *)

val close : t -> unit

val table_cardinality : t -> string -> int
(** Cardinality of [table]'s authoritative (owner) copy. *)

val record_shards : string -> int -> unit
(** Write a state directory's [SHARDS] lineage file. *)

val read_shards : string -> int option
(** The shard count a state directory was built with: its [SHARDS]
    file, or — when that is missing or crash-damaged — inferred from
    the layout ([shard-<i>/] subdirectories, or a flat legacy
    single-shard directory).  [None] for a fresh directory. *)
