(** Per-worker replicas of the logical index store, for parallel
    constraint validation.

    {!Fcv_bdd.Manager} is single-threaded by design (hash-consed
    unique table, apply caches — see DESIGN.md §Parallelism), so
    worker domains never share the master's manager.  Instead each
    worker copies the master's store into a private manager
    ({!Index.copy}, with the entries' counts, statistics and cached
    projections) and caches it in domain-local storage under a
    {e refresh epoch}.

    Refreshing is {b incremental} where the mutation history allows:
    the main domain journals row-level ops ({!note_insert} /
    {!note_delete}) against an {!Index.t.structure_version} guard, and
    {!prepare} publishes the journal.  A worker whose replica sits
    inside the journal's window replays only the op suffix it has not
    seen (root/count maintenance identical to what the master ran).
    Every other worker copies the master at the current epoch: a
    fresh domain, a structural change, a window past 4096 ops, or an
    {!invalidate}.  Content-preserving GC ({!Index.compact}) needs
    {e no} notification at all: replicas never see the master's node
    ids.

    Protocol: the coordinating (main) domain calls a [note_*] (or
    {!invalidate}) after every master mutation and {!prepare} before
    fanning tasks out; worker tasks call {!get}.  The journal and the
    master reach workers through the pool's queue lock, so [prepare]
    must happen-before {!Fcv_util.Pool.run_ordered} enqueues the batch
    that consumes them, which calling [prepare] first gives for free.

    Invariant: from {!prepare} until the batch settles, the main
    domain neither mutates nor walks the master (it blocks in the
    pool), so workers may read and copy it at once. *)

type t

val create : Index.t -> t
(** Bind a replica set to [master].  Replicas share the master's
    database (tables, dictionaries — read-only during validation) but
    own fresh managers with the master's budgets. *)

val invalidate : t -> unit
(** The master changed in a way row deltas cannot express (index
    build/rebuild, unregister, level recycle): stale replicas copy the
    master on their next {!get}. *)

val note_insert : t -> table_name:string -> int array -> unit
(** One coded row was inserted into the master (base table already
    updated).  Journals a delta op when the window is still sound —
    the master's [structure_version] is checked, so an entry rebuild
    hidden inside {!Index.insert} safely degrades to {!invalidate}. *)

val note_delete : t -> table_name:string -> int array -> unit
(** One coded row was removed from the master; delta-journaled under
    the same guard as {!note_insert}. *)

val prepare : t -> unit
(** Publish the journal for the current epoch, first restarting its
    window at the current epoch when it stopped being row traffic.
    Main-domain only; call before {!Fcv_util.Pool.run_ordered} enqueues
    tasks that will {!get}, and leave the master alone until they
    settle. *)

val get : t -> Index.t
(** The calling domain's replica at the current epoch — reused when
    fresh, delta-replayed when it sits inside the journal's window, a
    copy of the master otherwise.  Any domain; requires a {!prepare}
    at the current epoch to have happened-before.
    @raise Invalid_argument without one. *)

type stats = {
  full : int;  (** copies of the master across all domains *)
  delta : int;  (** delta catch-ups that reused a replica *)
  delta_ops : int;  (** row ops replayed across all delta catch-ups *)
  snapshot_bytes : int;
      (** always 0: replicas copy the master's store and no snapshot is
          serialised; kept because the benchmark builds this record *)
  delta_bytes : int;
      (** always 0: the journal is published in memory; kept because
          the benchmark builds this record *)
}

val stats : t -> stats
(** Hydration-mode telemetry — the observable the delta machinery
    exists to improve (copies down, cheap catch-ups up). *)
