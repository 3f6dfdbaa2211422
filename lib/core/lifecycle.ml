(** The memory-lifecycle policy for long-running index stores.

    The paper keeps logical indices {e resident} so dynamic databases
    can be re-validated continuously (§5.2) — which means a daemon
    must reclaim what continuous operation sheds: dead BDD nodes left
    by incremental maintenance and past checks, memo-table entries,
    and variable levels abandoned by entry rebuilds.  This module
    decides {e when}; the mechanisms live below it
    ({!Index.compact}, the bounded caches in {!Fcv_bdd.Manager}, and
    the dense re-load of {!Index_io}).

    Two reclamation tiers:

    - {b GC} ({!Index.compact}): mark-and-rebuild of the node store
      keeping only the entries' live roots; triggered by the dead-node
      ratio or op-cache occupancy.  Node ids are renumbered, so the
      caller must bump {!Replica} epochs afterwards.
    - {b Level recycle} ({!recycle}): rebuild the whole store through
      the {!Index_io} snapshot/hydrate path into a fresh manager with
      dense level assignment, reclaiming abandoned level space.  This
      turns the 511-level packing ceiling from a lifetime fuse into a
      per-epoch budget.  Subsumes a GC (only live roots are
      serialised).

    Neither ever runs mid-check: the only call sites are between
    validations ({!maybe_gc}) and explicit [compact] requests. *)

module M = Fcv_bdd.Manager
module I = Index
module T = Fcv_util.Telemetry

type policy = {
  dead_ratio_hi : float;
      (** GC when the dead-node fraction reaches this (0 disables) *)
  min_nodes : int;  (** never GC a manager smaller than this *)
  cache_hi : int;
      (** GC when total op-cache occupancy reaches this (0 disables) *)
  level_slack : int;
      (** recycle when this many levels are abandoned (0 disables) *)
  level_headroom : int;
      (** recycle when fewer than this many levels remain before the
          packing ceiling *)
}

(* Defaults tuned for the serving path: GC at 50% garbage (amortised
   O(live) per O(live) garbage produced), recycle when a quarter of
   the level space is dead or the ceiling is near. *)
let default_policy =
  {
    dead_ratio_hi = 0.5;
    min_nodes = 1 lsl 12;
    cache_hi = M.default_max_cache / 2;
    level_slack = 128;
    level_headroom = 64;
  }

let needs_gc policy index =
  M.size (I.mgr index) >= policy.min_nodes
  && ((policy.dead_ratio_hi > 0. && I.dead_ratio index >= policy.dead_ratio_hi)
     || (policy.cache_hi > 0 && M.cache_entries (I.mgr index) >= policy.cache_hi))

let needs_recycle policy index =
  (policy.level_slack > 0 && I.levels_abandoned index >= policy.level_slack)
  || (policy.level_headroom > 0
     && M.nvars (I.mgr index) >= M.max_level - policy.level_headroom)
  || index.I.deferred <> []

(** Rebuild the whole store into a fresh manager with dense level
    assignment, through the {!Index_io} snapshot/hydrate machinery:
    only the entries' live nodes are serialised and every abandoned
    level disappears.  Budgets ([max_nodes], [max_cache]), declared
    ordering strategies and lifetime accounting are carried over; the
    scratch pool is dropped (its blocks reference the old manager).
    Deferred rebuilds are replayed into the fresh level space.

    Node ids and levels are renumbered: callers must invalidate
    replicas, and must not hold ids across the call.  Returns the
    number of nodes reclaimed (possibly 0). *)
let recycle index =
  let before = M.size (I.mgr index) in
  index.I.peak_nodes <- I.peak_nodes index;
  let strategies = List.map (fun e -> e.I.strategy) index.I.entries in
  let fresh = Index_io.load_string index.I.db (Index_io.save_string index) in
  M.set_max_nodes (I.mgr fresh) (M.max_nodes (I.mgr index));
  M.set_max_cache (I.mgr fresh) (M.max_cache (I.mgr index));
  index.I.mgr <- I.mgr fresh;
  (* the loader pins each entry to its saved concrete order (Fixed);
     restore the declared strategies so future rebuilds re-resolve *)
  index.I.entries <-
    List.map2 (fun e s -> { e with I.strategy = s }) (I.entries fresh) strategies;
  Hashtbl.reset index.I.scratch_pool;
  index.I.level_recycles <- index.I.level_recycles + 1;
  (* levels and node ids were renumbered wholesale: replicas must do a
     full rehydration, never a row-delta catch-up *)
  index.I.structure_version <- index.I.structure_version + 1;
  let reclaimed = max 0 (before - M.size (I.mgr index)) in
  index.I.gc_runs <- index.I.gc_runs + 1;
  index.I.gc_reclaimed <- index.I.gc_reclaimed + reclaimed;
  (* replay rebuilds that were deferred for lack of level space; a
     spec the fresh manager still cannot fit stays queued (its checks
     fall back meanwhile) *)
  let deferred = index.I.deferred in
  index.I.deferred <- [];
  List.iter
    (fun ((table_name, attrs, strategy) as spec) ->
      try ignore (I.add index ~table_name ~attrs ~strategy ())
      with M.Level_limit _ | M.Node_limit _ ->
        index.I.deferred <- spec :: index.I.deferred)
    deferred;
  if T.enabled () then begin
    T.incr (T.counter "index.level_recycles");
    T.incr (T.counter "index.gc_runs")
  end;
  reclaimed

type action = {
  recycled : bool;
  gc_ran : bool;  (** an {!Index.compact} ran (recycles subsume one) *)
  reclaimed : int;  (** nodes reclaimed by whichever tier ran *)
}

let no_action = { recycled = false; gc_ran = false; reclaimed = 0 }

(** Run the policy once, {e between} checks: recycle if level space
    demands it (which also collects garbage), else GC if the dead
    ratio or cache occupancy demand it, else do nothing.  Publishes
    the lifecycle gauges when anything ran.  The caller owns replica
    invalidation — needed iff [action.recycled]; a pure compact
    renumbers only master-private node ids replicas never see. *)
let maybe_gc ?(policy = default_policy) index =
  let action =
    if needs_recycle policy index then
      { recycled = true; gc_ran = true; reclaimed = recycle index }
    else if needs_gc policy index then
      { recycled = false; gc_ran = true; reclaimed = I.compact index }
    else no_action
  in
  if action.gc_ran then I.publish_gauges index;
  action
