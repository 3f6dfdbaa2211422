(** Memory-lifecycle policy for long-running index stores: decides
    when to garbage-collect the shared BDD manager
    ({!Index.compact}) and when to {e recycle} abandoned variable
    levels (dense rebuild through {!Index_io} into a fresh manager).
    Mechanism lives in {!Index} / {!Fcv_bdd.Manager}; this module is
    only the policy and the recycle orchestration.  Nothing here may
    run mid-check — node ids and levels are renumbered. *)

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
          packing ceiling (0 disables) *)
}

val default_policy : policy
(** GC at 50% dead / half-full caches (≥ 4096 nodes); recycle at 128
    abandoned levels or within 64 of the 511-level ceiling. *)

val needs_gc : policy -> Index.t -> bool

val needs_recycle : policy -> Index.t -> bool
(** Also true whenever deferred rebuilds are queued — only a recycle
    can re-admit them. *)

val recycle : Index.t -> int
(** Rebuild the store into a fresh manager with dense level
    assignment (snapshot → hydrate), carrying budgets, strategies and
    lifetime accounting; replays deferred rebuilds; returns nodes
    reclaimed.  Callers must invalidate replicas and hold no node ids
    across the call. *)

type action = {
  recycled : bool;
      (** levels were renumbered — the caller must bump replica epochs *)
  gc_ran : bool;
      (** a collection ran; a {e pure} compact ([gc_ran] without
          [recycled]) renumbers only master-private node ids, which
          replicas never see, so it needs no invalidation *)
  reclaimed : int;
}

val no_action : action

val maybe_gc : ?policy:policy -> Index.t -> action
(** Run the policy once, between checks: recycle, else GC, else
    nothing.  Publishes telemetry gauges when anything ran.  Replica
    invalidation is the caller's job (needed iff
    [action.recycled]). *)
