(** Deterministic fault-injection simulator for the constraint
    service's durability machinery — sharded.

    One {e schedule} is: generate a seeded workload (a shard count,
    a group-commit window, constraint registrations, inserts, deletes,
    unregisters, applied greedy repairs, rejected requests, snapshot
    points over a university or retail base), run it through the server's real durable tier
    ({!Fcv_server.Tier}: routed fan-out over per-shard
    {!Fcv_server.Mutator} + WAL + snapshot rotation, group commit)
    against the {!Fault} in-memory file system, and

    - record a per-shard {e oracle}: each shard's state digest
      (extensional database + constraint registry + tombstones +
      verdicts) after each of its journaled records on a never-crashed
      run;
    - run once fault-free (whose clean restart must also give each
      shard's sequential verdicts from a pooled check of its
      registered specs, {!Core.Checker.check_all_pooled} on a started
      two-worker pool) and once per reachable fault point —
      the points cover every per-shard durable effect, including
      between two shards' WAL appends of one routed burst and
      mid-rotation of one shard's snapshot — crashing there,
      restarting, recovering the whole tier, and checking the
      {e durability invariant} on {e every} shard: shard [s]'s
      recovered digest equals its oracle digest after [k] journaled
      records for some [k] in [[synced(s), journaled(s)]] — mutations
      acknowledged by a group commit survive on every shard they
      journaled on, unacknowledged ones are atomically absent, and
      recovery itself never errors;
    - on a violation, shrink: the shortest workload prefix and
      earliest fault point that still fail, reported as a one-line
      replayable [fcv sim] command.

    [inject] plants a known durability bug to prove the harness
    catches it (each yields a shrunk counterexample):
    - [Log_before_apply]: journal on every target shard before
      applying — rejected requests reach the WALs and recovery
      diverges or fails;
    - [Skip_fsync]: acknowledge without any fsync — a crash loses
      acknowledged mutations;
    - [Skip_rotate]: cut a snapshot without the atomic WAL rotation —
      mutations after the snapshot vanish on restart;
    - [Skip_shard_fsync]: the cross-shard group-commit bug — the
      flush fsyncs every dirty shard {e except the last}, so a routed
      burst is acknowledged while one shard's slice is still volatile
      (on a 1-shard workload this degenerates to [Skip_fsync] and is
      still caught). *)

type inject = Log_before_apply | Skip_fsync | Skip_rotate | Skip_shard_fsync

val inject_to_string : inject -> string
val inject_of_string : string -> (inject, string) result

type counterexample = {
  cx_seed : int;  (** workload (schedule) seed *)
  cx_ops : int;  (** shrunk workload length *)
  cx_fault : int;  (** fault point; -1 = fails without a crash *)
  cx_inject : inject option;
  cx_reason : string;
  cx_repro : string;  (** one-line replay command *)
}

type result = {
  schedules_run : int;
  crash_runs : int;  (** total fault points exercised *)
  failures : counterexample list;
}

val run :
  ?inject:inject ->
  ?ops:int ->
  ?fault:int ->
  ?shards:int ->
  ?max_failures:int ->
  ?progress:(string -> unit) ->
  seed:int ->
  schedules:int ->
  unit ->
  result
(** Sweep [schedules] schedules; schedule [i]'s workload seed is
    [Fcv_util.Rng.derive seed i], so any schedule replays in
    isolation.  [ops] overrides every workload's length; [shards]
    overrides every workload's drawn shard count (1–3 otherwise).
    With [fault], replay mode: [seed] is used directly as the workload
    seed and only that fault point runs ([fault = -1] = the
    fault-free clean-restart check) — the shape a counterexample's
    repro line uses.  Stops after [max_failures] (default 1) shrunk
    counterexamples. *)
