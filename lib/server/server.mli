(** The constraint service: a long-running daemon multiplexing
    concurrent, pipelined client sessions over a sharded {!Tier},
    with WAL-backed durability and group commit.

    Design points (see DESIGN.md §"Sharded serving"):
    - single-threaded [select] event loop — sessions interleave at
      request granularity; a connection may have many requests in
      flight (one read queues every complete line) and replies come
      back in per-session request order;
    - {e sharding}: constraints and tables partition across N shards
      ({!Tier}), each with its own monitor, WAL generation sequence,
      snapshot lineage and GC; a [validate] fans out — one dirty-set
      pass per shard — and merges verdicts by constraint id;
    - {e update coalescing}: within one loop round, every session's
      burst of inserts/deletes is applied before validation runs, and
      all sessions awaiting [validate] share one fan-out pass;
    - {e durability with group commit}: mutating requests are applied
      and journaled per shard, their replies {e staged}; when the
      group-commit window fills — and at the end of every round — the
      tier fsyncs each dirty WAL once and the staged replies are
      released, so an acknowledged mutation is always durable while
      the write path pays one fsync per WAL per batch, not per
      mutation.  Snapshots bound replay length and switch atomically
      {e together with} a fresh per-generation WAL, per shard;
    - {e isolation}: malformed lines get an error response, oversized
      or half-dead sessions are closed, handler exceptions become
      [internal] error responses — one bad client never kills the
      loop;
    - graceful drain on SIGTERM/SIGINT (or a [shutdown] request):
      queued requests are answered, final snapshots are cut, sockets
      are closed.

    The loop is exposed as {!poll} (one round) so tests can drive
    server and clients deterministically from a single thread; {!run}
    is the daemon entry point.

    The durable core is factored out of the event loop — {!Mutator}
    (apply-then-journal), {!Shard} (per-shard WAL + snapshot lineage)
    and {!Tier} (routing, fan-out, group commit) — and the
    fault-injection simulator ([lib/sim]) drives those layers
    directly, so its crash points exercise the daemon's real
    durability code at every per-shard effect. *)

type config = {
  addr : string;  (** Unix socket path or "host:port" ({!Protocol.sockaddr_of_string}) *)
  state_dir : string option;  (** durability root; [None] = in-memory only *)
  fsync_every : int;
      (** [> 0]: fsync dirty WALs at each group commit (the durable
          default); [0]: never fsync (OS-buffered only) *)
  snapshot_every : int;
      (** cut a shard's snapshot automatically every this many of its
          WAL records (0 = only on [snapshot] requests and shutdown) *)
  idle_timeout : float;  (** close sessions silent this long, in seconds (0 = never) *)
  partial_timeout : float;
      (** close sessions holding a half-received line this long —
          the request read timeout (0 = never) *)
  max_line : int;  (** max request-line bytes before the session is killed *)
  max_sessions : int;
  jobs : int;
      (** at most this many worker domains per shard for the
          coalesced validate passes, started by the first pass that
          pays for them ({!Core.Monitor.set_jobs}); the event loop
          itself stays single-threaded.  1 = validate inline. *)
  shards : int;  (** serving-tier shard count (used by [fcv serve] to size {!Tier.recover}) *)
  group_commit_window : int;
      (** release acknowledgements after at most this many journaled
          mutations share one WAL fsync; every processing round also
          ends with a flush, bounding ack latency *)
}

val default_config : addr:string -> config
(** Durable group commit (window 8), snapshot every 10k records, 1
    shard, 60 s idle timeout, 10 s partial-request timeout, 1 MiB
    lines, 64 sessions, 1 job. *)

type t

val of_tier : config -> Tier.t -> t
(** Bind and listen (unlinking a stale Unix socket path) over an
    existing tier — the entry point for a sharded daemon
    ({!Tier.recover} + [of_tier]).  SIGPIPE is ignored process-wide;
    [config.jobs] is applied to every shard. *)

val create : ?unregistered:string list -> config -> Core.Monitor.t -> t
(** Single-shard convenience: wrap [monitor] in a 1-shard tier over
    [config.state_dir] (flat legacy layout, [SHARDS] lineage recorded)
    and listen.  [unregistered] seeds the tombstone list (from
    {!Shard.recover}). *)

val tier : t -> Tier.t

val monitor : t -> Core.Monitor.t
(** Shard 0's monitor (the only one on a single-shard server). *)

val register : ?id:int -> t -> string -> Core.Monitor.registered
(** Register a constraint through the durability path (apply, then
    WAL-log with the pinned id on its shard, then flush) — what a
    client [register] request does; used directly for [--constraints]
    startup files so their ids survive crash recovery.  Clears the
    source's tombstone.
    @raise the {!Core.Monitor.add} errors on a bad constraint. *)

val poll : ?timeout:float -> t -> bool
(** One event-loop round: accept, read (queueing every complete
    pipelined line), process (with update coalescing and the
    window-triggered group commits), release + flush, reap timed-out
    sessions, per-shard auto-snapshot.  Returns [false] once the
    server has stopped. *)

val draining : t -> bool

val request_drain : t -> unit
(** Ask for a graceful stop: the next {!poll} round answers what is
    queued (connects arriving meanwhile are refused with
    [shutting_down]), cuts final snapshots and closes. *)

val stop : t -> unit
(** Immediate graceful stop: final snapshot per shard, close every
    socket. *)

val kill : t -> unit
(** Crash simulation (for tests): the next {!poll} round closes every
    socket {e without} cutting snapshots — staged, un-flushed replies
    are dropped with it — leaving exactly the on-disk state an abrupt
    kill would; recovery must come from each shard's last snapshot
    plus its WAL.  Safe to call from another thread than the one
    polling. *)

val snapshot : t -> unit
(** Cut a snapshot generation on every shard now (no-op without
    [state_dir]). *)

val run : t -> unit
(** Daemon entry point: install SIGTERM/SIGINT drain handlers and
    {!poll} until stopped. *)

