(** A fixed-size OCaml 5 domain worker pool that runs batches of
    tasks, with graceful shutdown.

    The pool is the substrate of parallel constraint validation: the
    checker runs a batch as one task per constraint through
    {!run_ordered}, on workers that each own a private BDD manager +
    index replica (managers are single-threaded by design — see
    DESIGN.md §Parallelism).  The pool itself is workload-agnostic: it
    runs closures.

    Thread-safety: every operation may be called from any domain.
    Tasks run on worker domains; a task's exception is captured with
    its backtrace and re-raised by {!run_ordered} in the calling
    domain.  Each task runs under a telemetry span ["pool.task"] and
    bumps the ["pool.tasks.done"] or ["pool.tasks.failed"] counter, so
    instrumented runs can see per-task latency. *)

type t

val max_jobs : int
(** The widest pool {!create} spawns: 128 worker domains. *)

val create : ?name:string -> jobs:int -> unit -> t
(** Spawn [jobs] worker domains ([1 <= jobs <= max_jobs]).  [name]
    labels telemetry.  @raise Invalid_argument on a size out of range. *)

val size : t -> int
(** The number of worker domains. *)

val run_ordered : t -> ?order:int array -> (unit -> 'a) array -> 'a array
(** Run a batch through the claimed-batch scheduler: workers share one
    atomic claim cursor over [order] (a permutation of the task
    indices; identity by default), so scheduling is dynamic — a worker
    finishing a cheap task immediately claims the next unstarted one,
    and one pathological task can no longer serialise the pass behind
    a static partition.  Callers put expensive tasks first in [order]
    (cost-descending) so the long poles start immediately.  Results
    are indexed like the input.  If any task raised, the first failure
    {e in input order} is re-raised — after every task has settled, so
    no task is left running against state the caller tears down next.
    @raise Invalid_argument if [order] is not a permutation. *)

val shutdown : t -> unit
(** Graceful shutdown: a batch already running completes and returns
    every result, a later {!run_ordered} raises [Invalid_argument], and
    every worker domain is joined.  Idempotent. *)
