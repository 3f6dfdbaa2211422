(** Hash-consed store of ROBDD nodes.

    Nodes are dense integer ids; {!zero} and {!one} are the terminals.
    Interior nodes satisfy the ROBDD invariants by construction (no
    redundant tests, unique triples, strictly increasing levels), so
    semantic equivalence is id equality (Bryant's canonicity — Fact 1
    of the paper).

    Variables are identified with their {e level} (0 is tested first);
    a different variable order is realised by allocating levels in a
    different sequence.  The optional {b node budget} makes {!mk}
    raise {!Node_limit} once exceeded — the §4 size-threshold that
    lets the constraint checker abandon BDD processing and fall back
    to SQL.

    {b Layout} (BuDDy's).  Nodes live in flat int arrays indexed by id
    (level, low child, high child, and a unique-table chain link).  The
    unique table is a power-of-two array of chain heads, one per node
    slot, whose chains run through the link array; it doubles with the
    store and {!compact} rebuilds it.  It is exact, so canonicity holds.
    The apply, if-then-else and quantification caches are direct-mapped
    arrays of packed keys and results: a colliding insert overwrites the
    old entry, and each cache doubles while more than half its slots
    are filled, up to {!max_cache} slots.  The memo is lossy, the store
    is not: a lost entry makes an operation recompute a sub-result,
    whose {!mk} calls find the nodes they made the first time, so the
    same operations allocate the same nodes whatever the caches hold. *)

type t

exception Node_limit of int
(** Raised by {!mk} when the node budget is exceeded. *)

exception Level_limit of int
(** Raised by {!new_var} at the 511-level packing ceiling.  The
    serving path recovers by recycling abandoned levels (dense rebuild
    through [Core.Index_io]); a one-shot check treats it like
    {!Node_limit} and falls back to SQL/naive processing. *)

val zero : int
(** The [false] terminal (id 0). *)

val one : int
(** The [true] terminal (id 1). *)

val terminal_level : int
(** Pseudo-level of terminals ([max_int]); deeper than any variable. *)

val create : ?max_nodes:int -> ?max_cache:int -> nvars:int -> unit -> t
(** Fresh manager with [nvars] pre-allocated variables (more can be
    added with {!new_var}).  [max_nodes = 0] (default) means no
    budget; [max_cache] caps each operation cache's slot count
    (default {!default_max_cache}, 0 = uncapped).
    @raise Invalid_argument on a negative [max_nodes] or [max_cache]. *)

val max_level : int
(** Hard level ceiling (511) imposed by node packing; {!new_var}
    raises {!Level_limit} beyond it. *)

val nvars : t -> int
val size : t -> int
(** Total allocated nodes, terminals included. *)

val max_nodes : t -> int

val set_max_nodes : t -> int -> unit
(** [0] lifts the budget.
    @raise Invalid_argument on a negative budget. *)

val default_max_cache : int
(** Default per-cache slot cap (2{^20}). *)

val max_cache : t -> int

val set_max_cache : t -> int -> unit
(** Per-cache slot cap: a cache stops doubling at the largest power of
    two within it (a cache already larger shrinks to it), so memo
    tables cannot grow without bound on a long-running serving path.
    [0] removes the cap.
    @raise Invalid_argument on a negative cap. *)

val new_var : t -> int
(** Allocate a fresh variable at the bottom of the order.
    @raise Level_limit at the packing ceiling (511 levels). *)

val new_vars : t -> int -> int array

val is_terminal : int -> bool
val var : t -> int -> int
(** Level of a node; {!terminal_level} for terminals. *)

val low : t -> int -> int
val high : t -> int -> int

val mk : t -> int -> int -> int -> int
(** [mk t v lo hi] is the unique reduced node testing level [v].
    @raise Node_limit when the budget is exceeded. *)

val ithvar : t -> int -> int
(** BDD of the positive literal at a level. *)

val nithvar : t -> int -> int
(** BDD of the negative literal at a level. *)

(** {2 Operation caches} — used by {!Ops} only.  A lookup returns the
    cached node, or [-1] when the slot holds another key or nothing. *)

val cache_find : t -> int -> int -> int -> int
val cache_add : t -> int -> int -> int -> int -> unit
val ite_cache_find : t -> int -> int -> int -> int
val ite_cache_add : t -> int -> int -> int -> int -> unit

val quant_signature : t -> descr:string -> int
(** Intern a quantification description into a small signature for
    {!quant_cache_find}; recycling flushes the cache when signatures
    run out. *)

val quant_cache_find : t -> int -> int -> int -> int
val quant_cache_add : t -> int -> int -> int -> int -> unit

val clear_caches : t -> unit
(** Drop all memoisation (nodes are kept); the caches keep their
    current size.  Benchmarks call this between repetitions so they
    measure cold operations. *)

val cache_entries : t -> int
(** Current total occupancy of the operation caches (filled slots). *)

(** {2 Operation-call accounting} — used by {!Ops}; each public entry
    point counts itself in a per-manager slot so telemetry can report
    apply/quantify/rename call mixes per check. *)

val op_apply : int
val op_neg : int
val op_ite : int
val op_restrict : int
val op_exists : int
val op_forall : int
val op_appex : int
val op_appall : int
val op_replace : int

val count_op : t -> int -> unit

(** {2 Inspection} *)

type stats = {
  nodes : int;  (** currently allocated, terminals included *)
  peak_nodes : int;  (** high-water mark of [nodes] *)
  variables : int;
  unique_hits : int;  (** unique-table probes answered by an existing node *)
  unique_misses : int;  (** probes that allocated a fresh node *)
  op_cache_hits : int;
  op_cache_lookups : int;
  op_cache_entries : int;  (** filled slots across the memo tables *)
  op_cache_flushes : int;
      (** always 0: the direct-mapped caches overwrite and never flush
          wholesale; kept because the benchmark reads it *)
  budget_trips : int;  (** times {!Node_limit} was raised *)
  compact_reclaimed : int;  (** nodes reclaimed by all {!compact} runs *)
  op_calls : (string * int) list;  (** public {!Ops} entry-point call counts *)
}

val stats : t -> stats
(** The counters above, read in constant time: safe on any hot path
    (the checker snapshots them around every check), whatever the
    store's size. *)

val unique_shape : t -> int * int
(** Unique-table bucket count (a power of two) and longest collision
    chain.  Walks every chain, dead nodes included, so its cost grows
    with the store; it exists for [fcv stats] and has no place on a
    check path. *)

val cache_hit_rate : ?before:stats -> stats -> float
(** Apply-cache hit rate between two snapshots (whole history when
    [before] is omitted); 0 when no lookups happened. *)

val compact : t -> int list -> int list
(** Garbage-collect: keep only nodes reachable from the given roots
    and return their remapped ids.  All other node ids become invalid
    and every operation cache is flushed. *)

val node_count : t -> int -> int
(** Reachable nodes from a root, terminals included — the "BDD size"
    of the paper's experiments. *)

val node_count_shared : t -> int list -> int
(** Shared node count of several roots. *)

val support : t -> int -> int list
(** Levels occurring in a BDD, ascending. *)

val eval : t -> int -> bool array -> bool
(** Evaluate under a total assignment indexed by level. *)
