(** Hash-consed store of ROBDD nodes.

    Nodes are identified by dense integer ids; ids [0] and [1] are the
    terminals [false] and [true].  Every interior node [(v, lo, hi)]
    satisfies the ROBDD invariants by construction:

    - no redundant test: [lo <> hi],
    - uniqueness: at most one node exists per [(v, lo, hi)] triple,
    - ordering: [v] is strictly smaller than the levels of [lo]/[hi].

    Variables are identified with their {e level} (0 = root-most).  A
    client that wants a different variable order builds a manager whose
    level assignment reflects that order (see {!Space}).

    The manager carries an optional {b node budget}: once the number of
    live nodes exceeds it, {!mk} raises {!Node_limit}, which the
    constraint checker catches to fall back to SQL processing — the
    size-threshold strategy of §4 of the paper. *)

exception Node_limit of int
(** Raised by {!mk} when the node budget is exceeded; carries the
    budget that was exceeded. *)

exception Level_limit of int
(** Raised by {!new_var} when the 511-level packing ceiling is
    reached; carries the ceiling.  Long-running index stores recover
    by recycling abandoned levels (a dense rebuild through
    [Index_io]); one-shot checks treat it like {!Node_limit} and fall
    back to SQL/naive processing. *)

(* Slots of the per-manager operation-call counter array; one public
   entry point of {!Ops} each. *)
let op_slot_names =
  [| "apply"; "neg"; "ite"; "restrict"; "exists"; "forall"; "appex"; "appall"; "replace" |]

let op_apply = 0
let op_neg = 1
let op_ite = 2
let op_restrict = 3
let op_exists = 4
let op_forall = 5
let op_appex = 6
let op_appall = 7
let op_replace = 8

type t = {
  mutable nvars : int;
  mutable var_ : int array;  (* level of each node; terminals get terminal_level *)
  mutable low_ : int array;
  mutable high_ : int array;
  mutable size : int;  (* allocated nodes, including the two terminals *)
  unique : (int, int) Hashtbl.t;  (* packed (v,lo,hi) -> id *)
  apply_cache : (int, int) Hashtbl.t;  (* packed (op,f,g) -> id *)
  ite_cache : (int * int * int, int) Hashtbl.t;  (* (f,g,h) -> id *)
  quant_cache : (int, int) Hashtbl.t;  (* packed (sig,f,g) -> id *)
  quant_sigs : (string, int) Hashtbl.t;  (* (op,quant,levels) -> small sig *)
  mutable max_nodes : int;  (* 0 = unlimited *)
  mutable max_cache : int;  (* per-cache entry cap; 0 = unbounded *)
  mutable mk_hits : int;  (* unique-table hits *)
  mutable mk_misses : int;  (* fresh nodes created *)
  mutable cache_hits : int;
  mutable cache_lookups : int;
  mutable cache_flushes : int;  (* wholesale cap-triggered cache resets *)
  mutable peak_size : int;  (* largest [size] ever reached *)
  mutable budget_trips : int;  (* times Node_limit was raised *)
  mutable compact_reclaimed : int;  (* nodes dropped by all compactions *)
  op_calls : int array;  (* indexed by the op_* slots above *)
}

let terminal_level = max_int

(* Packing limits: level < 2^9, node ids < 2^27 (≈134M nodes), which is
   far beyond the paper's 10^7-node ceiling; 9 + 27 + 27 = 63 bits
   exactly fills OCaml's native int. *)
let max_level = 511
let max_id = (1 lsl 27) - 1

let zero = 0
let one = 1

(* Default per-cache entry cap: a memo table holding a million entries
   of a long-dead computation is pure ballast on the serving path, so
   the caches flush wholesale (BuDDy-style) once they reach this size.
   Rebuilding the memo costs one cold pass; hit rates recover within a
   check. *)
let default_max_cache = 1 lsl 20

let create ?(max_nodes = 0) ?(max_cache = default_max_cache) ~nvars () =
  if nvars < 0 || nvars > max_level then invalid_arg "Manager.create: nvars";
  let cap = 1024 in
  let var_ = Array.make cap terminal_level in
  let low_ = Array.make cap (-1) in
  let high_ = Array.make cap (-1) in
  (* Terminals: id 0 = false, id 1 = true.  Their low/high point to
     themselves so accidental traversal is harmless. *)
  low_.(0) <- 0;
  high_.(0) <- 0;
  low_.(1) <- 1;
  high_.(1) <- 1;
  {
    nvars;
    var_;
    low_;
    high_;
    size = 2;
    unique = Hashtbl.create 4096;
    apply_cache = Hashtbl.create 4096;
    ite_cache = Hashtbl.create 256;
    quant_cache = Hashtbl.create 1024;
    quant_sigs = Hashtbl.create 16;
    max_nodes;
    max_cache;
    mk_hits = 0;
    mk_misses = 0;
    cache_hits = 0;
    cache_lookups = 0;
    cache_flushes = 0;
    peak_size = 2;
    budget_trips = 0;
    compact_reclaimed = 0;
    op_calls = Array.make (Array.length op_slot_names) 0;
  }

let nvars t = t.nvars
let size t = t.size
let max_nodes t = t.max_nodes
let set_max_nodes t n = t.max_nodes <- n
let max_cache t = t.max_cache
let set_max_cache t n = t.max_cache <- n

(** Allocate a fresh variable at the bottom of the current order and
    return its level.
    @raise Level_limit at the 511-level packing ceiling. *)
let new_var t =
  if t.nvars >= max_level then raise (Level_limit max_level);
  let v = t.nvars in
  t.nvars <- t.nvars + 1;
  v

(** Allocate [n] consecutive fresh variables; returns their levels. *)
let new_vars t n = Array.init n (fun _ -> new_var t)

let is_terminal id = id < 2
let var t id = t.var_.(id)
let low t id = t.low_.(id)
let high t id = t.high_.(id)

let pack_node v lo hi = v lor (lo lsl 9) lor (hi lsl 36)

let grow t =
  let cap = Array.length t.var_ in
  let cap' = cap * 2 in
  let extend a fill =
    let a' = Array.make cap' fill in
    Array.blit a 0 a' 0 cap;
    a'
  in
  t.var_ <- extend t.var_ terminal_level;
  t.low_ <- extend t.low_ (-1);
  t.high_ <- extend t.high_ (-1)

(** The hash-consing constructor.  Returns the unique node for
    [(v, lo, hi)], eliding redundant tests. *)
let mk t v lo hi =
  if lo = hi then lo
  else begin
    assert (v >= 0 && v < t.nvars);
    assert (v < t.var_.(lo) && v < t.var_.(hi));
    let key = pack_node v lo hi in
    match Hashtbl.find_opt t.unique key with
    | Some id ->
      t.mk_hits <- t.mk_hits + 1;
      id
    | None ->
      if t.max_nodes > 0 && t.size >= t.max_nodes then begin
        t.budget_trips <- t.budget_trips + 1;
        Fcv_util.Telemetry.event "bdd.budget_trip"
          [
            ("budget", Fcv_util.Telemetry.Int t.max_nodes);
            ("nodes", Fcv_util.Telemetry.Int t.size);
          ];
        raise (Node_limit t.max_nodes)
      end;
      if t.size > max_id then failwith "Manager.mk: node store exhausted";
      if t.size >= Array.length t.var_ then grow t;
      let id = t.size in
      t.size <- t.size + 1;
      if t.size > t.peak_size then t.peak_size <- t.size;
      t.var_.(id) <- v;
      t.low_.(id) <- lo;
      t.high_.(id) <- hi;
      Hashtbl.replace t.unique key id;
      t.mk_misses <- t.mk_misses + 1;
      id
  end

(** The BDD of a single positive literal at level [v]. *)
let ithvar t v = mk t v zero one

(** The BDD of a single negative literal at level [v]. *)
let nithvar t v = mk t v one zero

(* -- operation cache ----------------------------------------------------- *)

(* Binary-operation cache shared by all apply-style operations.  Keys
   pack a small opcode with the two operand ids.  Fused
   quantify-and-apply operations (appex/appall) use per-call tables
   instead because their result depends on the variable set. *)

let cache_key op f g = op lor (f lsl 5) lor (g lsl 32)

let cache_find t op f g =
  t.cache_lookups <- t.cache_lookups + 1;
  match Hashtbl.find_opt t.apply_cache (cache_key op f g) with
  | Some r ->
    t.cache_hits <- t.cache_hits + 1;
    Some r
  | None -> None

(* Cap enforcement shared by the three memo tables: once a table
   reaches [max_cache] entries it is flushed wholesale before the new
   entry goes in — the BuDDy recipe.  Selective eviction is not worth
   the bookkeeping: keys are packed ints with no cheap recency order,
   and a cold re-derivation is one apply pass. *)
let bounded_add t cache key r =
  if t.max_cache > 0 && Hashtbl.length cache >= t.max_cache then begin
    Hashtbl.reset cache;
    t.cache_flushes <- t.cache_flushes + 1
  end;
  Hashtbl.replace cache key r

let cache_add t op f g r = bounded_add t t.apply_cache (cache_key op f g) r

let ite_cache_find t f g h =
  t.cache_lookups <- t.cache_lookups + 1;
  match Hashtbl.find_opt t.ite_cache (f, g, h) with
  | Some r ->
    t.cache_hits <- t.cache_hits + 1;
    Some r
  | None -> None

let ite_cache_add t f g h r = bounded_add t t.ite_cache (f, g, h) r

(* Quantification results depend on (binary op, quantifier op, level
   set); interning that triple as a small signature lets every
   quantify/appquant call share one packed-int-keyed cache — the same
   trick as BuDDy's quantification cache. *)
let quant_signature t ~descr =
  match Hashtbl.find_opt t.quant_sigs descr with
  | Some s -> s
  | None ->
    let s = Hashtbl.length t.quant_sigs in
    if s > 63 then begin
      (* unbounded distinct level sets: recycle by flushing *)
      Hashtbl.reset t.quant_sigs;
      Hashtbl.reset t.quant_cache;
      Hashtbl.replace t.quant_sigs descr 0;
      0
    end
    else begin
      Hashtbl.replace t.quant_sigs descr s;
      s
    end

(* 6-bit signature + two 27-bit node ids = 60 bits, within OCaml's
   native int *)
let quant_cache_key sig_ f g = sig_ lor (f lsl 6) lor (g lsl 33)

let quant_cache_find t sig_ f g =
  t.cache_lookups <- t.cache_lookups + 1;
  match Hashtbl.find_opt t.quant_cache (quant_cache_key sig_ f g) with
  | Some r ->
    t.cache_hits <- t.cache_hits + 1;
    Some r
  | None -> None

let quant_cache_add t sig_ f g r = bounded_add t t.quant_cache (quant_cache_key sig_ f g) r

let clear_caches t =
  Hashtbl.reset t.apply_cache;
  Hashtbl.reset t.ite_cache;
  Hashtbl.reset t.quant_cache;
  Hashtbl.reset t.quant_sigs

(** Current total occupancy of the three memo tables (entries, not
    bytes) — the lifecycle policy's cache-occupancy gauge. *)
let cache_entries t =
  Hashtbl.length t.apply_cache + Hashtbl.length t.ite_cache + Hashtbl.length t.quant_cache

(** Count one public {!Ops} entry-point call in slot [i] (one of the
    [op_*] constants). *)
let count_op t i = t.op_calls.(i) <- t.op_calls.(i) + 1

type stats = {
  nodes : int;
  peak_nodes : int;
  variables : int;
  unique_hits : int;
  unique_misses : int;
  op_cache_hits : int;
  op_cache_lookups : int;
  op_cache_entries : int;  (* current occupancy across the memo tables *)
  op_cache_flushes : int;  (* cap-triggered wholesale resets *)
  budget_trips : int;
  compact_reclaimed : int;
  op_calls : (string * int) list;
}

(* Counter reads only: safe on any hot path, whatever the store's
   size.  The unique table's shape needs a walk; see [unique_shape]. *)
let stats t =
  {
    nodes = t.size;
    peak_nodes = t.peak_size;
    variables = t.nvars;
    unique_hits = t.mk_hits;
    unique_misses = t.mk_misses;
    op_cache_hits = t.cache_hits;
    op_cache_lookups = t.cache_lookups;
    op_cache_entries = cache_entries t;
    op_cache_flushes = t.cache_flushes;
    budget_trips = t.budget_trips;
    compact_reclaimed = t.compact_reclaimed;
    op_calls = Array.to_list (Array.mapi (fun i n -> (op_slot_names.(i), n)) t.op_calls);
  }

(** Unique-table bucket count and longest collision chain.  Walks
    every bucket — O(table size, dead nodes included) — so it is for
    one-off inspection ([fcv stats]), never a per-check path. *)
let unique_shape t =
  let h = Hashtbl.stats t.unique in
  (h.Hashtbl.num_buckets, h.Hashtbl.max_bucket_length)

(** Apply-cache hit rate over a window: [cache_hit_rate after ~before]
    is hits/lookups between two {!stats} snapshots (0 when no
    lookups). *)
let cache_hit_rate ?(before : stats option) (after : stats) =
  let h0, l0 =
    match before with
    | Some b -> (b.op_cache_hits, b.op_cache_lookups)
    | None -> (0, 0)
  in
  let lookups = after.op_cache_lookups - l0 in
  if lookups <= 0 then 0.
  else float_of_int (after.op_cache_hits - h0) /. float_of_int lookups

(** Number of nodes reachable from [root], terminals included —
    the "BDD size" reported throughout the paper's experiments. *)
let node_count t root =
  let visited = Hashtbl.create 256 in
  let count = ref 0 in
  let rec go id =
    if not (Hashtbl.mem visited id) then begin
      Hashtbl.add visited id ();
      incr count;
      if not (is_terminal id) then begin
        go t.low_.(id);
        go t.high_.(id)
      end
    end
  in
  go root;
  !count

(** Shared node count across several roots (the paper's shared-node
    implementation remark: conjunction of BDDs costs only additive
    space). *)
let node_count_shared t roots =
  let visited = Hashtbl.create 256 in
  let count = ref 0 in
  let rec go id =
    if not (Hashtbl.mem visited id) then begin
      Hashtbl.add visited id ();
      incr count;
      if not (is_terminal id) then begin
        go t.low_.(id);
        go t.high_.(id)
      end
    end
  in
  List.iter go roots;
  !count

(** Garbage collection: rebuild the node store keeping only the nodes
    reachable from [roots], and return the remapping of the given
    roots.  Every other node id becomes invalid, and all operation
    caches are flushed — callers must re-derive any BDD they want to
    keep through the returned roots.  Dead nodes accumulate naturally
    under incremental maintenance (each update's OR/DIFF abandons the
    previous root), so long-running index stores call this
    periodically. *)
let compact t roots =
  let size_before = t.size in
  let remap = Hashtbl.create (Hashtbl.length t.unique) in
  Hashtbl.replace remap zero zero;
  Hashtbl.replace remap one one;
  (* collect reachable interior nodes in children-first order *)
  let order = ref [] in
  let rec visit id =
    if not (Hashtbl.mem remap id) then begin
      visit t.low_.(id);
      visit t.high_.(id);
      Hashtbl.replace remap id (-1);
      order := id :: !order
    end
  in
  List.iter visit roots;
  let nodes = List.rev !order in
  (* reset the store and re-create nodes through mk (budget is
     temporarily lifted: compaction can only shrink) *)
  let saved_budget = t.max_nodes in
  t.max_nodes <- 0;
  t.size <- 2;
  Hashtbl.reset t.unique;
  Hashtbl.reset t.apply_cache;
  Hashtbl.reset t.ite_cache;
  Hashtbl.reset t.quant_cache;
  Hashtbl.reset t.quant_sigs;
  (* old var/low/high entries above the shrinking [size] are stale but
     unreachable; mk overwrites slots as it reallocates *)
  let old_var = Array.copy t.var_ and old_low = Array.copy t.low_ and old_high = Array.copy t.high_ in
  List.iter
    (fun id ->
      let lo = Hashtbl.find remap old_low.(id) in
      let hi = Hashtbl.find remap old_high.(id) in
      Hashtbl.replace remap id (mk t old_var.(id) lo hi))
    nodes;
  t.max_nodes <- saved_budget;
  t.compact_reclaimed <- t.compact_reclaimed + (size_before - t.size);
  List.map (fun r -> Hashtbl.find remap r) roots

(** Set of levels occurring in [root], sorted ascending. *)
let support t root =
  let visited = Hashtbl.create 256 in
  let levels = Hashtbl.create 16 in
  let rec go id =
    if (not (is_terminal id)) && not (Hashtbl.mem visited id) then begin
      Hashtbl.add visited id ();
      Hashtbl.replace levels t.var_.(id) ();
      go t.low_.(id);
      go t.high_.(id)
    end
  in
  go root;
  Hashtbl.fold (fun l () acc -> l :: acc) levels [] |> List.sort compare

(** Evaluate [root] under a total assignment [env]: [env.(level)] gives
    the value of the variable at [level]. *)
let eval t root env =
  let rec go id =
    if id = zero then false
    else if id = one then true
    else if env.(t.var_.(id)) then go t.high_.(id)
    else go t.low_.(id)
  in
  go root
