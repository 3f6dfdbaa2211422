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

(* A direct-mapped memo table (BuDDy's operation cache): [2^bits]
   slots of [width] ints each, the key words then the result.  A slot
   is empty while its first key word is -1 (packed keys are never
   negative); an insert overwrites whatever the slot held. *)
type cache = {
  width : int;
  mutable slots : int array;
  mutable shift : int;  (* 63 - bits: a slot number is a product's top bits *)
  mutable used : int;  (* filled slots *)
}

type t = {
  mutable nvars : int;
  mutable var_ : int array;  (* level of each node; terminals get terminal_level *)
  mutable low_ : int array;
  mutable high_ : int array;
  mutable next_ : int array;  (* unique-table chain link; -1 ends a chain *)
  mutable buckets : int array;  (* chain heads, one per node slot; -1 = empty *)
  mutable ushift : int;  (* 63 - log2 (Array.length buckets) *)
  mutable mark_ : int array;  (* walk stamp of each node slot *)
  mutable stamp : int;  (* the latest walk's stamp; no slot holds a later one *)
  mutable size : int;  (* allocated nodes, including the two terminals *)
  apply_cache : cache;  (* packed (op,f,g) -> id *)
  ite_cache : cache;  (* (f,g packed; h) -> id *)
  quant_cache : cache;  (* packed (sig,f,g) -> id *)
  quant_sigs : (string, int) Hashtbl.t;  (* (op,quant,levels) -> small sig *)
  mutable max_nodes : int;  (* 0 = unlimited *)
  mutable max_cache : int;  (* per-cache slot cap; 0 = uncapped *)
  mutable mk_hits : int;  (* unique-table hits *)
  mutable mk_misses : int;  (* fresh nodes created *)
  mutable cache_hits : int;
  mutable cache_lookups : int;
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

(* Default per-cache slot cap: a memo holding a million entries of a
   long-dead computation is pure ballast on the serving path.  At the
   cap a cache stops growing and colliding inserts overwrite. *)
let default_max_cache = 1 lsl 20

(* Fibonacci hashing: a packed key times ⌊2^63/φ⌋ (made odd), keeping
   the product's top bits, which depend on every bit of the key. *)
let golden = 0x4F1BBCDCBFA53C01

(* Initial sizes, as log2: the node store and its bucket array start at
   2^10 and double together; the caches start small and double while
   more than half their slots are filled. *)
let store_bits = 10
let apply_bits = 12
let ite_bits = 8
let quant_bits = 10

(* log2 of the largest power-of-two slot count within the cap; a cap
   of 0 caps nothing. *)
let cap_bits max_cache =
  if max_cache = 0 then max_int
  else
    let rec go b = if 2 lsl b <= max_cache then go (b + 1) else b in
    go 0

let new_cache ~max_cache width bits =
  let bits = min bits (cap_bits max_cache) in
  { width; slots = Array.make (width lsl bits) (-1); shift = 63 - bits; used = 0 }

let check_limit name n = if n < 0 then invalid_arg ("Manager." ^ name ^ ": negative")

(* A manager whose node store and bucket array start at [2^bits]
   slots. *)
let make ~bits ~max_nodes ~max_cache ~nvars =
  let cap = 1 lsl bits in
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
    next_ = Array.make cap (-1);
    buckets = Array.make cap (-1);
    ushift = 63 - bits;
    mark_ = Array.make cap 0;
    stamp = 0;
    size = 2;
    apply_cache = new_cache ~max_cache 2 apply_bits;
    ite_cache = new_cache ~max_cache 3 ite_bits;
    quant_cache = new_cache ~max_cache 2 quant_bits;
    quant_sigs = Hashtbl.create 16;
    max_nodes;
    max_cache;
    mk_hits = 0;
    mk_misses = 0;
    cache_hits = 0;
    cache_lookups = 0;
    peak_size = 2;
    budget_trips = 0;
    compact_reclaimed = 0;
    op_calls = Array.make (Array.length op_slot_names) 0;
  }

let create ?(max_nodes = 0) ?(max_cache = default_max_cache) ~nvars () =
  if nvars < 0 || nvars > max_level then invalid_arg "Manager.create: nvars";
  check_limit "create: max_nodes" max_nodes;
  check_limit "create: max_cache" max_cache;
  make ~bits:store_bits ~max_nodes ~max_cache ~nvars

let nvars t = t.nvars
let size t = t.size
let max_nodes t = t.max_nodes

let set_max_nodes t n =
  check_limit "set_max_nodes" n;
  t.max_nodes <- n

let max_cache t = t.max_cache

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

(* -- unique table ---------------------------------------------------------- *)

(* BuDDy's layout: the bucket array has one head per node slot, and
   each chain runs through [next_] in the node store itself. *)

let pack_node v lo hi = v lor (lo lsl 9) lor (hi lsl 36)
let bucket t v lo hi = (pack_node v lo hi * golden) lsr t.ushift

let link t id b =
  t.next_.(id) <- t.buckets.(b);
  t.buckets.(b) <- id

let rec chain_find t v lo hi id =
  if id < 0 || (t.var_.(id) = v && t.low_.(id) = lo && t.high_.(id) = hi) then id
  else chain_find t v lo hi t.next_.(id)

(* Double the node store and the bucket array, then relink every node. *)
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
  t.high_ <- extend t.high_ (-1);
  t.mark_ <- extend t.mark_ 0;
  t.next_ <- Array.make cap' (-1);
  t.buckets <- Array.make cap' (-1);
  t.ushift <- t.ushift - 1;
  for id = 2 to t.size - 1 do
    link t id (bucket t t.var_.(id) t.low_.(id) t.high_.(id))
  done

(** The hash-consing constructor.  Returns the unique node for
    [(v, lo, hi)], eliding redundant tests. *)
let mk t v lo hi =
  if lo = hi then lo
  else begin
    assert (v >= 0 && v < t.nvars);
    assert (v < t.var_.(lo) && v < t.var_.(hi));
    let b = bucket t v lo hi in
    let found = chain_find t v lo hi t.buckets.(b) in
    if found >= 0 then begin
      t.mk_hits <- t.mk_hits + 1;
      found
    end
    else begin
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
      let b =
        if t.size < Array.length t.var_ then b
        else begin
          grow t;
          bucket t v lo hi
        end
      in
      let id = t.size in
      t.size <- t.size + 1;
      if t.size > t.peak_size then t.peak_size <- t.size;
      t.var_.(id) <- v;
      t.low_.(id) <- lo;
      t.high_.(id) <- hi;
      link t id b;
      t.mk_misses <- t.mk_misses + 1;
      id
    end
  end

(** The BDD of a single positive literal at level [v]. *)
let ithvar t v = mk t v zero one

(** The BDD of a single negative literal at level [v]. *)
let nithvar t v = mk t v one zero

(* -- operation caches ------------------------------------------------------ *)

(* Three direct-mapped caches: binary apply (a small opcode and two
   operand ids packed in one key word), if-then-else (two key words)
   and quantification (a signature and two operand ids packed).
   Lookups return the cached node or -1.  A lost entry only costs a
   recomputation, whose [mk] calls find the nodes it made the first
   time, so the store is the same whatever the caches hold. *)

let slot1 c k = c.width * ((k * golden) lsr c.shift)
let slot2 c k1 k2 = c.width * ((((k1 * golden) + k2) * golden) lsr c.shift)

(* Move every entry into a fresh array of [2^bits] slots; when
   shrinking, colliding entries overwrite each other. *)
let resize c bits =
  let old = c.slots and w = c.width in
  c.slots <- Array.make (w lsl bits) (-1);
  c.shift <- 63 - bits;
  c.used <- 0;
  for o = 0 to (Array.length old / w) - 1 do
    let o = o * w in
    if old.(o) >= 0 then begin
      let i = if w = 2 then slot1 c old.(o) else slot2 c old.(o) old.(o + 1) in
      if c.slots.(i) < 0 then c.used <- c.used + 1;
      Array.blit old o c.slots i w
    end
  done

(* Count a newly filled slot; past half full, double within the cap. *)
let filled t c =
  c.used <- c.used + 1;
  let n = Array.length c.slots / c.width in
  if 2 * c.used > n && (t.max_cache = 0 || 2 * n <= t.max_cache) then resize c (64 - c.shift)

let clear_cache c =
  Array.fill c.slots 0 (Array.length c.slots) (-1);
  c.used <- 0

let hit t c i =
  t.cache_hits <- t.cache_hits + 1;
  c.slots.(i + c.width - 1)

(* Lookup and insert for the one-key-word caches. *)
let find1 t c k =
  t.cache_lookups <- t.cache_lookups + 1;
  let i = slot1 c k in
  if c.slots.(i) = k then hit t c i else -1

let add1 t c k r =
  let i = slot1 c k in
  let fresh = c.slots.(i) < 0 in
  c.slots.(i) <- k;
  c.slots.(i + 1) <- r;
  if fresh then filled t c

let cache_key op f g = op lor (f lsl 5) lor (g lsl 32)
let cache_find t op f g = find1 t t.apply_cache (cache_key op f g)
let cache_add t op f g r = add1 t t.apply_cache (cache_key op f g) r

let ite_key f g = f lor (g lsl 27)

let ite_cache_find t f g h =
  t.cache_lookups <- t.cache_lookups + 1;
  let c = t.ite_cache and k = ite_key f g in
  let i = slot2 c k h in
  if c.slots.(i) = k && c.slots.(i + 1) = h then hit t c i else -1

let ite_cache_add t f g h r =
  let c = t.ite_cache and k = ite_key f g in
  let i = slot2 c k h in
  let fresh = c.slots.(i) < 0 in
  c.slots.(i) <- k;
  c.slots.(i + 1) <- h;
  c.slots.(i + 2) <- r;
  if fresh then filled t c

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
      clear_cache t.quant_cache;
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

let quant_cache_find t sig_ f g = find1 t t.quant_cache (quant_cache_key sig_ f g)
let quant_cache_add t sig_ f g r = add1 t t.quant_cache (quant_cache_key sig_ f g) r

let caches t = [ t.apply_cache; t.ite_cache; t.quant_cache ]

let set_max_cache t n =
  check_limit "set_max_cache" n;
  t.max_cache <- n;
  let bits = cap_bits n in
  List.iter (fun c -> if 63 - c.shift > bits then resize c bits) (caches t)

let clear_caches t =
  List.iter clear_cache (caches t);
  Hashtbl.reset t.quant_sigs

(** Current total occupancy of the three memo tables (filled slots) —
    the lifecycle policy's cache-occupancy gauge. *)
let cache_entries t = List.fold_left (fun n c -> n + c.used) 0 (caches t)

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
  op_cache_flushes : int;  (* always 0: the caches overwrite, never flush *)
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
    op_cache_flushes = 0;
    budget_trips = t.budget_trips;
    compact_reclaimed = t.compact_reclaimed;
    op_calls = Array.to_list (Array.mapi (fun i n -> (op_slot_names.(i), n)) t.op_calls);
  }

(** Unique-table bucket count and longest collision chain.  Walks
    every chain — O(allocated nodes) — so it is for one-off
    inspection ([fcv stats]), never a per-check path. *)
let unique_shape t =
  let rec length id n = if id < 0 then n else length t.next_.(id) (n + 1) in
  (Array.length t.buckets, Array.fold_left (fun m head -> max m (length head 0)) 0 t.buckets)

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

(* -- node walks -------------------------------------------------------------- *)

(* A walk marks each node it reaches with a stamp no slot holds yet,
   so "visited" is one int compare and a walk allocates nothing.
   Stamps only grow (a 63-bit counter does not wrap), and [mark_]
   grows with the store. *)
let fresh_stamp t =
  t.stamp <- t.stamp + 1;
  t.stamp

(* Add to [n] the nodes reachable from [id] not yet marked with [s]. *)
let rec count_unmarked t s id n =
  if t.mark_.(id) = s then n
  else begin
    t.mark_.(id) <- s;
    if is_terminal id then n + 1
    else count_unmarked t s t.high_.(id) (count_unmarked t s t.low_.(id) (n + 1))
  end

(** Number of nodes reachable from [root], terminals included —
    the "BDD size" reported throughout the paper's experiments. *)
let node_count t root = count_unmarked t (fresh_stamp t) root 0

(** Shared node count across several roots (the paper's shared-node
    implementation remark: conjunction of BDDs costs only additive
    space). *)
let node_count_shared t roots =
  let s = fresh_stamp t in
  List.fold_left (fun n root -> count_unmarked t s root n) 0 roots

(* Mark-and-rebuild, the loop {!compact} and {!copy} share.  [reach]
   marks the nodes of [src] reachable from [roots] in a remap array of
   its own (-1 = unreached, -2 = reached; terminals map to themselves)
   and counts them, terminals included, reading [src]'s arrays and
   writing nothing of it.  [rebuild] re-creates every marked node in
   [dst] through [mk] and records its new id in the remap.  [mk] only
   ever links a node above its children, so ascending ids are
   children-first; when [dst] is [src], a kept node's new id never
   exceeds its old one, so [mk] overwrites only slots whose nodes were
   already read.  The budget is lifted meanwhile: a rebuild keeps only
   nodes [src] already holds. *)
let reach src roots =
  let remap = Array.make src.size (-1) in
  remap.(zero) <- zero;
  remap.(one) <- one;
  let reached = ref 2 in
  let rec mark id =
    if remap.(id) = -1 then begin
      remap.(id) <- -2;
      incr reached;
      mark src.low_.(id);
      mark src.high_.(id)
    end
  in
  List.iter mark roots;
  (remap, !reached)

let rebuild src remap dst roots =
  let budget = dst.max_nodes in
  dst.max_nodes <- 0;
  for id = 2 to Array.length remap - 1 do
    if remap.(id) = -2 then
      remap.(id) <- mk dst src.var_.(id) remap.(src.low_.(id)) remap.(src.high_.(id))
  done;
  dst.max_nodes <- budget;
  List.map (fun r -> remap.(r)) roots

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
  let remap, _ = reach t roots in
  t.size <- 2;
  Array.fill t.buckets 0 (Array.length t.buckets) (-1);
  clear_caches t;
  let roots = rebuild t remap t roots in
  t.compact_reclaimed <- t.compact_reclaimed + (size_before - t.size);
  roots

(** The nodes reachable from [roots] rebuilt into a fresh manager with
    the same levels and budgets, and the roots' ids there.  [t] is only
    read, so several domains may copy one manager at once while no
    domain changes or walks it. *)
let copy t roots =
  let remap, reached = reach t roots in
  (* a store sized for the copy up front: growing into it would relink
     the nodes at every doubling *)
  let rec bits b = if 1 lsl b >= reached then b else bits (b + 1) in
  let dst =
    make ~bits:(bits store_bits) ~max_nodes:t.max_nodes ~max_cache:t.max_cache ~nvars:t.nvars
  in
  (dst, rebuild t remap dst roots)

(** Set of levels occurring in [root], sorted ascending. *)
let support t root =
  let s = fresh_stamp t in
  let present = Array.make t.nvars false in
  let rec go id =
    if (not (is_terminal id)) && t.mark_.(id) <> s then begin
      t.mark_.(id) <- s;
      present.(t.var_.(id)) <- true;
      go t.low_.(id);
      go t.high_.(id)
    end
  in
  go root;
  let levels = ref [] in
  for v = t.nvars - 1 downto 0 do
    if present.(v) then levels := v :: !levels
  done;
  !levels

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
