(** Plan evaluator: one push-based pipeline.

    A plan compiles, once per evaluation, into a tree of producers.
    Each producer hands its rows one at a time to the consumer above
    it, so nothing between the scans and the caller is materialised as
    a list; {!is_empty} stops at the first row the plan produces,
    {!count} counts without collecting, and {!run} collects.

    Rows are read in place.  A scan hands the table's own arrays up
    the pipeline, selections pass them on, and a projection allocates
    nothing: it only changes where each output column is found in the
    rows it forwards (a producer's [cols] map).  An operator allocates
    a row only when it emits one whose values come from two rows (a
    join or product needing columns of both sides), a union's
    deduplicated output, or a group.  No operator ever writes into a
    row it did not allocate, and {!run} copies every result row, so a
    caller that mutates a returned row changes no table.

    Keyed operators read their keys straight from the key columns of
    the rows: joins (build on the right input), semi and anti joins,
    distinct, union, diff and grouping index rows in a {!keyed} table
    whose chains run through per-entry arrays.  A single key column
    over a dictionary-coded attribute indexes heads by code while its
    dictionary has at most 4 codes per input row (every probe code is
    bound-checked: a column can carry codes of another dictionary);
    other keys hash.  A build side is only built when its first probe
    row arrives, so an operator whose probe side is empty never reads
    its build side.

    Evaluations share nothing: every table, buffer and counter lives
    in one call, so several domains may evaluate plans over the same
    tables at once (the worker pool's SQL checks read the master's
    database), provided no one mutates the tables meanwhile. *)

module Table = Fcv_relation.Table
module Dict = Fcv_relation.Dict
module T = Fcv_util.Telemetry
open Algebra

(* Rows read and joined by one evaluation, flushed to telemetry at its
   end. *)
type stats = { mutable scanned : int; mutable built : int; mutable probed : int }

(* -- keyed tables ---------------------------------------------------------- *)

(* Fibonacci hashing, as in the BDD kernel's tables: the key folded
   through multiplications by ⌊2^63/φ⌋ (made odd), bucketed by the
   product's top bits. *)
let golden = 0x4F1BBCDCBFA53C01

let hash (row : int array) cols =
  let h = ref 0 in
  for i = 0 to Array.length cols - 1 do
    h := (!h + row.(cols.(i))) * golden
  done;
  !h

let rec same_key (a : int array) acols (b : int array) bcols i =
  i < 0 || (a.(acols.(i)) = b.(bcols.(i)) && same_key a acols b bcols (i - 1))

(* Rows indexed by the values at [kcols], their key positions.  Entry
   [e] holds [rows.(e)]; [next.(e)] continues its bucket's chain.  In
   [direct] mode the one key column's code is the bucket, so every
   entry of a chain has the probe's key; otherwise the bucket is the
   hash's top [Sys.int_size - shift] bits, there are as many buckets
   as entry slots, and a chain entry matches when its stored hash and
   key columns do. *)
type keyed = {
  kcols : int array;
  direct : bool;
  mutable shift : int;
  mutable heads : int array;
  mutable next : int array;
  mutable hashes : int array;
  mutable rows : int array array;
  mutable n : int;
}

(* [codes] is the key dictionary's size when the table indexes by
   code. *)
let keyed codes kcols =
  let direct, heads =
    match codes with Some size -> (true, Array.make size (-1)) | None -> (false, Array.make 8 (-1))
  in
  {
    kcols;
    direct;
    shift = Sys.int_size - 3;
    heads;
    next = Array.make 8 (-1);
    hashes = Array.make 8 0;
    rows = Array.make 8 [||];
    n = 0;
  }

let rec chain t e h row cols =
  if e < 0 || (t.hashes.(e) = h && same_key t.rows.(e) t.kcols row cols (Array.length cols - 1))
  then e
  else chain t t.next.(e) h row cols

(** The first entry whose key equals [row]'s key at [cols], or -1.  A
    probe code outside a direct table's dictionary matches nothing. *)
let find t (row : int array) cols =
  if t.direct then
    let c = row.(cols.(0)) in
    if c >= 0 && c < Array.length t.heads then t.heads.(c) else -1
  else
    let h = hash row cols in
    chain t t.heads.(h lsr t.shift) h row cols

(** The entry after [e] with the same key, or -1. *)
let find_next t e row cols =
  if t.direct then t.next.(e) else chain t t.next.(e) t.hashes.(e) row cols

let grow t =
  let cap = 2 * Array.length t.rows in
  let extend a fill =
    let a' = Array.make cap fill in
    Array.blit a 0 a' 0 t.n;
    a'
  in
  t.rows <- extend t.rows [||];
  t.next <- extend t.next (-1);
  t.hashes <- extend t.hashes 0;
  if not t.direct then begin
    t.shift <- t.shift - 1;
    t.heads <- Array.make cap (-1);
    for e = 0 to t.n - 1 do
      let b = t.hashes.(e) lsr t.shift in
      t.next.(e) <- t.heads.(b);
      t.heads.(b) <- e
    done
  end

(** Append [row] as a new entry; returns its index. *)
let add t (row : int array) =
  if t.n = Array.length t.rows then grow t;
  let e = t.n in
  let h = if t.direct then row.(t.kcols.(0)) else hash row t.kcols in
  let b = if t.direct then h else h lsr t.shift in
  t.rows.(e) <- row;
  t.hashes.(e) <- h;
  t.next.(e) <- t.heads.(b);
  t.heads.(b) <- e;
  t.n <- e + 1;
  e

(** The entry with [row]'s key, added if there is none. *)
let intern t row =
  let e = find t row t.kcols in
  if e >= 0 then e else add t row

(** Whether no entry has [row]'s key; [row] is added if so. *)
let fresh t row = find t row t.kcols < 0 && (ignore (add t row); true)

(* -- compiled plans -------------------------------------------------------- *)

(* A compiled operator.  [iter k] passes every row the operator
   produces to [k]; logical column [i] of a row sits at [cols.(i)], or
   nowhere (-1) when no consumer reads it. *)
type stream = { cols : int array; iter : (int array -> unit) -> unit }

(* Exact folding of constant predicates: [True] conjuncts vanish, and a
   selection that folds to [True] or [False] needs no test. *)
let rec simplify = function
  | And (p, q) -> (
    match (simplify p, simplify q) with
    | True, r | r, True -> r
    | False, _ | _, False -> False
    | p, q -> And (p, q))
  | Or (p, q) -> (
    match (simplify p, simplify q) with
    | False, r | r, False -> r
    | True, _ | _, True -> True
    | p, q -> Or (p, q))
  | Not p -> (
    match simplify p with True -> False | False -> True | p -> Not p)
  | In_set (_, []) -> False
  | p -> p

let rec mark_pred need = function
  | True | False -> ()
  | Eq_col (a, b) ->
    need.(a) <- true;
    need.(b) <- true
  | Eq_const (a, _) | In_set (a, _) | Gt_const (a, _) | Lt_const (a, _) -> need.(a) <- true
  | Not p -> mark_pred need p
  | And (p, q) | Or (p, q) ->
    mark_pred need p;
    mark_pred need q

let rec mem_int (v : int) cs i = i < Array.length cs && (cs.(i) = v || mem_int v cs (i + 1))

(* A predicate over logical columns, compiled to a test on rows whose
   column [i] sits at [cols.(i)]. *)
let rec compile_pred cols = function
  | True -> fun _ -> true
  | False -> fun _ -> false
  | Eq_col (a, b) ->
    let a = cols.(a) and b = cols.(b) in
    fun (row : int array) -> row.(a) = row.(b)
  | Eq_const (a, c) ->
    let a = cols.(a) in
    fun (row : int array) -> row.(a) = c
  | In_set (a, cs) ->
    let a = cols.(a) and cs = Array.of_list cs in
    fun (row : int array) -> mem_int row.(a) cs 0
  | Gt_const (a, c) ->
    let a = cols.(a) in
    fun (row : int array) -> row.(a) > c
  | Lt_const (a, c) ->
    let a = cols.(a) in
    fun (row : int array) -> row.(a) < c
  | Not p ->
    let p = compile_pred cols p in
    fun row -> not (p row)
  | And (p, q) ->
    let p = compile_pred cols p and q = compile_pred cols q in
    fun row -> p row && q row
  | Or (p, q) ->
    let p = compile_pred cols p and q = compile_pred cols q in
    fun row -> p row || q row

(* The dictionary whose codes logical column [i] of [plan] carries, when
   one does: an aggregate output has none, and a union of columns over
   two dictionaries has none. *)
let rec col_dict plan i =
  match plan with
  | Scan t -> Some (Table.dict t i)
  | Select (_, q) | Distinct q -> col_dict q i
  | Project (cols, q) -> col_dict q cols.(i)
  | Hash_join (_, l, r) | Product (l, r) ->
    let nl = arity l in
    if i < nl then col_dict l i else col_dict r (i - nl)
  | Semi_join (_, l, _) | Anti_join (_, l, _) | Diff (l, _) -> col_dict l i
  | Union (l, r) -> (
    match (col_dict l i, col_dict r i) with
    | Some a, Some b when a == b -> Some a
    | _ -> None)
  | Group_by (keys, _, _, q) -> if i < Array.length keys then col_dict q keys.(i) else None

(* How many base rows [plan] reads at most. *)
let rec input_rows = function
  | Scan t -> Table.cardinality t
  | Select (_, q) | Project (_, q) | Distinct q | Group_by (_, _, _, q) -> input_rows q
  | Hash_join (_, l, r)
  | Semi_join (_, l, r)
  | Anti_join (_, l, r)
  | Product (l, r)
  | Union (l, r)
  | Diff (l, r) ->
    input_rows l + input_rows r

(* A table for the rows of [plan], keyed on its logical columns [keys]
   found at positions [kcols].  A code-indexed head array costs one
   word per dictionary code, so a single dictionary-coded key indexes
   by code only while the dictionary has at most 4 codes per row the
   input reads; larger dictionaries hash.  The ratio is measured: on a
   2-core x86-64 container, semi, anti and hash joins whose build side
   had n = 16..8,192 rows over d codes ran faster indexed by code at
   d/n <= 4 (by up to 1.8x), about even at d/n = 6-8, and faster
   hashed from d/n = 12 for n >= 128 (by 3-22x at d/n >= 64). *)
let keyed_on plan keys kcols =
  let codes =
    match keys with
    | [| c |] -> (
      match col_dict plan c with
      | Some d when Dict.size d <= 4 * input_rows plan -> Some (Dict.size d)
      | _ -> None)
    | _ -> None
  in
  keyed codes kcols

(* Index every row of a build side: all of them for a join, one per
   key ([unique]) for a membership test. *)
let build ~unique table s =
  s.iter (fun row -> ignore (if unique then intern table row else add table row));
  table

(* A producer's rows, in place, in a growable buffer. *)
let collect s =
  let buf = ref (Array.make 16 [||]) and n = ref 0 in
  s.iter (fun row ->
      if !n = Array.length !buf then begin
        let b = Array.make (2 * !n) [||] in
        Array.blit !buf 0 b 0 !n;
        buf := b
      end;
      !buf.(!n) <- row;
      incr n);
  (!buf, !n)

(* A fresh row of the values at positions [src]. *)
let gather (row : int array) src =
  let out = Array.make (Array.length src) 0 in
  for j = 0 to Array.length src - 1 do
    out.(j) <- row.(src.(j))
  done;
  out

let no_cols n = Array.make n (-1)
let all_cols n = Array.init n Fun.id
let split_keys keys = (Array.of_list (List.map fst keys), Array.of_list (List.map snd keys))
let positions s cols = Array.map (fun c -> s.cols.(c)) cols

(* The needed columns, in order, and where each sits in a compact row
   of them ([-1] for the others). *)
let compact need =
  let picked = List.filter (fun i -> need.(i)) (all_cols (Array.length need) |> Array.to_list) in
  let cols = no_cols (Array.length need) in
  List.iteri (fun j i -> cols.(i) <- j) picked;
  (Array.of_list picked, cols)

(* [n] columns: those [need] marks, and [keys]. *)
let demand n ?(need = fun _ -> false) keys =
  let d = Array.init n need in
  Array.iter (fun c -> d.(c) <- true) keys;
  d

(* The rows a join or product emits for a left and a right row.  When
   consumers read columns of one side only, that side's row is emitted
   as it is; otherwise a compact row of the needed columns. *)
let pair need sl sr =
  let nl = Array.length sl.cols and nr = Array.length sr.cols in
  let picked, cols = compact need in
  let ln = List.length (List.filter (fun i -> i < nl) (Array.to_list picked)) in
  if ln = Array.length picked then
    (Array.append sl.cols (no_cols nr), fun (lrow : int array) (_ : int array) -> lrow)
  else if ln = 0 then
    (Array.append (no_cols nl) sr.cols, fun (_ : int array) (rrow : int array) -> rrow)
  else begin
    let lsrc = Array.init ln (fun j -> sl.cols.(picked.(j))) in
    let rsrc = Array.init (Array.length picked - ln) (fun j -> sr.cols.(picked.(ln + j) - nl)) in
    ( cols,
      fun lrow rrow ->
        let out = Array.make (Array.length picked) 0 in
        for j = 0 to ln - 1 do
          out.(j) <- lrow.(lsrc.(j))
        done;
        for j = 0 to Array.length rsrc - 1 do
          out.(ln + j) <- rrow.(rsrc.(j))
        done;
        out )
  end

(* Compile [plan] for consumers reading the logical columns [need]
   marks, counting rows in [st]. *)
let rec compile st need plan : stream =
  match plan with
  | Scan t ->
    {
      cols = all_cols (Table.arity t);
      iter =
        (fun k ->
          Table.iter t (fun row ->
              st.scanned <- st.scanned + 1;
              k row));
    }
  | Select (p, q) -> (
    match simplify p with
    | True -> compile st need q
    | False -> { cols = no_cols (Array.length need); iter = ignore }
    | p ->
      let need_q = Array.copy need in
      mark_pred need_q p;
      let s = compile st need_q q in
      let test = compile_pred s.cols p in
      { s with iter = (fun k -> s.iter (fun row -> if test row then k row)) })
  | Project (cols, q) ->
    let need_q = Array.make (arity q) false in
    Array.iteri (fun j c -> if need.(j) then need_q.(c) <- true) cols;
    let s = compile st need_q q in
    { s with cols = positions s cols }
  | Hash_join ([], l, r) -> compile st need (Product (l, r))
  | Hash_join (keys, l, r) ->
    let nl = arity l in
    let lk, rk = split_keys keys in
    let sl = compile st (demand nl ~need:(fun i -> need.(i)) lk) l in
    let sr = compile st (demand (arity r) ~need:(fun i -> need.(nl + i)) rk) r in
    let lkp = positions sl lk and rkp = positions sr rk in
    let cols, emit = pair need sl sr in
    let iter k =
      let table =
        lazy
          (let t = build ~unique:false (keyed_on r rk rkp) sr in
           st.built <- st.built + t.n;
           t)
      in
      sl.iter (fun lrow ->
          let t = Lazy.force table in
          st.probed <- st.probed + 1;
          let e = ref (find t lrow lkp) in
          while !e >= 0 do
            k (emit lrow t.rows.(!e));
            e := find_next t !e lrow lkp
          done)
    in
    { cols; iter }
  | Semi_join (keys, l, r) -> filter_join st need ~keep:true keys l r
  | Anti_join (keys, l, r) -> filter_join st need ~keep:false keys l r
  | Product (l, r) ->
    let nl = arity l in
    let sl = compile st (Array.sub need 0 nl) l in
    let sr = compile st (Array.sub need nl (Array.length need - nl)) r in
    let cols, emit = pair need sl sr in
    let iter k =
      let right = lazy (collect sr) in
      sl.iter (fun lrow ->
          let rows, n = Lazy.force right in
          for i = 0 to n - 1 do
            k (emit lrow rows.(i))
          done)
    in
    { cols; iter }
  | Union (l, r) ->
    (* set semantics over every column: each side's new rows are kept,
       in place, in a table of that side's layout *)
    let n = Array.length need in
    let sl = compile st (Array.make n true) l and sr = compile st (Array.make n true) r in
    let picked, cols = compact need in
    let lsrc = positions sl picked and rsrc = positions sr picked in
    let out = if picked = [||] then fun row _ -> row else gather in
    let iter k =
      let left = keyed_on l (all_cols n) sl.cols and right = keyed_on r (all_cols n) sr.cols in
      sl.iter (fun row -> if fresh left row then k (out row lsrc));
      sr.iter (fun row ->
          if find left row sr.cols < 0 && fresh right row then k (out row rsrc))
    in
    { cols; iter }
  | Diff (l, r) ->
    let n = Array.length need in
    let sl = compile st (Array.make n true) l and sr = compile st (Array.make n true) r in
    let iter k =
      let right = lazy (build ~unique:true (keyed_on r (all_cols n) sr.cols) sr) in
      let seen = keyed_on l (all_cols n) sl.cols in
      sl.iter (fun row ->
          if find (Lazy.force right) row sl.cols < 0 && fresh seen row then k row)
    in
    { cols = sl.cols; iter }
  | Distinct q ->
    let n = Array.length need in
    let s = compile st (Array.make n true) q in
    let iter k =
      let seen = keyed_on q (all_cols n) s.cols in
      s.iter (fun row -> if fresh seen row then k row)
    in
    { cols = s.cols; iter }
  | Group_by (keys, aggs, having, q) -> group_by st keys aggs having q

(* Semi join ([keep]) or anti join: a left row passes when the right
   input has (or has not) a row with its key.  Only the right input's
   keys are read, so a [Distinct] directly under it is dropped; with no
   keys the operator tests the right input's existence, reading it only
   up to its first row. *)
and filter_join st need ~keep keys l r =
  let r = match r with Distinct r -> r | r -> r in
  let lk, rk = split_keys keys in
  let sl = compile st (demand (Array.length need) ~need:(fun i -> need.(i)) lk) l in
  let sr = compile st (demand (arity r) rk) r in
  let lkp = positions sl lk and rkp = positions sr rk in
  let iter k =
    if keys = [] then begin
      let pass =
        lazy
          (let exception Found in
           match sr.iter (fun _ -> raise Found) with () -> not keep | exception Found -> keep)
      in
      sl.iter (fun lrow -> if Lazy.force pass then k lrow)
    end
    else begin
      let table = lazy (build ~unique:true (keyed_on r rk rkp) sr) in
      sl.iter (fun lrow -> if (find (Lazy.force table) lrow lkp >= 0) = keep then k lrow)
    end
  in
  { cols = sl.cols; iter }

(* Hash aggregation, after reading the whole input.  Groups are entries
   of a table keyed on the group columns (a group's first row stands for
   its key); a [Count_distinct c] counts the distinct (group key, c)
   pairs of a second table.  Output rows are fresh: keys, then
   aggregates. *)
and group_by st keys aggs having q =
  let nk = Array.length keys and na = Array.length aggs in
  let agg_cols =
    List.filter_map
      (function Count_all -> None | Count_distinct c | Min_col c | Max_col c -> Some c)
      (Array.to_list aggs)
  in
  let s = compile st (demand (arity q) (Array.append keys (Array.of_list agg_cols))) q in
  let kp = positions s keys in
  let test = compile_pred (all_cols (nk + na)) (simplify having) in
  let iter k =
    let rows, n = collect s in
    let groups = keyed_on q keys kp in
    let update =
      Array.map
        (fun agg ->
          match agg with
          | Count_all -> (Array.make n 0, fun acc g (_ : int array) -> acc.(g) <- acc.(g) + 1)
          | Count_distinct c ->
            let pairs = keyed_on q (Array.append keys [| c |]) (Array.append kp [| s.cols.(c) |]) in
            (Array.make n 0, fun acc g row -> if fresh pairs row then acc.(g) <- acc.(g) + 1)
          | Min_col c ->
            let p = s.cols.(c) in
            (Array.make n max_int, fun acc g row -> if row.(p) < acc.(g) then acc.(g) <- row.(p))
          | Max_col c ->
            let p = s.cols.(c) in
            (Array.make n min_int, fun acc g row -> if row.(p) > acc.(g) then acc.(g) <- row.(p)))
        aggs
    in
    for i = 0 to n - 1 do
      let row = rows.(i) in
      let g = intern groups row in
      for a = 0 to na - 1 do
        let acc, f = update.(a) in
        f acc g row
      done
    done;
    for g = 0 to groups.n - 1 do
      let out = Array.make (nk + na) 0 in
      let first = groups.rows.(g) in
      for j = 0 to nk - 1 do
        out.(j) <- first.(kp.(j))
      done;
      for a = 0 to na - 1 do
        out.(nk + a) <- (fst update.(a)).(g)
      done;
      if test out then k out
    done
  in
  { cols = all_cols (nk + na); iter }

(* Compile and evaluate [plan] for consumers of the [need]ed columns,
   then flush the evaluation's row counts to telemetry (also when [f]
   raises). *)
let evaluate plan need f =
  let st = { scanned = 0; built = 0; probed = 0 } in
  let flush () =
    if T.enabled () then begin
      T.incr ~by:st.scanned (T.counter "sql.rows_scanned");
      if st.built > 0 || st.probed > 0 then begin
        T.incr ~by:st.built (T.counter "sql.hash_join.build_rows");
        T.incr ~by:st.probed (T.counter "sql.hash_join.probe_rows")
      end
    end
  in
  match f (compile st need plan) with
  | v ->
    flush ();
    v
  | exception e ->
    flush ();
    raise e

let run plan =
  evaluate plan
    (Array.make (arity plan) true)
    (fun s ->
      let out = ref [] in
      s.iter (fun row -> out := gather row s.cols :: !out);
      !out)

let count plan =
  evaluate plan
    (Array.make (arity plan) false)
    (fun s ->
      let n = ref 0 in
      s.iter (fun _ -> incr n);
      !n)

let is_empty plan =
  evaluate plan
    (Array.make (arity plan) false)
    (fun s ->
      let exception Found in
      match s.iter (fun _ -> raise Found) with () -> true | exception Found -> false)
