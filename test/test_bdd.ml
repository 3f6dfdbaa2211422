(** Kernel tests: the ROBDD invariants, every logical operation checked
    against brute-force truth-table evaluation on random formulas, the
    node-budget behaviour, and the stamp walks against a reference
    walk. *)

module M = Fcv_bdd.Manager
module O = Fcv_bdd.Ops
module Sat = Fcv_bdd.Sat

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* -- random boolean expressions for brute-force comparison -------------- *)

type bexp =
  | BVar of int
  | BTrue
  | BFalse
  | BNot of bexp
  | BOp of O.binop * bexp * bexp

let rec eval_bexp env = function
  | BVar i -> env.(i)
  | BTrue -> true
  | BFalse -> false
  | BNot e -> not (eval_bexp env e)
  | BOp (op, a, b) ->
    let x = eval_bexp env a and y = eval_bexp env b in
    (match op with
    | O.And -> x && y
    | O.Or -> x || y
    | O.Xor -> x <> y
    | O.Imp -> (not x) || y
    | O.Iff -> x = y
    | O.Diff -> x && not y)

let rec build_bexp m = function
  | BVar i -> M.ithvar m i
  | BTrue -> M.one
  | BFalse -> M.zero
  | BNot e -> O.neg m (build_bexp m e)
  | BOp (op, a, b) -> O.apply m op (build_bexp m a) (build_bexp m b)

let bexp_gen nvars =
  let open QCheck.Gen in
  let rec go depth =
    if depth <= 0 then
      frequency [ (6, map (fun i -> BVar i) (int_bound (nvars - 1))); (1, return BTrue); (1, return BFalse) ]
    else
      frequency
        [
          (2, map (fun i -> BVar i) (int_bound (nvars - 1)));
          (1, map (fun e -> BNot e) (go (depth - 1)));
          ( 4,
            let* op = oneofl [ O.And; O.Or; O.Xor; O.Imp; O.Iff; O.Diff ] in
            let* a = go (depth - 1) in
            let* b = go (depth - 1) in
            return (BOp (op, a, b)) );
        ]
  in
  int_range 1 6 >>= go

let rec pp_bexp = function
  | BVar i -> Printf.sprintf "x%d" i
  | BTrue -> "T"
  | BFalse -> "F"
  | BNot e -> Printf.sprintf "!(%s)" (pp_bexp e)
  | BOp (op, a, b) ->
    let s = match op with O.And -> "&" | O.Or -> "|" | O.Xor -> "^" | O.Imp -> "=>" | O.Iff -> "<=>" | O.Diff -> "\\" in
    Printf.sprintf "(%s %s %s)" (pp_bexp a) s (pp_bexp b)

let bexp_arb nvars = QCheck.make (bexp_gen nvars) ~print:pp_bexp

let all_envs nvars =
  List.init (1 lsl nvars) (fun mask -> Array.init nvars (fun i -> (mask lsr i) land 1 = 1))

let nvars = 6

(* -- unit tests ----------------------------------------------------------- *)

let test_terminals () =
  let m = M.create ~nvars:2 () in
  check "false is 0" true (M.zero = 0);
  check "true is 1" true (M.one = 1);
  check "terminal detect" true (M.is_terminal M.zero && M.is_terminal M.one);
  check_int "initial size" 2 (M.size m)

let test_mk_collapses () =
  let m = M.create ~nvars:2 () in
  let x = M.ithvar m 0 in
  check "mk with equal children collapses" true (M.mk m 1 x x = x)

let test_mk_hash_consing () =
  let m = M.create ~nvars:2 () in
  let a = M.mk m 0 M.zero M.one in
  let b = M.mk m 0 M.zero M.one in
  check "identical triples share a node" true (a = b)

let test_canonicity_no_redundant () =
  (* ROBDD invariant: every interior node has low <> high and child
     levels strictly deeper. *)
  let m = M.create ~nvars:nvars () in
  let f =
    O.bor m
      (O.band m (M.ithvar m 0) (M.ithvar m 3))
      (O.bxor m (M.ithvar m 1) (M.nithvar m 4))
  in
  let ok = ref true in
  let visited = Hashtbl.create 16 in
  let rec walk id =
    if (not (M.is_terminal id)) && not (Hashtbl.mem visited id) then begin
      Hashtbl.add visited id ();
      if M.low m id = M.high m id then ok := false;
      if (not (M.is_terminal (M.low m id))) && M.var m (M.low m id) <= M.var m id then
        ok := false;
      if (not (M.is_terminal (M.high m id))) && M.var m (M.high m id) <= M.var m id then
        ok := false;
      walk (M.low m id);
      walk (M.high m id)
    end
  in
  walk f;
  check "invariants hold" true !ok

let test_not_involution () =
  let m = M.create ~nvars:3 () in
  let f = O.bxor m (M.ithvar m 0) (O.band m (M.ithvar m 1) (M.ithvar m 2)) in
  check "double negation" true (O.neg m (O.neg m f) = f)

let test_node_limit () =
  let m = M.create ~nvars:40 ~max_nodes:20 () in
  let build () =
    (* a parity chain blows past 20 nodes quickly *)
    let f = ref (M.ithvar m 0) in
    for i = 1 to 39 do
      f := O.bxor m !f (M.ithvar m i)
    done;
    !f
  in
  (match build () with
  | _ -> Alcotest.fail "expected Node_limit"
  | exception M.Node_limit n -> check_int "budget value carried" 20 n)

let test_node_limit_not_triggered_by_lookups () =
  let m = M.create ~nvars:4 ~max_nodes:12 () in
  let f = O.band m (M.ithvar m 0) (M.ithvar m 1) in
  (* rebuilding the same function costs no fresh nodes *)
  let g = O.band m (M.ithvar m 0) (M.ithvar m 1) in
  check "cached rebuild under budget" true (f = g)

let test_level_limit_typed () =
  (* the 511-level packing ceiling raises the typed Level_limit (the
     serving path catches it like Node_limit), not a bare Failure *)
  let m = M.create ~nvars:0 () in
  for _ = 1 to M.max_level do
    ignore (M.new_var m)
  done;
  check_int "full level budget usable" M.max_level (M.nvars m);
  match M.new_var m with
  | _ -> Alcotest.fail "expected Level_limit"
  | exception M.Level_limit n -> check_int "ceiling carried" M.max_level n

let test_bounded_op_caches () =
  let cap = 16 in
  let m = M.create ~nvars:64 ~max_cache:cap () in
  let first () = O.band m (M.ithvar m 0) (M.ithvar m 63) in
  let r = first () in
  for i = 1 to 31 do
    ignore (O.band m (M.ithvar m i) (M.ithvar m (63 - i)))
  done;
  (* each AND of two literals is one lookup and one insert, all in the
     apply cache, so its 16 slots are the whole occupancy *)
  let s = M.stats m in
  check "occupancy bounded by the cap" true (s.M.op_cache_entries <= cap);
  let misses (s : M.stats) = s.M.op_cache_lookups - s.M.op_cache_hits in
  let again = first () in
  let s' = M.stats m in
  check_int "a later AND overwrote the first one's slot" (misses s + 1) (misses s');
  check_int "the recomputation allocates nothing" s.M.unique_misses s'.M.unique_misses;
  (* overwrites lose memoisation, never correctness *)
  check "results stable across overwrites" true (again = r)

let test_rejects_negative_limits () =
  let rejects name f =
    match f () with
    | () -> Alcotest.fail (name ^ ": expected Invalid_argument")
    | exception Invalid_argument _ -> ()
  in
  rejects "create ~max_nodes" (fun () -> ignore (M.create ~nvars:1 ~max_nodes:(-1) ()));
  rejects "create ~max_cache" (fun () -> ignore (M.create ~nvars:1 ~max_cache:(-1) ()));
  let m = M.create ~nvars:1 ~max_nodes:5 () in
  rejects "set_max_nodes" (fun () -> M.set_max_nodes m (-1));
  rejects "set_max_cache" (fun () -> M.set_max_cache m (-1));
  check_int "budget kept" 5 (M.max_nodes m);
  check_int "cap kept" M.default_max_cache (M.max_cache m)

(* Every interior node re-[mk]s to its own id without allocating, and
   the bucket array is a power of two with short chains. *)
let check_unique_table m =
  let misses = (M.stats m).M.unique_misses in
  for id = 2 to M.size m - 1 do
    if M.mk m (M.var m id) (M.low m id) (M.high m id) <> id then
      Alcotest.failf "node %d did not re-mk to itself" id
  done;
  check_int "re-mk allocates nothing" misses (M.stats m).M.unique_misses;
  let buckets, longest = M.unique_shape m in
  check "bucket count is a power of two" true (buckets > 0 && buckets land (buckets - 1) = 0);
  check "buckets cover the store" true (buckets >= M.size m);
  if longest > 32 then Alcotest.failf "longest chain %d > 32" longest

let test_unique_table_growth () =
  let nv = 256 and per_level = 600 in
  let m = M.create ~nvars:nv () in
  let rng = Random.State.make [| 17 |] in
  (* a random DAG built bottom-up: each level's nodes take their
     children from the deeper levels' nodes and the terminals.  Each
     level has both literals, and every node draws one child from the
     four newest deeper nodes, so a hash that ignored the level or a
     child would pile tens of nodes into one chain. *)
  let ids = ref [| M.zero; M.one |] and n = ref 2 in
  let add id =
    if !n = Array.length !ids then ids := Array.append !ids (Array.make !n 0);
    !ids.(!n) <- id;
    incr n
  in
  for v = nv - 1 downto 0 do
    let deeper = !n in
    let any () = !ids.(Random.State.int rng deeper) in
    let few () = !ids.(deeper - 1 - Random.State.int rng (min 4 deeper)) in
    add (M.ithvar m v);
    add (M.nithvar m v);
    for i = 1 to per_level do
      let lo, hi = if i land 1 = 0 then (few (), any ()) else (any (), few ()) in
      let size = M.size m in
      let id = M.mk m v lo hi in
      if M.size m > size then add id
    done
  done;
  check "store passed 2^17 nodes" true (M.size m > 1 lsl 17);
  check_unique_table m;
  (* keep every other root among the top levels' nodes *)
  let roots = List.init 500 (fun i -> !ids.(!n - 1 - (2 * i))) in
  let envs = List.init 16 (fun _ -> Array.init nv (fun _ -> Random.State.bool rng)) in
  let truth roots = List.map (fun r -> List.map (M.eval m r) envs) roots in
  let before = truth roots and size_before = M.size m in
  let roots' = M.compact m roots in
  check "compaction reclaimed nodes" true (M.size m < size_before);
  check "kept roots evaluate as before" true (truth roots' = before);
  check_unique_table m

(* [f] under [env] with [assigns] overriding some levels. *)
let eval_at m f env assigns =
  let env = Array.copy env in
  List.iter (fun (v, b) -> env.(v) <- b) assigns;
  M.eval m f env

(* Every assignment to [levels]. *)
let rec assignments = function
  | [] -> [ [] ]
  | v :: rest ->
    List.concat_map (fun a -> [ (v, false) :: a; (v, true) :: a ]) (assignments rest)

let binops = [| O.And; O.Or; O.Xor; O.Imp; O.Iff; O.Diff |]

(* One seeded op sequence on a manager whose caches hold one slot each
   (every insert collides) and on a default one.  A lost memo entry
   only costs recomputation, so both must return the same ids and
   allocate the same nodes.  The pool's functions live on a window of
   [w] consecutive levels, because recursion without a memo is
   exponential in the support; every [epoch] steps a [replace] moves
   the pool to the next window, alternately keeping and reversing the
   level order (the reversal goes through [ite]). *)
let test_lossy_cache_same_store () =
  let w = 12 and windows = 4 and pool = 24 and steps = 10000 and epoch = 50 in
  let nv = w * windows in
  let small = M.create ~nvars:nv ~max_cache:1 () and big = M.create ~nvars:nv () in
  let rng = Random.State.make [| 16 |] in
  let step = ref 0 and base = ref 0 in
  let both name op =
    let r = op small and r' = op big in
    if r <> r' || M.size small <> M.size big then
      Alcotest.failf "step %d, %s: ids %d vs %d, sizes %d vs %d" !step name r r' (M.size small)
        (M.size big);
    r
  in
  (* the result must agree with [expect], computed from the operands,
     on a few sampled assignments in both managers *)
  let agrees name r expect =
    for _ = 1 to 4 do
      let env = Array.init nv (fun _ -> Random.State.bool rng) in
      List.iter
        (fun m ->
          if M.eval m r env <> expect m env then
            Alcotest.failf "step %d, %s: result disagrees with evaluation" !step name)
        [ small; big ]
    done
  in
  let level () = !base + Random.State.int rng w in
  let levels () = List.sort_uniq compare (List.init (1 + Random.State.int rng 3) (fun _ -> level ())) in
  let entries = Array.init pool (fun _ -> let v = level () in both "ithvar" (fun m -> M.ithvar m v)) in
  let pick () = entries.(Random.State.int rng pool) in
  let quantified name ~all op vs a b =
    let r =
      both name (fun m ->
          match (all, op) with
          | false, None -> O.exists m vs a
          | true, None -> O.forall m vs a
          | false, Some op -> O.appex m op vs a b
          | true, Some op -> O.appall m op vs a b)
    in
    agrees name r (fun m env ->
        let value asg =
          match op with
          | None -> eval_at m a env asg
          | Some op -> O.op_eval op (eval_at m a env asg) (eval_at m b env asg)
        in
        let values = List.map value (assignments vs) in
        if all then List.for_all Fun.id values else List.exists Fun.id values);
    r
  in
  while !step < steps do
    incr step;
    if !step = steps / 2 then begin
      let roots = Array.to_list entries in
      let kept = M.compact small roots in
      if M.compact big roots <> kept then Alcotest.fail "compaction remapped differently";
      List.iteri (fun i r -> entries.(i) <- r) kept
    end;
    if !step mod epoch = 0 then begin
      let base' = (!base + w) mod nv and reversed = !step / epoch mod 2 = 1 in
      let target v = if reversed then base' + w - 1 - (v - !base) else base' + (v - !base) in
      let pairs = List.init w (fun i -> (!base + i, target (!base + i))) in
      Array.iteri
        (fun i e ->
          let r = both "replace" (fun m -> O.replace m e pairs) in
          agrees "replace" r (fun m env ->
              eval_at m e env (List.map (fun (v, v') -> (v, env.(v'))) pairs));
          entries.(i) <- r)
        entries;
      base := base'
    end;
    let a = pick () and b = pick () in
    let r =
      match Random.State.int rng 12 with
      | k when k < 6 ->
        let op = binops.(k) in
        let r = both "apply" (fun m -> O.apply m op a b) in
        agrees "apply" r (fun m env -> O.op_eval op (M.eval m a env) (M.eval m b env));
        r
      | 6 ->
        let r = both "neg" (fun m -> O.neg m a) in
        agrees "neg" r (fun m env -> not (M.eval m a env));
        r
      | 7 -> quantified "exists" ~all:false None (levels ()) a b
      | 8 -> quantified "forall" ~all:true None (levels ()) a b
      | 9 -> quantified "appex" ~all:false (Some binops.(Random.State.int rng 6)) (levels ()) a b
      | 10 -> quantified "appall" ~all:true (Some binops.(Random.State.int rng 6)) (levels ()) a b
      | _ ->
        let bindings = List.map (fun v -> (v, Random.State.bool rng)) (levels ()) in
        let r = both "restrict" (fun m -> O.restrict m a bindings) in
        agrees "restrict" r (fun m env -> eval_at m a env bindings);
        r
    in
    (* a constant would shrink the pool's variety; put a literal there *)
    let r = if M.is_terminal r then (let v = level () in both "ithvar" (fun m -> M.ithvar m v)) else r in
    entries.(Random.State.int rng pool) <- r
  done;
  let s = M.stats small and s' = M.stats big in
  check_int "same size" s.M.nodes s'.M.nodes;
  check_int "same unique misses" s.M.unique_misses s'.M.unique_misses;
  check_int "same peak" s.M.peak_nodes s'.M.peak_nodes;
  check "the sequence crossed 2^16 nodes" true (s.M.peak_nodes >= 1 lsl 16);
  check "the one-slot caches really lost entries" true
    (s.M.op_cache_hits * 2 < s'.M.op_cache_hits)

let test_restrict () =
  let m = M.create ~nvars:3 () in
  let f = O.bor m (O.band m (M.ithvar m 0) (M.ithvar m 1)) (M.ithvar m 2) in
  let f0 = O.restrict m f [ (0, true) ] in
  (* with x0=1: x1 or x2 *)
  let expect = O.bor m (M.ithvar m 1) (M.ithvar m 2) in
  check "restrict x0=1" true (f0 = expect);
  let f1 = O.restrict m f [ (0, false); (1, true) ] in
  check "restrict two vars" true (f1 = M.ithvar m 2)

let test_exists_forall_units () =
  let m = M.create ~nvars:3 () in
  let f = O.band m (M.ithvar m 0) (M.ithvar m 1) in
  check "exists x0 (x0&x1) = x1" true (O.exists m [ 0 ] f = M.ithvar m 1);
  check "forall x0 (x0&x1) = false" true (O.forall m [ 0 ] f = M.zero);
  let g = O.bor m (M.ithvar m 0) (M.ithvar m 1) in
  check "forall x0 (x0|x1) = x1" true (O.forall m [ 0 ] g = M.ithvar m 1);
  check "exists over empty set is id" true (O.exists m [] f = f)

let test_replace_simple () =
  let m = M.create ~nvars:4 () in
  let f = O.band m (M.ithvar m 0) (M.ithvar m 1) in
  let g = O.replace m f [ (0, 2); (1, 3) ] in
  let expect = O.band m (M.ithvar m 2) (M.ithvar m 3) in
  check "shift rename" true (g = expect)

let test_replace_order_breaking () =
  (* rename to a variable ABOVE the source: forces the ite path *)
  let m = M.create ~nvars:4 () in
  let f = O.band m (M.ithvar m 2) (M.ithvar m 3) in
  let g = O.replace m f [ (2, 0) ] in
  let expect = O.band m (M.ithvar m 0) (M.ithvar m 3) in
  check "upward rename" true (g = expect)

let test_replace_swap () =
  (* simultaneous swap of two variables *)
  let m = M.create ~nvars:2 () in
  let f = O.bdiff m (M.ithvar m 0) (M.ithvar m 1) in
  (* f = x0 & !x1; swapped = x1 & !x0 *)
  let g = O.replace m f [ (0, 1); (1, 0) ] in
  let expect = O.bdiff m (M.ithvar m 1) (M.ithvar m 0) in
  check "swap rename" true (g = expect)

let test_ite_units () =
  let m = M.create ~nvars:3 () in
  let x0 = M.ithvar m 0 and x1 = M.ithvar m 1 and x2 = M.ithvar m 2 in
  check "ite true" true (O.ite m M.one x1 x2 = x1);
  check "ite false" true (O.ite m M.zero x1 x2 = x2);
  check "ite same" true (O.ite m x0 x1 x1 = x1);
  let f = O.ite m x0 x1 x2 in
  let expect = O.bor m (O.band m x0 x1) (O.band m (O.neg m x0) x2) in
  check "ite expansion" true (f = expect)

let test_satcount () =
  let m = M.create ~nvars:4 () in
  check "count true" true (Sat.count m M.one = 16.);
  check "count false" true (Sat.count m M.zero = 0.);
  check "count literal" true (Sat.count m (M.ithvar m 2) = 8.);
  let f = O.band m (M.ithvar m 0) (M.ithvar m 3) in
  check "count conjunction" true (Sat.count m f = 4.)

let test_any_sat () =
  let m = M.create ~nvars:3 () in
  check "unsat" true (Sat.any m M.zero = None);
  let f = O.band m (M.ithvar m 0) (O.neg m (M.ithvar m 2)) in
  (match Sat.any m f with
  | None -> Alcotest.fail "expected sat"
  | Some cube ->
    let env = Array.make 3 false in
    List.iter (fun (v, b) -> env.(v) <- b) cube;
    check "assignment satisfies" true (M.eval m f env))

let test_cubes_partition_models () =
  let m = M.create ~nvars:4 () in
  let f = O.bor m (O.band m (M.ithvar m 0) (M.ithvar m 1)) (M.ithvar m 3) in
  let total =
    Sat.fold_cubes m f ~init:0. ~f:(fun acc cube ->
        acc +. Float.pow 2. (float_of_int (4 - List.length cube)))
  in
  check "cubes cover the model count" true (total = Sat.count m f)

let test_support () =
  let m = M.create ~nvars:5 () in
  let f = O.band m (M.ithvar m 1) (O.bor m (M.ithvar m 3) (M.nithvar m 4)) in
  Alcotest.(check (list int)) "support" [ 1; 3; 4 ] (M.support m f)

let test_shared_node_count () =
  let m = M.create ~nvars:4 () in
  let f = O.band m (M.ithvar m 0) (M.ithvar m 1) in
  let g = O.band m (M.ithvar m 0) (M.ithvar m 1) in
  check "shared count is not double" true (M.node_count_shared m [ f; g ] = M.node_count m f)

(* Reference walks with a fresh Hashtbl per call, as the kernel's own
   walks were before they took stamps. *)
let reference_count m roots =
  let seen = Hashtbl.create 256 in
  let rec go id =
    if not (Hashtbl.mem seen id) then begin
      Hashtbl.add seen id ();
      if not (M.is_terminal id) then begin
        go (M.low m id);
        go (M.high m id)
      end
    end
  in
  List.iter go roots;
  Hashtbl.length seen

let reference_support m root =
  let seen = Hashtbl.create 256 and levels = Hashtbl.create 16 in
  let rec go id =
    if (not (M.is_terminal id)) && not (Hashtbl.mem seen id) then begin
      Hashtbl.add seen id ();
      Hashtbl.replace levels (M.var m id) ();
      go (M.low m id);
      go (M.high m id)
    end
  in
  go root;
  List.sort compare (Hashtbl.fold (fun l () acc -> l :: acc) levels [])

(* Random BDDs from seeded ops (random cubes folded into a pool of
   roots), walked between ops while the store doubles from 2^10 past
   2^17 nodes, then again after a compaction renumbers it. *)
let test_stamp_walks () =
  let nv = 40 in
  let m = M.create ~nvars:nv () in
  let rng = Random.State.make [| 23 |] in
  let pool = Array.make 48 M.zero in
  let pick () = pool.(Random.State.int rng (Array.length pool)) in
  let cube () =
    List.fold_left
      (fun acc _ ->
        let v = Random.State.int rng nv in
        O.band m acc (if Random.State.bool rng then M.ithvar m v else M.nithvar m v))
      M.one
      (List.init (4 + Random.State.int rng 6) Fun.id)
  in
  let step () =
    let i = Random.State.int rng (Array.length pool) in
    let op = [| O.Or; O.Or; O.Xor; O.And; O.Diff |].(Random.State.int rng 5) in
    pool.(i) <- O.apply m op pool.(i) (if Random.State.int rng 4 = 0 then pick () else cube ())
  in
  let agree what =
    let a = pick () and b = pick () and c = pick () in
    check_int (what ^ ": node_count") (reference_count m [ a ]) (M.node_count m a);
    let overlapping = [ a; b; a; c; M.one ] in
    check_int
      (what ^ ": node_count_shared")
      (reference_count m overlapping)
      (M.node_count_shared m overlapping);
    Alcotest.(check (list int)) (what ^ ": support") (reference_support m a) (M.support m a)
  in
  let n = ref 0 in
  while M.size m <= 1 lsl 17 do
    step ();
    incr n;
    if !n mod 4 = 0 then agree (Printf.sprintf "step %d (%d nodes)" !n (M.size m))
  done;
  let roots = M.compact m (Array.to_list pool) in
  List.iteri (fun i r -> pool.(i) <- r) roots;
  check "compaction reclaimed nodes" true (M.size m < 1 lsl 17);
  for k = 1 to 50 do
    agree (Printf.sprintf "compacted, walk %d" k);
    step ()
  done

(* A copy of a store that holds garbage keeps exactly the nodes its
   roots reach, and each copied root is the same function.  The source
   store is left as it was, and the copy grows on its own. *)
let test_manager_copy () =
  let nv = 24 in
  let m = M.create ~max_nodes:200_000 ~max_cache:4096 ~nvars:nv () in
  let rng = Random.State.make [| 31 |] in
  let cube () =
    List.fold_left
      (fun acc _ ->
        let v = Random.State.int rng nv in
        O.band m acc (if Random.State.bool rng then M.ithvar m v else M.nithvar m v))
      M.one
      (List.init (3 + Random.State.int rng 5) Fun.id)
  in
  let pool = Array.init 12 (fun _ -> cube ()) in
  for _ = 1 to 400 do
    let i = Random.State.int rng (Array.length pool) in
    let op = [| O.Or; O.Xor; O.And; O.Diff |].(Random.State.int rng 4) in
    pool.(i) <- O.apply m op pool.(i) (cube ())
  done;
  let roots = Array.to_list pool in
  let size = M.size m and reached = M.node_count_shared m roots in
  check "the store holds garbage" true (size > reached);
  let c, roots' = M.copy m roots in
  check_int "the copy holds exactly the reachable nodes" reached (M.size c);
  check_int "same levels" (M.nvars m) (M.nvars c);
  check_int "same budget" (M.max_nodes m) (M.max_nodes c);
  check_int "same cache cap" (M.max_cache m) (M.max_cache c);
  check_int "empty caches" 0 (M.cache_entries c);
  check_int "the source is untouched" size (M.size m);
  check_unique_table c;
  for _ = 1 to 64 do
    let env = Array.init nv (fun _ -> Random.State.bool rng) in
    List.iter2
      (fun r r' -> check "copied root evaluates equally" (M.eval m r env) (M.eval c r' env))
      roots roots'
  done;
  ignore (O.bor c (List.hd roots') (M.ithvar c (nv - 1)));
  check_int "the copy grows alone" size (M.size m)

let test_of_codes () =
  let m = M.create ~nvars:4 () in
  let levels = [| 0; 1; 2; 3 |] in
  let codes = [| 0b0011; 0b0101; 0b1111 |] in
  let f = Fcv_bdd.Of_codes.build m ~levels ~codes in
  check "count" true (Sat.count m f = 3.);
  Array.iter
    (fun c ->
      let env = Array.init 4 (fun i -> (c lsr (3 - i)) land 1 = 1) in
      check "member" true (M.eval m f env))
    codes;
  let env = Array.init 4 (fun i -> (0b0100 lsr (3 - i)) land 1 = 1) in
  check "non-member" false (M.eval m f env)

let test_of_codes_rejects_bad_input () =
  let m = M.create ~nvars:4 () in
  Alcotest.check_raises "decreasing levels" (Invalid_argument "Of_codes.build: levels must be strictly increasing")
    (fun () -> ignore (Fcv_bdd.Of_codes.build m ~levels:[| 1; 0 |] ~codes:[| 0 |]))

(* -- property tests -------------------------------------------------------- *)

let prop_apply_matches_truth_table =
  QCheck.Test.make ~count:300 ~name:"apply agrees with truth-table evaluation"
    (bexp_arb nvars) (fun e ->
      let m = M.create ~nvars () in
      let f = build_bexp m e in
      List.for_all (fun env -> M.eval m f env = eval_bexp env e) (all_envs nvars))

let prop_canonicity =
  QCheck.Test.make ~count:200 ~name:"equivalent formulas share one node (canonicity)"
    (QCheck.pair (bexp_arb 4) (bexp_arb 4))
    (fun (e1, e2) ->
      let m = M.create ~nvars:4 () in
      let f1 = build_bexp m e1 in
      let f2 = build_bexp m e2 in
      let equivalent =
        List.for_all (fun env -> eval_bexp env e1 = eval_bexp env e2) (all_envs 4)
      in
      equivalent = (f1 = f2))

let prop_exists_is_or_of_restricts =
  QCheck.Test.make ~count:200 ~name:"exists v f = f|v=0 or f|v=1" (bexp_arb nvars)
    (fun e ->
      let m = M.create ~nvars () in
      let f = build_bexp m e in
      List.for_all
        (fun v ->
          O.exists m [ v ] f
          = O.bor m (O.restrict m f [ (v, false) ]) (O.restrict m f [ (v, true) ]))
        [ 0; 2; 5 ])

let prop_forall_is_and_of_restricts =
  QCheck.Test.make ~count:200 ~name:"forall v f = f|v=0 and f|v=1" (bexp_arb nvars)
    (fun e ->
      let m = M.create ~nvars () in
      let f = build_bexp m e in
      List.for_all
        (fun v ->
          O.forall m [ v ] f
          = O.band m (O.restrict m f [ (v, false) ]) (O.restrict m f [ (v, true) ]))
        [ 1; 3; 4 ])

let prop_appex_fused =
  QCheck.Test.make ~count:200 ~name:"appex = exists after apply"
    (QCheck.pair (bexp_arb nvars) (bexp_arb nvars))
    (fun (e1, e2) ->
      let m = M.create ~nvars () in
      let f = build_bexp m e1 and g = build_bexp m e2 in
      List.for_all
        (fun (op, vars) ->
          O.appex m op vars f g = O.exists m vars (O.apply m op f g))
        [ (O.And, [ 0; 1 ]); (O.Or, [ 2 ]); (O.Imp, [ 0; 3; 5 ]); (O.Xor, [ 4 ]) ])

let prop_appall_fused =
  QCheck.Test.make ~count:200 ~name:"appall = forall after apply"
    (QCheck.pair (bexp_arb nvars) (bexp_arb nvars))
    (fun (e1, e2) ->
      let m = M.create ~nvars () in
      let f = build_bexp m e1 and g = build_bexp m e2 in
      List.for_all
        (fun (op, vars) ->
          O.appall m op vars f g = O.forall m vars (O.apply m op f g))
        [ (O.And, [ 0; 1 ]); (O.Or, [ 2 ]); (O.Imp, [ 0; 3; 5 ]); (O.Iff, [ 1; 4 ]) ])

let prop_replace_semantics =
  QCheck.Test.make ~count:200 ~name:"replace renames variables semantically"
    (bexp_arb 3) (fun e ->
      let m = M.create ~nvars:6 () in
      let f = build_bexp m e in
      (* rename 0,1,2 -> 3,4,5 *)
      let g = O.replace m f [ (0, 3); (1, 4); (2, 5) ] in
      List.for_all
        (fun env3 ->
          let env6 = Array.make 6 false in
          Array.blit env3 0 env6 3 3;
          M.eval m g env6 = eval_bexp env3 e)
        (all_envs 3))

let prop_satcount_matches_enumeration =
  QCheck.Test.make ~count:200 ~name:"satcount equals brute-force model count"
    (bexp_arb nvars) (fun e ->
      let m = M.create ~nvars () in
      let f = build_bexp m e in
      let brute =
        List.length (List.filter (fun env -> eval_bexp env e) (all_envs nvars))
      in
      Sat.count m f = float_of_int brute)

let prop_restrict_semantics =
  QCheck.Test.make ~count:200 ~name:"restrict fixes a variable semantically"
    (QCheck.pair (bexp_arb nvars) QCheck.bool)
    (fun (e, b) ->
      let m = M.create ~nvars () in
      let f = build_bexp m e in
      let g = O.restrict m f [ (2, b) ] in
      List.for_all
        (fun env ->
          let env' = Array.copy env in
          env'.(2) <- b;
          M.eval m g env = eval_bexp env' e)
        (all_envs nvars))

let suite =
  [
    Alcotest.test_case "terminals" `Quick test_terminals;
    Alcotest.test_case "mk collapses equal children" `Quick test_mk_collapses;
    Alcotest.test_case "hash consing" `Quick test_mk_hash_consing;
    Alcotest.test_case "unique table stays canonical through growth and compaction" `Quick
      test_unique_table_growth;
    Alcotest.test_case "ROBDD invariants" `Quick test_canonicity_no_redundant;
    Alcotest.test_case "negation is involutive" `Quick test_not_involution;
    Alcotest.test_case "node budget raises" `Quick test_node_limit;
    Alcotest.test_case "node budget ignores cache hits" `Quick test_node_limit_not_triggered_by_lookups;
    Alcotest.test_case "level ceiling raises typed Level_limit" `Quick test_level_limit_typed;
    Alcotest.test_case "op caches are size-capped" `Quick test_bounded_op_caches;
    Alcotest.test_case "negative budgets and caps are rejected" `Quick
      test_rejects_negative_limits;
    Alcotest.test_case "a lossy cache never changes the store" `Quick test_lossy_cache_same_store;
    Alcotest.test_case "restrict" `Quick test_restrict;
    Alcotest.test_case "exists/forall units" `Quick test_exists_forall_units;
    Alcotest.test_case "replace (shift)" `Quick test_replace_simple;
    Alcotest.test_case "replace (upward)" `Quick test_replace_order_breaking;
    Alcotest.test_case "replace (swap)" `Quick test_replace_swap;
    Alcotest.test_case "ite units" `Quick test_ite_units;
    Alcotest.test_case "satcount units" `Quick test_satcount;
    Alcotest.test_case "anysat" `Quick test_any_sat;
    Alcotest.test_case "cubes partition models" `Quick test_cubes_partition_models;
    Alcotest.test_case "support" `Quick test_support;
    Alcotest.test_case "shared node count" `Quick test_shared_node_count;
    Alcotest.test_case "stamp walks agree with a reference walk" `Quick test_stamp_walks;
    Alcotest.test_case "a copy keeps exactly the reachable nodes" `Quick test_manager_copy;
    Alcotest.test_case "of_codes" `Quick test_of_codes;
    Alcotest.test_case "of_codes input validation" `Quick test_of_codes_rejects_bad_input;
    QCheck_alcotest.to_alcotest prop_apply_matches_truth_table;
    QCheck_alcotest.to_alcotest prop_canonicity;
    QCheck_alcotest.to_alcotest prop_exists_is_or_of_restricts;
    QCheck_alcotest.to_alcotest prop_forall_is_and_of_restricts;
    QCheck_alcotest.to_alcotest prop_appex_fused;
    QCheck_alcotest.to_alcotest prop_appall_fused;
    QCheck_alcotest.to_alcotest prop_replace_semantics;
    QCheck_alcotest.to_alcotest prop_satcount_matches_enumeration;
    QCheck_alcotest.to_alcotest prop_restrict_semantics;
  ]

let () = Registry.register "bdd" suite
