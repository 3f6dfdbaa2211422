(** SQL substrate tests: algebra evaluator, lexer/parser, and the
    planner — including the correlated NOT EXISTS unnesting and the
    GROUP BY / HAVING path the paper's violation queries need — and a
    differential of the streaming evaluator against a list-based
    reference on random plans. *)

module R = Fcv_relation
module A = Fcv_sql.Algebra
module E = Fcv_sql.Exec

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let mk_db () =
  let db = R.Database.create () in
  let emp =
    R.Database.create_table db ~name:"emp"
      ~attrs:[ ("name", "person"); ("dept", "dept"); ("city", "city") ]
  in
  let dept =
    R.Database.create_table db ~name:"dept" ~attrs:[ ("dept", "dept"); ("city", "city") ]
  in
  let s x = R.Value.Str x in
  List.iter
    (fun (n, d, c) -> ignore (R.Table.insert emp [| s n; s d; s c |]))
    [
      ("alice", "eng", "toronto");
      ("bob", "eng", "oshawa");
      ("carol", "sales", "toronto");
      ("dan", "hr", "ottawa");
    ];
  List.iter
    (fun (d, c) -> ignore (R.Table.insert dept [| s d; s c |]))
    [ ("eng", "toronto"); ("sales", "toronto"); ("hr", "ottawa") ];
  (db, emp, dept)

(* -- algebra --------------------------------------------------------------- *)

let test_scan_select () =
  let _, emp, _ = mk_db () in
  let plan = A.Select (A.Eq_const (1, 0), A.Scan emp) in
  (* dept code 0 = "eng" *)
  check_int "two engineers" 2 (E.count plan)

let test_project_distinct () =
  let _, emp, _ = mk_db () in
  let plan = A.Distinct (A.Project ([| 1 |], A.Scan emp)) in
  check_int "three departments" 3 (E.count plan)

let test_hash_join () =
  let _, emp, dept = mk_db () in
  let plan = A.Hash_join ([ (1, 0) ], A.Scan emp, A.Scan dept) in
  check_int "join on dept" 4 (E.count plan);
  (* add the city agreement predicate: emp.city = dept.city *)
  let consistent = A.Select (A.Eq_col (2, 4), plan) in
  check_int "city-consistent employees" 3 (E.count consistent)

let test_anti_semi_join () =
  let _, emp, dept = mk_db () in
  (* employees whose (dept, city) pair is NOT the dept's registered city *)
  let anti = A.Anti_join ([ (1, 0); (2, 1) ], A.Scan emp, A.Scan dept) in
  check_int "one inconsistent employee" 1 (E.count anti);
  (match E.run anti with
  | [ row ] -> check_int "bob is inconsistent" 1 row.(0)
  | _ -> Alcotest.fail "expected one row");
  let semi = A.Semi_join ([ (1, 0); (2, 1) ], A.Scan emp, A.Scan dept) in
  check_int "three consistent" 3 (E.count semi)

let test_empty_key_semijoin_is_existence () =
  let _, emp, dept = mk_db () in
  check_int "uncorrelated EXISTS keeps all" 4
    (E.count (A.Semi_join ([], A.Scan emp, A.Scan dept)));
  let empty = A.Select (A.False, A.Scan dept) in
  check_int "uncorrelated EXISTS of empty drops all" 0
    (E.count (A.Semi_join ([], A.Scan emp, empty)));
  check_int "uncorrelated NOT EXISTS of empty keeps all" 4
    (E.count (A.Anti_join ([], A.Scan emp, empty)))

let test_union_diff () =
  let _, emp, _ = mk_db () in
  let eng = A.Select (A.Eq_const (1, 0), A.Scan emp) in
  let toronto = A.Select (A.Eq_const (2, 0), A.Scan emp) in
  check_int "union dedupes" 3 (E.count (A.Union (eng, toronto)));
  check_int "diff" 1 (E.count (A.Diff (eng, toronto)))

let test_group_by () =
  let _, emp, _ = mk_db () in
  let plan = A.Group_by ([| 1 |], [| A.Count_all |], A.True, A.Scan emp) in
  let rows = E.run plan in
  check_int "three groups" 3 (List.length rows);
  let eng_count = List.find (fun r -> r.(0) = 0) rows in
  check_int "eng has 2" 2 eng_count.(1)

let test_group_by_having_count_distinct () =
  let _, emp, _ = mk_db () in
  (* departments spanning more than one city: only eng *)
  let plan =
    A.Group_by ([| 1 |], [| A.Count_distinct 2 |], A.Gt_const (1, 1), A.Scan emp)
  in
  let rows = E.run plan in
  check_int "one multi-city dept" 1 (List.length rows);
  check_int "it is eng" 0 (List.hd rows).(0)

let test_product_arity () =
  let _, emp, dept = mk_db () in
  let plan = A.Product (A.Scan emp, A.Scan dept) in
  check_int "product cardinality" 12 (E.count plan);
  check_int "product arity" 5 (A.arity plan)

let test_run_rows_are_fresh () =
  let _, emp, dept = mk_db () in
  let before = List.map Array.copy (R.Table.to_list emp) in
  let dept_before = List.map Array.copy (R.Table.to_list dept) in
  List.iter
    (fun plan -> List.iter (fun row -> Array.fill row 0 (Array.length row) 99) (E.run plan))
    [
      A.Scan emp;
      A.Select (A.Eq_const (1, 0), A.Scan emp);
      A.Project ([| 0; 1; 2 |], A.Scan emp);
      A.Distinct (A.Scan emp);
      A.Semi_join ([ (1, 0) ], A.Scan emp, A.Scan dept);
      A.Hash_join ([ (1, 0) ], A.Scan emp, A.Scan dept);
      A.Project ([| 3; 4 |], A.Hash_join ([ (1, 0) ], A.Scan emp, A.Scan dept));
      A.Union (A.Scan emp, A.Scan emp);
      A.Diff (A.Scan emp, A.Select (A.False, A.Scan emp));
    ];
  check "emp unchanged" true (R.Table.to_list emp = before);
  check "dept unchanged" true (R.Table.to_list dept = dept_before)

(* -- differential: Exec against a list-based reference ---------------------- *)

(* The list-materialising evaluator the streaming one replaced, kept as
   the reference: every operator builds its whole output list, keys are
   int lists in polymorphic hash tables. *)
module Reference = struct
  open A

  let rec eval_pred pred (row : int array) =
    match pred with
    | True -> true
    | False -> false
    | Eq_col (a, b) -> row.(a) = row.(b)
    | Eq_const (a, c) -> row.(a) = c
    | In_set (a, cs) -> List.mem row.(a) cs
    | Gt_const (a, c) -> row.(a) > c
    | Lt_const (a, c) -> row.(a) < c
    | Not p -> not (eval_pred p row)
    | And (p, q) -> eval_pred p row && eval_pred q row
    | Or (p, q) -> eval_pred p row || eval_pred q row

  let key_of_row cols (row : int array) = List.map (fun c -> row.(c)) cols

  let dedupe rows =
    let seen = Hashtbl.create 64 in
    List.filter
      (fun row ->
        if Hashtbl.mem seen row then false
        else begin
          Hashtbl.add seen row ();
          true
        end)
      rows

  let key_set cols rows =
    let index = Hashtbl.create 64 in
    List.iter (fun row -> Hashtbl.replace index (key_of_row cols row) ()) rows;
    index

  let rec run plan : int array list =
    match plan with
    | Scan t -> R.Table.fold t ~init:[] ~f:(fun acc row -> Array.copy row :: acc)
    | Select (p, q) -> List.filter (eval_pred p) (run q)
    | Project (cols, q) -> List.map (fun row -> Array.map (fun c -> row.(c)) cols) (run q)
    | Hash_join (keys, l, r) ->
      let lk = List.map fst keys and rk = List.map snd keys in
      let index = Hashtbl.create 64 in
      List.iter (fun row -> Hashtbl.add index (key_of_row rk row) row) (run r);
      List.concat_map
        (fun lrow ->
          List.map (fun rrow -> Array.append lrow rrow) (Hashtbl.find_all index (key_of_row lk lrow)))
        (run l)
    | Semi_join (keys, l, r) ->
      let index = key_set (List.map snd keys) (run r) in
      List.filter (fun lrow -> Hashtbl.mem index (key_of_row (List.map fst keys) lrow)) (run l)
    | Anti_join (keys, l, r) ->
      let index = key_set (List.map snd keys) (run r) in
      List.filter
        (fun lrow -> not (Hashtbl.mem index (key_of_row (List.map fst keys) lrow)))
        (run l)
    | Product (l, r) ->
      let rrows = run r in
      List.concat_map (fun lrow -> List.map (Array.append lrow) rrows) (run l)
    | Union (l, r) -> dedupe (run l @ run r)
    | Diff (l, r) ->
      let right = Hashtbl.create 64 in
      List.iter (fun row -> Hashtbl.replace right row ()) (run r);
      dedupe (List.filter (fun row -> not (Hashtbl.mem right row)) (run l))
    | Distinct q -> dedupe (run q)
    | Group_by (keys, aggs, having, q) ->
      let groups = Hashtbl.create 64 and order = ref [] in
      List.iter
        (fun row ->
          let k = key_of_row (Array.to_list keys) row in
          if not (Hashtbl.mem groups k) then order := k :: !order;
          Hashtbl.add groups k row)
        (run q);
      List.filter_map
        (fun k ->
          let rows = Hashtbl.find_all groups k in
          let value = function
            | Count_all -> List.length rows
            | Count_distinct c -> List.length (List.sort_uniq compare (List.map (fun r -> r.(c)) rows))
            | Min_col c -> List.fold_left (fun m r -> min m r.(c)) max_int rows
            | Max_col c -> List.fold_left (fun m r -> max m r.(c)) min_int rows
          in
          let row = Array.append (Array.of_list k) (Array.map value aggs) in
          if eval_pred having row then Some row else None)
        !order
end

(* Three tables over three domains of different sizes, with duplicate
   rows.  The wide domain's 1,500 codes exceed what a handful of rows
   indexes by code, so its single-column keys take the hash path. *)
let random_tables st =
  let db = R.Database.create () in
  List.iter
    (fun (name, size) -> R.Database.add_domain db (R.Dict.of_int_range name size))
    [ ("a", 4); ("b", 7); ("w", 1500) ];
  let value dom =
    match dom with
    | "a" -> Random.State.int st 4
    | "b" -> Random.State.int st 7
    | _ -> if Random.State.bool st then Random.State.int st 3 else 1497 + Random.State.int st 3
  in
  List.map
    (fun (name, attrs) ->
      let t = R.Database.create_table db ~name ~attrs in
      for _ = 1 to Random.State.int st 7 do
        let row = Array.of_list (List.map (fun (_, dom) -> value dom) attrs) in
        R.Table.insert_coded t row;
        if Random.State.int st 3 = 0 then R.Table.insert_coded t (Array.copy row)
      done;
      t)
    [
      ("r", [ ("x", "a"); ("y", "b"); ("z", "a") ]);
      ("s", [ ("u", "b"); ("v", "b") ]);
      ("t", [ ("p", "a"); ("q", "w") ]);
    ]
  |> Array.of_list

(* Constants range past every small domain, so some are codes no row
   carries. *)
let rec random_pred st n depth =
  let col () = Random.State.int st n and const () = Random.State.int st 10 in
  if n = 0 then if Random.State.bool st then A.True else A.False
  else
    match Random.State.int st (if depth = 0 then 7 else 10) with
    | 0 -> A.True
    | 1 -> A.False
    | 2 -> A.Eq_col (col (), col ())
    | 3 -> A.Eq_const (col (), const ())
    | 4 -> A.In_set (col (), List.init (Random.State.int st 4) (fun _ -> const ()))
    | 5 -> A.Gt_const (col (), const ())
    | 6 -> A.Lt_const (col (), const ())
    | 7 -> A.Not (random_pred st n (depth - 1))
    | 8 -> A.And (random_pred st n (depth - 1), random_pred st n (depth - 1))
    | _ -> A.Or (random_pred st n (depth - 1), random_pred st n (depth - 1))

(* Zero to two key pairs between the columns of [l] and [r]: keys
   between columns of different domains join across dictionaries. *)
let random_keys st l r =
  let nl = A.arity l and nr = A.arity r in
  if nl = 0 || nr = 0 then []
  else List.init (Random.State.int st 3) (fun _ -> (Random.State.int st nl, Random.State.int st nr))

let random_group_by st q =
  let n = A.arity q in
  let keys = Array.init (if n = 0 then 0 else Random.State.int st 3) (fun _ -> Random.State.int st n) in
  let agg () =
    if n = 0 then A.Count_all
    else
      match Random.State.int st 4 with
      | 0 -> A.Count_all
      | 1 -> A.Count_distinct (Random.State.int st n)
      | 2 -> A.Min_col (Random.State.int st n)
      | _ -> A.Max_col (Random.State.int st n)
  in
  let aggs = Array.init (1 + Random.State.int st 2) (fun _ -> agg ()) in
  A.Group_by (keys, aggs, random_pred st (Array.length keys + Array.length aggs) 1, q)

(* A random plan of every operator.  Joins and products take shallow
   inputs so results stay small. *)
let rec random_plan tables st depth =
  let scan () = A.Scan tables.(Random.State.int st (Array.length tables)) in
  let sub () = random_plan tables st (depth - 1) in
  let shallow () = random_plan tables st (min (depth - 1) 1) in
  (* [q] projected to [n] columns, when it has any *)
  let conform n q =
    if A.arity q = 0 && n > 0 then None
    else Some (A.Project (Array.init n (fun _ -> Random.State.int st (A.arity q)), q))
  in
  if depth <= 0 then scan ()
  else
    match Random.State.int st 12 with
    | 0 -> scan ()
    | 1 ->
      let q = sub () in
      A.Select (random_pred st (A.arity q) 2, q)
    | 2 ->
      let q = sub () in
      let n = A.arity q in
      if n = 0 then q else A.Project (Array.init (Random.State.int st 4) (fun _ -> Random.State.int st n), q)
    | 3 ->
      let l = shallow () and r = shallow () in
      A.Hash_join (random_keys st l r, l, r)
    | 4 ->
      let l = sub () and r = sub () in
      A.Semi_join (random_keys st l r, l, r)
    | 5 ->
      let l = sub () and r = sub () in
      A.Anti_join (random_keys st l r, l, if Random.State.bool st then A.Distinct r else r)
    | 6 -> A.Product (scan (), scan ())
    | (7 | 8) as op -> (
      let l = sub () in
      match conform (A.arity l) (sub ()) with
      | Some r -> if op = 7 then A.Union (l, r) else A.Diff (l, r)
      | None -> A.Distinct l)
    | 9 -> A.Distinct (sub ())
    | 10 -> random_group_by st (sub ())
    | _ -> (
      (* a group-by's output (its first aggregate) as a join key *)
      let g = random_group_by st (shallow ()) and r = shallow () in
      let agg = A.arity g - 1 in
      match (A.arity r, Random.State.int st 3) with
      | 0, _ -> g
      | nr, 0 -> A.Hash_join ([ (agg, Random.State.int st nr) ], g, r)
      | nr, 1 -> A.Hash_join ([ (Random.State.int st nr, agg) ], r, g)
      | nr, _ -> A.Semi_join ([ (Random.State.int st nr, agg) ], r, g))

let print_case (tables, plan) =
  let table t =
    Printf.sprintf "%s: %s" (R.Table.name t)
      (String.concat " "
         (List.map
            (fun row -> "(" ^ String.concat "," (Array.to_list (Array.map string_of_int row)) ^ ")")
            (R.Table.to_list t)))
  in
  String.concat "\n" (A.to_string plan :: Array.to_list (Array.map table tables))

let plan_case =
  QCheck.make ~print:print_case (fun st ->
      let tables = random_tables st in
      (tables, random_plan tables st 3))

let prop_exec_matches_reference =
  QCheck.Test.make ~count:400 ~name:"Exec = list-based reference on random plans" plan_case
    (fun (_, plan) ->
      let sorted rows = List.sort compare rows in
      let expected = sorted (Reference.run plan) in
      let got = sorted (E.run plan) in
      if got <> expected then
        QCheck.Test.fail_reportf "run: %d rows, reference %d" (List.length got)
          (List.length expected);
      E.count plan = List.length expected && E.is_empty plan = (expected = []))

(* -- lexer / parser -------------------------------------------------------- *)

let test_lexer () =
  let toks = Fcv_sql.Lexer.tokenize "SELECT a.b, 'it''s' FROM t WHERE x <> 3" in
  check_int "token count" 13 (List.length toks);
  check "string escape" true
    (List.exists (function Fcv_sql.Lexer.STRING "it's" -> true | _ -> false) toks)

let test_parser_shapes () =
  let q = Fcv_sql.Parser.query_of_string "SELECT * FROM emp e WHERE e.dept = 'eng'" in
  check_int "one from entry" 1 (List.length q.Fcv_sql.Ast.from);
  check "alias" true (List.hd q.Fcv_sql.Ast.from = ("emp", "e"));
  let q2 =
    Fcv_sql.Parser.query_of_string
      "SELECT dept FROM emp GROUP BY dept HAVING COUNT(DISTINCT city) > 1"
  in
  check "group by parsed" true (List.length q2.Fcv_sql.Ast.group_by = 1);
  check "having parsed" true (q2.Fcv_sql.Ast.having <> None)

let test_parser_errors () =
  let fails s =
    match Fcv_sql.Parser.query_of_string s with
    | exception (Fcv_sql.Parser.Error _ | Fcv_sql.Lexer.Error _) -> true
    | _ -> false
  in
  check "missing FROM" true (fails "SELECT *");
  check "trailing junk" true (fails "SELECT * FROM t )");
  check "bad string" true (fails "SELECT * FROM t WHERE a = 'oops")

(* -- planner ---------------------------------------------------------------- *)

let test_planner_select () =
  let db, _, _ = mk_db () in
  let rows, names = Fcv_sql.Planner.run db "SELECT e.name FROM emp e WHERE e.dept = 'eng'" in
  check_int "two rows" 2 (List.length rows);
  check "column name" true (names = [ "e.name" ])

let test_planner_join () =
  let db, _, _ = mk_db () in
  let rows, _ =
    Fcv_sql.Planner.run db
      "SELECT e.name FROM emp e, dept d WHERE e.dept = d.dept AND e.city = d.city"
  in
  check_int "three consistent" 3 (List.length rows)

let test_planner_not_exists () =
  let db, _, _ = mk_db () in
  let rows, _ =
    Fcv_sql.Planner.run db
      "SELECT e.name FROM emp e WHERE NOT EXISTS (SELECT * FROM dept d WHERE d.dept = e.dept AND d.city = e.city)"
  in
  check_int "one violator" 1 (List.length rows)

let test_planner_in_and_literals () =
  let db, _, _ = mk_db () in
  let rows, _ =
    Fcv_sql.Planner.run db "SELECT name FROM emp WHERE city IN ('toronto', 'ottawa')"
  in
  check_int "three in cities" 3 (List.length rows);
  (* a literal missing from the dictionary can never match *)
  let rows2, _ = Fcv_sql.Planner.run db "SELECT name FROM emp WHERE city = 'nowhere'" in
  check_int "unknown literal" 0 (List.length rows2);
  let rows3, _ = Fcv_sql.Planner.run db "SELECT name FROM emp WHERE city <> 'nowhere'" in
  check_int "negated unknown literal" 4 (List.length rows3)

let test_planner_group_by () =
  let db, _, _ = mk_db () in
  let rows, _ =
    Fcv_sql.Planner.run db
      "SELECT dept FROM emp GROUP BY dept HAVING COUNT(DISTINCT city) > 1"
  in
  check_int "one fd violator" 1 (List.length rows)

let test_planner_global_agg () =
  let db, _, _ = mk_db () in
  let rows, _ = Fcv_sql.Planner.run db "SELECT COUNT(*) FROM emp WHERE dept = 'eng'" in
  (match rows with
  | [ row ] -> check_int "count value" 2 row.(0)
  | _ -> Alcotest.fail "expected single row")

let star_db () =
  (* three tables joined in a chain; the middle one is selective *)
  let db = R.Database.create () in
  List.iter
    (fun (n, s) -> R.Database.add_domain db (R.Dict.of_int_range n s))
    [ ("k", 50); ("j", 50); ("v", 10) ];
  let big = R.Database.create_table db ~name:"big" ~attrs:[ ("k", "k"); ("x", "v") ] in
  let mid = R.Database.create_table db ~name:"mid" ~attrs:[ ("k", "k"); ("j", "j") ] in
  let tiny = R.Database.create_table db ~name:"tiny" ~attrs:[ ("j", "j"); ("y", "v") ] in
  let rng = Fcv_util.Rng.create 12 in
  for _ = 1 to 500 do
    R.Table.insert_coded big [| Fcv_util.Rng.int rng 50; Fcv_util.Rng.int rng 10 |]
  done;
  for _ = 1 to 200 do
    R.Table.insert_coded mid [| Fcv_util.Rng.int rng 50; Fcv_util.Rng.int rng 50 |]
  done;
  for _ = 1 to 20 do
    R.Table.insert_coded tiny [| Fcv_util.Rng.int rng 50; Fcv_util.Rng.int rng 10 |]
  done;
  db

let test_planner_pushes_selections () =
  let db = star_db () in
  let q = Fcv_sql.Parser.query_of_string "SELECT b.k FROM big b, mid m WHERE b.k = m.k AND b.x = 3" in
  let plan, _ = Fcv_sql.Planner.plan db q in
  (* the constant selection must sit below the join, on big's scan *)
  let rec select_above_join = function
    | A.Select (A.Eq_const _, A.Hash_join _) -> true
    | A.Select (_, p) | A.Project (_, p) | A.Distinct p -> select_above_join p
    | A.Hash_join (_, l, r) | A.Product (l, r) -> select_above_join l || select_above_join r
    | _ -> false
  in
  check "selection pushed below join" false (select_above_join plan);
  (* and results are unchanged vs the naive semantics *)
  let rows, _ = Fcv_sql.Planner.run db "SELECT b.k FROM big b, mid m WHERE b.k = m.k AND b.x = 3" in
  let big = R.Database.table db "big" and mid = R.Database.table db "mid" in
  let expected = ref 0 in
  R.Table.iter big (fun rb ->
      if rb.(1) = 3 then
        R.Table.iter mid (fun rm -> if rm.(0) = rb.(0) then incr expected));
  check_int "pushed plan result" !expected (List.length rows)

let test_planner_cost_based_join_order () =
  let db = star_db () in
  let q =
    Fcv_sql.Parser.query_of_string
      "SELECT b.x FROM big b, mid m, tiny t WHERE b.k = m.k AND m.j = t.j"
  in
  let plan, _ = Fcv_sql.Planner.plan db q in
  (* the cheaper mid-tiny join (est. 200*20/50 = 80) must happen before
     the big-mid join (est. 500*200/50 = 2000): big's scan belongs to
     the OUTER join, not the inner one *)
  let rec inner_joins = function
    | A.Hash_join (_, l, r) -> (
      match (l, r) with
      | (A.Hash_join _ as j), other | other, (A.Hash_join _ as j) ->
        let rec mentions_big = function
          | A.Scan t -> R.Table.name t = "big"
          | A.Select (_, p) | A.Project (_, p) | A.Distinct p -> mentions_big p
          | A.Hash_join (_, a, b) | A.Product (a, b) -> mentions_big a || mentions_big b
          | _ -> false
        in
        Some (mentions_big j, mentions_big other)
      | _ -> None)
    | A.Select (_, p) | A.Project (_, p) | A.Distinct p -> inner_joins p
    | _ -> None
  in
  (match inner_joins plan with
  | Some (big_in_inner, big_in_outer) ->
    check "big joined last" true ((not big_in_inner) && big_in_outer)
  | None -> Alcotest.fail ("no nested join found: " ^ A.to_string plan));
  (* correctness unchanged *)
  let rows, _ =
    Fcv_sql.Planner.run db "SELECT b.x FROM big b, mid m, tiny t WHERE b.k = m.k AND m.j = t.j"
  in
  let nested = ref 0 in
  let big = R.Database.table db "big"
  and mid = R.Database.table db "mid"
  and tiny = R.Database.table db "tiny" in
  R.Table.iter big (fun rb ->
      R.Table.iter mid (fun rm ->
          if rm.(0) = rb.(0) then
            R.Table.iter tiny (fun rt -> if rt.(0) = rm.(1) then incr nested)));
  check_int "three-way join result" !nested (List.length rows)

let test_planner_cross_domain_rejected () =
  let db, _, _ = mk_db () in
  check "cross-domain comparison rejected" true
    (match Fcv_sql.Planner.run db "SELECT * FROM emp WHERE name = dept" with
    | exception Fcv_sql.Planner.Unsupported _ -> true
    | _ -> false)

let test_planner_ambiguous_column () =
  let db, _, _ = mk_db () in
  check "ambiguous column rejected" true
    (match Fcv_sql.Planner.run db "SELECT city FROM emp e, dept d WHERE e.dept = d.dept" with
    | exception Fcv_sql.Planner.Unsupported _ -> true
    | _ -> false)

let suite =
  [
    Alcotest.test_case "scan + select" `Quick test_scan_select;
    Alcotest.test_case "project + distinct" `Quick test_project_distinct;
    Alcotest.test_case "hash join" `Quick test_hash_join;
    Alcotest.test_case "anti/semi join" `Quick test_anti_semi_join;
    Alcotest.test_case "empty-key (anti)semijoin = existence" `Quick test_empty_key_semijoin_is_existence;
    Alcotest.test_case "union / diff" `Quick test_union_diff;
    Alcotest.test_case "group by" `Quick test_group_by;
    Alcotest.test_case "having count distinct" `Quick test_group_by_having_count_distinct;
    Alcotest.test_case "product" `Quick test_product_arity;
    Alcotest.test_case "run returns fresh rows" `Quick test_run_rows_are_fresh;
    Gen.qcheck_case prop_exec_matches_reference;
    Alcotest.test_case "lexer" `Quick test_lexer;
    Alcotest.test_case "parser shapes" `Quick test_parser_shapes;
    Alcotest.test_case "parser errors" `Quick test_parser_errors;
    Alcotest.test_case "planner select" `Quick test_planner_select;
    Alcotest.test_case "planner join" `Quick test_planner_join;
    Alcotest.test_case "planner NOT EXISTS" `Quick test_planner_not_exists;
    Alcotest.test_case "planner IN / literals" `Quick test_planner_in_and_literals;
    Alcotest.test_case "planner group by" `Quick test_planner_group_by;
    Alcotest.test_case "planner global aggregate" `Quick test_planner_global_agg;
    Alcotest.test_case "planner pushes selections" `Quick test_planner_pushes_selections;
    Alcotest.test_case "planner cost-based join order" `Quick test_planner_cost_based_join_order;
    Alcotest.test_case "planner cross-domain rejection" `Quick test_planner_cross_domain_rejected;
    Alcotest.test_case "planner ambiguity rejection" `Quick test_planner_ambiguous_column;
  ]

let () = Registry.register "sql" suite
