(** Compile-layer tests: atoms with constants/wildcards/duplicates,
    variable sharing across atoms (the rename-based equi-join), the
    two standalone join strategies of §4.2 agreeing with each other
    and with the SQL join, and guard correctness. *)

module R = Fcv_relation
module M = Fcv_bdd.Manager
module O = Fcv_bdd.Ops
module Fd = Fcv_bdd.Fd
module F = Core.Formula

let check = Alcotest.(check bool)

let parse = Core.Fol_parser.of_string

let setup seed =
  let db = Gen.random_db seed in
  let index = Core.Index.create db in
  List.iter
    (fun name -> ignore (Core.Index.add index ~table_name:name ~strategy:Core.Ordering.Prob_converge ()))
    [ "r"; "s"; "t" ];
  (db, index)

(* compile a CLOSED formula and decide it as the checker would *)
let decide index f =
  let typing = Core.Typing.infer index.Core.Index.db f in
  let ctx = Core.Compile.make_ctx index typing in
  let root = Core.Compile.compile ctx f in
  O.is_true root

let test_atom_with_constants () =
  let db, index = setup 10 in
  List.iter
    (fun src ->
      let f = parse src in
      let typing = Core.Typing.infer db f in
      let ctx = Core.Compile.make_ctx index typing in
      let root = Core.Compile.compile ctx f in
      check src (Core.Naive_eval.holds db f) (O.is_true root))
    [ "exists x . r(x, 1)"; "exists x . r(0, x)"; "forall x . r(x, 2) -> t(x)" ]

let test_unknown_constant_is_false () =
  let _, index = setup 11 in
  let f = parse "exists x . r(x, 4711)" in
  let typing = Core.Typing.infer index.Core.Index.db f in
  let ctx = Core.Compile.make_ctx index typing in
  check "out-of-dictionary constant compiles to false" true
    (O.is_false (Core.Compile.compile ctx f))

let test_wildcard_projects () =
  let db, index = setup 12 in
  let f = parse "forall x . r(x, _) -> t(x)" in
  let naive = Core.Naive_eval.holds db f in
  let typing = Core.Typing.infer db f in
  let ctx = Core.Compile.make_ctx index typing in
  let root = Core.Compile.compile ctx f in
  check "wildcard projection agrees with naive" naive (O.is_true root)

let test_duplicate_variable_in_atom () =
  (* r(x, x) requires d1 = d2 domains; our schema has different domains,
     so build a dedicated square table *)
  let db = R.Database.create () in
  R.Database.add_domain db (R.Dict.of_int_range "d" 5);
  let sq = R.Database.create_table db ~name:"sq" ~attrs:[ ("a", "d"); ("b", "d") ] in
  List.iter
    (fun (a, b) -> R.Table.insert_coded sq [| a; b |])
    [ (0, 0); (1, 2); (3, 3); (4, 2) ];
  let index = Core.Index.create db in
  ignore (Core.Index.add index ~table_name:"sq" ~strategy:Core.Ordering.Prob_converge ());
  let f = parse "exists x . sq(x, x)" in
  check "diagonal exists" (Core.Naive_eval.holds db f)
    (let typing = Core.Typing.infer db f in
     let ctx = Core.Compile.make_ctx index typing in
     O.is_satisfiable (Core.Compile.compile ctx f));
  (* count the diagonal: x with sq(x,x) are 0 and 3 *)
  let g = parse "forall x . sq(x, x) -> x in {0, 3}" in
  check "diagonal is exactly {0,3}" true
    (let typing = Core.Typing.infer db g in
     let ctx = Core.Compile.make_ctx index typing in
     O.is_true (Core.Compile.compile ctx g))

let test_self_join_two_atoms () =
  let db = R.Database.create () in
  R.Database.add_domain db (R.Dict.of_int_range "d" 6);
  let e = R.Database.create_table db ~name:"edge" ~attrs:[ ("src", "d"); ("dst", "d") ] in
  List.iter (fun (a, b) -> R.Table.insert_coded e [| a; b |]) [ (0, 1); (1, 2); (2, 0); (3, 3) ];
  let index = Core.Index.create db in
  ignore (Core.Index.add index ~table_name:"edge" ~strategy:Core.Ordering.Prob_converge ());
  (* path of length 2 exists; also test a universally quantified chain *)
  List.iter
    (fun src ->
      let f = parse src in
      let naive = Core.Naive_eval.holds db f in
      let typing = Core.Typing.infer db f in
      let ctx = Core.Compile.make_ctx index typing in
      let root = Core.Compile.compile ctx f in
      check ("self-join: " ^ src) naive (O.is_true root))
    [
      "exists x, y, z . edge(x, y) and edge(y, z)";
      "forall x, y . edge(x, y) -> (exists z . edge(y, z))";
      "exists x . edge(x, x)";
      "forall x, y, z . edge(x, y) and edge(x, z) -> y = z";
    ]

(* A self-join's second atom finds its variable's entry blocks claimed,
   so that variable borrows a scratch block; when the atom's projection
   is empty it borrows none, and the verdicts stay the formulas'.  The
   empty table's domain has no values, so a scratch block for it could
   not even be allocated. *)
let test_empty_atom_borrows_nothing () =
  let db = R.Database.create () in
  R.Database.add_domain db (R.Dict.of_int_range "d" 6);
  R.Database.add_domain db (R.Dict.create "none");
  let e = R.Database.create_table db ~name:"edge" ~attrs:[ ("src", "d"); ("dst", "d") ] in
  List.iter (fun (a, b) -> R.Table.insert_coded e [| a; b |]) [ (0, 1); (1, 2); (2, 0); (3, 3) ];
  ignore (R.Database.create_table db ~name:"void" ~attrs:[ ("v", "none") ]);
  let index = Core.Index.create db in
  List.iter
    (fun name -> ignore (Core.Index.add index ~table_name:name ~strategy:Core.Ordering.Prob_converge ()))
    [ "edge"; "void" ];
  List.iter
    (fun src ->
      let f = parse src in
      let typing = Core.Typing.infer db f in
      let ctx = Core.Compile.make_ctx index typing in
      let root = Core.Compile.compile ctx f in
      Core.Compile.release ctx;
      check ("empty atom: " ^ src) (Core.Naive_eval.holds db f) (O.is_true root))
    [
      (* no edge leaves 5 *)
      "exists x, y, z . edge(x, y) and edge(5, z)";
      "forall x, y, z . edge(x, y) and edge(5, z) -> x = z";
      "forall x, y . edge(x, y) -> (exists z . edge(y, z) and edge(5, z))";
      "exists x, y . void(x) and void(y)";
      "forall x, y . void(x) and void(y) -> (exists z . void(z))";
    ]

let test_scratch_block_allocation () =
  (* Eq before any atom forces scratch blocks for both variables *)
  let db, index = setup 13 in
  let f = parse "forall x, y . x = y -> (r(x, _) -> r(y, _))" in
  (match Core.Typing.infer db f with
  | exception Core.Typing.Type_error _ -> Alcotest.fail "typing should succeed"
  | typing ->
    let ctx = Core.Compile.make_ctx index typing in
    let root = Core.Compile.compile ctx f in
    check "reflexive implication is valid" (Core.Naive_eval.holds db f) (O.is_true root))

(* -- §4.2 join strategies --------------------------------------------------- *)

let test_join_strategies_agree () =
  let _, index = setup 14 in
  let m = Core.Index.mgr index in
  let er = List.find (fun e -> R.Table.name e.Core.Index.table = "r") (Core.Index.entries index) in
  let es = List.find (fun e -> R.Table.name e.Core.Index.table = "s") (Core.Index.entries index) in
  (* join r(a,b) ⋈ s(b,c) on the shared d2-typed attribute *)
  let rb = er.Core.Index.blocks.(1) in
  let sb = es.Core.Index.blocks.(0) in
  let naive = Core.Compile.join_naive m er.Core.Index.root es.Core.Index.root [ (rb, sb) ] in
  let renamed = Core.Compile.join_rename m er.Core.Index.root es.Core.Index.root [ (rb, sb) ] in
  (* naive keeps both copies of the join attribute; project s's copy
     away and they must coincide *)
  let naive_projected = O.exists m (Array.to_list sb.Fd.levels) naive in
  check "strategies compute the same join" true (naive_projected = renamed)

let test_join_against_sql () =
  let db, index = setup 15 in
  let m = Core.Index.mgr index in
  let er = List.find (fun e -> R.Table.name e.Core.Index.table = "r") (Core.Index.entries index) in
  let es = List.find (fun e -> R.Table.name e.Core.Index.table = "s") (Core.Index.entries index) in
  let rb = er.Core.Index.blocks.(1) in
  let sb = es.Core.Index.blocks.(0) in
  let joined = Core.Compile.join_rename m er.Core.Index.root es.Core.Index.root [ (rb, sb) ] in
  (* SQL side: r ⋈ s on r.b = s.b *)
  let r = R.Database.table db "r" and s = R.Database.table db "s" in
  let plan = Fcv_sql.Algebra.Hash_join ([ (1, 0) ], Fcv_sql.Algebra.Scan r, Fcv_sql.Algebra.Scan s) in
  let rows = Fcv_sql.Exec.run plan in
  (* every SQL result row is a model of the joined BDD *)
  let env = Array.make (M.nvars m) false in
  let ok = ref true in
  List.iter
    (fun row ->
      (* row = a, b, b, c *)
      Fd.set_env er.Core.Index.blocks.(0) row.(0) env;
      Fd.set_env er.Core.Index.blocks.(1) row.(1) env;
      Fd.set_env es.Core.Index.blocks.(1) row.(3) env;
      if not (M.eval m joined env) then ok := false)
    rows;
  check "SQL join rows are BDD models" true !ok;
  (* cardinalities agree: count models over the three remaining blocks *)
  let used =
    Fd.width er.Core.Index.blocks.(0) + Fd.width er.Core.Index.blocks.(1)
    + Fd.width es.Core.Index.blocks.(1)
  in
  let models =
    Fcv_bdd.Sat.count m joined /. Float.pow 2. (float_of_int (M.nvars m - used))
  in
  let distinct_rows = List.sort_uniq compare (List.map (fun r -> [ r.(0); r.(1); r.(3) ]) rows) in
  check "join cardinality matches" true (models = float_of_int (List.length distinct_rows))

(* property: compiled truth of random closed formulas = naive truth
   (overlaps with the checker property but pins the compiler alone,
   without the rewrite pipeline) *)
let prop_compile_agrees_with_naive =
  QCheck.Test.make ~count:120 ~name:"bare compile agrees with naive evaluation"
    (QCheck.pair Gen.formula_arbitrary (QCheck.int_range 0 300))
    (fun (f, seed) ->
      let f = Gen.close f in
      let db = Gen.random_db seed in
      match Core.Typing.infer db f with
      | exception Core.Typing.Type_error _ -> true
      | typing ->
        let index = Core.Index.create db in
        Core.Checker.ensure_indices index [ f ];
        let ctx = Core.Compile.make_ctx index typing in
        let root = Core.Compile.compile ctx f in
        O.is_true root = Core.Naive_eval.holds db f)

let prop_appquant_toggle_equivalent =
  QCheck.Test.make ~count:80 ~name:"fused and unfused quantifier compilation agree"
    (QCheck.pair Gen.formula_arbitrary (QCheck.int_range 0 300))
    (fun (f, seed) ->
      let f = Gen.close f in
      let db = Gen.random_db seed in
      match Core.Typing.infer db f with
      | exception Core.Typing.Type_error _ -> true
      | typing ->
        let index = Core.Index.create db in
        Core.Checker.ensure_indices index [ f ];
        let ctx1 = Core.Compile.make_ctx ~use_appquant:true index typing in
        let r1 = Core.Compile.compile ctx1 f in
        let ctx2 = Core.Compile.make_ctx ~use_appquant:false index typing in
        let r2 = Core.Compile.compile ctx2 f in
        O.is_true r1 = O.is_true r2)

let suite =
  [
    Alcotest.test_case "atom with constants" `Quick test_atom_with_constants;
    Alcotest.test_case "unknown constant is false" `Quick test_unknown_constant_is_false;
    Alcotest.test_case "wildcard projection" `Quick test_wildcard_projects;
    Alcotest.test_case "duplicate variable in atom" `Quick test_duplicate_variable_in_atom;
    Alcotest.test_case "self joins" `Quick test_self_join_two_atoms;
    Alcotest.test_case "empty atom borrows no scratch" `Quick test_empty_atom_borrows_nothing;
    Alcotest.test_case "scratch blocks" `Quick test_scratch_block_allocation;
    Alcotest.test_case "join strategies agree" `Quick test_join_strategies_agree;
    Alcotest.test_case "join against SQL" `Quick test_join_against_sql;
    QCheck_alcotest.to_alcotest prop_compile_agrees_with_naive;
    QCheck_alcotest.to_alcotest prop_appquant_toggle_equivalent;
  ]

let () = Registry.register "compile" suite
