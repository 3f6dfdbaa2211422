(** Formula layer tests: the constraint parser, free variables, typing,
    and — most importantly — that the §4 rewrites (NNF, prenex,
    leading-quantifier elimination, ∀ push-down) preserve semantics on
    random formulas over random databases, judged by the naive
    evaluator. *)

module F = Core.Formula
module RW = Core.Rewrite

let check = Alcotest.(check bool)

let parse = Core.Fol_parser.of_string

let test_parse_roundtrip () =
  let inputs =
    [
      "forall s . student(s, 'CS', _) -> (exists c . course(c, 'Programming') and takes(s, c))";
      "forall x . r(x, _) -> x in {1, 2, 3}";
      "exists x, y . r(x, y) and not s(y, 0)";
      "forall a, b . (r(a, b) and t(a)) or a = b";
      "true -> false";
      "forall x . x = 3 <-> t(x)";
    ]
  in
  List.iter
    (fun s ->
      let f = parse s in
      (* parse(print(parse s)) = parse s: printing is parseable and stable *)
      let printed = F.to_string f in
      let f2 = parse printed in
      check ("roundtrip: " ^ s) true (F.to_string f2 = printed))
    inputs

let test_parse_precedence () =
  (* and binds tighter than or, or tighter than -> *)
  let f = parse "t(1) or t(2) and t(3) -> t(4)" in
  (match f with
  | F.Implies (F.Or (_, F.And (_, _)), _) -> ()
  | _ -> Alcotest.fail ("bad precedence: " ^ F.to_string f));
  (* -> is right associative *)
  match parse "t(1) -> t(2) -> t(3)" with
  | F.Implies (_, F.Implies (_, _)) -> ()
  | f -> Alcotest.fail ("bad associativity: " ^ F.to_string f)

let test_parse_errors () =
  let fails s = match parse s with exception Core.Fol_parser.Error _ -> true | _ -> false in
  check "unterminated string" true (fails "r(x, 'oops");
  check "missing dot" true (fails "forall x r(x)");
  check "trailing" true (fails "t(1) t(2)");
  check "bad in" true (fails "x in 3")

let test_free_vars () =
  let f = parse "forall x . r(x, y) and (exists z . s(y, z))" in
  check "only y free" true (F.Sset.elements (F.free_vars f) = [ "y" ]);
  check "closed detection" false (F.is_closed f);
  check "closed formula" true (F.is_closed (parse "forall x, y . r(x, y)"))

let test_relations () =
  let f = parse "forall x . r(x, _) -> (exists c . s(_, c) and t(x))" in
  check "relations" true (F.relations f = [ "r"; "s"; "t" ])

let test_nnf_no_negation_above_atoms () =
  let f = parse "not (forall x . r(x, _) -> not (exists y . s(_, y)))" in
  let rec well_formed = function
    | F.Not (F.Atom _) | F.Not (F.Eq _) | F.Not (F.In _) -> true
    | F.Not _ -> false
    | F.Implies _ | F.Iff _ -> false
    | F.And (a, b) | F.Or (a, b) -> well_formed a && well_formed b
    | F.Exists (_, g) | F.Forall (_, g) -> well_formed g
    | F.True | F.False | F.Atom _ | F.Eq _ | F.In _ -> true
  in
  check "nnf shape" true (well_formed (RW.nnf f))

let test_prenex_shape () =
  let f = parse "(forall x . r(x, _)) and (exists y . t(y))" in
  let prefix, matrix = RW.prenex f in
  check "two quantifiers hoisted" true (List.length prefix = 2);
  let rec quantifier_free = function
    | F.Exists _ | F.Forall _ -> false
    | F.Not g -> quantifier_free g
    | F.And (a, b) | F.Or (a, b) | F.Implies (a, b) | F.Iff (a, b) ->
      quantifier_free a && quantifier_free b
    | F.True | F.False | F.Atom _ | F.Eq _ | F.In _ -> true
  in
  check "matrix quantifier-free" true (quantifier_free matrix)

let test_eliminate_leading () =
  let f = parse "forall x, y . exists z . r(x, y) and s(y, z)" in
  let mode, g = RW.eliminate_leading (RW.prenex f) in
  check "validity mode" true (mode = RW.Check_valid);
  (match g with
  | F.Exists ([ _ ], _) -> ()
  | _ -> Alcotest.fail ("leading forall not dropped: " ^ F.to_string g));
  let f2 = parse "exists x . forall y . r(x, y)" in
  let mode2, g2 = RW.eliminate_leading (RW.prenex f2) in
  check "satisfiability mode" true (mode2 = RW.Check_satisfiable);
  match g2 with
  | F.Forall ([ _ ], _) -> ()
  | _ -> Alcotest.fail ("leading exists not dropped: " ^ F.to_string g2)

let test_push_forall () =
  let f = parse "forall x . t(x) and r(x, 1)" in
  (match RW.push_forall f with
  | F.And (F.Forall _, F.Forall _) -> ()
  | g -> Alcotest.fail ("push down failed: " ^ F.to_string g));
  (* a variable absent from one conjunct drops its quantifier there *)
  let f2 = parse "forall x . t(x) and t(3)" in
  match RW.push_forall f2 with
  | F.And (F.Forall _, F.Atom _) -> ()
  | g -> Alcotest.fail ("vacuous drop failed: " ^ F.to_string g)

(* The violation form of audit's orders → customers dependency
   compiles on projections: c joins the two atoms, every other
   variable becomes a wildcard. *)
let test_violation_projects () =
  let f =
    parse
      "forall o, c . orders(o, c, _, _, _) -> (exists ci, st, sg . customers(c, ci, st, sg))"
  in
  let mode, g = RW.optimize f in
  check "validity mode" true (mode = RW.Check_valid);
  match RW.violation g with
  | F.And
      ( F.Atom ("orders", [ F.Wildcard; F.Var c; F.Wildcard; F.Wildcard; F.Wildcard ]),
        F.Not (F.Atom ("customers", [ F.Var c'; F.Wildcard; F.Wildcard; F.Wildcard ])) ) ->
    check "the join variable stays shared" true (c = c')
  | v -> Alcotest.fail ("unexpected violation form: " ^ F.to_string v)

(* Matrices whose violation form must project nothing: it is then the
   NNF of the negation with ∀ pushed down, unchanged. *)
let test_violation_leaves () =
  List.iter
    (fun src ->
      let m = parse src in
      let plain = RW.push_forall (RW.nnf (F.Not m)) in
      let v = RW.violation m in
      if v <> plain then
        Alcotest.failf "%s: projected to %s, expected %s" src (F.to_string v) (F.to_string plain))
    [
      (* repeated in its atom, free and bound *)
      "not q(x, x)";
      "exists y . q(y, y)";
      (* shared with =, in, or another atom *)
      "not (r(x, y) and x = y)";
      "not (r(x, y) and x in {1, 2} and y in {3})";
      "not (r(x, y) and s(y, x))";
      "forall y . not (r(1, y) and y = 2)";
      "forall y . not (r(1, y) and t(y))";
      (* under a positive ∀ or a negated ∃ *)
      "exists y . not r(1, y)";
      "forall y . r(1, y)";
      (* a free variable in a negated atom, or under a disjunction *)
      "r(x, 1)";
      "not (r(x, 1) or t(2))";
    ]

let test_typing_errors () =
  let db = Gen.random_db 1 in
  let fails f = match Core.Typing.infer db f with exception Core.Typing.Type_error _ -> true | _ -> false in
  check "arity error" true (fails (parse "forall x . r(x)"));
  check "unknown relation" true (fails (parse "forall x . q(x)"));
  (* x used at domains d1 (r's first) and d3 (s's second) *)
  check "domain clash" true (fails (parse "forall x . r(x, _) and s(_, x)"));
  check "untypeable quantifier" true (fails (parse "forall x . t(1)"));
  check "well-typed accepted" true (not (fails (parse "forall x . r(x, _) -> t(x)")))

let test_rename_apart () =
  (* shadowed binder gets a fresh name; everything else is kept *)
  let f = parse "forall x . t(x) and (exists x . r(x, 1))" in
  let g = RW.rename_apart f in
  (match g with
  | F.Forall ([ "x" ], F.And (F.Atom ("t", [ F.Var "x" ]), F.Exists ([ x' ], F.Atom ("r", [ F.Var x''; _ ])))) ->
    check "inner renamed" true (x' <> "x" && x' = x'')
  | _ -> Alcotest.fail ("unexpected shape: " ^ F.to_string g));
  (* conflict-free formulas are untouched *)
  let h = parse "forall a . t(a) -> (exists b . r(b, 0))" in
  check "no gratuitous renaming" true (RW.rename_apart h = h)

let test_shadowing_semantics () =
  (* inner ∃x shadows outer ∀x: every path (naive / BDD via both
     pipelines) must agree *)
  let dbs = List.map Gen.random_db [ 41; 42; 43 ] in
  let f = parse "forall x . t(x) -> ((exists x . r(x, 1)) or t(x))" in
  List.iter
    (fun db ->
      let naive = Core.Naive_eval.holds db f in
      let index = Core.Index.create db in
      Core.Checker.ensure_indices index [ f ];
      let r1 = Core.Checker.check index f in
      let r2 = Core.Checker.check ~pipeline:Core.Checker.naive_pipeline index f in
      check "bdd = naive under shadowing" naive (r1.Core.Checker.outcome = Core.Checker.Satisfied);
      check "ablation pipeline too" naive (r2.Core.Checker.outcome = Core.Checker.Satisfied))
    dbs

(* -- semantic preservation on random formulas ----------------------------- *)

let db_pool = List.map Gen.random_db [ 11; 22; 33 ]

let naive_on_all f =
  List.map
    (fun db ->
      match Core.Naive_eval.holds db f with
      | b -> Some b
      | exception Core.Typing.Type_error _ -> None)
    db_pool

let preservation_test name transform =
  QCheck.Test.make ~count:150 ~name Gen.formula_arbitrary (fun f ->
      let f = Gen.close f in
      let g = transform f in
      List.for_all2
        (fun a b -> match (a, b) with Some x, Some y -> x = y | _ -> true)
        (naive_on_all f) (naive_on_all g))

let prop_nnf_preserves = preservation_test "nnf preserves semantics" RW.nnf

let prop_prenex_preserves =
  preservation_test "prenex preserves semantics" (fun f ->
      let prefix, matrix = RW.prenex f in
      RW.requantify prefix matrix)

let prop_push_forall_preserves =
  preservation_test "forall push-down preserves semantics" (fun f -> RW.push_forall (RW.nnf f))

(* Steps 1–3 of the violation form on a closed formula (step 4 needs
   free variables): ¬f, with ∀ pushed down and single-atom variables
   projected, judges exactly like ¬f. *)
let prop_violation_negates =
  QCheck.Test.make ~count:1000 ~name:"violation form of a closed formula is its negation"
    Gen.formula_arbitrary (fun f ->
      let f = Gen.close f in
      List.for_all2
        (fun a b -> match (a, b) with Some x, Some y -> x = not y | _ -> true)
        (naive_on_all f)
        (naive_on_all (RW.violation f)))

(* All four steps, as the checker uses them: a validity matrix g holds
   for every binding of its free variables iff its violation form is
   unsatisfiable. *)
let prop_violation_decides =
  QCheck.Test.make ~count:1000 ~name:"violation form decides the validity check"
    Gen.formula_arbitrary (fun f ->
      let f = Gen.close f in
      match RW.optimize f with
      | RW.Check_satisfiable, _ -> true
      | RW.Check_valid, g ->
        let v = RW.violation g in
        let free = F.Sset.elements (F.free_vars v) in
        let witness = if free = [] then v else F.Exists (free, v) in
        List.for_all2
          (fun a b -> match (a, b) with Some x, Some y -> x = not y | _ -> true)
          (naive_on_all f) (naive_on_all witness))

let prop_optimize_consistent =
  (* the optimised (mode, formula) pair judges exactly like the original:
     Check_valid: naive(∀free. g); Check_satisfiable: naive(∃free. g) *)
  QCheck.Test.make ~count:150 ~name:"optimize pipeline preserves the verdict"
    Gen.formula_arbitrary (fun f ->
      let f = Gen.close f in
      let mode, g = RW.optimize f in
      let free = F.Sset.elements (F.free_vars g) in
      let closed =
        match mode with
        | RW.Check_valid -> if free = [] then g else F.Forall (free, g)
        | RW.Check_satisfiable -> if free = [] then g else F.Exists (free, g)
      in
      List.for_all2
        (fun a b -> match (a, b) with Some x, Some y -> x = y | _ -> true)
        (naive_on_all f) (naive_on_all closed))

let suite =
  [
    Alcotest.test_case "parse roundtrip" `Quick test_parse_roundtrip;
    Alcotest.test_case "parse precedence" `Quick test_parse_precedence;
    Alcotest.test_case "parse errors" `Quick test_parse_errors;
    Alcotest.test_case "free variables" `Quick test_free_vars;
    Alcotest.test_case "relations" `Quick test_relations;
    Alcotest.test_case "nnf shape" `Quick test_nnf_no_negation_above_atoms;
    Alcotest.test_case "prenex shape" `Quick test_prenex_shape;
    Alcotest.test_case "leading-quantifier elimination" `Quick test_eliminate_leading;
    Alcotest.test_case "forall push-down" `Quick test_push_forall;
    Alcotest.test_case "violation form projects single-atom variables" `Quick
      test_violation_projects;
    Alcotest.test_case "violation form leaves shared variables" `Quick test_violation_leaves;
    Alcotest.test_case "typing errors" `Quick test_typing_errors;
    Alcotest.test_case "rename apart" `Quick test_rename_apart;
    Alcotest.test_case "shadowing semantics" `Quick test_shadowing_semantics;
    QCheck_alcotest.to_alcotest prop_nnf_preserves;
    QCheck_alcotest.to_alcotest prop_prenex_preserves;
    QCheck_alcotest.to_alcotest prop_push_forall_preserves;
    QCheck_alcotest.to_alcotest prop_violation_negates;
    QCheck_alcotest.to_alcotest prop_violation_decides;
    QCheck_alcotest.to_alcotest prop_optimize_consistent;
  ]

let () = Registry.register "formula" suite
