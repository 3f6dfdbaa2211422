(** Tests for the FOL → violation-query translator used as the SQL
    baseline and the node-budget fallback. *)

module F = Core.Formula
module A = Fcv_sql.Algebra

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let parse = Core.Fol_parser.of_string

let university ~violators =
  let rng = Fcv_util.Rng.create 21 in
  let db, _, _, _ =
    Fcv_datagen.University.generate rng
      { Fcv_datagen.University.default with students = 120; violators }
  in
  db

let test_violation_plan_shape () =
  let db = university ~violators:2 in
  let c =
    parse "forall s . student(s, 0, _) -> (exists c . course(c, 0) and takes(s, c))"
  in
  let typing = Core.Typing.infer db c in
  let plan, vars, witnesses = Core.To_sql.violation_plan db typing c in
  check "single witness variable" true (List.length vars = 1);
  check "witness recorded" true (List.length witnesses = 1);
  check_int "two violating students" 2 (List.length (Fcv_sql.Exec.run plan))

(* The violation query stops at its first witness: on a violated policy
   [is_empty] reads fewer rows than the plan's tables hold, while
   [count], which needs every witness, reads them all. *)
let test_is_empty_stops_early () =
  let module T = Fcv_util.Telemetry in
  let db = university ~violators:3 in
  let c =
    parse "forall s . student(s, 0, _) -> (exists c . course(c, 0) and takes(s, c))"
  in
  let plan, _, _ = Core.To_sql.violation_plan db (Core.Typing.infer db c) c in
  let held =
    List.fold_left
      (fun n name -> n + Fcv_relation.Table.cardinality (Fcv_relation.Database.table db name))
      0 [ "student"; "course"; "takes" ]
  in
  let rows_read eval =
    T.reset ();
    T.enable ();
    Fun.protect
      ~finally:(fun () ->
        T.disable ();
        T.reset ())
      (fun () ->
        eval plan;
        T.counter_value (T.counter "sql.rows_scanned"))
  in
  check "violated" false (Fcv_sql.Exec.is_empty plan);
  let early = rows_read (fun p -> ignore (Fcv_sql.Exec.is_empty p)) in
  check "is_empty reads fewer rows than the tables hold" true (early < held);
  check_int "count reads every row" held (rows_read (fun p -> ignore (Fcv_sql.Exec.count p)))

let test_violated_flag () =
  let dirty = university ~violators:3 in
  let clean = university ~violators:0 in
  let c =
    parse "forall s . student(s, 0, _) -> (exists c . course(c, 0) and takes(s, c))"
  in
  check "dirty violated" true (Core.To_sql.violated dirty (Core.Typing.infer dirty c) c);
  check "clean satisfied" false (Core.To_sql.violated clean (Core.Typing.infer clean c) c)

let test_fd_constraint_translation () =
  let db = Gen.random_db 31 in
  (* r's second attribute functionally determines nothing in general —
     the FD constraint should translate and agree with naive *)
  let c = parse "forall a, b1, b2 . r(a, b1) and r(a, b2) -> b1 = b2" in
  let typing = Core.Typing.infer db c in
  let violated = Core.To_sql.violated db typing c in
  check "fd agrees with naive" (not (Core.Naive_eval.holds db c)) violated

let test_membership_translation () =
  let db = Gen.random_db 32 in
  let c = parse "forall x, y . r(x, y) -> y in {0, 1, 2}" in
  let typing = Core.Typing.infer db c in
  check "membership agrees with naive" (not (Core.Naive_eval.holds db c))
    (Core.To_sql.violated db typing c)

let test_union_translation () =
  let db = Gen.random_db 33 in
  (* ¬C has an OR inside after NNF *)
  let c = parse "forall x . t(x) -> (r(x, 0) and r(x, 1))" in
  let typing = Core.Typing.infer db c in
  check "disjunctive violation agrees" (not (Core.Naive_eval.holds db c))
    (Core.To_sql.violated db typing c)

let test_unsafe_formula_rejected () =
  let db = Gen.random_db 34 in
  (* ¬(∃x. t(x)) = ∀x. ¬t(x): a universal with no positive conjunct to
     anchor it — outside the range-restricted fragment *)
  let c = parse "exists x . t(x)" in
  let typing = Core.Typing.infer db c in
  check "not-safe raised" true
    (match Core.To_sql.violated db typing c with
    | exception Core.To_sql.Not_safe _ -> true
    | _ -> false);
  (* the safe-looking dual translates fine: ¬(∀x. ¬t(x)) = ∃x. t(x) *)
  let c2 = parse "forall x . not t(x)" in
  let typing2 = Core.Typing.infer db c2 in
  check "dual is safe" (not (Core.Naive_eval.holds db c2))
    (Core.To_sql.violated db typing2 c2)

let test_nested_forall_conjunct () =
  let db = Gen.random_db 35 in
  (* violation matrix contains an inner ∀ that must unnest to a double
     anti-join *)
  let c = parse "forall x . t(x) -> (forall y . r(x, y) -> (exists z . s(y, z)))" in
  let typing = Core.Typing.infer db c in
  match Core.To_sql.violated db typing c with
  | violated -> check "nested forall agrees" (not (Core.Naive_eval.holds db c)) violated
  | exception Core.To_sql.Not_safe _ ->
    (* acceptable: outside the fragment; naive fallback covers it *)
    ()

let suite =
  [
    Alcotest.test_case "violation plan shape" `Quick test_violation_plan_shape;
    Alcotest.test_case "violated flag" `Quick test_violated_flag;
    Alcotest.test_case "is_empty stops at the first witness" `Quick test_is_empty_stops_early;
    Alcotest.test_case "fd constraint" `Quick test_fd_constraint_translation;
    Alcotest.test_case "membership constraint" `Quick test_membership_translation;
    Alcotest.test_case "disjunctive violation" `Quick test_union_translation;
    Alcotest.test_case "unsafe formula rejected" `Quick test_unsafe_formula_rejected;
    Alcotest.test_case "nested forall conjunct" `Quick test_nested_forall_conjunct;
  ]

let () = Registry.register "to_sql" suite
