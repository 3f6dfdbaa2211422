(** End-to-end checker tests: the BDD path, the SQL violation-query
    path and the naive evaluator must all agree — on hand-written
    constraints over the paper's example schemas and on random
    formulas over random databases (the central property test of the
    whole system). *)

module F = Core.Formula
module C = Core.Checker

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let parse = Core.Fol_parser.of_string

let outcome_bool = function C.Satisfied -> true | C.Violated -> false

(* -- university example (§1) ------------------------------------------------ *)

let university ?(violators = 0) () =
  let rng = Fcv_util.Rng.create 5 in
  let db, _, _, _ =
    Fcv_datagen.University.generate rng
      { Fcv_datagen.University.default with students = 150; courses = 40; violators }
  in
  db

let curriculum_constraint =
  "forall s . student(s, 0, _) -> (exists c . course(c, 0) and takes(s, c))"

let test_curriculum_satisfied () =
  let db = university () in
  let index = Core.Index.create db in
  let c = parse curriculum_constraint in
  C.ensure_indices index [ c ];
  let r = C.check index c in
  check "holds on clean data" true (outcome_bool r.C.outcome);
  check "used the BDD path" true (r.C.method_used = C.Bdd);
  check "agrees with naive" (Core.Naive_eval.holds db c) (outcome_bool r.C.outcome);
  let sql_outcome, _ = C.check_sql db c in
  check "agrees with SQL" (outcome_bool sql_outcome) (outcome_bool r.C.outcome)

let test_curriculum_violated () =
  let db = university ~violators:4 () in
  let index = Core.Index.create db in
  let c = parse curriculum_constraint in
  C.ensure_indices index [ c ];
  let r = C.check index c in
  check "violated" false (outcome_bool r.C.outcome);
  let sql_outcome, _ = C.check_sql db c in
  check "SQL agrees" false (outcome_bool sql_outcome);
  (* witnesses: exactly the injected violators *)
  match Core.Violations.enumerate index c with
  | Some ws ->
    check_int "witness count" 4 (List.length ws);
    let naive = Core.Naive_eval.violating_bindings db c in
    check_int "naive agrees on count" (List.length naive) (List.length ws)
  | None -> Alcotest.fail "expected witnesses"

let test_violation_count_matches_enumeration () =
  let db = university ~violators:7 () in
  let index = Core.Index.create db in
  let c = parse curriculum_constraint in
  C.ensure_indices index [ c ];
  match (Core.Violations.count index c, Core.Violations.enumerate index c) with
  | Some n, Some ws -> check "count = |enumeration|" true (n = float_of_int (List.length ws))
  | _ -> Alcotest.fail "expected witnesses"

let test_enumeration_limit () =
  let db = university ~violators:7 () in
  let index = Core.Index.create db in
  let c = parse curriculum_constraint in
  C.ensure_indices index [ c ];
  match Core.Violations.enumerate ~limit:3 index c with
  | Some ws -> check_int "limited" 3 (List.length ws)
  | None -> Alcotest.fail "expected witnesses"

(* -- membership and FD constraints on customers ---------------------------- *)

let customers ?(violation_rate = 0.0) ~rows () =
  let rng = Fcv_util.Rng.create 77 in
  let db = Fcv_datagen.Customers.make_db () in
  let _table, world = Fcv_datagen.Customers.generate ~violation_rate rng db ~name:"cust" ~rows in
  (db, world)

let fd_constraint =
  (* areacode -> state *)
  "forall a, s1, s2 . cust(a, _, _, s1, _) and cust(a, _, _, s2, _) -> s1 = s2"

let test_fd_on_clean_customers () =
  let db, _ = customers ~rows:800 () in
  let index = Core.Index.create db in
  let c = parse fd_constraint in
  C.ensure_indices index [ c ];
  let r = C.check index c in
  check "fd holds on clean data" true (outcome_bool r.C.outcome);
  let table = Fcv_relation.Database.table db "cust" in
  check "Stats.fd_holds agrees" (Fcv_relation.Stats.fd_holds table ~lhs:[ 0 ] ~rhs:[ 3 ])
    (outcome_bool r.C.outcome)

let test_fd_on_dirty_customers () =
  let db, _ = customers ~violation_rate:0.05 ~rows:800 () in
  let index = Core.Index.create db in
  let c = parse fd_constraint in
  C.ensure_indices index [ c ];
  let r = C.check index c in
  let table = Fcv_relation.Database.table db "cust" in
  check "checker = Stats.fd_holds"
    (Fcv_relation.Stats.fd_holds table ~lhs:[ 0 ] ~rhs:[ 3 ])
    (outcome_bool r.C.outcome);
  let sql_outcome, _ = C.check_sql db c in
  check "SQL agrees" (outcome_bool sql_outcome) (outcome_bool r.C.outcome)

let test_projection_index_suffices () =
  (* the FD constraint only touches areacode and state: a projection
     index on those two attributes must be accepted and give the same
     answer *)
  let db, _ = customers ~violation_rate:0.03 ~rows:500 () in
  let index = Core.Index.create db in
  ignore
    (Core.Index.add index ~table_name:"cust" ~attrs:[ "areacode"; "state" ]
       ~strategy:Core.Ordering.Prob_converge ());
  let c = parse fd_constraint in
  let r = C.check index c in
  let table = Fcv_relation.Database.table db "cust" in
  check "projection index answer"
    (Fcv_relation.Stats.fd_holds table ~lhs:[ 0 ] ~rhs:[ 3 ])
    (outcome_bool r.C.outcome)

let test_membership_constraint () =
  let db, _ = customers ~rows:300 () in
  let index = Core.Index.create db in
  (* every customer's state code is one of the 50 *)
  let c = parse "forall s . cust(_, _, _, s, _) -> s in {0, 1, 2}" in
  C.ensure_indices index [ c ];
  let r = C.check index c in
  check "agrees with naive" (Core.Naive_eval.holds db c) (outcome_bool r.C.outcome)

let test_fd_check_projection_method () =
  (* the Fig. 5(b) satcount method agrees with the formula-based check
     and with Stats.fd_holds, clean and dirty *)
  List.iter
    (fun rate ->
      let db, _ = customers ~violation_rate:rate ~rows:600 () in
      let index = Core.Index.create db in
      ignore
        (Core.Index.add index ~table_name:"cust"
           ~attrs:[ "areacode"; "city"; "state" ]
           ~strategy:Core.Ordering.Prob_converge ());
      let table = Fcv_relation.Database.table db "cust" in
      let expected = Fcv_relation.Stats.fd_holds table ~lhs:[ 0 ] ~rhs:[ 3 ] in
      check
        (Printf.sprintf "fd_check at rate %.2f" rate)
        expected
        (Core.Fd_check.fd_holds index ~table_name:"cust" ~lhs:[ "areacode" ] ~rhs:[ "state" ]);
      (* both projection-count methods need an entry covering lhs ∪ rhs;
         zipcode is not indexed *)
      List.iter
        (fun (name, run) ->
          check name true (match run () with exception Invalid_argument _ -> true | () -> false))
        [
          ( "fd_holds refuses an uncovered FD",
            fun () ->
              ignore
                (Core.Fd_check.fd_holds index ~table_name:"cust" ~lhs:[ "zipcode" ]
                   ~rhs:[ "state" ]) );
          ( "fd_soft_counts refuses an uncovered FD",
            fun () ->
              ignore
                (Core.Fd_check.fd_soft_counts index ~table_name:"cust" ~lhs:[ "zipcode" ]
                   ~rhs:[ "state" ]) );
        ];
      if not expected then begin
        let bad =
          Core.Fd_check.violating_lhs index ~table_name:"cust" ~lhs:[ "areacode" ]
            ~rhs:[ "state" ]
        in
        check "some violating lhs reported" true (bad <> []);
        (* each reported areacode really maps to >1 state *)
        List.iter
          (fun codes ->
            match codes with
            | [ v ] ->
              let states = Hashtbl.create 4 in
              Fcv_relation.Table.iter table (fun row ->
                  if Fcv_relation.Value.equal (Fcv_relation.Dict.value (Fcv_relation.Table.dict table 0) row.(0)) v
                  then Hashtbl.replace states row.(3) ());
              check "truly multivalued" true (Hashtbl.length states > 1)
            | _ -> Alcotest.fail "expected single-attribute lhs")
          bad
      end)
    [ 0.0; 0.08 ]

let test_fd_recognizer () =
  let db, _ = customers ~rows:50 () in
  let recog s = Core.Fd_check.recognize_fd db (parse s) in
  (match recog fd_constraint with
  | Some ("cust", [ "areacode" ], "state") -> ()
  | Some (t, lhs, rhs) ->
    Alcotest.fail (Printf.sprintf "wrong shape: %s [%s] %s" t (String.concat "," lhs) rhs)
  | None -> Alcotest.fail "FD not recognised");
  (* flipped equality and swapped atom roles still match *)
  check "flipped eq" true
    (recog "forall a, s1, s2 . cust(a, _, _, s1, _) and cust(a, _, _, s2, _) -> s2 = s1"
    <> None);
  (* non-FD shapes are not misrecognised *)
  check "different relations" true (recog "forall s . cust(_, _, _, s, _) -> s = s" = None);
  check "extra atom structure" true
    (recog "forall a, s1, s2 . cust(a, _, _, s1, _) and cust(a, a, _, s2, _) -> s1 = s2"
    = None);
  check "rhs var reused" true
    (recog "forall a, s1, s2 . cust(a, _, s1, s1, _) and cust(a, _, s1, s2, _) -> s1 = s2"
    = None)

let test_fd_fast_path_agrees_with_compiler () =
  List.iter
    (fun rate ->
      let db, _ = customers ~violation_rate:rate ~rows:500 () in
      let index = Core.Index.create db in
      let c = parse fd_constraint in
      C.ensure_indices index [ c ];
      let fast = C.check index c in
      let slow =
        C.check
          ~pipeline:{ C.default_pipeline with C.use_fd_fast_path = false }
          index c
      in
      check
        (Printf.sprintf "fast = compiled at rate %.2f" rate)
        (outcome_bool fast.C.outcome) (outcome_bool slow.C.outcome))
    [ 0.0; 0.05 ]

let test_mvd_check () =
  (* a pure product R1(a,b) x R2(c): every MVD across the factor split
     holds; a random relation almost surely fails it *)
  let db = Fcv_relation.Database.create () in
  List.iter
    (fun n -> Fcv_relation.Database.add_domain db (Fcv_relation.Dict.of_int_range n 6))
    [ "da"; "db"; "dc" ];
  let t =
    Fcv_relation.Database.create_table db ~name:"prod"
      ~attrs:[ ("a", "da"); ("b", "db"); ("c", "dc") ]
  in
  let rng = Fcv_util.Rng.create 9 in
  let pairs = List.init 8 (fun _ -> (Fcv_util.Rng.int rng 6, Fcv_util.Rng.int rng 6)) in
  let cs = List.init 4 (fun _ -> Fcv_util.Rng.int rng 6) in
  List.iter
    (fun (a, b) ->
      List.iter (fun c -> Fcv_relation.Table.insert_coded t [| a; b; c |]) cs)
    (List.sort_uniq compare pairs);
  let rnd =
    Fcv_relation.Database.create_table db ~name:"rnd"
      ~attrs:[ ("a", "da"); ("b", "db"); ("c", "dc") ]
  in
  for _ = 1 to 40 do
    Fcv_relation.Table.insert_coded rnd
      [| Fcv_util.Rng.int rng 6; Fcv_util.Rng.int rng 6; Fcv_util.Rng.int rng 6 |]
  done;
  let index = Core.Index.create db in
  ignore (Core.Index.add index ~table_name:"prod" ~strategy:Core.Ordering.Prob_converge ());
  ignore (Core.Index.add index ~table_name:"rnd" ~strategy:Core.Ordering.Prob_converge ());
  (* trivial MVD with empty lhs: {} ->> {a,b} says R = R[ab] x R[c] *)
  check "product factorises" true
    (Core.Fd_check.mvd_holds index ~table_name:"prod" ~lhs:[] ~mid:[ "a"; "b" ]);
  check "random does not" false
    (Core.Fd_check.mvd_holds index ~table_name:"rnd" ~lhs:[] ~mid:[ "a"; "b" ]);
  (* any FD lhs -> rhs implies the MVD lhs ->> rhs *)
  check "mvd with lhs" true
    (Core.Fd_check.mvd_holds index ~table_name:"prod" ~lhs:[ "a" ] ~mid:[ "b" ]);
  check "overlap rejected" true
    (match Core.Fd_check.mvd_holds index ~table_name:"prod" ~lhs:[ "a" ] ~mid:[ "a" ] with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* -- fallback behaviour ------------------------------------------------------ *)

let test_fallback_on_tiny_budget () =
  let db = university ~violators:2 () in
  (* a budget too small even to hold the indices' own blocks forces the
     checker onto the SQL path, which must still answer correctly *)
  let index = Core.Index.create db in
  let c = parse curriculum_constraint in
  C.ensure_indices index [ c ];
  Fcv_bdd.Manager.set_max_nodes (Core.Index.mgr index) (Fcv_bdd.Manager.size (Core.Index.mgr index) + 50);
  let r = C.check index c in
  check "fell back" true (r.C.method_used <> C.Bdd);
  check "fallback answer correct" false (outcome_bool r.C.outcome);
  check "overhead recorded" true (r.C.bdd_overhead_ms >= 0.)

let test_open_formula_rejected () =
  let db = university () in
  let index = Core.Index.create db in
  check "open formula" true
    (match C.check index (parse "student(s, 0, _)") with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_many_repeated_checks_reuse_scratch_levels () =
  (* the FD constraint needs a scratch block per check; the pool must
     recycle it or the manager's bounded level space would run out
     after a few hundred checks *)
  let db, _ = customers ~violation_rate:0.02 ~rows:200 () in
  let index = Core.Index.create db in
  let c = parse fd_constraint in
  C.ensure_indices index [ c ];
  let before = Fcv_bdd.Manager.nvars (Core.Index.mgr index) in
  let first = C.check index c in
  for _ = 1 to 400 do
    let r = C.check index c in
    if r.C.outcome <> first.C.outcome then Alcotest.fail "outcome drifted"
  done;
  let after = Fcv_bdd.Manager.nvars (Core.Index.mgr index) in
  check
    (Printf.sprintf "levels stable after 400 checks (%d -> %d)" before after)
    true
    (after - before <= 16)

(* -- ablation pipeline -------------------------------------------------------- *)

let test_naive_pipeline_agrees () =
  let db = university ~violators:3 () in
  let index = Core.Index.create db in
  let c = parse curriculum_constraint in
  C.ensure_indices index [ c ];
  let r1 = C.check index c in
  let r2 = C.check ~pipeline:C.naive_pipeline index c in
  let r3 = C.check ~pipeline:C.direct_pipeline index c in
  check "violation and naive pipelines agree" (outcome_bool r1.C.outcome)
    (outcome_bool r2.C.outcome);
  check "violation and direct pipelines agree" (outcome_bool r1.C.outcome)
    (outcome_bool r3.C.outcome)

let prop_polarities_agree =
  QCheck.Test.make ~count:80 ~name:"violation and direct polarities agree"
    (QCheck.pair Gen.formula_arbitrary (QCheck.int_range 0 500))
    (fun (f, seed) ->
      let f = Gen.close f in
      let db = Gen.random_db seed in
      match Core.Typing.infer db f with
      | exception Core.Typing.Type_error _ -> true
      | _ ->
        let index = Core.Index.create db in
        C.ensure_indices index [ f ];
        let r1 = C.check ~pipeline:C.default_pipeline index f in
        let r2 = C.check ~pipeline:C.direct_pipeline index f in
        outcome_bool r1.C.outcome = outcome_bool r2.C.outcome)

(* -- the central random property --------------------------------------------- *)

let prop_bdd_agrees_with_naive =
  QCheck.Test.make ~count:120 ~name:"checker(BDD) = naive evaluator on random constraints"
    (QCheck.pair Gen.formula_arbitrary (QCheck.int_range 0 500))
    (fun (f, seed) ->
      let f = Gen.close f in
      let db = Gen.random_db seed in
      match Core.Typing.infer db f with
      | exception Core.Typing.Type_error _ -> true
      | _ ->
        let index = Core.Index.create db in
        C.ensure_indices index [ f ];
        let r = C.check index f in
        outcome_bool r.C.outcome = Core.Naive_eval.holds db f)

let prop_sql_agrees_with_naive =
  QCheck.Test.make ~count:120 ~name:"SQL violation query = naive evaluator (safe fragment)"
    (QCheck.pair Gen.formula_arbitrary (QCheck.int_range 0 500))
    (fun (f, seed) ->
      let f = Gen.close f in
      let db = Gen.random_db seed in
      match Core.Typing.infer db f with
      | exception Core.Typing.Type_error _ -> true
      | typing -> (
        match Core.To_sql.violated db typing f with
        | exception Core.To_sql.Not_safe _ -> true
        | violated -> violated = not (Core.Naive_eval.holds db f)))

let prop_ablation_pipeline_agrees =
  QCheck.Test.make ~count:80 ~name:"rewritten and unrewritten pipelines agree"
    (QCheck.pair Gen.formula_arbitrary (QCheck.int_range 0 500))
    (fun (f, seed) ->
      let f = Gen.close f in
      let db = Gen.random_db seed in
      match Core.Typing.infer db f with
      | exception Core.Typing.Type_error _ -> true
      | _ ->
        let index = Core.Index.create db in
        C.ensure_indices index [ f ];
        let r1 = C.check index f in
        let r2 = C.check ~pipeline:C.naive_pipeline index f in
        outcome_bool r1.C.outcome = outcome_bool r2.C.outcome)

let prop_violation_witnesses_exact =
  QCheck.Test.make ~count:60 ~name:"witness enumeration matches naive violating bindings"
    (QCheck.int_range 0 500)
    (fun seed ->
      let db = Gen.random_db seed in
      (* a forall constraint with a real witness structure *)
      let f = parse "forall x, y . r(x, y) -> (exists c . s(y, c))" in
      match Core.Typing.infer db f with
      | exception Core.Typing.Type_error _ -> true
      | _ -> (
        let index = Core.Index.create db in
        C.ensure_indices index [ f ];
        match Core.Violations.enumerate index f with
        | None -> false
        | Some ws ->
          let naive = Core.Naive_eval.violating_bindings db f in
          List.length ws = List.length naive))

let suite =
  [
    Alcotest.test_case "curriculum constraint satisfied" `Quick test_curriculum_satisfied;
    Alcotest.test_case "curriculum constraint violated" `Quick test_curriculum_violated;
    Alcotest.test_case "violation count = enumeration" `Quick test_violation_count_matches_enumeration;
    Alcotest.test_case "enumeration limit" `Quick test_enumeration_limit;
    Alcotest.test_case "FD holds on clean customers" `Quick test_fd_on_clean_customers;
    Alcotest.test_case "FD detected on dirty customers" `Quick test_fd_on_dirty_customers;
    Alcotest.test_case "projection index suffices" `Quick test_projection_index_suffices;
    Alcotest.test_case "membership constraint" `Quick test_membership_constraint;
    Alcotest.test_case "FD projection-count method (Fig 5b)" `Quick test_fd_check_projection_method;
    Alcotest.test_case "MVD check" `Quick test_mvd_check;
    Alcotest.test_case "FD recognizer" `Quick test_fd_recognizer;
    Alcotest.test_case "FD fast path = compiled" `Quick test_fd_fast_path_agrees_with_compiler;
    Alcotest.test_case "fallback on tiny budget" `Quick test_fallback_on_tiny_budget;
    Alcotest.test_case "scratch levels recycled over repeated checks" `Quick test_many_repeated_checks_reuse_scratch_levels;
    Alcotest.test_case "open formulas rejected" `Quick test_open_formula_rejected;
    Alcotest.test_case "ablation pipeline agrees" `Quick test_naive_pipeline_agrees;
    QCheck_alcotest.to_alcotest prop_polarities_agree;
    QCheck_alcotest.to_alcotest prop_bdd_agrees_with_naive;
    QCheck_alcotest.to_alcotest prop_sql_agrees_with_naive;
    QCheck_alcotest.to_alcotest prop_ablation_pipeline_agrees;
    QCheck_alcotest.to_alcotest prop_violation_witnesses_exact;
  ]

let () = Registry.register "checker" suite
