(** Metamorphic tests over the §4 rewrite pipeline: disabling any one
    rewrite rule (prenex pull-ups, leading-quantifier elimination, ∀
    push-down, fused [appex]/[appall] quantification, violation
    polarity, the FD fast path) must never change a verdict — only
    cost.  Checked on random closed constraints against the naive
    ground truth, and on the paper's hand-written university
    constraints. *)

module C = Core.Checker
module Rw = Core.Rewrite

(* Each ablation disables exactly one rule relative to the full
   default pipeline. *)
let no_elimination f =
  let prefix, matrix = Rw.prenex f in
  (Rw.Check_valid, Rw.requantify prefix matrix)

let no_pushdown f = Rw.eliminate_leading (Rw.prenex f)

let ablations =
  [
    ("no-prenex", { C.default_pipeline with C.rewrite = Rw.no_rewrite });
    ("no-leading-elimination", { C.default_pipeline with C.rewrite = no_elimination });
    ("no-forall-pushdown", { C.default_pipeline with C.rewrite = no_pushdown });
    ("unfused-quantifiers", { C.default_pipeline with C.use_appquant = false });
    ("direct-polarity", C.direct_pipeline);
    ("no-fd-fast-path", { C.default_pipeline with C.use_fd_fast_path = false });
    ("naive-pipeline", C.naive_pipeline);
  ]

let holds_under pipeline index f =
  (C.check ~pipeline index f).C.outcome = C.Satisfied

let prop_ablations_preserve_verdicts =
  QCheck.Test.make ~count:150
    ~name:"every single-rule ablation preserves every verdict"
    (QCheck.pair Gen.formula_arbitrary (QCheck.int_range 0 1_000))
    (fun (f, seed) ->
      let f = Gen.close f in
      let db = Gen.random_db seed in
      match Core.Typing.infer db f with
      | exception Core.Typing.Type_error _ -> true
      | typing ->
        let expected = Core.Naive_eval.holds ~typing db f in
        let index = Core.Index.create db in
        C.ensure_indices index [ f ];
        List.for_all
          (fun (_, pipeline) -> holds_under pipeline index f = expected)
          (("default", C.default_pipeline) :: ablations))

(* Strategy metamorphism: however the checker is steered — the
   budget-guarded BDD pipeline, forced onto the SQL violation query, or
   the legacy thresholding with a budget so tight every compile trips
   and falls back — the verdict never changes.  This is the invariant
   that makes the planner free to choose on cost alone. *)
let strategies = [ ("auto", C.Auto); ("force-sql", C.Force_sql) ]

let prop_strategies_preserve_verdicts =
  QCheck.Test.make ~count:120
    ~name:"every forced strategy (and a tripping budget) preserves every verdict"
    (QCheck.pair Gen.formula_arbitrary (QCheck.int_range 0 1_000))
    (fun (f, seed) ->
      let f = Gen.close f in
      let db = Gen.random_db seed in
      match Core.Typing.infer db f with
      | exception Core.Typing.Type_error _ -> true
      | typing ->
        let expected = Core.Naive_eval.holds ~typing db f in
        let index = Core.Index.create db in
        C.ensure_indices index [ f ];
        List.for_all
          (fun (_, strategy) ->
            ((C.check ~strategy index f).C.outcome = C.Satisfied) = expected)
          strategies
        &&
        (* legacy thresholding under a budget left too tight to compile
           anything: the fallback must agree too *)
        let mgr = Core.Index.mgr index in
        Fcv_bdd.Manager.set_max_nodes mgr (Fcv_bdd.Manager.size mgr + 8);
        ((C.check index f).C.outcome = C.Satisfied) = expected)

(* The same invariant on realistic constraints: the university
   examples, with and without planted violators. *)
let test_university_ablations () =
  let constraints =
    List.map Core.Fol_parser.of_string
      [
        "forall s . student(s, 0, _) -> (exists c . course(c, 0) and takes(s, c))";
        "forall s . forall c . takes(s, c) -> (exists g . student(s, g, _))";
        "forall s . forall a1 . forall a2 . \
         student(s, _, a1) and student(s, _, a2) -> a1 = a2";
      ]
  in
  List.iter
    (fun violators ->
      let rng = Fcv_util.Rng.create 11 in
      let db, _, _, _ =
        Fcv_datagen.University.generate rng
          {
            Fcv_datagen.University.default with
            students = 60;
            courses = 15;
            violators;
          }
      in
      let index = Core.Index.create db in
      C.ensure_indices index constraints;
      List.iter
        (fun f ->
          let expected = holds_under C.default_pipeline index f in
          List.iter
            (fun (name, pipeline) ->
              Alcotest.(check bool)
                (Printf.sprintf "%s agrees (violators=%d)" name violators)
                expected (holds_under pipeline index f))
            ablations)
        constraints)
    [ 0; 5 ]

let suite =
  [
    Gen.qcheck_case prop_ablations_preserve_verdicts;
    Gen.qcheck_case prop_strategies_preserve_verdicts;
    Alcotest.test_case "university constraints under every ablation" `Quick
      test_university_ablations;
  ]

let () = Registry.register "metamorphic" suite
