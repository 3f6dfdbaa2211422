(** Differential test oracle: three independent evaluators — the BDD
    checker, the naive evaluator ({!Core.Naive_eval}, the ground
    truth), and the SQL translation executed by the relational engine
    ({!Core.To_sql} → {!Fcv_sql.Exec}) — must agree on random closed
    constraints over random small databases.  Failures shrink to a
    minimal counterexample formula via {!Gen.formula_shrink}.

    Determinism: {!Gen.qcheck_case} pins the QCheck seed ([QCHECK_SEED]
    overrides, default = the one bench/ci.sh exports) and prints the
    failing seed on a counterexample. *)

module F = Core.Formula
module C = Core.Checker

let outcome_bool = function C.Satisfied -> true | C.Violated -> false

let case =
  QCheck.pair Gen.formula_arbitrary (QCheck.int_range 0 1_000)

(* One differential case: returns true when every applicable evaluator
   agrees with the naive ground truth.  Formulas outside a fragment
   (ill-typed, or SQL-unsafe for the To_sql path) vacuously pass that
   evaluator. *)
let agree ?max_nodes (f, seed) =
  let f = Gen.close f in
  let db = Gen.random_db seed in
  match Core.Typing.infer db f with
  | exception Core.Typing.Type_error _ -> true
  | typing ->
    let expected = Core.Naive_eval.holds ~typing db f in
    let index = Core.Index.create db in
    C.ensure_indices index [ f ];
    Option.iter
      (fun headroom ->
        let mgr = Core.Index.mgr index in
        Fcv_bdd.Manager.set_max_nodes mgr (Fcv_bdd.Manager.size mgr + headroom))
      max_nodes;
    let r = C.check index f in
    let bdd_ok = outcome_bool r.C.outcome = expected in
    let sql_ok =
      match Core.To_sql.violated db typing f with
      | exception Core.To_sql.Not_safe _ -> true
      | violated -> violated = not expected
    in
    bdd_ok && sql_ok

let prop_three_way_agreement =
  QCheck.Test.make ~count:250 ~name:"BDD = naive = SQL(Exec) on random constraints"
    case
    (fun c -> agree c)

(* Same oracle under a starved node budget: the checker is forced
   through its SQL/naive fallbacks mid-compile and must still return
   the ground-truth verdict. *)
let prop_agreement_under_budget =
  QCheck.Test.make ~count:120 ~name:"fallback paths preserve the verdict under a tiny budget"
    case
    (fun c -> agree ~max_nodes:24 c)

(* The fallback bookkeeping itself: when the budget trips, the result
   must say so (non-BDD method, non-negative abandoned-work time). *)
let prop_fallback_bookkeeping =
  QCheck.Test.make ~count:60 ~name:"fallback results carry method and overhead"
    case
    (fun (f, seed) ->
      let f = Gen.close f in
      let db = Gen.random_db seed in
      match Core.Typing.infer db f with
      | exception Core.Typing.Type_error _ -> true
      | _ ->
        let index = Core.Index.create db in
        C.ensure_indices index [ f ];
        let mgr = Core.Index.mgr index in
        Fcv_bdd.Manager.set_max_nodes mgr (Fcv_bdd.Manager.size mgr + 24);
        let r = C.check index f in
        (match r.C.method_used with
        | C.Bdd -> r.C.bdd_overhead_ms = 0.
        | C.Sql | C.Naive -> r.C.bdd_overhead_ms >= 0.))

(* -- inclusion and referential dependencies ---------------------------------- *)

(* The shapes the violation form projects, ∀x̄. R(…) → ∃ȳ. S(…), which
   the random formulas above rarely reach.  The hypothesis is sometimes
   a join of two atoms; the conclusion sometimes shares an ∃ variable
   with a second atom or an equality, where nothing may be projected.
   Variables are named by domain ([u<d>_<i>] universal, [e<d>_<i>]
   existential), so every shape types. *)
let inclusion_gen =
  let open QCheck.Gen in
  let domain x = Char.code x.[1] - Char.code '0' in
  let const d =
    let size = match d with 1 -> Gen.d1_size | 2 -> Gen.d2_size | _ -> Gen.d3_size in
    map (fun c -> F.Const (Fcv_relation.Value.Int c)) (int_bound (size - 1))
  in
  let var prefix d = map (fun i -> F.Var (Printf.sprintf "%s%d_%d" prefix d i)) (int_bound 1) in
  let atom term =
    let* rel, doms = oneofl [ ("r", [ 1; 2 ]); ("s", [ 2; 3 ]); ("t", [ 1 ]) ] in
    let* ts = flatten_l (List.map term doms) in
    return (F.Atom (rel, ts))
  in
  let maybe_and base extra =
    frequency [ (3, return base); (1, map (fun b -> F.And (base, b)) extra) ]
  in
  let hyp_term d = frequency [ (4, var "u" d); (1, return F.Wildcard); (1, const d) ] in
  let* hyp = atom hyp_term in
  let* hyp = maybe_and hyp (atom hyp_term) in
  let univ = F.Sset.elements (F.free_vars hyp) in
  let concl_term d =
    let joins = List.filter (fun x -> domain x = d) univ in
    frequency
      ((if joins = [] then [] else [ (3, map (fun x -> F.Var x) (oneofl joins)) ])
      @ [ (3, var "e" d); (1, return F.Wildcard); (1, const d) ])
  in
  let* concl = atom concl_term in
  let exist c = F.Sset.elements (F.Sset.diff (F.free_vars c) (F.Sset.of_list univ)) in
  let pinned =
    match exist concl with
    | [] -> atom concl_term
    | es ->
      let* e = oneofl es in
      map (fun c -> F.Eq (F.Var e, c)) (const (domain e))
  in
  let* concl = maybe_and concl (oneof [ atom concl_term; pinned ]) in
  let body = match exist concl with [] -> concl | es -> F.Exists (es, concl) in
  let f = F.Implies (hyp, body) in
  return (if univ = [] then f else F.Forall (univ, f))

let inclusion_case =
  QCheck.pair (QCheck.make inclusion_gen ~print:F.to_string) (QCheck.int_range 0 1_000)

let prop_inclusion_agreement =
  QCheck.Test.make ~count:300 ~name:"BDD = naive = SQL(Exec) on inclusion dependencies"
    inclusion_case
    (fun c -> agree c)

(* The inclusion generator reaches what it is for: violated and
   satisfied instances, and violation forms that project. *)
let test_inclusion_coverage () =
  let rand = Random.State.make [| Lazy.force Gen.qcheck_seed |] in
  let wildcards f =
    let rec go = function
      | F.Atom (_, ts) -> List.length (List.filter (( = ) F.Wildcard) ts)
      | F.Not g | F.Exists (_, g) | F.Forall (_, g) -> go g
      | F.And (a, b) | F.Or (a, b) | F.Implies (a, b) | F.Iff (a, b) -> go a + go b
      | F.True | F.False | F.Eq _ | F.In _ -> 0
    in
    go f
  in
  let held = ref 0 and failed = ref 0 and projected = ref 0 in
  for _ = 1 to 200 do
    let f = inclusion_gen rand in
    let db = Gen.random_db (Random.State.int rand 1_000) in
    if Core.Naive_eval.holds db f then incr held else incr failed;
    match Core.Rewrite.optimize f with
    | Core.Rewrite.Check_valid, g ->
      let plain = Core.Rewrite.push_forall (Core.Rewrite.nnf (F.Not g)) in
      if wildcards (Core.Rewrite.violation g) > wildcards plain then incr projected
    | Core.Rewrite.Check_satisfiable, _ -> ()
  done;
  let positive name n =
    if n = 0 then Alcotest.failf "no %s instance in 200 generated dependencies" name
  in
  positive "satisfied" !held;
  positive "violated" !failed;
  positive "projecting" !projected

let suite =
  List.map Gen.qcheck_case
    [
      prop_three_way_agreement;
      prop_agreement_under_budget;
      prop_fallback_bookkeeping;
      prop_inclusion_agreement;
    ]
  @ [ Alcotest.test_case "inclusion generator covers both verdicts" `Quick test_inclusion_coverage ]

let () = Registry.register "differential" suite
