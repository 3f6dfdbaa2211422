(** Tests for {!Core.Planner}: the cost model (monotone in node count,
    domain width and cardinality), the online-learning rules
    (trip-demotion to SQL, re-promotion after shrink, ε-probes,
    cache/invalidate bookkeeping), the Armstrong-closure implication
    check behind register-time FD dedup, the Monitor-level entailment
    skip, and a property pinning the planner's pick to measured
    reality on random constraints. *)

module C = Core.Checker
module F = Core.Formula
module P = Core.Planner
module M = Core.Monitor
module R = Fcv_relation

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let parse = Core.Fol_parser.of_string

let index_of db fs =
  let index = Core.Index.create db in
  C.ensure_indices index fs;
  index

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

(* Hand-built checker results drive [observe] without timing noise:
   the learning rules are deterministic functions of these records. *)
let result ?(outcome = C.Satisfied) ~method_used ~elapsed_ms ?(bdd_overhead_ms = 0.)
    ?(fallback_ms = 0.) f =
  {
    C.outcome;
    method_used;
    elapsed_ms;
    bdd_overhead_ms;
    fallback_ms;
    rewritten = f;
    rate = None;
  }

(* A budget-tripping fallback as the checker reports it: the abandoned
   BDD attempt ([bdd_overhead_ms]) plus the fallback that ran. *)
let trip f = result ~method_used:C.Sql ~elapsed_ms:1.0 ~bdd_overhead_ms:3.0 ~fallback_ms:1.0 f

(* -- cost model -------------------------------------------------------------- *)

(* A single-table database over one domain, sized by the caller — the
   knobs the monotonicity tests turn. *)
let chain_db ~dom ~rows =
  let db = R.Database.create () in
  R.Database.add_domain db (R.Dict.of_int_range "d" dom);
  let u = R.Database.create_table db ~name:"u" ~attrs:[ ("a", "d"); ("b", "d") ] in
  for i = 0 to rows - 1 do
    R.Table.insert_coded u [| i mod dom; (i + 1) mod dom |]
  done;
  db

let chain_constraint = "forall x, y . u(x, y) -> u(y, x)"

let test_estimates_monotone () =
  let est_bdd ~dom ~rows =
    let f = parse chain_constraint in
    P.estimate_bdd_ms (index_of (chain_db ~dom ~rows) [ f ]) f
  in
  let est_sql ~dom ~rows =
    let f = parse chain_constraint in
    P.estimate_sql_ms (index_of (chain_db ~dom ~rows) [ f ]) f
  in
  (* node count: same domain, more indexed rows -> more entry nodes *)
  check "BDD estimate grows with node count" true
    (est_bdd ~dom:16 ~rows:4 < est_bdd ~dom:16 ~rows:14);
  (* domain size: same rows, wider blocks -> more bits (and nodes) *)
  check "BDD estimate grows with domain size" true
    (est_bdd ~dom:8 ~rows:6 < est_bdd ~dom:64 ~rows:6);
  (* the SQL side is monotone in base cardinality *)
  check "SQL estimate grows with cardinality" true
    (est_sql ~dom:16 ~rows:4 < est_sql ~dom:16 ~rows:14)

(* -- learning rules ---------------------------------------------------------- *)

(* Make the initial decision deterministic regardless of the model's
   absolute calibration: expensive measured SQL history forces the
   first plan onto the BDD branch. *)
let plan_bdd_first p index f =
  for _ = 1 to 3 do
    P.observe (P.history p (F.hard f)) (result ~method_used:C.Sql ~elapsed_ms:5.0 f)
  done;
  let p1 = P.plan p index (P.history p (F.hard f)) in
  Alcotest.(check bool) "expensive SQL history plans BDD" true (p1.P.choice = P.Use_bdd);
  p1

let test_trip_demotion () =
  let db = Gen.random_db 5 in
  let f = parse "forall x, y . r(x, y) -> (exists c . s(y, c))" in
  let index = index_of db [ f ] in
  let p = P.create () in
  ignore (plan_bdd_first p index f);
  (* trip_demote = 2 consecutive budget trips flip the plan to SQL
     regardless of the estimates *)
  P.observe (P.history p (F.hard f)) (trip f);
  P.observe (P.history p (F.hard f)) (trip f);
  let p2 = P.plan p index (P.history p (F.hard f)) in
  check "demoted straight to SQL" true (p2.P.choice = P.Use_sql);
  check "demotion hands the checker Force_sql" true (p2.P.strategy = C.Force_sql);
  check "the reason names the trip rule" true
    (contains p2.P.reason "consecutive budget trips")

let test_bdd_success_resets_trips () =
  let db = Gen.random_db 6 in
  let f = parse "forall x, y . r(x, y) -> (exists c . s(y, c))" in
  let index = index_of db [ f ] in
  let p = P.create () in
  ignore (plan_bdd_first p index f);
  (* trip, clean BDD run, trip: never 2 consecutive, so whatever the
     estimates say, the demotion rule must not be the reason *)
  P.observe (P.history p (F.hard f)) (trip f);
  P.observe (P.history p (F.hard f)) (result ~method_used:C.Bdd ~elapsed_ms:0.01 f);
  P.observe (P.history p (F.hard f)) (trip f);
  let p2 = P.plan p index (P.history p (F.hard f)) in
  check "no demotion without consecutive trips" false
    (contains p2.P.reason "consecutive budget trips")

(* A pool worker's result is untimed: neither side's measured cost
   moves, yet its trip evidence counts — two untimed trips demote, and
   an untimed clean BDD run resets the streak. *)
let test_untimed_results () =
  let db = Gen.random_db 5 in
  let f = parse "forall x, y . r(x, y) -> (exists c . s(y, c))" in
  let index = index_of db [ f ] in
  let p = P.create () in
  let h = P.history p (F.hard f) in
  let costs () = (P.measured_ms h C.Auto, P.measured_ms h C.Force_sql) in
  P.observe ~timed:false h (result ~method_used:C.Bdd ~elapsed_ms:7.0 f);
  check "an untimed run measures nothing" true (costs () = (None, None));
  ignore (plan_bdd_first p index f);
  P.observe h (result ~method_used:C.Bdd ~elapsed_ms:0.5 f);
  check "timed runs measure each side" true (costs () = (Some 0.5, Some 5.0));
  P.observe ~timed:false h (trip f);
  P.observe ~timed:false h (result ~method_used:C.Bdd ~elapsed_ms:100. f);
  P.observe ~timed:false h (trip f);
  check "untimed results leave both costs" true (costs () = (Some 0.5, Some 5.0));
  let p2 = P.plan p index h in
  check "an untimed clean BDD run resets the streak" true
    (p2.P.choice = P.Use_bdd && not (contains p2.P.reason "consecutive budget trips"));
  P.observe ~timed:false h (trip f);
  let p3 = P.plan p index h in
  check "two untimed trips demote to SQL" true
    (p3.P.choice = P.Use_sql && contains p3.P.reason "consecutive budget trips");
  check "and still leave both costs" true (costs () = (Some 0.5, Some 5.0))

let test_shrink_repromotes () =
  let db = chain_db ~dom:32 ~rows:28 in
  let f = parse chain_constraint in
  let index = index_of db [ f ] in
  let p = P.create () in
  ignore (plan_bdd_first p index f);
  P.observe (P.history p (F.hard f)) (trip f);
  P.observe (P.history p (F.hard f)) (trip f);
  let p2 = P.plan p index (P.history p (F.hard f)) in
  check "demoted after the trips" true (p2.P.choice = P.Use_sql);
  (* the watched data shrinks far below what tripped the budget *)
  for i = 0 to 23 do
    ignore (Core.Index.delete index ~table_name:"u" [| i mod 32; (i + 1) mod 32 |])
  done;
  let p3 = P.plan p index (P.history p (F.hard f)) in
  check "trip evidence forgotten on shrink" false
    (contains p3.P.reason "consecutive budget trips");
  check "re-promoted to the BDD pipeline" true (p3.P.choice = P.Use_bdd)

let test_cache_probe_and_stats () =
  let db = Gen.random_db 7 in
  let f = parse "forall x, y . r(x, y) -> (exists c . s(y, c))" in
  let index = index_of db [ f ] in
  let p = P.create () in
  ignore (plan_bdd_first p index f);
  let s = P.stats p in
  check_int "first plan is a miss" 1 s.P.misses;
  check_int "no hit yet" 0 s.P.hits;
  ignore (P.plan p index (P.history p (F.hard f)));
  check_int "unchanged index is a cache hit" 1 (P.stats p).P.hits;
  (* a structure-version bump retires the cached plan; the recompute
     counts as a replan, not a miss *)
  index.Core.Index.structure_version <- index.Core.Index.structure_version + 1;
  ignore (P.plan p index (P.history p (F.hard f)));
  let s = P.stats p in
  check_int "version bump forces a replan" 1 s.P.replans;
  check_int "still a single miss" 1 s.P.misses;
  (* demote to a cached SQL plan, then count to the ε-probe *)
  P.observe (P.history p (F.hard f)) (trip f);
  P.observe (P.history p (F.hard f)) (trip f);
  let p2 = P.plan p index (P.history p (F.hard f)) in
  check "cached plan is SQL" true (p2.P.choice = P.Use_sql);
  (* the probe clock counts the SQL plan's cache hits: 16 of them, each
     a plain SQL run, then the probe *)
  for i = 1 to 16 do
    let hit = P.plan p index (P.history p (F.hard f)) in
    check (Printf.sprintf "SQL run %d is no probe" i) true
      ((not hit.P.probe) && hit.P.choice = P.Use_sql)
  done;
  let probe = P.plan p index (P.history p (F.hard f)) in
  check "the run after the 16th SQL hit probes" true probe.P.probe;
  check "the probe runs the BDD side" true (probe.P.choice = P.Use_bdd);
  check "under the budget-guarded Auto strategy" true (probe.P.strategy = C.Auto);
  check_int "probe counted" 1 (P.stats p).P.probes;
  let after = P.plan p index (P.history p (F.hard f)) in
  check "the cached SQL plan survives the probe" true
    ((not after.P.probe) && after.P.choice = P.Use_sql);
  (* invalidate drops every cached plan but keeps history *)
  P.invalidate p;
  let replans = (P.stats p).P.replans in
  ignore (P.plan p index (P.history p (F.hard f)));
  check_int "invalidate forces a replan" (replans + 1) (P.stats p).P.replans

(* A soft spec's Force_sql engine is the naive recount, exponential in
   its ∀-block (there is no SQL rate query): where the model plans a
   hard policy to SQL, its soft twin plans BDD, and only trip demotion
   sends it to the recount. *)
let test_soft_twin_plans_bdd () =
  let rng = Fcv_util.Rng.create 11 in
  let db, _, _, _ =
    Fcv_datagen.University.generate rng
      { Fcv_datagen.University.default with students = 60; courses = 15; violators = 5 }
  in
  let f = parse "forall s . student(s, 0, _) -> (exists c . course(c, 0) and takes(s, c))" in
  let index = index_of db [ f ] in
  let p = P.create () in
  check "the model plans the hard policy to SQL" true
    ((P.plan p index (P.history p (F.hard f))).P.choice = P.Use_sql);
  let soft = { F.threshold = 0.9; formula = f } in
  let p1 = P.plan p index (P.history p soft) in
  check "its soft twin plans BDD" true (p1.P.choice = P.Use_bdd && p1.P.strategy = C.Auto);
  P.observe (P.history p soft) (trip f);
  P.observe (P.history p soft) (trip f);
  let p2 = P.plan p index (P.history p soft) in
  check "two trips demote the soft twin" true
    (p2.P.choice = P.Use_sql && p2.P.strategy = C.Force_sql);
  check "by the trip rule" true (contains p2.P.reason "consecutive budget trips")

(* -- FD implication (Armstrong closure) -------------------------------------- *)

let fd table lhs rhs = { P.table; lhs; rhs }

let test_entails () =
  let some ids = Some ids in
  check "transitivity: a->b, b->c |- a->c" true
    (P.entails
       ~by:[ (1, fd "u" [ "a" ] "b"); (2, fd "u" [ "b" ] "c") ]
       (fd "u" [ "a" ] "c")
    = some [ 1; 2 ]);
  check "reflexivity holds from nothing" true
    (P.entails ~by:[] (fd "u" [ "a"; "b" ] "a") = some []);
  check "augmentation: a->c |- ab->c" true
    (P.entails ~by:[ (1, fd "u" [ "a" ] "c") ] (fd "u" [ "a"; "b" ] "c") = some [ 1 ]);
  check "unused FDs are not cited" true
    (P.entails
       ~by:[ (1, fd "u" [ "a" ] "b"); (9, fd "u" [ "z" ] "q") ]
       (fd "u" [ "a" ] "b")
    = some [ 1 ]);
  check "no reversal: a->b does not give b->a" true
    (P.entails ~by:[ (1, fd "u" [ "a" ] "b") ] (fd "u" [ "b" ] "a") = None);
  check "tables are isolated" true
    (P.entails ~by:[ (1, fd "v" [ "a" ] "b") ] (fd "u" [ "a" ] "b") = None)

let test_fd_of () =
  let db = Gen.random_db 3 in
  match P.fd_of db (parse "forall x, b1, b2 . r(x, b1) and r(x, b2) -> b1 = b2") with
  | Some { P.table; lhs; rhs } ->
    check "table" true (table = "r");
    check "lhs" true (lhs = [ "a" ]);
    check "rhs" true (rhs = "b")
  | None -> Alcotest.fail "FD shape not recognised"

(* -- Monitor integration: entailment skip + planned-vs-legacy verdicts -------- *)

(* u(a, b, c) with rows (i, i, i): a->b, b->c and hence a->c all hold. *)
let fd_db () =
  let db = R.Database.create () in
  R.Database.add_domain db (R.Dict.of_int_range "d" 3);
  let u =
    R.Database.create_table db ~name:"u" ~attrs:[ ("a", "d"); ("b", "d"); ("c", "d") ]
  in
  for i = 0 to 2 do
    R.Table.insert_coded u [| i; i; i |]
  done;
  db

let fd_sources =
  [
    "forall x, y1, y2 . u(x, y1, _) and u(x, y2, _) -> y1 = y2" (* a -> b *);
    "forall y, z1, z2 . u(_, y, z1) and u(_, y, z2) -> z1 = z2" (* b -> c *);
    "forall x, z1, z2 . u(x, _, z1) and u(x, _, z2) -> z1 = z2" (* a -> c *);
  ]

let fresh_checks reports = List.length (List.filter (fun r -> r.M.fresh) reports)

let test_monitor_entailment_skip () =
  let run planning =
    let monitor = M.create ~planning (Core.Index.create (fd_db ())) in
    let regs = List.map (M.add monitor) fd_sources in
    (monitor, regs, M.validate monitor)
  in
  let planned, regs, reports = run M.Planned in
  let legacy, _, legacy_reports = run (M.Forced C.Auto) in
  (match regs with
  | [ ab; bc; ac ] ->
    check "a->c is entailed by {a->b, b->c} at register time" true
      (ac.M.entailed_by = Some [ ab.M.id; bc.M.id ]);
    check "entailers are not marked entailed" true
      (ab.M.entailed_by = None && bc.M.entailed_by = None)
  | _ -> Alcotest.fail "expected three registrations");
  check "all satisfied under Planned" true
    (List.for_all (fun r -> r.M.outcome = C.Satisfied) reports);
  check "verdicts match Legacy" true
    (M.verdicts planned = M.verdicts legacy);
  check_int "the entailed FD was settled, not checked" 2 (fresh_checks reports);
  check_int "Legacy checks all three" 3 (fresh_checks legacy_reports);
  (* soundness: once an entailer breaks, the entailed FD is really
     checked again — and found violated *)
  M.insert planned ~table_name:"u" [| 0; 1; 1 |];
  let reports = M.validate planned in
  check_int "broken entailer ends the skip" 3 (fresh_checks reports);
  let outcome_of id =
    (List.find (fun r -> r.M.constraint_.M.id = id) reports).M.outcome
  in
  (match regs with
  | [ ab; bc; ac ] ->
    check "a->b violated" true (outcome_of ab.M.id = C.Violated);
    check "b->c still holds" true (outcome_of bc.M.id = C.Satisfied);
    check "a->c checked fresh and violated" true (outcome_of ac.M.id = C.Violated)
  | _ -> ());
  (* explain exposes a costed plan for registered constraints *)
  (match M.explain planned (List.hd regs).M.id with
  | Some (_, plan) ->
    let chosen = if plan.P.choice = P.Use_bdd then plan.P.est_bdd_ms else plan.P.est_sql_ms in
    check "explain returns a costed tree" true
      (plan.P.tree.P.children <> [] && plan.P.tree.P.est_ms = chosen);
    check "its JSON cost_ms is the chosen side's estimate" true
      (match P.plan_json plan with
      | Fcv_util.Telemetry.Obj kv ->
        List.assoc_opt "cost_ms" kv = Some (Fcv_util.Telemetry.Float chosen)
      | _ -> false)
  | None -> Alcotest.fail "explain lost a registered constraint");
  check "explain on an unknown id is None" true (M.explain planned 999 = None)

let test_planned_monitor_matches_legacy () =
  let constraints =
    [
      "forall s . student(s, 0, _) -> (exists c . course(c, 0) and takes(s, c))";
      "forall s . forall c . takes(s, c) -> (exists g . student(s, g, _))";
      "forall s . forall a1 . forall a2 . \
       student(s, _, a1) and student(s, _, a2) -> a1 = a2";
    ]
  in
  let monitor planning =
    let rng = Fcv_util.Rng.create 11 in
    let db, _, _, _ =
      Fcv_datagen.University.generate rng
        { Fcv_datagen.University.default with students = 60; courses = 15; violators = 5 }
    in
    let m = M.create ~planning (Core.Index.create db) in
    List.iter (fun src -> ignore (M.add m src)) constraints;
    m
  in
  let planned = monitor M.Planned in
  let legacy = monitor (M.Forced C.Auto) in
  (* several passes with a dirtying mutation in between, so the planner
     actually learns and re-plans *)
  for i = 0 to 3 do
    check (Printf.sprintf "pass %d verdicts agree" i) true
      (M.verdicts planned = M.verdicts legacy);
    List.iter
      (fun m ->
        M.insert m ~table_name:"takes" [| i; i |];
        ignore (M.delete m ~table_name:"takes" [| i; i |]))
      [ planned; legacy ]
  done

(* -- property: the pick tracks measured reality ------------------------------ *)

(* After observing one measured run of each side, the planner's pick
   must cost within 2x of the better side (plus an absolute epsilon
   for scheduler noise on these micro-databases), and both sides must
   agree on the verdict. *)
let prop_pick_within_2x =
  QCheck.Test.make ~count:60
    ~name:"planner pick within 2x of the measured best (+0.5 ms)"
    (QCheck.pair Gen.formula_arbitrary (QCheck.int_range 0 1_000))
    (fun (f, seed) ->
      let f = Gen.close f in
      let db = Gen.random_db seed in
      match Core.Typing.infer db f with
      | exception Core.Typing.Type_error _ -> true
      | _ ->
        let index = index_of db [ f ] in
        let p = P.create () in
        let measure strategy =
          let r = C.check ~strategy index f in
          P.observe (P.history p (F.hard f)) r;
          (r.C.outcome, r.C.elapsed_ms +. r.C.bdd_overhead_ms)
        in
        let bdd_outcome, bdd_ms = measure C.Auto in
        let sql_outcome, sql_ms = measure C.Force_sql in
        if bdd_outcome <> sql_outcome then false
        else
          let picked =
            match (P.plan p index (P.history p (F.hard f))).P.choice with
            | P.Use_bdd -> bdd_ms
            | P.Use_sql -> sql_ms
          in
          picked <= (2. *. Float.min bdd_ms sql_ms) +. 0.5)

let suite =
  [
    Alcotest.test_case "estimates monotone in nodes, width, cardinality" `Quick
      test_estimates_monotone;
    Alcotest.test_case "consecutive trips demote to SQL" `Quick test_trip_demotion;
    Alcotest.test_case "a clean BDD run resets the trip streak" `Quick
      test_bdd_success_resets_trips;
    Alcotest.test_case "untimed results count trips, not time" `Quick test_untimed_results;
    Alcotest.test_case "shrinking data re-promotes to BDD" `Quick test_shrink_repromotes;
    Alcotest.test_case "cache, version bump, ε-probe, stats" `Quick
      test_cache_probe_and_stats;
    Alcotest.test_case "a soft spec plans SQL only by trip demotion" `Quick
      test_soft_twin_plans_bdd;
    Alcotest.test_case "Armstrong-closure entailment" `Quick test_entails;
    Alcotest.test_case "FD shape recognition" `Quick test_fd_of;
    Alcotest.test_case "monitor skips entailed FDs soundly" `Quick
      test_monitor_entailment_skip;
    Alcotest.test_case "planned monitor matches legacy verdicts" `Quick
      test_planned_monitor_matches_legacy;
    Gen.qcheck_case prop_pick_within_2x;
  ]

let () = Registry.register "planner" suite
