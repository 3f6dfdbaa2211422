(** Tests for the continuous-validation monitor and the IND check. *)

module C = Core.Checker
module R = Fcv_relation

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let setup () =
  let rng = Fcv_util.Rng.create 17 in
  let db, _, _, _ =
    Fcv_datagen.University.generate rng
      { Fcv_datagen.University.default with students = 120; courses = 30 }
  in
  let index = Core.Index.create db in
  (db, index)

let curriculum = "forall s . student(s, 0, _) -> (exists c . course(c, 0) and takes(s, c))"
let enrolment = "forall s . student(s, _, _) -> (exists c . takes(s, c))"
let referential = "forall s, c . takes(s, c) -> (exists a . course(c, a))"

let test_monitor_basic () =
  let _, index = setup () in
  let mon = Core.Monitor.create index in
  let r1 = Core.Monitor.add mon curriculum in
  let _ = Core.Monitor.add mon referential in
  check "tables recorded" true (r1.Core.Monitor.tables = [ "course"; "student"; "takes" ]);
  let reports = Core.Monitor.validate mon in
  check_int "both checked" 2 (List.length reports);
  check "all fresh on first validation" true
    (List.for_all (fun r -> r.Core.Monitor.fresh) reports);
  check "clean data satisfies" true
    (List.for_all (fun r -> r.Core.Monitor.outcome = C.Satisfied) reports)

let test_monitor_caches_clean_constraints () =
  let _, index = setup () in
  let mon = Core.Monitor.create index in
  let _ = Core.Monitor.add mon curriculum in
  ignore (Core.Monitor.validate mon);
  (* nothing changed: second validation is all cached *)
  let reports = Core.Monitor.validate mon in
  check "cached" true (List.for_all (fun r -> not r.Core.Monitor.fresh) reports)

let test_monitor_detects_injected_violation () =
  let _, index = setup () in
  let mon = Core.Monitor.create index in
  let reg = Core.Monitor.add mon curriculum in
  ignore (Core.Monitor.validate mon);
  (* a fresh CS student with no enrolments violates the curriculum *)
  Core.Monitor.insert mon ~table_name:"student" [| 119; 0; 5 |];
  let reports = Core.Monitor.validate mon in
  (match reports with
  | [ r ] ->
    check "fresh re-check" true r.Core.Monitor.fresh;
    check "violation detected" true (r.Core.Monitor.outcome = C.Violated)
  | _ -> Alcotest.fail "expected one report");
  check "violated list" true
    (List.exists (fun r -> r.Core.Monitor.id = reg.Core.Monitor.id) (Core.Monitor.violated mon))

(* What fcv explain --warm does before each pass: marking every
   constraint's tables dirty makes each of k passes check each
   constraint once. *)
let test_mark_dirty_rechecks () =
  let _, index = setup () in
  let mon = Core.Monitor.create index in
  let regs = List.map (Core.Monitor.add mon) [ curriculum; enrolment; referential ] in
  let passes = 3 in
  for _ = 1 to passes do
    List.iter (fun reg -> List.iter (Core.Monitor.mark_dirty mon) reg.Core.Monitor.tables) regs;
    check "every report fresh" true
      (List.for_all (fun r -> r.Core.Monitor.fresh) (Core.Monitor.validate mon))
  done;
  List.iter
    (fun reg -> check_int reg.Core.Monitor.source passes reg.Core.Monitor.checks_run)
    regs

let fresh_of reports src =
  (List.find (fun r -> r.Core.Monitor.constraint_.Core.Monitor.source = src) reports)
    .Core.Monitor.fresh

(* curriculum watches course only through course(c, 0): an area-1
   course row cannot reach it, an area-0 row can; enrolment watches no
   course at all *)
let test_monitor_dirty_scoping () =
  let _, index = setup () in
  let mon = Core.Monitor.create index in
  let _ = Core.Monitor.add mon curriculum in
  let _ = Core.Monitor.add mon enrolment in
  ignore (Core.Monitor.validate mon);
  Core.Monitor.insert mon ~table_name:"course" [| 29; 1 |];
  let reports = Core.Monitor.validate mon in
  check "area 1: curriculum cached" false (fresh_of reports curriculum);
  check "area 1: enrolment cached" false (fresh_of reports enrolment);
  Core.Monitor.insert mon ~table_name:"course" [| 29; 0 |];
  let reports = Core.Monitor.validate mon in
  check "area 0: curriculum re-checked" true (fresh_of reports curriculum);
  check "area 0: enrolment cached" false (fresh_of reports enrolment)

(* Each report agrees with a fresh check of its spec on the same index:
   outcome, and for a soft spec the exact counts. *)
let agrees_with_fresh_check index (r : Core.Monitor.report) =
  let reg = r.Core.Monitor.constraint_ in
  let spec = { Core.Formula.threshold = reg.Core.Monitor.threshold; formula = reg.formula } in
  let fresh = Core.Checker.check_spec index spec in
  let counts = Option.map (fun rt -> (rt.C.violations, rt.C.total)) in
  r.Core.Monitor.outcome = fresh.C.outcome
  && Option.equal
       (fun (v, t) (v', t') -> Fcv_bdd.Nat.equal v v' && Fcv_bdd.Nat.equal t t')
       (counts r.Core.Monitor.rate) (counts fresh.C.rate)

(* r(a: d1, b: d2) and t(a: d1) with t holding all of d1 = {0, 1, 2}:
   [forall x . t(x)] holds until d1 gains a code.  A mutation of r
   that interns one grows d1 for t too — by an insert, or by a delete
   that changes no row — so the cached verdict must not survive it. *)
let test_domain_growth_rechecks () =
  List.iter
    (fun (what, mutate) ->
      let db = Gen.random_db 5 in
      let t = R.Database.table db "t" in
      for a = 0 to Gen.d1_size - 1 do
        if not (R.Table.mem_coded t [| a |]) then
          R.Table.insert_coded t [| a |]
      done;
      let index = Core.Index.create db in
      let mon = Core.Monitor.create index in
      let _ = Core.Monitor.add mon "forall x . t(x)" in
      check (what ^ ": holds on d1 = {0, 1, 2}") true
        (List.for_all (fun r -> r.Core.Monitor.outcome = C.Satisfied) (Core.Monitor.validate mon));
      let d1 = R.Table.dict (R.Database.table db "r") 0 in
      mutate mon (R.Dict.intern d1 (R.Value.Int 3));
      match Core.Monitor.validate mon with
      | [ r ] ->
        check (what ^ ": re-checked") true r.Core.Monitor.fresh;
        check (what ^ ": violated") true (r.Core.Monitor.outcome = C.Violated);
        check (what ^ ": agrees with check_spec") true (agrees_with_fresh_check index r);
        check (what ^ ": agrees with Naive_eval") false
          (Core.Naive_eval.holds db r.Core.Monitor.constraint_.Core.Monitor.formula)
      | _ -> Alcotest.fail "expected one report")
    [
      ("insert r(3, 1)", fun mon a -> Core.Monitor.insert mon ~table_name:"r" [| a; 1 |]);
      ( "delete of absent r(3, 1)",
        fun mon a ->
          check "nothing removed" false (Core.Monitor.delete mon ~table_name:"r" [| a; 1 |]) );
    ]

(* A row that misses an atom's constants leaves the constraint cached;
   a row that carries them re-checks it, also when the constant entered
   the dictionary only after registration. *)
let test_constants_scope_staleness () =
  let db, index = setup () in
  let course = R.Database.table db "course" in
  let area = R.Table.dict course 1 in
  let mon = Core.Monitor.create index in
  let no_area_99 = "forall c . not course(c, 99)" in
  let _ = Core.Monitor.add mon no_area_99 in
  let _ = Core.Monitor.add mon curriculum in
  ignore (Core.Monitor.validate mon);
  Core.Monitor.insert mon ~table_name:"course" [| 3; 1 |];
  let reports = Core.Monitor.validate mon in
  check "area 1 misses course(c, 99)" false (fresh_of reports no_area_99);
  check "area 1 misses course(c, 0)" false (fresh_of reports curriculum);
  (* the row interns 99: both the constant and the dictionary are new *)
  let a99 = R.Dict.intern area (R.Value.Int 99) in
  Core.Monitor.insert mon ~table_name:"course" [| 4; a99 |];
  let reports = Core.Monitor.validate mon in
  check "course(4, 99) re-checks it" true (fresh_of reports no_area_99);
  check "and finds the violation" true
    (List.exists
       (fun r -> r.Core.Monitor.fresh && r.Core.Monitor.outcome = C.Violated)
       reports);
  check "every report agrees with check_spec" true
    (List.for_all (agrees_with_fresh_check index) reports);
  ignore (Core.Monitor.delete mon ~table_name:"course" [| 4; a99 |]);
  let reports = Core.Monitor.validate mon in
  check "its delete re-checks it" true (fresh_of reports no_area_99);
  check "satisfied again" true (List.for_all (fun r -> r.Core.Monitor.outcome = C.Satisfied) reports);
  (* 99 is in the dictionary now: a later row carrying it still matches *)
  Core.Monitor.insert mon ~table_name:"course" [| 5; a99 |];
  let reports = Core.Monitor.validate mon in
  check "a later course(5, 99) re-checks it" true (fresh_of reports no_area_99);
  check "the row misses course(c, 0)" false (fresh_of reports curriculum);
  check "every later report agrees with check_spec" true
    (List.for_all (agrees_with_fresh_check index) reports)

(* watch's join shapes on the university data: a row changes a policy
   [student(s, d, _) -> ... course(c, a)] only when one lookup finds
   its student in department d and its course in area a, and a
   reference only when its partner row is missing. *)
let student_ref = "forall s, c . takes(s, c) -> (exists d, k . student(s, d, k))"

let test_join_partners_scope_staleness () =
  let db, index = setup () in
  let soft_curriculum = "holds >= 0.9 . " ^ curriculum in
  let mon = Core.Monitor.create index in
  List.iter
    (fun src -> ignore (Core.Monitor.add mon src))
    [ curriculum; referential; student_ref; soft_curriculum ];
  ignore (Core.Monitor.validate mon);
  let dept s =
    R.Table.fold (R.Database.table db "student") ~init:(-1) ~f:(fun d r ->
        if r.(0) = s then r.(1) else d)
  in
  let takes s c = R.Table.mem_coded (R.Database.table db "takes") [| s; c |] in
  (* course c is in area c mod 10 *)
  check "student 1 is outside department 0" true (dept 1 <> 0);
  check "students 0 and 2 are in department 0" true (dept 0 = 0 && dept 2 = 0);
  let pass what ~curriculum:c ~referential:r =
    let reports = Core.Monitor.validate mon in
    check (what ^ ": curriculum") c (fresh_of reports curriculum);
    check (what ^ ": referential") r (fresh_of reports referential);
    check (what ^ ": every report agrees with check_spec") true
      (List.for_all (agrees_with_fresh_check index) reports);
    reports
  in
  let enrol what s c ~curriculum:cur ~referential:r =
    check (what ^ ": a new enrolment") false (takes s c);
    Core.Monitor.insert mon ~table_name:"takes" [| s; c |];
    let reports = pass what ~curriculum:cur ~referential:r in
    check (what ^ ": the student's row exists") false (fresh_of reports student_ref);
    check (what ^ ": the soft twin is re-checked") true (fresh_of reports soft_curriculum);
    reports
  in
  ignore (enrol "outside department 0" 1 0 ~curriculum:false ~referential:false);
  ignore (enrol "department 0, area 1" 0 21 ~curriculum:false ~referential:false);
  ignore (enrol "department 0, area 0" 0 10 ~curriculum:true ~referential:false);
  (* course 7 loses its takers, then its row *)
  let takers =
    R.Table.fold (R.Database.table db "takes") ~init:[] ~f:(fun acc r ->
        if r.(1) = 7 then Array.copy r :: acc else acc)
  in
  List.iter (fun r -> ignore (Core.Monitor.delete mon ~table_name:"takes" r)) takers;
  ignore (Core.Monitor.validate mon);
  check "course 7 had takers, and has none" true
    (takers <> [] && not (List.exists (fun r -> takes r.(0) 7) takers));
  check "its row is removed" true (Core.Monitor.delete mon ~table_name:"course" [| 7; 7 |]);
  ignore (pass "the row of a course nobody takes" ~curriculum:false ~referential:false);
  let reports = enrol "into the removed course" 1 7 ~curriculum:false ~referential:true in
  check "the dangling enrolment violates referential" true
    (List.exists
       (fun r ->
         r.Core.Monitor.constraint_.Core.Monitor.source = referential
         && r.Core.Monitor.outcome = C.Violated)
       reports);
  (* student 2 loses its area-0 course, enrols in area-1 course 21, and
     course 21 moves to area 0 *)
  check "student 2 takes area-0 course 10" true (takes 2 10);
  ignore (Core.Monitor.delete mon ~table_name:"takes" [| 2; 10 |]);
  ignore (pass "student 2 drops course 10" ~curriculum:true ~referential:false);
  ignore (enrol "student 2, area 1" 2 21 ~curriculum:false ~referential:false);
  ignore (Core.Monitor.delete mon ~table_name:"course" [| 21; 1 |]);
  Core.Monitor.insert mon ~table_name:"course" [| 21; 0 |];
  let reports = Core.Monitor.validate mon in
  check "the move re-checks curriculum" true (fresh_of reports curriculum);
  check "and every report agrees with check_spec" true
    (List.for_all (agrees_with_fresh_check index) reports)

(* Gen's schema r(a: d1, b: d2), s(b: d2, c: d3), t(a: d1) with the
   given rows. *)
let db_of rows =
  let db = Gen.random_db 0 in
  List.iter
    (fun name ->
      let tbl = R.Database.table db name in
      List.iter (fun r -> ignore (R.Table.delete_coded tbl r)) (R.Table.to_list tbl))
    [ "r"; "s"; "t" ];
  List.iter (fun (name, row) -> R.Table.insert_coded (R.Database.table db name) row) rows;
  db

(* Each case of the lookup rule on one constraint and one mutation:
   whether the next pass re-checks the constraint, and that its report
   equals a fresh check. *)
let test_lookup_rule () =
  let case what ~rows ~src ~mutate ~fresh =
    let db = db_of rows in
    let index = Core.Index.create db in
    let mon = Core.Monitor.create index in
    ignore (Core.Monitor.add mon src);
    ignore (Core.Monitor.validate mon);
    mutate mon;
    match Core.Monitor.validate mon with
    | [ r ] ->
      check (what ^ ": re-checked") fresh r.Core.Monitor.fresh;
      check (what ^ ": agrees with check_spec") true (agrees_with_fresh_check index r)
    | _ -> Alcotest.fail "expected one report"
  in
  let insert table row mon = Core.Monitor.insert mon ~table_name:table row in
  let delete table row mon =
    check "a present row" true (Core.Monitor.delete mon ~table_name:table row)
  in
  (* ∃x. t(x) ∧ ∀y. (¬r(x, y) ∨ ¬s(y, 0)) *)
  let chain = "forall x . t(x) -> (exists y . r(x, y) and s(y, 0))" in
  case "no t(1): a positive conjunct no row matches" ~rows:[ ("s", [| 2; 0 |]) ] ~src:chain
    ~mutate:(insert "r" [| 1; 2 |]) ~fresh:false;
  case "no s(2, 0): a negated disjunct no row matches" ~rows:[ ("t", [| 1 |]) ] ~src:chain
    ~mutate:(insert "r" [| 1; 2 |]) ~fresh:false;
  case "t(1) and s(2, 0): neither blocks" ~rows:[ ("t", [| 1 |]); ("s", [| 2; 0 |]) ]
    ~src:chain ~mutate:(insert "r" [| 1; 2 |]) ~fresh:true;
  case "r(1, 2) found, x unfixed: the negated disjunct does not block"
    ~rows:[ ("t", [| 1 |]); ("r", [| 1; 2 |]) ]
    ~src:chain ~mutate:(insert "s" [| 2; 0 |]) ~fresh:true;
  case "d3 lacks 7: s(y, 7) matches no row"
    ~rows:[ ("t", [| 1 |]); ("s", [| 2; 0 |]) ]
    ~src:"forall x . t(x) -> (exists y . r(x, y) and s(y, 7))"
    ~mutate:(insert "r" [| 1; 2 |]) ~fresh:false;
  (* ∃x, y. r(x, y) ∧ ¬s(y, _) *)
  let reference = "forall x, y . r(x, y) -> (exists z . s(y, z))" in
  case "s(2, _) present: a negated conjunct, fully fixed" ~rows:[ ("s", [| 2; 1 |]) ]
    ~src:reference ~mutate:(insert "r" [| 0; 2 |]) ~fresh:false;
  case "s(2, _) absent" ~rows:[ ("s", [| 3; 1 |]) ] ~src:reference
    ~mutate:(insert "r" [| 0; 2 |]) ~fresh:true;
  case "r(x, 2) found, x unfixed: the positive conjunct does not block"
    ~rows:[ ("r", [| 0; 2 |]); ("s", [| 2; 1 |]) ]
    ~src:reference ~mutate:(delete "s" [| 2; 1 |]) ~fresh:true;
  case "a soft spec marks by constants alone" ~rows:[ ("s", [| 2; 1 |]) ]
    ~src:("holds >= 0.5 . " ^ reference) ~mutate:(insert "r" [| 0; 2 |]) ~fresh:true;
  (* ∃x. ¬t(x) ∨ r(x, 1) *)
  let disjunction = "forall x . t(x) and not r(x, 1)" in
  case "r(0, 1) present: a positive disjunct, fully fixed" ~rows:[ ("r", [| 0; 1 |]) ]
    ~src:disjunction ~mutate:(insert "t" [| 0 |]) ~fresh:false;
  case "r(0, 1) absent" ~rows:[ ("r", [| 0; 2 |]) ] ~src:disjunction
    ~mutate:(insert "t" [| 0 |]) ~fresh:true;
  (* ∃x. t(x) ∧ t(x): each t(x) beside the other is over the row's own
     table, whose rows the mutation changes *)
  case "a literal over the row's own table never blocks" ~rows:[ ("t", [| 1 |]) ]
    ~src:"forall x . t(x) -> not t(x)" ~mutate:(delete "t" [| 1 |]) ~fresh:true

(* A registration under a taken id is rejected before any index is
   built for it. *)
let test_rejected_id_builds_no_index () =
  let _, index = setup () in
  let mon = Core.Monitor.create index in
  let reg = Core.Monitor.add mon referential in
  let before = Core.Index.entries index in
  check_int "takes and course indexed" 2 (List.length before);
  (match Core.Monitor.add ~id:reg.Core.Monitor.id mon curriculum with
  | _ -> Alcotest.fail "expected the taken id to be rejected"
  | exception Invalid_argument _ -> ());
  check "entries unchanged" true (Core.Index.entries index == before);
  check_int "no student entry" 0 (List.length (Core.Index.entries_for index "student"))

let test_monitor_delete_path () =
  let db, index = setup () in
  let mon = Core.Monitor.create index in
  let _ = Core.Monitor.add mon enrolment in
  ignore (Core.Monitor.validate mon);
  (* removing every enrolment of student 0 violates the policy *)
  let takes = Fcv_relation.Database.table db "takes" in
  let victims = ref [] in
  Fcv_relation.Table.iter takes (fun row -> if row.(0) = 0 then victims := Array.copy row :: !victims);
  List.iter (fun row -> ignore (Core.Monitor.delete mon ~table_name:"takes" row)) !victims;
  let reports = Core.Monitor.validate mon in
  check "violated after deletes" true
    (List.exists (fun r -> r.Core.Monitor.outcome = C.Violated) reports)

let test_monitor_remove () =
  let _, index = setup () in
  let mon = Core.Monitor.create index in
  let reg = Core.Monitor.add mon curriculum in
  Core.Monitor.remove mon reg.Core.Monitor.id;
  check_int "no constraints left" 0 (List.length (Core.Monitor.validate mon))

(* Regression: Monitor.remove used to leak the removed constraint's
   index entries and BDD roots forever (and never invalidated
   replicas) — unregistering the last constraint on a table must free
   its nodes on the next GC. *)
let test_remove_frees_index_memory () =
  let _, index = setup () in
  let mon = Core.Monitor.create index in
  let reg = Core.Monitor.add mon referential in
  ignore (Core.Monitor.validate mon);
  check "entries built" true (Core.Index.entries index <> []);
  Core.Monitor.remove mon reg.Core.Monitor.id;
  check_int "takes entries dropped" 0 (List.length (Core.Index.entries_for index "takes"));
  check_int "course entries dropped" 0 (List.length (Core.Index.entries_for index "course"));
  ignore (Core.Monitor.gc mon);
  (* nothing is live: the GC collapses the store to the terminals *)
  check_int "all nodes freed on next GC" 2 (Fcv_bdd.Manager.size (Core.Index.mgr index))

(* Removing one constraint must keep entries on tables another
   registered constraint still watches. *)
let test_remove_keeps_shared_tables () =
  let _, index = setup () in
  let mon = Core.Monitor.create index in
  let r1 = Core.Monitor.add mon curriculum in
  let _ = Core.Monitor.add mon enrolment in
  (* both watch student and takes; only curriculum watches course *)
  Core.Monitor.remove mon r1.Core.Monitor.id;
  check "student entries kept" true (Core.Index.entries_for index "student" <> []);
  check "takes entries kept" true (Core.Index.entries_for index "takes" <> []);
  check_int "course entries dropped" 0 (List.length (Core.Index.entries_for index "course"));
  (* the survivor still validates correctly *)
  check "enrolment still satisfied" true
    (List.for_all
       (fun r -> r.Core.Monitor.outcome = C.Satisfied)
       (Core.Monitor.validate mon))

(* Regression: a node-budget trip inside ensure_indices used to leave
   partially-built index entries behind with the registration failed. *)
let test_add_budget_trip_rolls_back () =
  let rng = Fcv_util.Rng.create 17 in
  let db, _, _, _ =
    Fcv_datagen.University.generate rng
      { Fcv_datagen.University.default with students = 120; courses = 30 }
  in
  (* a budget too small to build the university indices *)
  let index = Core.Index.create ~max_nodes:30 db in
  let mon = Core.Monitor.create index in
  (match Core.Monitor.add mon curriculum with
  | _ -> Alcotest.fail "expected Node_limit"
  | exception Fcv_bdd.Manager.Node_limit _ -> ());
  check_int "no constraint registered" 0 (List.length (Core.Monitor.constraints mon));
  check_int "no partial entries left" 0 (List.length (Core.Index.entries index));
  (* the monitor is still usable once the budget allows *)
  Fcv_bdd.Manager.set_max_nodes (Core.Index.mgr index) 0;
  let reg = Core.Monitor.add mon curriculum in
  check "registers cleanly afterwards" true (reg.Core.Monitor.id >= 0);
  check "validates" true (Core.Monitor.validate mon <> [])

(* Registration used to be a quadratic [l @ [reg]]; the O(1) prepend
   must still present constraints oldest-first with increasing ids. *)
let test_add_preserves_order () =
  let _, index = setup () in
  let mon = Core.Monitor.create index in
  let r1 = Core.Monitor.add mon curriculum in
  let r2 = Core.Monitor.add mon enrolment in
  let r3 = Core.Monitor.add mon referential in
  check "ids increase" true (r1.Core.Monitor.id < r2.Core.Monitor.id && r2.Core.Monitor.id < r3.Core.Monitor.id);
  check "constraints oldest first" true
    (List.map (fun r -> r.Core.Monitor.id) (Core.Monitor.constraints mon)
    = [ r1.Core.Monitor.id; r2.Core.Monitor.id; r3.Core.Monitor.id ]);
  (* reports come back in registration order too *)
  check "reports in registration order" true
    (List.map (fun r -> r.Core.Monitor.constraint_.Core.Monitor.id) (Core.Monitor.validate mon)
    = [ r1.Core.Monitor.id; r2.Core.Monitor.id; r3.Core.Monitor.id ])

(* -- property: a cached verdict is the verdict a fresh check gives ---------- *)

(* One burst of 2–6 mutations on Gen's schema r(a: d1, b: d2),
   s(b: d2, c: d3), t(a: d1): deletes of present rows, inserts of
   absent rows, and (at most [grow] times a case) inserts whose row
   interns a new value into d1 or d2, each shared by two tables. *)
let burst rng mon db grow =
  let table name = R.Database.table db name in
  let pick l = List.nth l (Fcv_util.Rng.int rng (List.length l)) in
  let random_row tbl =
    Array.init (R.Table.arity tbl) (fun j ->
        Fcv_util.Rng.int rng (max 1 (R.Dict.size (R.Table.dict tbl j))))
  in
  for _ = 1 to 2 + Fcv_util.Rng.int rng 5 do
    match Fcv_util.Rng.int rng 3 with
    | 0 -> (
      let name = pick [ "r"; "s"; "t" ] in
      let tbl = table name in
      match R.Table.cardinality tbl with
      | 0 -> ()
      | n ->
        let row = Array.copy (R.Table.row tbl (Fcv_util.Rng.int rng n)) in
        check "a present row is removed" true (Core.Monitor.delete mon ~table_name:name row))
    | 1 ->
      let name = pick [ "r"; "s"; "t" ] in
      let row = random_row (table name) in
      if not (R.Table.mem_coded (table name) row) then
        Core.Monitor.insert mon ~table_name:name row
    | _ when !grow > 0 ->
      decr grow;
      (* a new code in a column whose domain another table shares *)
      let name, col = pick [ ("r", 0); ("t", 0); ("r", 1); ("s", 0) ] in
      let tbl = table name in
      let dict = R.Table.dict tbl col in
      let row = random_row tbl in
      row.(col) <- R.Dict.intern dict (R.Value.Int (R.Dict.size dict));
      Core.Monitor.insert mon ~table_name:name row
    | _ -> ()
  done

let soft_threshold =
  QCheck.Gen.(frequency [ (2, return None); (1, map Option.some (oneofl [ 0.5; 0.75; 0.9 ])) ])

(* Join shapes over r, s and t whose blockers fire in most cases, with
   random constants; a constant of [d2_size] or [d3_size] is one the
   dictionary lacks (a burst may intern [d2_size] later).  The last
   joins t with itself: its blockers over the row's own table must not
   fire. *)
let join_template =
  QCheck.Gen.(
    let* k2 = int_bound Gen.d2_size in
    let* k3 = int_bound Gen.d3_size in
    let+ shape =
      oneofl
        [
          Printf.sprintf "forall x . t(x) -> (exists y . r(x, y) and s(y, %d))" k3;
          "forall x, y . r(x, y) -> (exists z . s(y, z))";
          Printf.sprintf "forall x, y . r(x, y) -> (t(x) or s(y, %d))" k3;
          Printf.sprintf "forall x . t(x) and not r(x, %d)" k2;
          "forall y, z . s(y, z) -> (exists x . r(x, y) and t(x))";
          Printf.sprintf "forall x, y . not (r(x, y) and t(x) and t(x) and s(y, %d))" k3;
        ]
    in
    Core.Fol_parser.of_string shape)

let prop_cached_verdicts_are_fresh =
  QCheck.Test.make ~count:150
    ~name:"monitor: every report equals a fresh check_spec after each burst"
    (QCheck.make
       ~print:(fun (seed, cs, stream) ->
         Printf.sprintf "db seed %d, stream seed %d:\n%s" seed stream
           (String.concat "\n"
              (List.map
                 (fun (f, p) ->
                   Core.Formula.spec_to_string
                     { threshold = Option.value ~default:1.0 p; formula = Gen.close f })
                 cs)))
       QCheck.Gen.(
         triple (int_bound 1_000)
           (list_size (int_range 3 5)
              (pair (oneof [ Gen.formula_gen; join_template ]) soft_threshold))
           (int_bound 1_000)))
    (fun (seed, cs, stream) ->
      let db = Gen.random_db seed in
      let index = Core.Index.create db in
      let mon = Core.Monitor.create index in
      List.iter
        (fun (f, p) ->
          let spec = { Core.Formula.threshold = Option.value ~default:1.0 p; formula = Gen.close f } in
          try ignore (Core.Monitor.add mon (Core.Formula.spec_to_string spec))
          with Core.Typing.Type_error _ -> ())
        cs;
      let rng = Fcv_util.Rng.create stream in
      let grow = ref 3 in
      let agree () = List.for_all (agrees_with_fresh_check index) (Core.Monitor.validate mon) in
      let ok = ref (agree ()) in
      for _ = 1 to 4 do
        burst rng mon db grow;
        ok := !ok && agree ()
      done;
      !ok)

(* -- inclusion dependencies -------------------------------------------------- *)

let test_ind () =
  let db, index = setup () in
  Core.Checker.ensure_indices index
    [ Core.Fol_parser.of_string referential; Core.Fol_parser.of_string enrolment ];
  (* takes[course_id] ⊆ course[course_id] holds by construction *)
  check "takes.course in course" true
    (Core.Fd_check.ind_holds index ~r:"takes" ~attrs_r:[ "course_id" ] ~s:"course"
       ~attrs_s:[ "course_id" ]);
  check "takes.student in student" true
    (Core.Fd_check.ind_holds index ~r:"takes" ~attrs_r:[ "student_id" ] ~s:"student"
       ~attrs_s:[ "student_id" ]);
  (* break it: a takes row referencing a course that exists only if
     inserted; first verify direction sensitivity via reverse IND *)
  let course = Fcv_relation.Database.table db "course" in
  let reverse =
    Core.Fd_check.ind_holds index ~r:"course" ~attrs_r:[ "course_id" ] ~s:"takes"
      ~attrs_s:[ "course_id" ]
  in
  let takes = Fcv_relation.Database.table db "takes" in
  let taken = Hashtbl.create 64 in
  Fcv_relation.Table.iter takes (fun row -> Hashtbl.replace taken row.(1) ());
  check "reverse IND matches ground truth"
    (Fcv_relation.Table.fold course ~init:true ~f:(fun acc row -> acc && Hashtbl.mem taken row.(0)))
    reverse;
  (* arity mismatch rejected *)
  check "arity mismatch" true
    (match
       Core.Fd_check.ind_holds index ~r:"takes" ~attrs_r:[ "course_id" ] ~s:"course"
         ~attrs_s:[]
     with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_ind_violation_detected () =
  let db, index = setup () in
  Core.Checker.ensure_indices index [ Core.Fol_parser.of_string referential ];
  (* insert an enrolment for a course id that no course row defines;
     course ids live in a domain of size [courses], so use a code that
     is in-domain but absent from the course table *)
  let course = Fcv_relation.Database.table db "course" in
  let present = Hashtbl.create 32 in
  Fcv_relation.Table.iter course (fun row -> Hashtbl.replace present row.(0) ());
  (* all 30 course ids exist by construction: delete one and re-check *)
  let victim = Fcv_relation.Table.row course 0 in
  let cid = victim.(0) in
  ignore (Core.Index.delete index ~table_name:"course" (Array.copy victim));
  check "IND broken after delete" true
    (Core.Fd_check.ind_holds index ~r:"takes" ~attrs_r:[ "course_id" ] ~s:"course"
       ~attrs_s:[ "course_id" ]
    = false);
  ignore cid

let suite =
  [
    Alcotest.test_case "monitor basics" `Quick test_monitor_basic;
    Alcotest.test_case "monitor caches clean constraints" `Quick test_monitor_caches_clean_constraints;
    Alcotest.test_case "monitor detects injected violation" `Quick test_monitor_detects_injected_violation;
    Alcotest.test_case "monitor dirty scoping" `Quick test_monitor_dirty_scoping;
    Alcotest.test_case "a grown domain re-checks its constraints" `Quick
      test_domain_growth_rechecks;
    Alcotest.test_case "constants scope staleness" `Quick test_constants_scope_staleness;
    Alcotest.test_case "join partners scope staleness" `Quick test_join_partners_scope_staleness;
    Alcotest.test_case "the lookup rule, case by case" `Quick test_lookup_rule;
    Alcotest.test_case "a rejected id builds no index" `Quick test_rejected_id_builds_no_index;
    Alcotest.test_case "mark_dirty re-checks every pass" `Quick test_mark_dirty_rechecks;
    Alcotest.test_case "monitor delete path" `Quick test_monitor_delete_path;
    Alcotest.test_case "monitor remove" `Quick test_monitor_remove;
    Alcotest.test_case "remove frees index memory on next GC" `Quick test_remove_frees_index_memory;
    Alcotest.test_case "remove keeps entries shared with survivors" `Quick test_remove_keeps_shared_tables;
    Alcotest.test_case "add rolls back on budget trip" `Quick test_add_budget_trip_rolls_back;
    Alcotest.test_case "add keeps registration order" `Quick test_add_preserves_order;
    Alcotest.test_case "inclusion dependencies" `Quick test_ind;
    Alcotest.test_case "IND violation detected" `Quick test_ind_violation_detected;
    Gen.qcheck_case prop_cached_verdicts_are_fresh;
  ]

let () = Registry.register "monitor" suite
