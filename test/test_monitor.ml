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
           (list_size (int_range 3 5) (pair Gen.formula_gen soft_threshold))
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
