(** Approximate (thresholded) constraints: the exact sat-count
    machinery ({!Fcv_bdd.Nat}, {!Core.Checker.clears}), the [holds >=
    p .] concrete syntax, the soft-check differential against the
    naive recount, the p = 1.0 ≡ hard metamorphism, and the soft flow
    through monitor, protocol and repair.

    Includes the count-precision regression: a near-threshold rate
    whose float-rounded sat-counts land {e exactly on} the threshold
    — the pre-fix float comparison reports Satisfied, the exact
    comparison correctly reports Violated. *)

module C = Core.Checker
module F = Core.Formula
module N = Fcv_bdd.Nat
module M = Fcv_bdd.Manager
module O = Fcv_bdd.Ops
module Sat = Fcv_bdd.Sat

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)
let same_float a b = Int64.bits_of_float a = Int64.bits_of_float b

(* -- the count-precision fix ------------------------------------------- *)

(* A planted BDD with exactly 2^54 + 1 models over 55 variables:
   var0, plus the single ¬var0 point where vars 1..54 are all set.
   The float walk cannot represent the +1 (spacing at that magnitude
   is 2; ties-to-even rounds to 2^54), the Nat walk can. *)
let test_exact_count_beyond_float () =
  let m = M.create ~nvars:55 () in
  let point =
    List.fold_left
      (fun acc i -> O.band m acc (M.ithvar m i))
      M.one
      (List.init 54 (fun i -> i + 1))
  in
  let root = O.bor m (M.ithvar m 0) (O.band m (O.neg m (M.ithvar m 0)) point) in
  let exact = Sat.count_exact m root in
  check_string "exact count is 2^54 + 1" "18014398509481985" (N.to_string exact);
  check "float count rounds the +1 away" true (Sat.count m root = ldexp 1. 54);
  check "Nat.to_float agrees with the float walk" true
    (N.to_float exact = ldexp 1. 54)

(* The regression ISSUE.md describes: violations = 2^53 + 1 over
   total = 2^55 bindings gives a satisfied fraction of exactly
   0.75 - 2^-55, strictly below a 0.75 threshold.  Rounding the
   violation count to float loses the +1 (ties-to-even), the ratio
   computes to exactly 0.75, and the float comparison flips the
   verdict to Satisfied.  The exact comparison must not. *)
let test_clears_near_threshold () =
  let violations = N.add (N.shift_left N.one 53) N.one in
  let total = N.shift_left N.one 55 in
  let threshold = 0.75 in
  (* the pre-fix arithmetic: float counts, float ratio, float compare *)
  let float_satisfied =
    (N.to_float total -. N.to_float violations) /. N.to_float total >= threshold
  in
  check "float comparison wrongly satisfies" true float_satisfied;
  check "exact comparison correctly violates" false
    (C.clears ~threshold ~violations ~total);
  (* one fewer violation sits exactly on the boundary and must clear *)
  check "boundary rate clears" true
    (C.clears ~threshold ~violations:(N.shift_left N.one 53) ~total);
  (* sanity far from the boundary, both directions *)
  check "clean clears" true
    (C.clears ~threshold:0.999 ~violations:N.zero ~total:(N.of_int 1000));
  check "dirty fails" false
    (C.clears ~threshold:0.999 ~violations:(N.of_int 2) ~total:(N.of_int 1000));
  (* zero total is vacuous at any threshold *)
  check "vacuous" true (C.clears ~threshold:1.0 ~violations:N.zero ~total:N.zero)

(* -- concrete syntax ---------------------------------------------------- *)

let test_spec_parsing () =
  let fd = "forall s, l1, l2 . readings(s, l1) and readings(s, l2) -> l1 = l2" in
  let s = Core.Fol_parser.spec_of_string ("holds >= 0.999 . " ^ fd) in
  check "threshold parsed bit-for-bit" true (same_float s.F.threshold 0.999);
  check "formula parsed" true (s.F.formula = Core.Fol_parser.of_string fd);
  check "soft spec is not hard" false (F.is_hard s);
  (* the optional "on" reads naturally in prose *)
  let s2 = Core.Fol_parser.spec_of_string ("holds on >= 0.5 . " ^ fd) in
  check "holds-on form" true (same_float s2.F.threshold 0.5);
  (* integer literal 1 is the hard threshold *)
  let s3 = Core.Fol_parser.spec_of_string ("holds >= 1 . " ^ fd) in
  check "p = 1 is hard" true (F.is_hard s3);
  (* no prefix: hard *)
  let s4 = Core.Fol_parser.spec_of_string fd in
  check "plain formula is hard" true
    (F.is_hard s4 && s4.F.formula = Core.Fol_parser.of_string fd);
  (* spec_to_string round-trips, threshold bit-for-bit *)
  List.iter
    (fun p ->
      let sp = { F.threshold = p; formula = Core.Fol_parser.of_string fd } in
      let back = Core.Fol_parser.spec_of_string (F.spec_to_string sp) in
      check
        (Printf.sprintf "round-trip threshold %.17g" p)
        true
        (same_float back.F.threshold p && back.F.formula = sp.F.formula))
    [ 0.999; 0.5; 1.0; 0.1; 1. -. ldexp 1. (-20); 0.123456789012345; ldexp 1. (-10) ];
  (* out-of-range thresholds are parse errors *)
  List.iter
    (fun bad ->
      match Core.Fol_parser.spec_of_string (bad ^ fd) with
      | exception Core.Fol_parser.Error _ -> ()
      | _ -> Alcotest.fail ("accepted out-of-range threshold: " ^ bad))
    [ "holds >= 0 . "; "holds >= 0.0 . "; "holds >= 1.5 . "; "holds >= 2 . " ];
  (* trailing garbage after the formula is still rejected *)
  (match Core.Fol_parser.spec_of_string ("holds >= 0.9 . " ^ fd ^ " junk") with
  | exception Core.Fol_parser.Error _ -> ()
  | _ -> Alcotest.fail "accepted trailing garbage")

(* -- p = 1.0 is exactly the classical checker --------------------------- *)

let prop_hard_spec_is_check =
  QCheck.Test.make ~count:100 ~name:"check_spec at p = 1.0 is check (rate = None)"
    (QCheck.pair Gen.formula_arbitrary (QCheck.int_range 0 1_000))
    (fun (f, seed) ->
      let f = Gen.close f in
      let db = Gen.random_db seed in
      match Core.Typing.infer db f with
      | exception Core.Typing.Type_error _ -> true
      | _ ->
        let index = Core.Index.create db in
        C.ensure_indices index [ f ];
        let hard = C.check index f in
        let spec = C.check_spec index (F.hard f) in
        spec.C.outcome = hard.C.outcome
        && spec.C.rate = None
        && spec.C.method_used = hard.C.method_used)

(* -- soft differential: checker vs naive recount ------------------------ *)

let thresholds = [| 0.1; 0.25; 0.5; 0.75; 0.9; 0.999 |]

(* The BDD rate counts over the grounded witness space (vacuous
   ∀-variables are projected away); the naive recount enumerates every
   binding.  Both scale numerator and denominator by the same factor,
   so outcomes agree exactly and the correctly-rounded float ratios
   agree bit for bit — that is what this property pins down.  The
   bit-for-bit {e count} equality (no vacuity in play) is asserted on
   the FD acceptance test below. *)
let prop_soft_differential =
  QCheck.Test.make ~count:150
    ~name:"soft verdict and rate agree with the naive recount at every threshold"
    (QCheck.triple Gen.formula_arbitrary (QCheck.int_range 0 1_000)
       (QCheck.int_range 0 (Array.length thresholds - 1)))
    (fun (f, seed, ti) ->
      let f = Gen.close f in
      let db = Gen.random_db seed in
      match Core.Typing.infer db f with
      | exception Core.Typing.Type_error _ -> true
      | typing ->
        let threshold = thresholds.(ti) in
        let spec = { F.threshold; formula = f } in
        let nv, nt = Core.Naive_eval.soft_counts ~typing db f in
        let expected_outcome =
          if C.clears ~threshold ~violations:(N.of_int nv) ~total:(N.of_int nt) then
            C.Satisfied
          else C.Violated
        in
        let expected_ratio = if nt = 0 then 0. else float_of_int nv /. float_of_int nt in
        let index = Core.Index.create db in
        C.ensure_indices index [ f ];
        let agrees r =
          r.C.outcome = expected_outcome
          &&
          match r.C.rate with
          | None -> false
          | Some rt ->
            same_float rt.C.ratio expected_ratio
            && same_float rt.C.threshold threshold
            && N.compare rt.C.violations rt.C.total <= 0
        in
        let bdd = C.check_spec index spec in
        let sql = C.check_spec ~strategy:C.Force_sql index spec in
        (* the naive-recount path must reproduce the counts themselves *)
        let sql_counts_exact =
          match sql.C.rate with
          | Some rt ->
            N.to_int_opt rt.C.violations = Some nv && N.to_int_opt rt.C.total = Some nt
          | None -> false
        in
        agrees bdd && agrees sql && sql_counts_exact
        &&
        (* a node budget too tight to compile anything: the fallback
           recount must agree too *)
        let mgr = Core.Index.mgr index in
        Fcv_bdd.Manager.set_max_nodes mgr (Fcv_bdd.Manager.size mgr + 8);
        agrees (C.check_spec index spec))

(* Soft counts range over the constraint's own leading ∀-block on every
   route: Auto (BDD) and Force_sql (the naive recount) both read the
   counts {!Core.Naive_eval.soft_counts} enumerates.  Both shapes below
   once read different rates on the two routes. *)
let soft_counts_agree src () =
  let db = Gen.random_db 3 in
  let spec = Core.Fol_parser.spec_of_string src in
  let nv, nt = Core.Naive_eval.soft_counts db spec.F.formula in
  let index = Core.Index.create db in
  C.ensure_indices index [ spec.F.formula ];
  List.iter
    (fun (label, strategy, method_used) ->
      let r = C.check_spec ~strategy index spec in
      check (label ^ ": engine") true (r.C.method_used = method_used);
      match r.C.rate with
      | None -> Alcotest.fail (label ^ ": soft check reported no rate")
      | Some rt ->
        check (label ^ ": violations = naive") true (N.to_int_opt rt.C.violations = Some nv);
        check (label ^ ": bindings = naive") true (N.to_int_opt rt.C.total = Some nt))
    [ ("auto", C.Auto, C.Bdd); ("sql", C.Force_sql, C.Naive) ]

(* A witness whose atom matches no row gets no block from that atom,
   and once its domain has outgrown the entry's block (a code interned
   through another table) no entry block can host it either; every
   value of the domain is still a binding to count and to list:
   [forall x . r(x, 0)] with no r(_, 0) row violates at each of d1's
   four codes. *)
let test_soft_counts_grown_domain () =
  let module R = Fcv_relation in
  let db = Gen.random_db 3 in
  let r = R.Database.table db "r" in
  List.iter
    (fun row -> if row.(1) = 0 then ignore (R.Table.delete_coded r row))
    (R.Table.to_list r);
  let spec = Core.Fol_parser.spec_of_string "holds >= 0.5 . forall x . r(x, 0)" in
  let index = Core.Index.create db in
  C.ensure_indices index [ spec.F.formula ];
  let d1 = R.Table.dict (R.Database.table db "t") 0 in
  Core.Index.insert index ~table_name:"t" [| R.Dict.intern d1 (R.Value.Int 3) |];
  check "naive: every d1 code violates" true
    (Core.Naive_eval.soft_counts db spec.F.formula = (4, 4));
  (match Core.Violations.analyze index spec.F.formula with
  | Some a ->
    check_int "four witnesses listed" 4 (List.length (Core.Violations.witness_list a));
    Core.Violations.release a
  | None -> Alcotest.fail "no witness analyzer");
  match (C.check_spec index spec).C.rate with
  | None -> Alcotest.fail "soft check reported no rate"
  | Some rt ->
    check "violations = 4" true (N.to_int_opt rt.C.violations = Some 4);
    check "bindings = 4" true (N.to_int_opt rt.C.total = Some 4)

(* -- acceptance: the noise family, bit-for-bit -------------------------- *)

let noise_cfg =
  {
    Fcv_datagen.Noise.rows = 400;
    sensors = 40;
    locations = 12;
    units = 4;
    readings = 50;
    loc_noise = 0.02;
    unit_noise = 0.05;
  }

let noise_setup () =
  let rng = Fcv_util.Rng.create 2007 in
  let db, _ = Fcv_datagen.Noise.generate rng noise_cfg in
  let specs =
    List.map
      (fun (_, src) -> Core.Fol_parser.spec_of_string src)
      (Fcv_datagen.Noise.soft_constraints ~threshold:0.999)
  in
  let index = Core.Index.create db in
  C.ensure_indices index (List.map (fun s -> s.F.formula) specs);
  (db, index, specs)

let test_noise_fd_bit_for_bit () =
  let db, index, specs = noise_setup () in
  List.iter
    (fun spec ->
      let name = F.to_string spec.F.formula in
      let nv, nt = Core.Naive_eval.soft_counts db spec.F.formula in
      check (name ^ ": data is noisy") true (nv > 0);
      let assert_counts label r =
        match r.C.rate with
        | None -> Alcotest.fail (label ^ ": soft check reported no rate")
        | Some rt ->
          check (label ^ ": violations bit-for-bit") true
            (N.to_int_opt rt.C.violations = Some nv);
          check (label ^ ": bindings bit-for-bit") true
            (N.to_int_opt rt.C.total = Some nt);
          check (label ^ ": ratio bit-for-bit") true
            (same_float rt.C.ratio (float_of_int nv /. float_of_int nt))
      in
      (* FD fast path (the default route for FD-shaped constraints) *)
      let fast = C.check_spec index spec in
      check (name ^ ": fast path on BDD engine") true (fast.C.method_used = C.Bdd);
      assert_counts (name ^ " [fd-fast-path]") fast;
      (* generic violation-BDD route *)
      let generic =
        C.check_spec
          ~pipeline:{ C.default_pipeline with C.use_fd_fast_path = false }
          index spec
      in
      assert_counts (name ^ " [violation-bdd]") generic;
      (* naive recount route *)
      assert_counts (name ^ " [naive]") (C.check_spec ~strategy:C.Force_sql index spec);
      (* at p = 1.0 the same formula is hard: Violated, no rate *)
      let hard = C.check_spec index (F.hard spec.F.formula) in
      check (name ^ ": hard verdict is Violated") true (hard.C.outcome = C.Violated);
      check (name ^ ": hard check has no rate") true (hard.C.rate = None);
      (* a generous threshold flips the verdict without changing the rate *)
      let loose = C.check_spec index { spec with F.threshold = 0.5 } in
      check (name ^ ": loose threshold satisfied") true (loose.C.outcome = C.Satisfied);
      assert_counts (name ^ " [loose]") loose)
    specs;
  ignore db

(* -- monitor flow -------------------------------------------------------- *)

let test_monitor_soft_flow () =
  let rng = Fcv_util.Rng.create 2007 in
  let db, _ = Fcv_datagen.Noise.generate rng noise_cfg in
  let index = Core.Index.create db in
  let mon = Core.Monitor.create index in
  let _, soft_src = List.hd (Fcv_datagen.Noise.soft_constraints ~threshold:0.5) in
  let _, hard_src = List.hd Fcv_datagen.Noise.fd_constraints in
  let soft = Core.Monitor.add mon soft_src in
  let hard = Core.Monitor.add mon hard_src in
  check "registered threshold" true (same_float soft.Core.Monitor.threshold 0.5);
  check "hard threshold" true (same_float hard.Core.Monitor.threshold 1.0);
  let reports = Core.Monitor.validate mon in
  let find reg =
    List.find
      (fun r -> r.Core.Monitor.constraint_.Core.Monitor.id = reg.Core.Monitor.id)
      reports
  in
  let soft_r = find soft and hard_r = find hard in
  check "soft fresh report carries a rate" true (soft_r.Core.Monitor.rate <> None);
  check "soft satisfied at 0.5" true (soft_r.Core.Monitor.outcome = C.Satisfied);
  check "hard report has no rate" true (hard_r.Core.Monitor.rate = None);
  check "hard violated" true (hard_r.Core.Monitor.outcome = C.Violated);
  (* cached revalidation keeps the measured rate *)
  let reports2 = Core.Monitor.validate mon in
  let soft_r2 =
    List.find
      (fun r -> r.Core.Monitor.constraint_.Core.Monitor.id = soft.Core.Monitor.id)
      reports2
  in
  check "cached soft report" true (not soft_r2.Core.Monitor.fresh);
  check "cached rate preserved" true
    (soft_r2.Core.Monitor.rate = soft_r.Core.Monitor.rate);
  (* dirty both; the soft one re-measures and never rides entailment *)
  Core.Monitor.insert mon ~table_name:"readings" [| 0; 0; 0; 0 |];
  let reports3 = Core.Monitor.validate mon in
  let soft_r3 =
    List.find
      (fun r -> r.Core.Monitor.constraint_.Core.Monitor.id = soft.Core.Monitor.id)
      reports3
  in
  check "dirtied soft re-checks fresh" true soft_r3.Core.Monitor.fresh;
  check "re-measured rate present" true (soft_r3.Core.Monitor.rate <> None);
  check "soft constraint never entailment-settled" true
    (soft.Core.Monitor.entailed_by = None)

(* -- protocol: threshold field canonicalises into the source ------------ *)

let test_protocol_register_threshold () =
  let module P = Fcv_server.Protocol in
  let module T = Fcv_util.Telemetry in
  let line members =
    T.Json.to_string (T.Obj (("op", T.String "register") :: members))
  in
  (match
     P.parse_request
       (line [ ("source", T.String "forall x . t(x)"); ("threshold", T.Float 0.999) ])
   with
  | Ok (_, P.Register { source; _ }) ->
    check_string "threshold canonicalised into source" "holds >= 0.999 . forall x . t(x)"
      source
  | _ -> Alcotest.fail "soft register did not parse");
  (match
     P.parse_request
       (line [ ("source", T.String "forall x . t(x)"); ("threshold", T.Int 1) ])
   with
  | Ok (_, P.Register { source; _ }) ->
    check_string "threshold 1 leaves the source alone" "forall x . t(x)" source
  | _ -> Alcotest.fail "hard register did not parse");
  List.iter
    (fun bad ->
      match
        P.parse_request (line [ ("source", T.String "forall x . t(x)"); ("threshold", bad) ])
      with
      | Error (P.Bad_request, _) -> ()
      | _ -> Alcotest.fail "out-of-range threshold accepted")
    [ T.Float 0.; T.Float 1.5; T.Int 0; T.Int 2; T.String "0.9" ]

(* -- repair: greedy stops once the rate clears the threshold ------------ *)

let test_repair_respects_thresholds () =
  let rng = Fcv_util.Rng.create 2007 in
  let db, _ = Fcv_datagen.Noise.generate rng noise_cfg in
  let _, fd = List.hd Fcv_datagen.Noise.fd_constraints in
  let formula = Core.Fol_parser.of_string fd in
  (* hard: the FD is violated, the plan must delete something *)
  let hard_plan = Fcv_repair.Repair.plan db [ formula ] in
  check "hard plan deletes" true (hard_plan.Fcv_repair.Repair.deletions <> []);
  check "hard plan completes" true hard_plan.Fcv_repair.Repair.complete;
  (* soft at a threshold the data already clears: nothing to repair *)
  let loose = { F.threshold = 0.5; formula } in
  let soft_plan = Fcv_repair.Repair.plan_specs db [ loose ] in
  check_int "already-clearing soft constraint costs no deletions" 0
    (List.length soft_plan.Fcv_repair.Repair.deletions);
  check "soft plan complete" true soft_plan.Fcv_repair.Repair.complete;
  check_int "not violated before" 0 soft_plan.Fcv_repair.Repair.violated_before;
  (* soft at a strict threshold: repaired, and never with more
     deletions than the full hard repair needs *)
  let strict = { F.threshold = 0.9999; formula } in
  let strict_plan = Fcv_repair.Repair.plan_specs db [ strict ] in
  check "strict soft plan completes" true strict_plan.Fcv_repair.Repair.complete;
  check "strict soft plan deletes" true (strict_plan.Fcv_repair.Repair.deletions <> []);
  check "soft repair never exceeds the hard repair" true
    (List.length strict_plan.Fcv_repair.Repair.deletions
    <= List.length hard_plan.Fcv_repair.Repair.deletions)

let suite =
  [
    Alcotest.test_case "exact sat-count beyond 2^53" `Quick test_exact_count_beyond_float;
    Alcotest.test_case "near-threshold precision regression" `Quick
      test_clears_near_threshold;
    Alcotest.test_case "holds-prefix parsing" `Quick test_spec_parsing;
    Gen.qcheck_case prop_hard_spec_is_check;
    Gen.qcheck_case prop_soft_differential;
    (* a negated ∃ is a ∀-block only under negation normal form: no
       binding space, so 0/1 semantics *)
    Alcotest.test_case "soft counts: a negated exists has no forall-block" `Quick
      (soft_counts_agree "holds >= 0.1 . not (exists x . r(x, 1))");
    (* an ∃ under the ∀-block stays inside the counted matrix *)
    Alcotest.test_case "soft counts: an exists under the forall-block is not counted" `Quick
      (soft_counts_agree "holds >= 0.1 . forall x . not (exists y . r(x, y))");
    Alcotest.test_case "witnesses of a domain grown past the entry" `Quick
      test_soft_counts_grown_domain;
    Alcotest.test_case "noise FD rate bit-for-bit vs naive" `Quick
      test_noise_fd_bit_for_bit;
    Alcotest.test_case "monitor soft flow" `Quick test_monitor_soft_flow;
    Alcotest.test_case "register threshold canonicalisation" `Quick
      test_protocol_register_threshold;
    Alcotest.test_case "repair respects thresholds" `Quick test_repair_respects_thresholds;
  ]

let () = Registry.register "approx" suite
