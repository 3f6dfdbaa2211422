(** Parallel validation: the domain pool ({!Fcv_util.Pool}), the
    per-worker index replicas ({!Core.Replica}), and the property that
    parallel {!Core.Checker.check_all} verdicts are identical to the
    sequential run — deterministic unit tests plus a QCheck
    differential over random constraint batches.

    Determinism: {!Gen.qcheck_case} pins the QCheck seed ([QCHECK_SEED]
    overrides, default = the one bench/ci.sh exports) and prints the
    failing seed on a counterexample. *)

module Pool = Fcv_util.Pool
module C = Core.Checker
module F = Core.Formula

let hard = List.map F.hard

let with_pool ~jobs f =
  let pool = Pool.create ~name:"test" ~jobs () in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) (fun () -> f pool)

(* A registered constraint's record in its monitor's planner. *)
let history_of monitor r =
  Core.Planner.history (Core.Monitor.planner monitor)
    { F.threshold = r.Core.Monitor.threshold; formula = r.Core.Monitor.formula }

(* Price every registered constraint's history far above any pool's
   cost on both sides, through the planner record the gate reads. *)
let price_high monitor =
  List.iter
    (fun r ->
      let slow method_used =
        {
          C.outcome = C.Satisfied;
          method_used;
          elapsed_ms = 1e6;
          bdd_overhead_ms = 0.;
          fallback_ms = 0.;
          rewritten = r.Core.Monitor.formula;
          rate = None;
        }
      in
      List.iter (Core.Planner.observe (history_of monitor r)) [ slow C.Bdd; slow C.Sql ])
    (Core.Monitor.constraints monitor)

(* -- pool ------------------------------------------------------------------- *)

(* Results keep submission order however the scheduler interleaves the
   tasks: later tasks finish first (earlier ones sleep longest). *)
let test_order_independence () =
  with_pool ~jobs:4 @@ fun pool ->
  let results =
    Pool.run_ordered pool
      (Array.init 16 (fun i () ->
           Unix.sleepf (float_of_int (16 - i) /. 2_000.);
           i * i))
  in
  Alcotest.(check (array int)) "input order" (Array.init 16 (fun i -> i * i)) results

exception Boom of int

(* A task's exception reaches the caller of run_ordered: the first
   failure in input order, re-raised after every task has settled. *)
let test_exception_propagation () =
  with_pool ~jobs:2 @@ fun pool ->
  let witness = Atomic.make 0 in
  match
    Pool.run_ordered pool
      [|
        (fun () -> Atomic.incr witness);
        (fun () -> raise (Boom 1));
        (fun () -> raise (Boom 2));
        (fun () -> Atomic.incr witness);
      |]
  with
  | _ -> Alcotest.fail "run_ordered should re-raise"
  | exception Boom n ->
    Alcotest.(check int) "first failure in input order" 1 n;
    Alcotest.(check int) "all tasks settled before the raise" 2 (Atomic.get witness)

(* Shutdown drains the work already queued: a batch running on another
   domain when shutdown is called still returns every result, and a
   batch after shutdown is refused. *)
let test_shutdown_drains_queue () =
  let pool = Pool.create ~jobs:2 () in
  let started = Atomic.make 0 in
  let batch =
    Domain.spawn (fun () ->
        Pool.run_ordered pool
          (Array.init 8 (fun i () ->
               Atomic.incr started;
               Unix.sleepf 0.01;
               i + 100)))
  in
  (* both workers are inside the batch, so all its work is queued *)
  while Atomic.get started < 2 do
    Domain.cpu_relax ()
  done;
  Pool.shutdown pool;
  Alcotest.(check (array int)) "every result of the running batch"
    (Array.init 8 (fun i -> i + 100))
    (Domain.join batch);
  (match Pool.run_ordered pool [| (fun () -> 0) |] with
  | _ -> Alcotest.fail "run_ordered after shutdown should be refused"
  | exception Invalid_argument _ -> ());
  (* idempotent *)
  Pool.shutdown pool

let test_pool_size_bounds () =
  Alcotest.(check int) "size" 3 (with_pool ~jobs:3 Pool.size);
  (match Pool.create ~jobs:0 () with
  | _ -> Alcotest.fail "jobs=0 should be refused"
  | exception Invalid_argument _ -> ());
  match Pool.create ~jobs:1000 () with
  | _ -> Alcotest.fail "jobs=1000 should be refused"
  | exception Invalid_argument _ -> ()

(* -- replicas --------------------------------------------------------------- *)

let small_index () =
  let db = Gen.random_db 7 in
  let index = Core.Index.create db in
  List.iter
    (fun table_name ->
      ignore (Core.Index.add index ~table_name ~strategy:Core.Ordering.Prob_converge ()))
    [ "r"; "s"; "t" ];
  index

(* The epoch machinery: replicas hydrate once per epoch per domain and
   are reused until an invalidation.  Exercised on the calling domain —
   DLS works there too, and it keeps the counts deterministic. *)
let test_replica_epoch_reuse () =
  let index = small_index () in
  let replica = Core.Replica.create index in
  let copies () = (Core.Replica.stats replica).Core.Replica.full in
  Alcotest.(check int) "no hydration yet" 0 (copies ());
  Core.Replica.prepare replica;
  let r1 = Core.Replica.get replica in
  let r2 = Core.Replica.get replica in
  Alcotest.(check bool) "same epoch reuses the replica" true (r1 == r2);
  Alcotest.(check int) "one hydration" 1 (copies ());
  Core.Replica.invalidate replica;
  Core.Replica.prepare replica;
  let r3 = Core.Replica.get replica in
  Alcotest.(check bool) "invalidation forces a rebuild" true (r3 != r1);
  Alcotest.(check int) "two hydrations" 2 (copies ());
  Alcotest.(check int) "no delta catch-up" 0 (Core.Replica.stats replica).Core.Replica.delta;
  (* replicas share the database but never the manager *)
  Alcotest.(check bool) "shared db" true (r3.Core.Index.db == index.Core.Index.db);
  Alcotest.(check bool) "private manager" true
    (Core.Index.mgr r3 != Core.Index.mgr index)

let test_replica_get_requires_prepare () =
  let replica = Core.Replica.create (small_index ()) in
  match Core.Replica.get replica with
  | _ -> Alcotest.fail "get without prepare should be refused"
  | exception Invalid_argument _ -> ()

(* A replica answers checks exactly like its master. *)
let test_replica_checks_agree () =
  let index = small_index () in
  let f =
    Gen.close
      (F.Forall
         ( [ "x1_1"; "x2_1" ],
           F.Implies
             ( F.Atom ("r", [ F.Var "x1_1"; F.Var "x2_1" ]),
               F.Exists ([ "x3_1" ], F.Atom ("s", [ F.Var "x2_1"; F.Var "x3_1" ])) ) ))
  in
  let replica = Core.Replica.create index in
  Core.Replica.prepare replica;
  let on_master = C.check index f and on_replica = C.check (Core.Replica.get replica) f in
  Alcotest.(check bool) "same outcome" true (on_master.C.outcome = on_replica.C.outcome);
  Alcotest.(check bool) "same method" true
    (on_master.C.method_used = on_replica.C.method_used)

(* -- parallel check_all ----------------------------------------------------- *)

let verdicts results =
  List.map (fun r -> (r.C.outcome, r.C.method_used)) results

(* A soft result's exact counts, as decimal strings ([None] when hard). *)
let counts r =
  Option.map
    (fun rt -> (Fcv_bdd.Nat.to_string rt.C.violations, Fcv_bdd.Nat.to_string rt.C.total))
    r.C.rate

let answers results = List.map (fun r -> (r.C.outcome, r.C.method_used, counts r)) results

(* jobs=1 must not even touch the pool machinery: same code path as
   the plain sequential map. *)
let test_jobs1_equivalence () =
  let index = small_index () in
  let fs =
    List.map Gen.close
      [ F.Exists ([ "x1_1" ], F.Atom ("t", [ F.Var "x1_1" ])); F.True; F.Not F.True ]
  in
  Alcotest.(check bool) "jobs=1 = sequential" true
    (verdicts (C.check_all index (hard fs))
    = verdicts (C.check_all ~jobs:1 index (hard fs)))

let test_check_all_parallel_matches_sequential () =
  let rng = Fcv_util.Rng.create 11 in
  let db, _, _, _ =
    Fcv_datagen.University.generate rng
      { Fcv_datagen.University.default with students = 120; courses = 20; violators = 3 }
  in
  let sources =
    [
      "forall s, c . takes(s, c) -> (exists a . course(c, a))";
      "forall s, c . takes(s, c) -> (exists d, k . student(s, d, k))";
      "forall s, k . student(s, 0, k) -> (exists c . takes(s, c) and course(c, 0))";
      "forall s, d1, k1, d2, k2 . student(s, d1, k1) and student(s, d2, k2) -> d1 = d2";
      "forall c, a1, a2 . course(c, a1) and course(c, a2) -> a1 = a2";
      "forall s, k . student(s, 1, k) -> (exists c . takes(s, c) and course(c, 1))";
      (* soft specs: one task each, like the hard ones *)
      "holds >= 0.9 . forall s, k . student(s, 0, k) -> \
       (exists c . takes(s, c) and course(c, 0))";
      "holds >= 0.5 . forall s, d1, k1, d2, k2 . \
       student(s, d1, k1) and student(s, d2, k2) -> d1 = d2";
    ]
  in
  let specs = List.map Core.Fol_parser.spec_of_string sources in
  let index = Core.Index.create db in
  C.ensure_indices index (List.map (fun sp -> sp.F.formula) specs);
  let sequential = answers (List.map (C.check_spec index) specs) in
  Alcotest.(check bool) "jobs=1 matches" true
    (sequential = answers (C.check_all index specs));
  Alcotest.(check bool) "jobs=4 matches" true
    (sequential = answers (C.check_all ~jobs:4 index specs));
  (* more workers than constraints: the pool is clamped, not starved *)
  Alcotest.(check bool) "jobs=16 matches" true
    (sequential = answers (C.check_all ~jobs:16 index specs));
  with_pool ~jobs:2 @@ fun pool ->
  Alcotest.(check bool) "check_all_pooled matches" true
    (sequential = answers (C.check_all_pooled ~pool (Core.Replica.create index) specs))

(* The monitor end of the wiring: parallel validation returns the same
   reports — soft rates included, as decimal-string counts — replicas
   survive update + invalidate cycles, and stop() releases the
   workers.  The first pass measures every constraint on the calling
   domain; the priced history then pools every later batch. *)
let test_monitor_parallel_validate () =
  let run jobs =
    let db = Gen.random_db 23 in
    let monitor = Core.Monitor.create (Core.Index.create db) in
    Core.Monitor.set_jobs monitor jobs;
    let outcomes () =
      List.map
        (fun rep ->
          ( rep.Core.Monitor.outcome,
            rep.Core.Monitor.fresh,
            Option.map
              (fun rt ->
                (Fcv_bdd.Nat.to_string rt.C.violations, Fcv_bdd.Nat.to_string rt.C.total))
              rep.Core.Monitor.rate ))
        (Core.Monitor.validate monitor)
    in
    ignore (Core.Monitor.add monitor "forall b . t(0) -> (exists c . s(b, c))");
    ignore (Core.Monitor.add monitor "forall a, b . r(a, b) -> (exists c . s(b, c))");
    ignore (Core.Monitor.add monitor "forall a . t(a) -> (exists b . r(a, b))");
    ignore
      (Core.Monitor.add monitor "holds >= 0.5 . forall a, b . r(a, b) -> (exists c . s(b, c))");
    ignore (Core.Monitor.add monitor "holds >= 0.9 . forall a . t(a) -> (exists b . r(a, b))");
    let first = outcomes () in
    (* measured now: price the history so that every later batch pools *)
    price_high monitor;
    (* cached pass, then dirty one table and revalidate *)
    let cached = outcomes () in
    Core.Monitor.insert monitor ~table_name:"t" [| 0 |];
    let after_insert = outcomes () in
    ignore (Core.Monitor.delete monitor ~table_name:"t" [| 0 |]);
    let after_delete = outcomes () in
    Core.Monitor.insert monitor ~table_name:"r" [| 0; 0 |];
    let after_r_insert = outcomes () in
    Alcotest.(check bool) "pooled when jobs > 1" (jobs > 1)
      ((Core.Monitor.pool_stats monitor).Core.Monitor.pooled_passes > 0);
    Core.Monitor.stop monitor;
    (first, cached, after_insert, after_delete, after_r_insert)
  in
  let sequential = run 1 in
  Alcotest.(check bool) "sequential = parallel monitor (j=2)" true (sequential = run 2);
  Alcotest.(check bool) "sequential = parallel monitor (j=3)" true (sequential = run 3)

let prop_parallel_differential =
  QCheck.Test.make ~count:100
    ~name:"parallel check_all verdicts = sequential (100 random batches)"
    (QCheck.pair
       (QCheck.triple Gen.formula_arbitrary Gen.formula_arbitrary Gen.formula_arbitrary)
       (QCheck.int_range 0 1_000))
    (fun ((f1, f2, f3), seed) ->
      let db = Gen.random_db seed in
      let well_typed f =
        let f = Gen.close f in
        match Core.Typing.infer db f with
        | _ -> Some f
        | exception Core.Typing.Type_error _ -> None
      in
      (* duplicates included on purpose: identical constraints must
         yield identical verdicts wherever they land *)
      let fs = List.filter_map well_typed [ f1; f2; f3; f1 ] in
      let index = Core.Index.create db in
      C.ensure_indices index fs;
      verdicts (C.check_all index (hard fs))
      = verdicts (C.check_all ~jobs:3 index (hard fs)))

(* -- run_ordered: the claimed-batch scheduler ------------------------------- *)

(* Skewed costs under an expensive-first order: results still index
   like the input, and every task ran exactly once. *)
let test_run_ordered_skewed_costs () =
  with_pool ~jobs:4 @@ fun pool ->
  let n = 12 in
  let ran = Array.init n (fun _ -> Atomic.make 0) in
  let tasks =
    Array.init n (fun i () ->
        (* task 0 is the pathological one; the rest are cheap *)
        Unix.sleepf (if i = 0 then 0.05 else 0.002);
        Atomic.incr ran.(i);
        i * 10)
  in
  let order = Array.init n Fun.id in
  let results = Pool.run_ordered pool ~order tasks in
  Alcotest.(check (list int)) "results keep input indexing"
    (List.init n (fun i -> i * 10))
    (Array.to_list results);
  Array.iteri
    (fun i c -> Alcotest.(check int) (Printf.sprintf "task %d ran once" i) 1 (Atomic.get c))
    ran

(* The execution order is a scheduling hint, never a semantic input:
   any permutation yields the same result array. *)
let test_run_ordered_order_independence () =
  with_pool ~jobs:3 @@ fun pool ->
  let n = 9 in
  let tasks = Array.init n (fun i () -> (i * i) + 1) in
  let expected = Pool.run_ordered pool tasks in
  let reverse = Array.init n (fun k -> n - 1 - k) in
  let interleaved = Array.init n (fun k -> (k * 4) mod n) in
  List.iter
    (fun order ->
      Alcotest.(check (list int)) "same results under permuted order"
        (Array.to_list expected)
        (Array.to_list (Pool.run_ordered pool ~order tasks)))
    [ reverse; interleaved ]

let test_run_ordered_rejects_non_permutation () =
  with_pool ~jobs:2 @@ fun pool ->
  let tasks = Array.init 4 (fun i () -> i) in
  let refused order =
    match Pool.run_ordered pool ~order tasks with
    | _ -> false
    | exception Invalid_argument _ -> true
  in
  Alcotest.(check bool) "wrong length" true (refused [| 0; 1; 2 |]);
  Alcotest.(check bool) "duplicate index" true (refused [| 0; 1; 2; 2 |]);
  Alcotest.(check bool) "out of range" true (refused [| 0; 1; 2; 7 |])

(* First failure in INPUT order wins even when the execution order ran
   a later-input failure first, and every task settles before the
   raise. *)
let test_run_ordered_exception_input_order () =
  with_pool ~jobs:2 @@ fun pool ->
  let settled = Atomic.make 0 in
  let tasks =
    [|
      (fun () -> Atomic.incr settled);
      (fun () -> raise (Boom 1));
      (fun () -> raise (Boom 2));
      (fun () -> Atomic.incr settled);
    |]
  in
  (* run the i=2 failure before the i=1 failure *)
  match Pool.run_ordered pool ~order:[| 2; 3; 1; 0 |] tasks with
  | _ -> Alcotest.fail "run_ordered should re-raise"
  | exception Boom n ->
    Alcotest.(check int) "first failure in input order" 1 n;
    Alcotest.(check int) "all tasks settled" 2 (Atomic.get settled)

(* -- delta hydration -------------------------------------------------------- *)

let parity_formula =
  Gen.close
    (F.Forall
       ( [ "x1_1"; "x2_1" ],
         F.Implies
           ( F.Atom ("r", [ F.Var "x1_1"; F.Var "x2_1" ]),
             F.Exists ([ "x3_1" ], F.Atom ("s", [ F.Var "x2_1"; F.Var "x3_1" ])) ) ))

(* A delta-caught-up replica must be indistinguishable from a fresh
   copy of the master: same entry shapes, same membership, same
   verdicts — after several mutation bursts replayed purely from the
   op journal. *)
let test_replica_delta_parity () =
  let index = small_index () in
  let replica = Core.Replica.create index in
  Core.Replica.prepare replica;
  ignore (Core.Replica.get replica);
  Alcotest.(check int) "one full hydration to start" 1 (Core.Replica.stats replica).Core.Replica.full;
  let burst tbl_name i =
    let table = Fcv_relation.Database.table index.Core.Index.db tbl_name in
    let row = Array.copy (Fcv_relation.Table.row table (i mod Fcv_relation.Table.cardinality table)) in
    (* duplicate an existing row twice, delete one occurrence: net +1
       occurrence, zero new codes — pure row traffic *)
    Core.Index.insert index ~table_name:tbl_name row;
    Core.Replica.note_insert replica ~table_name:tbl_name row;
    Core.Index.insert index ~table_name:tbl_name row;
    Core.Replica.note_insert replica ~table_name:tbl_name row;
    ignore (Core.Index.delete index ~table_name:tbl_name row);
    Core.Replica.note_delete replica ~table_name:tbl_name row
  in
  List.iteri
    (fun i tbl ->
      burst tbl i;
      Core.Replica.prepare replica;
      ignore (Core.Replica.get replica))
    [ "r"; "s"; "r" ];
  let st = Core.Replica.stats replica in
  Alcotest.(check int) "still exactly one full hydration" 1 st.Core.Replica.full;
  Alcotest.(check int) "three delta catch-ups" 3 st.Core.Replica.delta;
  Alcotest.(check int) "nine ops replayed" 9 st.Core.Replica.delta_ops;
  (* a second replica set copies the same master, from scratch *)
  let oracle = Core.Replica.create index in
  Core.Replica.prepare oracle;
  let via_delta = Core.Replica.get replica and via_full = Core.Replica.get oracle in
  let sizes ix =
    List.map (fun e -> Core.Index.entry_size ix e) (Core.Index.entries ix)
  in
  Alcotest.(check (list int)) "entry sizes agree" (sizes via_full) (sizes via_delta);
  List.iter2
    (fun ed ef ->
      let row = Fcv_relation.Table.row ed.Core.Index.table 0 in
      Alcotest.(check bool) "membership agrees" (Core.Index.entry_mem via_full ef row)
        (Core.Index.entry_mem via_delta ed row))
    (Core.Index.entries via_delta) (Core.Index.entries via_full);
  let rd = C.check via_delta parity_formula
  and rf = C.check via_full parity_formula
  and rm = C.check index parity_formula in
  Alcotest.(check bool) "verdict: delta = full" true (rd.C.outcome = rf.C.outcome);
  Alcotest.(check bool) "verdict: delta = master" true (rd.C.outcome = rm.C.outcome)

(* Content-preserving GC is invisible to replicas: no epoch bump, no
   rehydration, and the delta window survives across it. *)
let test_replica_survives_compact () =
  let index = small_index () in
  let replica = Core.Replica.create index in
  Core.Replica.prepare replica;
  let before = Core.Replica.get replica in
  let v0 = index.Core.Index.structure_version in
  ignore (Core.Index.compact index);
  Alcotest.(check int) "compact preserves structure_version" v0
    index.Core.Index.structure_version;
  Core.Replica.prepare replica;
  let after = Core.Replica.get replica in
  Alcotest.(check bool) "replica reused across compact" true (before == after);
  Alcotest.(check int) "no extra hydration" 1 (Core.Replica.stats replica).Core.Replica.full;
  (* the journal still works after the compact: a row op is a delta,
     not a copy *)
  let table = Fcv_relation.Database.table index.Core.Index.db "r" in
  let row = Array.copy (Fcv_relation.Table.row table 0) in
  Core.Index.insert index ~table_name:"r" row;
  Core.Replica.note_insert replica ~table_name:"r" row;
  Core.Replica.prepare replica;
  ignore (Core.Replica.get replica);
  let st = Core.Replica.stats replica in
  Alcotest.(check int) "delta catch-up after compact" 1 st.Core.Replica.delta;
  Alcotest.(check int) "still one full hydration" 1 st.Core.Replica.full;
  Alcotest.(check bool) "verdicts agree" true
    ((C.check (Core.Replica.get replica) parity_formula).C.outcome
    = (C.check index parity_formula).C.outcome)

(* A structural change (entry rebuild) bumps structure_version, which
   poisons the op journal: the next note degrades to an invalidation
   and workers copy the master again — never a delta replay against
   mismatched block widths. *)
let test_replica_structural_fallback () =
  let index = small_index () in
  let replica = Core.Replica.create index in
  Core.Replica.prepare replica;
  ignore (Core.Replica.get replica);
  let v0 = index.Core.Index.structure_version in
  (match Core.Index.entries index with
  | e :: _ -> ignore (Core.Index.rebuild_entry index e)
  | [] -> Alcotest.fail "expected entries");
  Alcotest.(check bool) "rebuild bumps structure_version" true
    (index.Core.Index.structure_version > v0);
  let table = Fcv_relation.Database.table index.Core.Index.db "s" in
  let row = Array.copy (Fcv_relation.Table.row table 0) in
  Core.Index.insert index ~table_name:"s" row;
  Core.Replica.note_insert replica ~table_name:"s" row;
  Core.Replica.prepare replica;
  ignore (Core.Replica.get replica);
  let st = Core.Replica.stats replica in
  Alcotest.(check int) "fell back to a second copy" 2 st.Core.Replica.full;
  Alcotest.(check int) "no delta replay across a structural change" 0
    st.Core.Replica.delta;
  Alcotest.(check int) "no op replayed" 0 st.Core.Replica.delta_ops;
  let copy = Core.Replica.get replica in
  Alcotest.(check (list int)) "the copy has the rebuilt entries' widths"
    (List.map (fun e -> Array.length e.Core.Index.blocks.(0).Fcv_bdd.Fd.levels)
       (Core.Index.entries index))
    (List.map (fun e -> Array.length e.Core.Index.blocks.(0).Fcv_bdd.Fd.levels)
       (Core.Index.entries copy));
  Alcotest.(check bool) "verdicts agree after fallback" true
    ((C.check (Core.Replica.get replica) parity_formula).C.outcome
    = (C.check index parity_formula).C.outcome)

(* A domain with no replica copies the master at the current epoch,
   even inside an open window: no base-plus-window replay, so its
   catch-up counts as one copy and replays no op.  A domain whose
   replica sits in the window replays the window. *)
let test_replica_fresh_domain_copies () =
  let index = small_index () in
  let replica = Core.Replica.create index in
  Core.Replica.prepare replica;
  ignore (Core.Replica.get replica);
  let table = Fcv_relation.Database.table index.Core.Index.db "r" in
  let row = Array.copy (Fcv_relation.Table.row table 0) in
  Core.Index.insert index ~table_name:"r" row;
  Core.Replica.note_insert replica ~table_name:"r" row;
  Core.Index.insert index ~table_name:"r" row;
  Core.Replica.note_insert replica ~table_name:"r" row;
  ignore (Core.Index.delete index ~table_name:"r" row);
  Core.Replica.note_delete replica ~table_name:"r" row;
  Core.Replica.prepare replica;
  let st0 = Core.Replica.stats replica in
  let fresh = Domain.join (Domain.spawn (fun () -> Core.Replica.get replica)) in
  let st = Core.Replica.stats replica in
  Alcotest.(check int) "the fresh domain copied the master" (st0.Core.Replica.full + 1)
    st.Core.Replica.full;
  Alcotest.(check int) "and replayed nothing" st0.Core.Replica.delta_ops
    st.Core.Replica.delta_ops;
  Alcotest.(check int) "no delta catch-up" st0.Core.Replica.delta st.Core.Replica.delta;
  Alcotest.(check bool) "a private manager" true
    (Core.Index.mgr fresh != Core.Index.mgr index);
  ignore (Core.Replica.get replica);
  let st = Core.Replica.stats replica in
  Alcotest.(check int) "the calling domain caught up by delta" 1 st.Core.Replica.delta;
  Alcotest.(check int) "replaying the three ops" 3 st.Core.Replica.delta_ops;
  Alcotest.(check bool) "verdicts agree" true
    ((C.check fresh parity_formula).C.outcome = (C.check index parity_formula).C.outcome)

(* -- the monitor's pool gate ------------------------------------------------- *)

(* On Gen.random_db 23 (r = {(0,2), (1,2), (1,4)}, s has no b = 0,
   t = {(2)}) [pair_r] holds and [pair_t] is violated; an r(2, 0) row
   reaches both (no s row has b = 0, and t(2) is present) and flips
   both verdicts. *)
let pair_r = "forall a, b . r(a, b) -> (exists c . s(b, c))"
let pair_t = "forall a . t(a) -> (exists b . r(a, b))"
let flip = [| 2; 0 |]

let pair_monitor ?planning ~jobs () =
  let monitor = Core.Monitor.create ?planning (Core.Index.create (Gen.random_db 23)) in
  Core.Monitor.set_jobs monitor jobs;
  ignore (Core.Monitor.add monitor pair_r);
  ignore (Core.Monitor.add monitor pair_t);
  monitor

(* A pass's reports against fresh checks on the master. *)
let check_fresh monitor what =
  let index = Core.Monitor.index monitor in
  List.iter
    (fun rep ->
      let r = rep.Core.Monitor.constraint_ in
      let spec = { F.threshold = r.Core.Monitor.threshold; formula = r.Core.Monitor.formula } in
      Alcotest.(check bool)
        (Printf.sprintf "%s: %s = a fresh check" what r.Core.Monitor.source)
        true
        (rep.Core.Monitor.outcome = (C.check_spec index spec).C.outcome))
    (Core.Monitor.validate monitor)

let outcomes monitor = List.map snd (Core.Monitor.verdicts monitor)

let test_cheap_batch_starts_no_pool () =
  let monitor = pair_monitor ~jobs:2 () in
  ignore (Core.Monitor.validate monitor);
  Core.Monitor.insert monitor ~table_name:"r" flip;
  let reports = Core.Monitor.validate monitor in
  Alcotest.(check int) "both constraints re-checked" 2
    (List.length (List.filter (fun r -> r.Core.Monitor.fresh) reports));
  Alcotest.(check (list bool)) "both verdicts flipped" [ true; false ]
    (List.map (fun r -> r.Core.Monitor.outcome = C.Violated) reports);
  Alcotest.(check bool) "no replica set" true (Core.Monitor.replica_stats monitor = None);
  let st = Core.Monitor.pool_stats monitor in
  Alcotest.(check int) "width recorded" 2 (Core.Monitor.jobs monitor);
  Alcotest.(check bool) "pool not started" false st.Core.Monitor.started;
  Alcotest.(check int) "two sequential passes" 2 st.Core.Monitor.sequential_passes;
  Alcotest.(check int) "no pooled pass" 0 st.Core.Monitor.pooled_passes;
  Alcotest.(check bool) "a cold start has a price" true (st.Core.Monitor.price_ms > 0.);
  Core.Monitor.stop monitor

let unmeasured_batch_stays_local ?planning () =
  let monitor = pair_monitor ?planning ~jobs:2 () in
  ignore (Core.Monitor.validate monitor);
  price_high monitor;
  (* a new constraint over r: the next batch holds one never checked *)
  ignore (Core.Monitor.add monitor "forall a, b . r(a, b) -> (exists c . s(b, c) and t(a))");
  Core.Monitor.insert monitor ~table_name:"r" flip;
  check_fresh monitor "with an unmeasured constraint";
  Alcotest.(check bool) "an unmeasured batch starts no pool" true
    (Core.Monitor.replica_stats monitor = None);
  (* once measured, the same batch pays *)
  ignore (Core.Monitor.delete monitor ~table_name:"r" flip);
  check_fresh monitor "once measured";
  let st = Core.Monitor.pool_stats monitor in
  Alcotest.(check bool) "the measured batch started the pool" true st.Core.Monitor.started;
  Alcotest.(check int) "one pooled pass" 1 st.Core.Monitor.pooled_passes;
  Core.Monitor.stop monitor

let test_unmeasured_batch_stays_local () = unmeasured_batch_stays_local ()

(* A Forced monitor prices its gate from the same planner history:
   priced high there, its batch pools once every constraint in it has
   run its forced strategy on the calling domain. *)
let test_forced_monitor_prices_through_planner () =
  unmeasured_batch_stays_local ~planning:(Core.Monitor.Forced C.Auto) ()

(* A pooled pass's checks ran on workers: the costs the next gate reads
   are where the last calling-domain runs left them. *)
let test_pooled_pass_keeps_costs () =
  let monitor = pair_monitor ~jobs:2 () in
  ignore (Core.Monitor.validate monitor);
  price_high monitor;
  let costs () =
    List.map
      (fun r ->
        let h = history_of monitor r in
        (Core.Planner.measured_ms h C.Auto, Core.Planner.measured_ms h C.Force_sql))
      (Core.Monitor.constraints monitor)
  in
  let before = costs () in
  Core.Monitor.insert monitor ~table_name:"r" flip;
  check_fresh monitor "a pooled pass";
  Alcotest.(check int) "the pass pooled" 1
    (Core.Monitor.pool_stats monitor).Core.Monitor.pooled_passes;
  Alcotest.(check bool) "its costs unchanged" true (costs () = before);
  Core.Monitor.stop monitor

(* The monitor end of the delta wiring: a batch priced above P pools;
   a mutation made before the pool started reaches the workers through
   their first copy of the master, and later streamed updates
   delta-note instead of invalidating, so later pooled passes catch the
   workers up without copying the master again. *)
let test_monitor_delta_hydration () =
  let monitor = pair_monitor ~jobs:2 () in
  let before = outcomes monitor in
  Alcotest.(check bool) "measured on the calling domain first" true
    (Core.Monitor.replica_stats monitor = None);
  price_high monitor;
  Core.Monitor.insert monitor ~table_name:"r" flip;
  check_fresh monitor "first pooled pass";
  (match Core.Monitor.replica_stats monitor with
  | Some st ->
    Alcotest.(check bool) "the first pass copied the master" true
      (st.Core.Replica.full >= 1 && st.Core.Replica.full <= 2);
    Alcotest.(check int) "nothing to replay yet" 0 st.Core.Replica.delta
  | None -> Alcotest.fail "a batch priced above P should start the pool");
  Alcotest.(check bool) "the pre-pool insert reached the workers" true
    (outcomes monitor <> before);
  (* three more pooled passes, one streamed row op each: each refreshes
     a replica, and at most one worker is still without one *)
  List.iter
    (fun insert ->
      if insert then Core.Monitor.insert monitor ~table_name:"r" flip
      else ignore (Core.Monitor.delete monitor ~table_name:"r" flip);
      check_fresh monitor (if insert then "after an insert" else "after a delete"))
    [ false; true; false ];
  Alcotest.(check bool) "back to the base verdicts" true (outcomes monitor = before);
  (match Core.Monitor.replica_stats monitor with
  | Some st ->
    Alcotest.(check bool) "copies bounded by the workers" true (st.Core.Replica.full <= 2);
    Alcotest.(check bool) "streamed ops replayed by delta" true (st.Core.Replica.delta >= 2);
    Alcotest.(check bool) "each catch-up replayed at least one op" true
      (st.Core.Replica.delta_ops >= st.Core.Replica.delta)
  | None -> Alcotest.fail "the pool should still run");
  Alcotest.(check int) "four pooled passes" 4
    (Core.Monitor.pool_stats monitor).Core.Monitor.pooled_passes;
  Core.Monitor.stop monitor;
  Alcotest.(check bool) "stop joins the pool" true (Core.Monitor.replica_stats monitor = None)

let test_stop_before_start () =
  let monitor = pair_monitor ~jobs:2 () in
  ignore (Core.Monitor.validate monitor);
  Core.Monitor.stop monitor;
  Core.Monitor.stop monitor;
  Alcotest.(check int) "sequential width" 1 (Core.Monitor.jobs monitor);
  price_high monitor;
  Core.Monitor.insert monitor ~table_name:"r" flip;
  check_fresh monitor "after stop";
  Alcotest.(check bool) "no pool after stop" false
    (Core.Monitor.pool_stats monitor).Core.Monitor.started

(* -- one task per constraint: costs and strategies -------------------------- *)

let well_typed_batch db fs =
  List.filter_map
    (fun f ->
      let f = Gen.close f in
      match Core.Typing.infer db f with
      | _ -> Some f
      | exception Core.Typing.Type_error _ -> None)
    fs

(* A cost per spec: unmeasured, tied, ordinary or wild (zero,
   negative, infinite, nan). *)
let cost_gen =
  QCheck.Gen.(
    frequency
      [
        (2, return None);
        (2, return (Some 1.));
        (2, map Option.some (float_range 0. 1_000.));
        (1, oneofl [ Some 0.; Some (-1.); Some infinity; Some neg_infinity; Some nan ]);
      ])

let strategy_gen = QCheck.Gen.oneofl [ C.Auto; C.Force_sql ]

let schedule_arbitrary =
  QCheck.make
    ~print:QCheck.Print.(list (pair (option float) C.strategy_name))
    QCheck.Gen.(list_repeat 5 (pair cost_gen strategy_gen))

(* The pool's order follows the drawn costs, whatever they are, and
   each spec keeps its drawn strategy: verdicts AND methods equal the
   sequential run under the same strategies. *)
let prop_batching_differential =
  QCheck.Test.make ~count:50
    ~name:"batched check_all_pooled verdicts+methods = sequential, any costs (50 batches)"
    (QCheck.triple
       (QCheck.triple Gen.formula_arbitrary Gen.formula_arbitrary Gen.formula_arbitrary)
       (QCheck.int_range 0 1_000) schedule_arbitrary)
    (fun ((f1, f2, f3), seed, schedule) ->
      let db = Gen.random_db seed in
      let fs = well_typed_batch db [ f1; f2; f3; f1; f2 ] in
      let costs, strategies =
        List.split (List.filteri (fun i _ -> i < List.length fs) schedule)
      in
      let index = Core.Index.create db in
      C.ensure_indices index fs;
      let sequential = verdicts (C.check_all ~strategies index (hard fs)) in
      with_pool ~jobs:3 @@ fun pool ->
      let replica = Core.Replica.create index in
      sequential
      = verdicts (C.check_all_pooled ~costs ~strategies ~pool replica (hard fs)))

(* Measured costs are a scheduling hint only: wildly wrong ones must
   not change anything. *)
let test_costs_are_only_a_hint () =
  let index = small_index () in
  let fs = [ parity_formula; Gen.close F.True; parity_formula ] in
  let sequential = verdicts (List.map (C.check index) fs) in
  with_pool ~jobs:2 @@ fun pool ->
  let replica = Core.Replica.create index in
  let costs = [ Some 1e6; None; Some 0.0001 ] in
  Alcotest.(check bool) "verdicts independent of cost estimates" true
    (sequential = verdicts (C.check_all_pooled ~costs ~pool replica (hard fs)));
  match C.check_all_pooled ~costs:[ Some 1. ] ~pool replica (hard fs) with
  | _ -> Alcotest.fail "mismatched costs length should be refused"
  | exception Invalid_argument _ -> ()

let () =
  Registry.register "parallel"
    [
      Alcotest.test_case "pool: results keep submission order" `Quick
        test_order_independence;
      Alcotest.test_case "pool: worker exceptions propagate" `Quick
        test_exception_propagation;
      Alcotest.test_case "pool: shutdown drains queued tasks" `Quick
        test_shutdown_drains_queue;
      Alcotest.test_case "pool: size bounds" `Quick test_pool_size_bounds;
      Alcotest.test_case "replica: epoch reuse and invalidation" `Quick
        test_replica_epoch_reuse;
      Alcotest.test_case "replica: get without prepare is refused" `Quick
        test_replica_get_requires_prepare;
      Alcotest.test_case "replica: checks agree with master" `Quick
        test_replica_checks_agree;
      Alcotest.test_case "check_all: jobs=1 equals sequential" `Quick
        test_jobs1_equivalence;
      Alcotest.test_case "check_all: parallel matches sequential" `Quick
        test_check_all_parallel_matches_sequential;
      Alcotest.test_case "monitor: parallel validate matches sequential" `Quick
        test_monitor_parallel_validate;
      Gen.qcheck_case prop_parallel_differential;
    ];
  Registry.register "parallel_delta"
    [
      Alcotest.test_case "run_ordered: skewed costs, complete and input-indexed" `Quick
        test_run_ordered_skewed_costs;
      Alcotest.test_case "run_ordered: execution order never changes results" `Quick
        test_run_ordered_order_independence;
      Alcotest.test_case "run_ordered: non-permutations are refused" `Quick
        test_run_ordered_rejects_non_permutation;
      Alcotest.test_case "run_ordered: first input-order failure wins" `Quick
        test_run_ordered_exception_input_order;
      Alcotest.test_case "replica: delta catch-up equals full hydration" `Quick
        test_replica_delta_parity;
      Alcotest.test_case "replica: content-preserving GC is invisible" `Quick
        test_replica_survives_compact;
      Alcotest.test_case "replica: structural change falls back to full" `Quick
        test_replica_structural_fallback;
      Alcotest.test_case "replica: a fresh domain copies the master" `Quick
        test_replica_fresh_domain_copies;
      Alcotest.test_case "monitor: row epochs hydrate via delta" `Quick
        test_monitor_delta_hydration;
      Alcotest.test_case "monitor: a cheap batch starts no pool" `Quick
        test_cheap_batch_starts_no_pool;
      Alcotest.test_case "monitor: an unmeasured batch never pools" `Quick
        test_unmeasured_batch_stays_local;
      Alcotest.test_case "monitor: a Forced Auto gate reads the planner" `Quick
        test_forced_monitor_prices_through_planner;
      Alcotest.test_case "monitor: a pooled pass leaves the gate's costs" `Quick
        test_pooled_pass_keeps_costs;
      Alcotest.test_case "monitor: stop before the pool started" `Quick
        test_stop_before_start;
      Alcotest.test_case "checker: costs are only a scheduling hint" `Quick
        test_costs_are_only_a_hint;
      Gen.qcheck_case prop_batching_differential;
    ]
