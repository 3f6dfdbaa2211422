(** Logical-index store tests: registration, covering lookup, the
    §5.2 incremental maintenance (insert/delete) staying consistent
    with a from-scratch rebuild, and the entry statistics and
    projections the index computes once per root. *)

module R = Fcv_relation
module I = Core.Index

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let make_db seed ~rows =
  let rng = Fcv_util.Rng.create seed in
  let db = R.Database.create () in
  R.Database.add_domain db (R.Dict.of_int_range "da" 9);
  R.Database.add_domain db (R.Dict.of_int_range "db" 6);
  R.Database.add_domain db (R.Dict.of_int_range "dc" 11);
  let t =
    R.Database.create_table db ~name:"t" ~attrs:[ ("a", "da"); ("b", "db"); ("c", "dc") ]
  in
  for _ = 1 to rows do
    R.Table.insert_coded t
      [| Fcv_util.Rng.int rng 9; Fcv_util.Rng.int rng 6; Fcv_util.Rng.int rng 11 |]
  done;
  (db, t, rng)

let test_add_and_find () =
  let db, _, _ = make_db 1 ~rows:100 in
  let idx = I.create db in
  let full = I.add idx ~table_name:"t" ~strategy:Core.Ordering.Prob_converge () in
  check_int "full arity" 3 (Array.length full.I.attrs);
  let proj = I.add idx ~table_name:"t" ~attrs:[ "a"; "c" ] ~strategy:(Core.Ordering.Fixed [| 0; 1 |]) () in
  check_int "projection arity" 2 (Array.length proj.I.attrs);
  check "find full" true (I.find_covering idx ~table_name:"t" ~needed:[ 0; 1; 2 ] <> None);
  (match I.find_covering idx ~table_name:"t" ~needed:[ 0; 2 ] with
  | Some e -> check "narrowest first is fine" true (Array.length e.I.attrs >= 2)
  | None -> Alcotest.fail "expected covering entry");
  check "no index on unknown table" true (I.find_covering idx ~table_name:"zzz" ~needed:[] = None)

let test_index_contents () =
  let db, t, _ = make_db 2 ~rows:150 in
  let idx = I.create db in
  let e = I.add idx ~table_name:"t" ~strategy:Core.Ordering.Max_inf_gain () in
  R.Table.iter t (fun row -> check "row indexed" true (I.entry_mem idx e row));
  check "absent row" (R.Table.mem_coded t [| 8; 5; 10 |]) (I.entry_mem idx e [| 8; 5; 10 |])

let test_projection_contents () =
  let db, t, _ = make_db 3 ~rows:150 in
  let idx = I.create db in
  let e = I.add idx ~table_name:"t" ~attrs:[ "a"; "b" ] ~strategy:Core.Ordering.Prob_converge () in
  R.Table.iter t (fun row -> check "projected row indexed" true (I.entry_mem idx e [| row.(0); row.(1) |]))

(* maintenance consistency: apply a random workload of inserts and
   deletes through the index, then compare against a rebuilt index *)
let test_maintenance_consistency () =
  let db, t, rng = make_db 4 ~rows:120 in
  let idx = I.create db in
  let e = I.add idx ~table_name:"t" ~strategy:Core.Ordering.Prob_converge () in
  for _ = 1 to 300 do
    if Fcv_util.Rng.bool rng || R.Table.cardinality t = 0 then
      I.insert idx ~table_name:"t"
        [| Fcv_util.Rng.int rng 9; Fcv_util.Rng.int rng 6; Fcv_util.Rng.int rng 11 |]
    else begin
      let victim = Array.copy (R.Table.row t (Fcv_util.Rng.int rng (R.Table.cardinality t))) in
      ignore (I.delete idx ~table_name:"t" victim)
    end
  done;
  (* rebuild from the mutated base table and compare as sets *)
  let idx2 = I.create db in
  let e2 = I.add idx2 ~table_name:"t" ~strategy:(Core.Ordering.Fixed e.I.order) () in
  let ok = ref true in
  for a = 0 to 8 do
    for b = 0 to 5 do
      for c = 0 to 10 do
        let row = [| a; b; c |] in
        if I.entry_mem idx e row <> I.entry_mem idx2 e2 row then ok := false
      done
    done
  done;
  check "incremental = rebuilt" true !ok

let test_duplicate_aware_deletion () =
  let db, _, _ = make_db 5 ~rows:0 in
  let idx = I.create db in
  let _ = I.add idx ~table_name:"t" ~strategy:Core.Ordering.Prob_converge () in
  let row = [| 1; 2; 3 |] in
  I.insert idx ~table_name:"t" row;
  I.insert idx ~table_name:"t" row;
  let e = List.hd (I.entries_for idx "t") in
  ignore (I.delete idx ~table_name:"t" row);
  check "still present after deleting one of two" true (I.entry_mem idx e row);
  ignore (I.delete idx ~table_name:"t" row);
  check "gone after deleting the second" false (I.entry_mem idx e row)

let test_out_of_domain_growth_rebuilds () =
  let db = R.Database.create () in
  let dict = R.Dict.create "grow" in
  ignore (R.Dict.intern dict (R.Value.Int 0));
  ignore (R.Dict.intern dict (R.Value.Int 1));
  R.Database.add_domain db dict;
  let t = R.Database.create_table db ~name:"g" ~attrs:[ ("x", "grow") ] in
  ignore (R.Table.insert t [| R.Value.Int 0 |]);
  let idx = I.create db in
  let e0 = I.add idx ~table_name:"g" ~strategy:Core.Ordering.Prob_converge () in
  (* interning new values after the index was built: codes 2.. exceed
     the block's one-bit capacity, so the insert must transparently
     rebuild the entry rather than raise or corrupt it *)
  ignore (R.Dict.intern dict (R.Value.Int 2));
  ignore (R.Dict.intern dict (R.Value.Int 3));
  (* the raw single-entry maintenance hook still signals *)
  check "update_entry signals rebuild" true
    (match I.update_entry idx e0 ~insert:true [| 3 |] with
    | exception I.Needs_rebuild _ -> true
    | _ -> false);
  I.insert idx ~table_name:"g" [| 3 |];
  let e = List.hd (I.entries_for idx "g") in
  check "entry replaced" true (e != e0);
  check_int "block widened to the grown domain" 4 e.I.blocks.(0).Fcv_bdd.Fd.dom_size;
  check "new row present" true (I.entry_mem idx e [| 3 |]);
  check "old row retained" true (I.entry_mem idx e [| 0 |]);
  (* incremental maintenance keeps working on the rebuilt entry *)
  check "deletes one occurrence" true (I.delete idx ~table_name:"g" [| 3 |]);
  check "gone after delete" false (I.entry_mem idx e [| 3 |]);
  check_int "base table back to one row" 1 (R.Table.cardinality t)

let test_entry_size_and_build_time () =
  let db, _, _ = make_db 6 ~rows:200 in
  let idx = I.create db in
  let e = I.add idx ~table_name:"t" ~strategy:Core.Ordering.Prob_converge () in
  check "positive size" true (I.entry_size idx e > 2);
  check "build time recorded" true (e.I.build_time >= 0.)

(* -- entry statistics -------------------------------------------------------- *)

module M = Fcv_bdd.Manager

let entry_levels (e : I.entry) =
  let levels =
    Array.concat (Array.to_list (Array.map (fun b -> b.Fcv_bdd.Fd.levels) e.I.blocks))
  in
  Array.sort compare levels;
  levels

(* Projection keys over an entry's attributes: each attribute dropped
   alone, all but the first dropped, the first fixed to a code (alone,
   and with the last dropped). *)
let projection_keys (e : I.entry) =
  let attrs = Array.to_list e.I.attrs in
  let first = List.hd attrs and last = List.nth attrs (List.length attrs - 1) in
  let code = 2 mod e.I.blocks.(0).Fcv_bdd.Fd.dom_size in
  List.map (fun p -> ([], [ p ])) attrs
  @ [ ([], List.tl attrs); ([ (first, code) ], []) ]
  @ if last <> first then [ ([ (first, code) ], [ last ]) ] else []

(* The projection computed afresh from the root, restrict then ∃. *)
let fresh_projection m (e : I.entry) (fix, drop) =
  let block p = e.I.blocks.(I.slot_of e p) in
  let literals =
    List.concat_map
      (fun (p, code) ->
        let b = block p in
        List.init (Fcv_bdd.Fd.width b) (fun j ->
            (Fcv_bdd.Fd.level_of_bit b j, Fcv_util.Bits.test code j)))
      fix
  in
  let levels = List.concat_map (fun p -> Array.to_list (block p).Fcv_bdd.Fd.levels) drop in
  Fcv_bdd.Ops.exists m levels (Fcv_bdd.Ops.restrict m e.I.root literals)

let cached (e : I.entry) = Hashtbl.length e.I.projections

(* University data, the four structural constraints plus twelve
   department-area policies, rows moved between rounds (one deleted, a
   recombined one inserted, every value already in its dictionary so
   no entry rebuilds), one compaction per round, then one rebuild on
   domain growth and one level recycle.  At every check point each
   entry's statistics equal a fresh count of its current root, each
   of its projections equals a fresh restrict and ∃ of that root, and
   the planner's estimate equals its value on a freshly loaded copy of
   the index, which has nothing counted. *)
let test_entry_stats_follow_root () =
  let rng = Fcv_util.Rng.create 42 in
  let db, _, _, _ =
    Fcv_datagen.University.generate rng
      { Fcv_datagen.University.default with students = 300; violators = 5 }
  in
  let fs =
    List.map Core.Fol_parser.of_string
      ([
         "forall s, c . takes(s, c) -> (exists a . course(c, a))";
         "forall s, c . takes(s, c) -> (exists d, k . student(s, d, k))";
         "forall s, d1, k1, d2, k2 . student(s, d1, k1) and student(s, d2, k2) -> d1 = d2";
         "forall c, a1, a2 . course(c, a1) and course(c, a2) -> a1 = a2";
       ]
      @ List.init 12 (fun i ->
            Printf.sprintf
              "forall s, k . student(s, %d, k) -> (exists c . takes(s, c) and course(c, %d))"
              (i mod 8) (i / 8)))
  in
  let index = I.create db in
  Core.Checker.ensure_indices index fs;
  let expect point =
    let m = I.mgr index in
    List.iter
      (fun e ->
        let what = Printf.sprintf "%s, %s" point (R.Table.name e.I.table) in
        check_int (what ^ ": size") (M.node_count m e.I.root) (I.entry_size index e);
        Alcotest.(check (float 0.))
          (what ^ ": rows")
          (Fcv_bdd.Sat.count_over m e.I.root ~levels:(entry_levels e))
          (I.entry_rows index e);
        List.iter
          (fun ((fix, drop) as key) ->
            check_int (what ^ ": projection")
              (fresh_projection m e key)
              (I.projection index e ~fix ~drop))
          (projection_keys e))
      (I.entries index);
    let copy = Core.Index_io.load_string db (Core.Index_io.save_string index) in
    List.iter
      (fun f ->
        Alcotest.(check (float 0.))
          (Printf.sprintf "%s: estimate of %s" point (Core.Formula.to_string f))
          (Core.Planner.estimate_bdd_ms copy f)
          (Core.Planner.estimate_bdd_ms index f))
      fs
  in
  let counted_nothing point =
    List.iter
      (fun e ->
        check (point ^ ": nothing counted") true (e.I.size_at = -1 && e.I.rows_at = -1);
        check_int (point ^ ": nothing cached") 0 (cached e))
      (I.entries index)
  in
  let move round table_name =
    let t = R.Database.table db table_name in
    let n = R.Table.cardinality t in
    let row = Array.copy (R.Table.row t (Fcv_util.Rng.int rng n)) in
    ignore (I.delete index ~table_name row);
    expect (Printf.sprintf "round %d, delete from %s" round table_name);
    let other = R.Table.row t (Fcv_util.Rng.int rng (n - 1)) in
    let j = Fcv_util.Rng.int rng (Array.length row) in
    row.(j) <- other.(j);
    I.insert index ~table_name row;
    expect (Printf.sprintf "round %d, insert into %s" round table_name)
  in
  let version = index.I.structure_version in
  expect "built";
  for round = 1 to 12 do
    List.iter (move round) [ "takes"; "takes"; "student"; "course" ];
    ignore (I.compact index);
    (* compaction keeps every BDD: the counts and the projections read
       since the last compaction follow the remapped roots *)
    List.iter
      (fun e ->
        check
          (Printf.sprintf "round %d: counts carried over by compaction" round)
          true
          (e.I.size_at = e.I.root && e.I.rows_at = e.I.root);
        List.iter
          (fun key ->
            check
              (Printf.sprintf "round %d: projection carried over by compaction" round)
              true
              (match Hashtbl.find_opt e.I.projections key with
              | Some p -> p.I.at = e.I.root && not p.I.read
              | None -> false))
          (projection_keys e))
      (I.entries index);
    expect (Printf.sprintf "round %d, compacted" round)
  done;
  check_int "no row move rebuilt an entry" version index.I.structure_version;
  (* a value past the course entries' frozen domain rebuilds them *)
  let course = R.Database.table db "course" in
  let area = R.Dict.intern (R.Table.dict course 1) (R.Value.Int 1_000_000) in
  I.insert index ~table_name:"course" [| (R.Table.row course 0).(0); area |];
  check "domain growth rebuilt an entry" true (index.I.structure_version > version);
  List.iter
    (fun e -> check_int "a rebuilt entry starts with nothing cached" 0 (cached e))
    (I.entries_for index "course");
  expect "rebuilt on domain growth";
  ignore (Core.Lifecycle.recycle index);
  counted_nothing "recycled";
  expect "recycled"

(* Compaction keeps the projections a check read since the previous
   compaction, drops the unread and the stale ones, and leaves the
   store exactly as large as the live count; a recycle caches
   nothing. *)
let test_projections_through_compaction () =
  let db, t, rng = make_db 8 ~rows:150 in
  let idx = I.create db in
  let e = I.add idx ~table_name:"t" ~strategy:Core.Ordering.Prob_converge () in
  let m = I.mgr idx in
  let read (fix, drop) = I.projection idx e ~fix ~drop in
  let k1 = ([], [ 2 ]) and k2 = ([ (0, 3) ], [ 1 ]) and k3 = ([], [ 1; 2 ]) in
  List.iter (fun k -> ignore (read k)) [ k1; k2; k3 ];
  check_int "three keys cached" 3 (cached e);
  let live_is_size what =
    check_int (what ^ ": size = live") (M.size m) (I.live_nodes idx);
    Alcotest.(check (float 0.)) (what ^ ": dead ratio") 0. (I.dead_ratio idx)
  in
  ignore (I.compact idx);
  check_int "read projections carried over" 3 (cached e);
  live_is_size "first compaction";
  List.iter
    (fun k -> check_int "carried projection is exact" (fresh_projection m e k) (read k))
    [ k1; k3 ];
  ignore (I.compact idx);
  check "unread projection gone" false (Hashtbl.mem e.I.projections k2);
  check "read projections kept" true
    (Hashtbl.mem e.I.projections k1 && Hashtbl.mem e.I.projections k3);
  live_is_size "second compaction";
  (* a read at a root that then changes is stale at the next compaction *)
  ignore (read k1);
  let rec fresh_row () =
    let row = [| Fcv_util.Rng.int rng 9; Fcv_util.Rng.int rng 6; Fcv_util.Rng.int rng 11 |] in
    if R.Table.mem_coded t row then fresh_row () else row
  in
  I.insert idx ~table_name:"t" (fresh_row ());
  ignore (I.compact idx);
  check_int "stale projection dropped" 0 (cached e);
  live_is_size "after a root change";
  ignore (read k1);
  ignore (Core.Lifecycle.recycle idx);
  List.iter (fun e -> check_int "recycle caches nothing" 0 (cached e)) (I.entries idx)

(* A budget that trips inside a projection caches nothing for its key,
   and the check falls back to the naive verdict. *)
let test_projection_budget_trip () =
  let db, _, _ = make_db 9 ~rows:120 in
  let f = Core.Fol_parser.of_string "forall a . t(a, _, _) -> (exists c . t(a, 4, c))" in
  let idx = I.create db in
  Core.Checker.ensure_indices idx [ f ];
  let e = List.hd (I.entries_for idx "t") in
  let m = I.mgr idx in
  M.set_max_nodes m (M.size m);
  check "the projection trips the budget" true
    (match I.projection idx e ~fix:[] ~drop:[ 1; 2 ] with
    | exception M.Node_limit _ -> true
    | _ -> false);
  check_int "nothing cached after the trip" 0 (cached e);
  let r = Core.Checker.check idx f in
  check "fell back" true (r.Core.Checker.method_used <> Core.Checker.Bdd);
  let naive = if Core.Naive_eval.holds db f then Core.Checker.Satisfied else Core.Checker.Violated in
  check "fallback verdict = naive" true (r.Core.Checker.outcome = naive);
  check_int "still nothing cached" 0 (cached e)

(* A cached size is a field read: uncached, each of these calls would
   walk more than 2^16 nodes. *)
let test_cached_size_is_a_lookup () =
  let db = R.Database.create () in
  R.Database.add_domain db (R.Dict.of_int_range "w" 4096);
  let t = R.Database.create_table db ~name:"big" ~attrs:[ ("a", "w"); ("b", "w"); ("c", "w") ] in
  let rng = Fcv_util.Rng.create 7 in
  let random_row () = Array.init 3 (fun _ -> Fcv_util.Rng.int rng 4096) in
  for _ = 1 to 16_000 do
    R.Table.insert_coded t (random_row ())
  done;
  let idx = I.create db in
  let e = I.add idx ~table_name:"big" ~strategy:(Core.Ordering.Fixed [| 0; 1; 2 |]) () in
  let size = I.entry_size idx e in
  if size <= 1 lsl 16 then Alcotest.failf "entry has %d nodes, want more than 2^16" size;
  let t0 = Fcv_util.Timer.now () in
  for _ = 1 to 10_000 do
    ignore (I.entry_size idx e)
  done;
  let ms = (Fcv_util.Timer.now () -. t0) *. 1000. in
  if ms >= 50. then Alcotest.failf "10,000 cached reads took %.1f ms" ms;
  let root = e.I.root in
  let rec fresh_row () =
    let row = random_row () in
    if R.Table.mem_coded t row then fresh_row () else row
  in
  I.insert idx ~table_name:"big" (fresh_row ());
  check "the insert changed the root" true (e.I.root <> root);
  let size' = I.entry_size idx e in
  check_int "recounted at the new root" (M.node_count (I.mgr idx) e.I.root) size';
  check "the count moved" true (size' <> size)

let suite =
  [
    Alcotest.test_case "add and find" `Quick test_add_and_find;
    Alcotest.test_case "index contents" `Quick test_index_contents;
    Alcotest.test_case "projection contents" `Quick test_projection_contents;
    Alcotest.test_case "maintenance consistency" `Quick test_maintenance_consistency;
    Alcotest.test_case "duplicate-aware deletion" `Quick test_duplicate_aware_deletion;
    Alcotest.test_case "domain growth rebuilds in place" `Quick
      test_out_of_domain_growth_rebuilds;
    Alcotest.test_case "entry size / build time" `Quick test_entry_size_and_build_time;
    Alcotest.test_case "entry statistics follow the root" `Quick test_entry_stats_follow_root;
    Alcotest.test_case "projections through compaction" `Quick
      test_projections_through_compaction;
    Alcotest.test_case "a budget trip caches no projection" `Quick test_projection_budget_trip;
    Alcotest.test_case "a cached size is a lookup" `Quick test_cached_size_is_a_lookup;
  ]

let () = Registry.register "index" suite
