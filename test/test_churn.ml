(** Churn soak: the memory-lifecycle subsystem under a long seeded
    insert/delete/rebuild/register/unregister loop over the
    university and retail generators.  Pins the serving-path
    guarantees:

    - node count, level count and op-cache occupancy stay bounded
      across ≥ 10 GC cycles (after each GC, [Manager.size] ≤ 2× the
      reachable size of the live roots);
    - levels in use do not grow monotonically across rebuild epochs
      (recycling reclaims abandoned level space, so the 511-level
      ceiling is a per-epoch budget, not a lifetime fuse);
    - sequential and parallel verdicts are identical immediately
      before and after every compaction. *)

module R = Fcv_relation
module M = Fcv_bdd.Manager

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let university_constraints =
  [
    "forall s . student(s, 0, _) -> (exists c . course(c, 0) and takes(s, c))";
    "forall s . student(s, _, _) -> (exists c . takes(s, c))";
    "forall s, c . takes(s, c) -> (exists a . course(c, a))";
  ]

(* One random mutation: delete a random row, or insert a perturbed
   clone of one — occasionally carrying a freshly interned value, which
   exceeds the entry's frozen domain capacity and forces a rebuild
   (the level-abandonment source the recycler exists for). *)
let churn_step rng mon db fresh =
  let tables = R.Database.table_names db in
  let tbl = List.nth tables (Fcv_util.Rng.int rng (List.length tables)) in
  let t = R.Database.table db tbl in
  let n = R.Table.cardinality t in
  if n = 0 then ()
  else if Fcv_util.Rng.bernoulli rng 0.4 then
    ignore
      (Core.Monitor.delete mon ~table_name:tbl
         (Array.copy (R.Table.row t (Fcv_util.Rng.int rng n))))
  else begin
    let row = Array.copy (R.Table.row t (Fcv_util.Rng.int rng n)) in
    let j = Fcv_util.Rng.int rng (Array.length row) in
    if Fcv_util.Rng.bernoulli rng 0.2 then begin
      incr fresh;
      row.(j) <-
        R.Dict.intern (R.Table.dict t j)
          (R.Value.of_string (Printf.sprintf "churn!%d" !fresh))
    end
    else row.(j) <- (R.Table.row t (Fcv_util.Rng.int rng n)).(j);
    Core.Monitor.insert mon ~table_name:tbl row
  end

let verdicts_both mon =
  let seq = Core.Monitor.verdicts mon in
  Core.Monitor.set_jobs mon 4;
  let par = Core.Monitor.verdicts mon in
  Core.Monitor.set_jobs mon 1;
  (seq, par)

(* The soak proper, parameterised by base database and constraint
   pool; [cycles] compactions are forced (plus whatever the automatic
   policy triggers through validate). *)
let soak ~seed ~cycles ~ops_per_cycle db sources =
  let rng = Fcv_util.Rng.create seed in
  let max_cache = 1 lsl 12 in
  let index = Core.Index.create ~max_cache db in
  let policy =
    { Core.Lifecycle.default_policy with min_nodes = 1 lsl 8; growth_hi = 0.4 }
  in
  let mon = Core.Monitor.create ~gc:(Some policy) index in
  (* register/unregister churn: the head constraint cycles in and out *)
  let registered =
    ref (List.map (fun s -> (s, Core.Monitor.add mon s)) sources)
  in
  let fresh = ref 0 in
  let levels_trace = ref [] in
  for cycle = 1 to cycles do
    for _ = 1 to ops_per_cycle do
      churn_step rng mon db fresh
    done;
    (* unregister one constraint and re-register it next cycle, so
       entry liveness changes under the GC *)
    (match !registered with
    | (src, reg) :: rest when List.length rest >= 1 && cycle mod 2 = 0 ->
      Core.Monitor.remove mon reg.Core.Monitor.id;
      registered := rest @ [ (src, Core.Monitor.add mon src) ]
    | _ -> ());
    let before_seq, before_par = verdicts_both mon in
    check "seq/par verdicts agree before compaction" true (before_seq = before_par);
    ignore (Core.Monitor.gc mon);
    (* the acceptance bound: after GC the store holds at most 2× the
       reachable size of the live roots (compact keeps exactly them) *)
    let live = Core.Index.live_nodes index in
    check "size <= 2x live after GC" true (M.size (Core.Index.mgr index) <= 2 * live);
    check "op caches bounded" true (M.cache_entries (Core.Index.mgr index) <= 3 * max_cache);
    check "levels under the ceiling" true (M.nvars (Core.Index.mgr index) <= M.max_level);
    levels_trace := M.nvars (Core.Index.mgr index) :: !levels_trace;
    let after_seq, after_par = verdicts_both mon in
    check "seq/par verdicts agree after compaction" true (after_seq = after_par);
    check "verdicts survive compaction" true (before_seq = after_seq)
  done;
  check "at least 10 GC cycles" true (index.Core.Index.gc_runs >= 10);
  (* rebuilds abandoned levels throughout, so monotone growth would
     mean recycling never reclaimed anything *)
  let trace = List.rev !levels_trace in
  let strictly_growing =
    let rec go = function
      | a :: (b :: _ as rest) -> a < b && go rest
      | _ -> true
    in
    go trace
  in
  check "levels do not grow monotonically" false strictly_growing;
  Core.Monitor.stop mon

let test_soak_university () =
  let rng = Fcv_util.Rng.create 42 in
  let db, _, _, _ =
    Fcv_datagen.University.generate rng
      { Fcv_datagen.University.default with students = 60; courses = 20 }
  in
  soak ~seed:1042 ~cycles:12 ~ops_per_cycle:25 db university_constraints

let test_soak_retail () =
  let rng = Fcv_util.Rng.create 43 in
  let gen =
    Fcv_datagen.Retail.generate rng
      { Fcv_datagen.Retail.default with customers = 60; products = 25; orders = 150 }
  in
  soak ~seed:1043 ~cycles:12 ~ops_per_cycle:25 gen.Fcv_datagen.Retail.db
    (List.map snd Fcv_datagen.Retail.audit_constraints)

(* Regression for the Level_limit satellite: repeated domain-growth
   rebuilds demand > 511 cumulative levels; without recycling,
   new_var's ceiling was a lifetime fuse that killed the daemon. *)
let test_level_recycling_crosses_ceiling () =
  let db = R.Database.create () in
  let attrs = List.init 8 (fun i -> (Printf.sprintf "a%d" i, Printf.sprintf "d%d" i)) in
  let t = R.Database.create_table db ~name:"t" ~attrs in
  for r = 0 to 3 do
    R.Table.insert_coded t
      (Array.init 8 (fun k ->
           R.Dict.intern (R.Table.dict t k)
             (R.Value.of_string (Printf.sprintf "seed%d_%d" r k))))
  done;
  let index = Core.Index.create db in
  (* eager recycling: any abandoned level triggers a recycle at the
     next validation, so the BDD path always has headroom and the
     checker never falls back to enumeration over these huge domains *)
  let policy = { Core.Lifecycle.default_policy with level_slack = 1 } in
  let mon = Core.Monitor.create ~gc:(Some policy) index in
  let _ =
    Core.Monitor.add mon
      "forall a, b, c, d, e, f, g, h . t(a, b, c, d, e, f, g, h) -> t(a, b, c, d, e, f, g, h)"
  in
  ignore (Core.Monitor.validate mon);
  (* cumulative level demand: within-generation growth summed across
     recycles (a lower bound on what a recycle-less manager would
     have had to allocate) *)
  let cumulative = ref (M.nvars (Core.Index.mgr index)) in
  let last = ref (M.nvars (Core.Index.mgr index)) in
  let note () =
    let nv = M.nvars (Core.Index.mgr index) in
    if nv > !last then cumulative := !cumulative + (nv - !last);
    last := nv
  in
  for epoch = 1 to 10 do
    (* double every attribute's dictionary, then insert a row carrying
       the new max codes — out of frozen capacity, forcing a rebuild
       with doubled block widths *)
    let row =
      Array.init 8 (fun k ->
          let d = R.Table.dict t k in
          let target = 2 * R.Dict.size d in
          let c = ref 0 in
          while R.Dict.size d < target do
            incr c;
            ignore
              (R.Dict.intern d (R.Value.of_string (Printf.sprintf "g%d_%d_%d" epoch k !c)))
          done;
          R.Dict.size d - 1)
    in
    Core.Monitor.insert mon ~table_name:"t" row;
    note ();
    (* validate runs the lifecycle policy between checks *)
    check "violation-free epoch" true
      (List.for_all
         (fun r -> r.Core.Monitor.outcome = Core.Checker.Satisfied)
         (Core.Monitor.validate mon));
    note ()
  done;
  check "cumulative demand crossed the packing ceiling" true (!cumulative > M.max_level);
  check "levels in use stayed under the ceiling" true
    (M.nvars (Core.Index.mgr index) <= M.max_level);
  check "level recycles ran" true (index.Core.Index.level_recycles > 0)

(* A rebuild that hits the level ceiling mid-update defers: the entry
   drops out, the next validation recycles and re-admits it, and the
   verdict is unaffected. *)
let test_deferred_rebuild_recovers () =
  let rng = Fcv_util.Rng.create 7 in
  let db, _, _, _ =
    Fcv_datagen.University.generate rng
      { Fcv_datagen.University.default with students = 40; courses = 12 }
  in
  let index = Core.Index.create db in
  let mon = Core.Monitor.create index in
  let _ = Core.Monitor.add mon "forall s, c . takes(s, c) -> (exists a . course(c, a))" in
  ignore (Core.Monitor.validate mon);
  (* burn almost all remaining level space so the next rebuild cannot
     fit; the burned levels are abandoned, so a recycle reclaims them *)
  let mgr = Core.Index.mgr index in
  ignore (M.new_vars mgr (M.max_level - M.nvars mgr - 2));
  (* grow a course-table domain and insert an out-of-capacity row *)
  let course = R.Database.table db "course" in
  let fresh_area = R.Dict.intern (R.Table.dict course 1) (R.Value.of_string "churn-area") in
  Core.Monitor.insert mon ~table_name:"course" [| 0; fresh_area |];
  check "entry deferred, not lost" true (index.Core.Index.deferred <> []);
  check_int "course entries dropped for now" 0
    (List.length (Core.Index.entries_for index "course"));
  (* the next validation recycles, re-admits the entry, and the
     verdict is the ground truth *)
  let reports = Core.Monitor.validate mon in
  check "recycle re-admitted the entry" true
    (Core.Index.entries_for index "course" <> []);
  check_int "nothing left deferred" 0 (List.length index.Core.Index.deferred);
  check "levels reclaimed" true (M.nvars (Core.Index.mgr index) < M.max_level / 2);
  check "verdict correct after recovery" true
    (List.for_all (fun r -> r.Core.Monitor.outcome = Core.Checker.Satisfied) reports)

(* [n] new nodes nothing references, made over four fresh bottom
   levels: each pairs two distinct nodes from the levels below. *)
let make_garbage mgr n =
  let vars = M.new_vars mgr 4 in
  let made = ref 0 and below = ref [ M.zero; M.one ] in
  (try
     for i = Array.length vars - 1 downto 0 do
       let level = ref [] in
       List.iter
         (fun lo ->
           List.iter
             (fun hi ->
               if lo <> hi then begin
                 if !made = n then raise Exit;
                 level := M.mk mgr vars.(i) lo hi :: !level;
                 incr made
               end)
             !below)
         !below;
       below := !level @ !below
     done
   with Exit -> ());
  check_int "garbage made" n !made

(* The GC trigger reads two counters, no walk: it fires once the store
   reaches [1 / (1 - growth_hi)] times its size right after the last
   compaction (the live count then), and a compaction moves the base.
   Building an entry adds its nodes to the base, not its garbage. *)
let test_gc_trigger_tracks_growth () =
  let rng = Fcv_util.Rng.create 7 in
  let db, _, _, _ =
    Fcv_datagen.University.generate rng
      { Fcv_datagen.University.default with students = 40; courses = 12 }
  in
  let index = Core.Index.create db in
  Core.Checker.ensure_indices index
    [ Core.Fol_parser.of_string "forall s, c . takes(s, c) -> (exists a . course(c, a))" ];
  let mgr = Core.Index.mgr index in
  check_int "built entries join the creation base"
    (List.fold_left
       (fun n e -> n + M.node_count mgr e.Core.Index.root)
       2 (Core.Index.entries index))
    index.Core.Index.gc_base;
  (* growth_hi 0.75: fires at 4x the base, exact in floating point *)
  let policy =
    { Core.Lifecycle.default_policy with min_nodes = 0; growth_hi = 0.75; cache_hi = 0 }
  in
  let fires () = Core.Lifecycle.needs_gc policy index in
  ignore (Core.Index.compact index);
  let base = M.size mgr in
  check_int "the base is the post-compaction size" base index.Core.Index.gc_base;
  check_int "which is the live count" (Core.Index.live_nodes index) base;
  check "no growth: no GC" false (fires ());
  make_garbage mgr ((4 * base) - 1 - M.size mgr);
  check_int "one node short of 4x" ((4 * base) - 1) (M.size mgr);
  check "one node short: no GC" false (fires ());
  make_garbage mgr 1;
  check "at 4x the base: GC" true (fires ());
  let action = Core.Lifecycle.maybe_gc ~policy index in
  check "maybe_gc collects" true action.Core.Lifecycle.gc_ran;
  check_int "the garbage is reclaimed" (3 * base) action.Core.Lifecycle.reclaimed;
  check_int "the base moves to the new size" (M.size mgr) index.Core.Index.gc_base;
  check "after the compaction: no GC" false (fires ());
  check "growth_hi 0 disables the trigger" false
    (Core.Lifecycle.needs_gc { policy with growth_hi = 0. } index)

let suite =
  [
    Alcotest.test_case "churn soak (university)" `Slow test_soak_university;
    Alcotest.test_case "churn soak (retail)" `Slow test_soak_retail;
    Alcotest.test_case "level recycling crosses the 511 ceiling" `Quick
      test_level_recycling_crosses_ceiling;
    Alcotest.test_case "deferred rebuild recovers via recycle" `Quick
      test_deferred_rebuild_recovers;
    Alcotest.test_case "GC fires at a multiple of the post-compaction size" `Quick
      test_gc_trigger_tracks_growth;
  ]

let () = Registry.register "churn" suite
