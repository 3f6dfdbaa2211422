(* Planner-vs-legacy validation benchmark.

     dune exec bench/plan.exe [-- OUT.json]

   Runs the monitor's steady-state validation shape — net-zero
   mutation epoch, then a validate pass — over three workloads, twice
   each: once under [Forced Auto] planning (the paper's blind
   try-BDD-first thresholding, "legacy" below) and once under [Planned] (the
   cost-based planner choosing per-constraint strategies and learning
   from every result).  Each mode runs on its own monitor over its own
   copy of the workload, and their timed passes alternate (one legacy
   pass, then one planner pass), so a stretch of host noise lands on
   both sides instead of on one mode's whole run.  Writes
   BENCH_plan.json.

   Workloads:
   - university (50) and retail (24): the same constraint suites as
     bench/parallel.ml — the planner must never lose on workloads the
     legacy path already handles well;
   - pathological: a university suite run under a node budget planted
     just above the index size, so every BDD compile trips the budget
     and falls back.  Each of its passes first marks every
     constraint's tables dirty (as [fcv explain --warm] does), so it
     re-checks all 12 constraints: legacy pays the abandoned attempt on
     every pass; the planner demotes tripping constraints straight to
     SQL after two consecutive trips and stops paying it.

   Gates (exit 1 on violation; fatal in CI via bench/ci.sh under
   FCV_CI=1):
   - verdict exactness: planned and legacy validation find the same
     violated count on every pass;
   - the planner is never slower than legacy by more than 10% on any
     workload (mean validate ms over the timed passes);
   - the pathological plant is real: legacy must trip the budget on
     every timed pass (else the workload measures nothing). *)

module R = Fcv_relation
module T = Fcv_util.Telemetry
module M = Fcv_bdd.Manager

let warm_passes = 2
let timed_passes = 15
let slack = 1.10

(* -- workloads (the university/retail suites match bench/parallel.ml) -------- *)

let university_constraints =
  [
    "forall s, c . takes(s, c) -> (exists a . course(c, a))";
    "forall s, c . takes(s, c) -> (exists d, k . student(s, d, k))";
    "forall s, d1, k1, d2, k2 . student(s, d1, k1) and student(s, d2, k2) -> d1 = d2";
    "forall c, a1, a2 . course(c, a1) and course(c, a2) -> a1 = a2";
  ]
  @ List.init 46 (fun i ->
        Printf.sprintf
          "forall s, k . student(s, %d, k) -> (exists c . takes(s, c) and course(c, %d))"
          (i mod 8) (i / 8))

let university () =
  let rng = Fcv_util.Rng.create 42 in
  let db, _, _, _ =
    Fcv_datagen.University.generate rng
      { Fcv_datagen.University.default with students = 3_000; violators = 30 }
  in
  (db, university_constraints, None)

let retail_constraints =
  List.map snd Fcv_datagen.Retail.audit_constraints
  @ List.init 4 (fun sg ->
        Printf.sprintf
          "forall c, ch . orders(_, c, _, _, ch) and customers(c, _, _, %d) -> \
           allowed_channel(%d, ch)"
          sg sg)
  @ List.init 12 (fun k ->
        Printf.sprintf "forall o . shipments(o, %d, _) -> (exists hs . carriers(%d, hs))" k k)

let retail () =
  let rng = Fcv_util.Rng.create 42 in
  let gen =
    Fcv_datagen.Retail.generate rng
      {
        Fcv_datagen.Retail.default with
        customers = 2_000;
        products = 500;
        orders = 10_000;
        bad_ref_rate = 0.002;
        bad_dest_rate = 0.01;
        bad_channel_rate = 0.005;
      }
  in
  (gen.Fcv_datagen.Retail.db, retail_constraints, None)

(* The plant: join-heavy policy constraints under a budget left just
   [headroom] nodes above the built index — enough for the per-epoch
   row churn, never enough for a 3-atom join compile. *)
let pathological_constraints =
  [
    "forall s, c . takes(s, c) -> (exists a . course(c, a))";
    "forall s, c . takes(s, c) -> (exists d, k . student(s, d, k))";
  ]
  @ List.init 10 (fun i ->
        Printf.sprintf
          "forall s, k . student(s, %d, k) -> (exists c . takes(s, c) and course(c, %d))"
          (i mod 8) (i / 8))

let pathological () =
  let rng = Fcv_util.Rng.create 42 in
  let db, _, _, _ =
    Fcv_datagen.University.generate rng
      { Fcv_datagen.University.default with students = 1_500; violators = 10 }
  in
  (db, pathological_constraints, Some 4_096)

(* Mark every constraint's tables dirty, so the next pass re-checks the
   whole suite, not just what the mutation pair reached. *)
let mark_all_dirty monitor =
  List.iter
    (fun r -> List.iter (Core.Monitor.mark_dirty monitor) r.Core.Monitor.tables)
    (Core.Monitor.constraints monitor)

(* -- measurement ------------------------------------------------------------- *)

type mode_run = {
  mean_ms : float;
  violated : int;
  trips : int;  (** manager budget trips over the whole run *)
  untripped : int;  (** timed passes without a budget trip *)
  pstats : Core.Planner.stats option;  (** [Planned] runs only *)
}

let count_violated reports =
  List.length
    (List.filter (fun r -> r.Core.Monitor.outcome = Core.Checker.Violated) reports)

(* One net-zero mutation epoch through the monitor (so dirtiness
   tracking sees it): duplicate an existing row of the first indexed
   table, then delete the duplicate again. *)
let mutation_pair monitor =
  let index = Core.Monitor.index monitor in
  let table =
    match Core.Index.entries index with
    | e :: _ -> e.Core.Index.table
    | [] -> failwith "mutation_pair: no indexed table"
  in
  let table_name = R.Table.name table in
  let row = Array.copy (R.Table.row table 0) in
  Core.Monitor.insert monitor ~table_name row;
  ignore (Core.Monitor.delete monitor ~table_name row)

let mode_name = function
  | Core.Monitor.Planned -> "planner"
  | Core.Monitor.Forced s -> "forced-" ^ Core.Checker.strategy_name s

(* One mode's monitor over its own copy of the workload. *)
type mode = {
  planning : Core.Monitor.planning;
  monitor : Core.Monitor.t;
  mgr : M.t;
  trips0 : int;
}

let setup make planning =
  let db, sources, headroom = make () in
  let formulas = List.map Core.Fol_parser.of_string sources in
  let index = Core.Index.create ~max_nodes:1_000_000 db in
  Core.Checker.ensure_indices index formulas;
  let mgr = Core.Index.mgr index in
  (match headroom with
  | Some h -> M.set_max_nodes mgr (M.size mgr + h)
  | None -> ());
  let trips0 = (M.stats mgr).M.budget_trips in
  let monitor = Core.Monitor.create ~planning index in
  List.iter (fun src -> ignore (Core.Monitor.add monitor src)) sources;
  { planning; monitor; mgr; trips0 }

(* One pass: validate time in ms, the violated count, and the budget
   trips it took.  [recheck_all] marks the whole suite dirty first. *)
let pass ~recheck_all m =
  (* reclaim abandoned-attempt garbage outside the timer, so a
     tight-budget run never starves index maintenance of nodes *)
  ignore (Core.Monitor.gc m.monitor);
  mutation_pair m.monitor;
  if recheck_all then mark_all_dirty m.monitor;
  let trips0 = (M.stats m.mgr).M.budget_trips in
  let t0 = Fcv_util.Timer.now () in
  let reports = Core.Monitor.validate m.monitor in
  ( (Fcv_util.Timer.now () -. t0) *. 1000.,
    count_violated reports,
    (M.stats m.mgr).M.budget_trips - trips0 )

(* A mode's summary over its timed passes. *)
let summarise m runs =
  let violated =
    match List.sort_uniq compare (List.map (fun (_, v, _) -> v) runs) with
    | [ v ] -> v
    | vs ->
      failwith
        (Printf.sprintf "%s: violated count drifted across passes: {%s}"
           (mode_name m.planning)
           (String.concat ", " (List.map string_of_int vs)))
  in
  let mean_ms =
    List.fold_left (fun acc (ms, _, _) -> acc +. ms) 0. runs /. float_of_int timed_passes
  in
  {
    mean_ms;
    violated;
    trips = (M.stats m.mgr).M.budget_trips - m.trips0;
    untripped = List.length (List.filter (fun (_, _, trips) -> trips = 0) runs);
    pstats =
      (match m.planning with
      | Core.Monitor.Planned -> Some (Core.Planner.stats (Core.Monitor.planner m.monitor))
      | _ -> None);
  }

(* Both modes, warmed, then their timed passes interleaved. *)
let run_modes make ~recheck_all =
  let legacy = setup make (Core.Monitor.Forced Core.Checker.Auto) in
  let planner = setup make Core.Monitor.Planned in
  let pass = pass ~recheck_all in
  for _ = 1 to warm_passes do
    ignore (pass legacy);
    ignore (pass planner)
  done;
  let runs =
    List.init timed_passes (fun _ ->
        let l = pass legacy in
        (l, pass planner))
  in
  (summarise legacy (List.map fst runs), summarise planner (List.map snd runs))

type workload_result = {
  name : string;
  n_constraints : int;
  legacy : mode_run;
  planner : mode_run;
  ratio : float;
  failures : string list;
}

(* A [planted] workload re-checks the whole suite on every pass, and
   legacy must trip the budget on every timed pass. *)
let run_workload name make ~planted =
  Printf.printf "\n== %s ==\n%!" name;
  let legacy, planner = run_modes make ~recheck_all:planted in
  let ratio = if legacy.mean_ms > 0. then planner.mean_ms /. legacy.mean_ms else 1. in
  let failures =
    (if planner.violated <> legacy.violated then
       [
         Printf.sprintf "verdict drift: planner found %d violations, legacy %d"
           planner.violated legacy.violated;
       ]
     else [])
    @ (if ratio > slack then
         [
           Printf.sprintf "planner mean %.2f ms is %.0f%% slower than legacy %.2f ms (>%.0f%% slack)"
             planner.mean_ms
             ((ratio -. 1.) *. 100.)
             legacy.mean_ms
             ((slack -. 1.) *. 100.);
         ]
       else [])
    @
    if planted && legacy.untripped > 0 then
      [
        Printf.sprintf
          "pathological plant failed: legacy ran %d of %d timed passes without a budget trip"
          legacy.untripped timed_passes;
      ]
    else []
  in
  Printf.printf "  legacy   mean %8.2f ms   violated %d   budget trips %d\n%!"
    legacy.mean_ms legacy.violated legacy.trips;
  Printf.printf "  planner  mean %8.2f ms   violated %d   budget trips %d" planner.mean_ms
    planner.violated planner.trips;
  (match planner.pstats with
  | Some s ->
    Printf.printf "   (plans: %d hit, %d miss, %d probe, %d replan)\n%!" s.Core.Planner.hits
      s.Core.Planner.misses s.Core.Planner.probes s.Core.Planner.replans
  | None -> print_newline ());
  Printf.printf "  ratio    %.3fx %s\n%!" ratio
    (if failures = [] then "(gate: <= 1.10x — ok)" else "(GATE FAILED)");
  List.iter (fun m -> Printf.printf "  FAIL: %s\n%!" m) failures;
  {
    name;
    n_constraints =
      (let _, sources, _ = make () in
       List.length sources);
    legacy;
    planner;
    ratio;
    failures;
  }

(* -- output ------------------------------------------------------------------ *)

let json_of_mode m =
  T.Obj
    ([
       ("mean_ms", T.Float m.mean_ms);
       ("violated", T.Int m.violated);
       ("budget_trips", T.Int m.trips);
     ]
    @
    match m.pstats with
    | Some s ->
      [
        ( "planner",
          T.Obj
            [
              ("hits", T.Int s.Core.Planner.hits);
              ("misses", T.Int s.Core.Planner.misses);
              ("probes", T.Int s.Core.Planner.probes);
              ("replans", T.Int s.Core.Planner.replans);
            ] );
      ]
    | None -> [])

let json_of_workload w =
  T.Obj
    [
      ("name", T.String w.name);
      ("constraints", T.Int w.n_constraints);
      ("legacy", json_of_mode w.legacy);
      ("planner", json_of_mode w.planner);
      ("ratio", T.Float w.ratio);
      ("ok", T.Bool (w.failures = []));
      ("failures", T.List (List.map (fun m -> T.String m) w.failures));
    ]

let () =
  let out = if Array.length Sys.argv > 1 then Sys.argv.(1) else "BENCH_plan.json" in
  Printf.printf
    "planner vs legacy validation — %d warm + %d timed passes per mode, interleaved, gate \
     <= %.2fx\n"
    warm_passes timed_passes slack;
  let uni = run_workload "university" university ~planted:false in
  let ret = run_workload "retail" retail ~planted:false in
  let path = run_workload "pathological" pathological ~planted:true in
  let workloads = [ uni; ret; path ] in
  let ok = List.for_all (fun w -> w.failures = []) workloads in
  let doc =
    T.Obj
      [
        ("bench", T.String "plan");
        ( "env",
          T.Obj
            [
              ("cores", T.Int (Domain.recommended_domain_count ()));
              ("ocaml", T.String Sys.ocaml_version);
            ] );
        ("warm_passes", T.Int warm_passes);
        ("timed_passes", T.Int timed_passes);
        ("slack", T.Float slack);
        ("workloads", T.List (List.map json_of_workload workloads));
        ("ok", T.Bool ok);
      ]
  in
  let oc = open_out out in
  output_string oc (T.Json.to_string doc);
  output_string oc "\n";
  close_out oc;
  Printf.printf "\nwrote %s\n" out;
  if not ok then exit 1
