(* j-scaling benchmark for parallel constraint validation.

     dune exec bench/parallel.exe [-- OUT.json]

   Runs the steady-state serving shape at j ∈ {1, 2, 4, 8} over two
   datagen workloads — the 50-constraint university policy suite and a
   24-constraint retail audit — and writes BENCH_parallel.json
   (default; first argument overrides) for bench/check_regression.ml
   to gate against bench/baseline.json.

   Each parallel point owns a persistent pool + replica set (the
   monitor/server shape — worker spawn and hydration amortise across
   validations, they are not what the paper's scenario pays per
   epoch).  A warm-up pass hydrates every worker untimed; each timed
   pass is preceded (outside the timer) by a net-zero insert+delete
   pair so the pass exercises the delta catch-up path exactly like a
   mutation epoch in serving — and the violated counts stay
   bit-identical across j, which this file asserts.

   Three kinds of numbers come out:
   - violated counts per workload, identical at every j by
     construction — the machine-portable correctness canary the
     regression gate pins exactly;
   - best-of-R wall-clock per j and the speedup over j=1 — only
     meaningful up to the machine's core count, which is recorded
     under env.cores so the gate can skip oversubscribed points;
   - hydration-mode telemetry per parallel point (copies of the
     master, delta catch-ups, ops replayed) — the delta machinery's
     observable, also written to BENCH_hydration.json. *)

module R = Fcv_relation
module T = Fcv_util.Telemetry

let repeats = 3
let jobs_list = [ 1; 2; 4; 8 ]

(* -- workloads --------------------------------------------------------------- *)

(* The paper's running example scaled to 50 constraints: the four
   structural constraints (referential integrity both ways, two FDs)
   plus 46 department-area policy variants of "every CS student takes
   some Programming course" (department 0 = CS, area 0 = Programming
   in the generator's coding). *)
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
  (db, university_constraints)

(* The retail audit suite plus per-segment channel-policy and
   per-carrier registration variants: 8 + 4 + 12 = 24 constraints. *)
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
  (gen.Fcv_datagen.Retail.db, retail_constraints)

(* -- measurement ------------------------------------------------------------- *)

type point = {
  jobs : int;
  best_ms : float;
  mean_ms : float;
  speedup : float;
  hydration : Core.Replica.stats option;  (** parallel points only *)
}

let count_violated results =
  List.length
    (List.filter (fun r -> r.Core.Checker.outcome = Core.Checker.Violated) results)

(* One net-zero mutation epoch: insert a duplicate of an existing row
   of the first indexed table, then delete it again.  Base tables and
   verdicts end unchanged, but the replica epoch advances by two row
   ops — the steady-state serving shape the delta path exists for. *)
let mutation_pair index replica =
  let table =
    match Core.Index.entries index with
    | e :: _ -> e.Core.Index.table
    | [] -> failwith "mutation_pair: no indexed table"
  in
  let table_name = R.Table.name table in
  let row = Array.copy (R.Table.row table 0) in
  Core.Index.insert index ~table_name row;
  (match replica with
  | Some r -> Core.Replica.note_insert r ~table_name row
  | None -> ());
  ignore (Core.Index.delete index ~table_name row);
  match replica with
  | Some r -> Core.Replica.note_delete r ~table_name row
  | None -> ()

let run_workload name make =
  Printf.printf "\n== %s ==\n%!" name;
  let db, sources = make () in
  let formulas = List.map Core.Fol_parser.of_string sources in
  let specs = List.map Core.Formula.hard formulas in
  let index = Core.Index.create ~max_nodes:1_000_000 db in
  Core.Checker.ensure_indices index formulas;
  (* sequential warm pass: prices every constraint for the scheduler
     and gives the verdict canary parallel runs must reproduce *)
  let warm = List.map (Core.Checker.check index) formulas in
  let costs = List.map (fun r -> Some r.Core.Checker.elapsed_ms) warm in
  let baseline_violated = count_violated warm in
  let time_point jobs =
    if jobs = 1 then (
      let runs =
        List.init repeats (fun _ ->
            mutation_pair index None;
            let t0 = Fcv_util.Timer.now () in
            let results = List.map (Core.Checker.check index) formulas in
            ((Fcv_util.Timer.now () -. t0) *. 1000., count_violated results))
      in
      (List.map fst runs, List.map snd runs, None))
    else begin
      let pool = Fcv_util.Pool.create ~name:"bench" ~jobs () in
      let replica = Core.Replica.create index in
      Fun.protect
        ~finally:(fun () -> Fcv_util.Pool.shutdown pool)
        (fun () ->
          (* warm-up: spawn-cost-free steady state — every worker
             hydrated before the first timed pass *)
          ignore (Core.Checker.check_all_pooled ~costs ~pool replica specs);
          let runs =
            List.init repeats (fun _ ->
                mutation_pair index (Some replica);
                let t0 = Fcv_util.Timer.now () in
                let results = Core.Checker.check_all_pooled ~costs ~pool replica specs in
                ((Fcv_util.Timer.now () -. t0) *. 1000., count_violated results))
          in
          (List.map fst runs, List.map snd runs, Some (Core.Replica.stats replica)))
    end
  in
  let series =
    List.map
      (fun jobs ->
        let times, violateds, hydration = time_point jobs in
        List.iter
          (fun violated ->
            if violated <> baseline_violated then
              failwith
                (Printf.sprintf "%s: j=%d found %d violations, sequential found %d" name
                   jobs violated baseline_violated))
          violateds;
        let best = List.fold_left min infinity times in
        let mean = List.fold_left ( +. ) 0. times /. float_of_int repeats in
        (jobs, best, mean, hydration))
      jobs_list
  in
  let t1 = match series with (_, best, _, _) :: _ -> best | [] -> assert false in
  let points =
    List.map
      (fun (jobs, best, mean, hydration) ->
        let speedup = t1 /. best in
        Printf.printf "  j=%-2d best %8.2f ms  mean %8.2f ms  speedup %.2fx%s\n%!" jobs
          best mean speedup
          (match hydration with
          | Some h ->
            Printf.sprintf "  (hydrations: %d full, %d delta, %d ops replayed)"
              h.Core.Replica.full h.Core.Replica.delta h.Core.Replica.delta_ops
          | None -> "");
        { jobs; best_ms = best; mean_ms = mean; speedup; hydration })
      series
  in
  Printf.printf "  violated %d/%d (identical at every j)\n%!" baseline_violated
    (List.length formulas);
  (name, List.length formulas, baseline_violated, points)

(* -- output ------------------------------------------------------------------ *)

let json_of_hydration h =
  T.Obj
    [
      ("full", T.Int h.Core.Replica.full);
      ("delta", T.Int h.Core.Replica.delta);
      ("delta_ops", T.Int h.Core.Replica.delta_ops);
    ]

let json_of_point p =
  T.Obj
    ([
       ("jobs", T.Int p.jobs);
       ("best_ms", T.Float p.best_ms);
       ("mean_ms", T.Float p.mean_ms);
       ("speedup", T.Float p.speedup);
     ]
    @ match p.hydration with None -> [] | Some h -> [ ("hydration", json_of_hydration h) ])

let json_of_workload (name, n, violated, points) =
  T.Obj
    [
      ("name", T.String name);
      ("constraints", T.Int n);
      ("violated", T.Int violated);
      ("series", T.List (List.map json_of_point points));
    ]

let () =
  let out = if Array.length Sys.argv > 1 then Sys.argv.(1) else "BENCH_parallel.json" in
  let cores = Domain.recommended_domain_count () in
  Printf.printf "parallel validation scaling — %d core%s available, j ∈ {%s}\n" cores
    (if cores = 1 then "" else "s")
    (String.concat ", " (List.map string_of_int jobs_list));
  if cores = 1 then
    print_endline "(single core: expect no speedup; the gate only pins verdicts)";
  let uni = run_workload "university" university in
  let ret = run_workload "retail" retail in
  let workloads = [ uni; ret ] in
  let env = T.Obj [ ("cores", T.Int cores); ("ocaml", T.String Sys.ocaml_version) ] in
  let doc =
    T.Obj
      [
        ("bench", T.String "parallel");
        ("env", env);
        ("repeats", T.Int repeats);
        ("workloads", T.List (List.map json_of_workload workloads));
      ]
  in
  let oc = open_out out in
  output_string oc (T.Json.to_string doc);
  output_string oc "\n";
  close_out oc;
  Printf.printf "wrote %s\n" out;
  (* hydration telemetry stands alone too: CI uploads it as a named
     artifact next to the timing numbers *)
  let hyd_out = Filename.concat (Filename.dirname out) "BENCH_hydration.json" in
  let hyd_doc =
    T.Obj
      [
        ("bench", T.String "parallel-hydration");
        ("env", env);
        ( "workloads",
          T.List
            (List.map
               (fun (name, _, _, points) ->
                 T.Obj
                   [
                     ("name", T.String name);
                     ( "series",
                       T.List
                         (List.filter_map
                            (fun p ->
                              Option.map
                                (fun h ->
                                  T.Obj
                                    [
                                      ("jobs", T.Int p.jobs);
                                      ("hydration", json_of_hydration h);
                                    ])
                                p.hydration)
                            points) );
                   ])
               workloads) );
      ]
  in
  let oc = open_out hyd_out in
  output_string oc (T.Json.to_string hyd_doc);
  output_string oc "\n";
  close_out oc;
  Printf.printf "wrote %s\n" hyd_out
