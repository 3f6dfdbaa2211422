(* fcv — fast constraint violation checker.

   Subcommands:
     fcv check     load CSV tables, build logical indices, validate constraints
     fcv repair    plan a minimal tuple-deletion repair for the violated constraints
     fcv bench     time one validation batch at a given -j parallelism
     fcv index     build an index and report its size / ordering / build time
     fcv orderings compare the variable-ordering strategies on one table
     fcv sql       run a SQL query against the loaded tables
     fcv gen       emit synthetic datasets (customers / university / noise / k-PROD) as CSV

   Tables are loaded from a directory of CSV files (one table per file,
   first row = attribute names).  Columns with the same name share a
   domain, so same-named attributes join across tables. *)

module R = Fcv_relation
open Cmdliner

(* -- shared loading -------------------------------------------------------- *)

let load_dir dir =
  let db = R.Database.create () in
  let files = Sys.readdir dir |> Array.to_list |> List.sort compare in
  let tables =
    List.filter_map
      (fun f ->
        if Filename.check_suffix f ".csv" then begin
          let name = Filename.chop_suffix f ".csv" in
          let path = Filename.concat dir f in
          (* same-named columns share a domain across tables *)
          let header, _ = R.Csv.read_file path in
          let domains = List.map (fun h -> (h, h)) header in
          Some (R.Csv.load_table db ~name ~path ~domains ())
        end
        else None)
      files
  in
  if tables = [] then failwith ("no .csv files in " ^ dir);
  (db, tables)

let strategy_of_string = function
  | "prob-converge" -> Core.Ordering.Prob_converge
  | "max-inf-gain" -> Core.Ordering.Max_inf_gain
  | "random" -> Core.Ordering.Random_order 1
  | "optimal" -> Core.Ordering.Optimal
  | s -> failwith ("unknown ordering strategy: " ^ s)

let data_arg =
  let doc = "Directory of CSV files, one table per file." in
  Arg.(required & opt (some dir) None & info [ "d"; "data" ] ~docv:"DIR" ~doc)

let strategy_arg =
  let doc = "Variable ordering: prob-converge | max-inf-gain | random | optimal." in
  Arg.(value & opt string "prob-converge" & info [ "s"; "strategy" ] ~docv:"STRATEGY" ~doc)

let max_nodes_arg =
  let doc = "BDD node budget; past it the checker falls back to SQL (0 = unlimited)." in
  let non_negative =
    let parse s =
      match int_of_string_opt s with
      | Some n when n >= 0 -> Ok n
      | _ -> Error (`Msg (Printf.sprintf "invalid value '%s', expected a non-negative integer" s))
    in
    Arg.conv (parse, Format.pp_print_int)
  in
  Arg.(value & opt non_negative 1_000_000 & info [ "max-nodes" ] ~docv:"N" ~doc)

let jobs_arg =
  let doc =
    "Worker domains for parallel validation (1 = sequential).  $(b,check) and \
     $(b,bench) check their batch on $(docv) workers; $(b,serve) keeps at most \
     $(docv), started by the first validate pass whose measured cost pays for \
     them, and validates cheaper passes on the calling domain.  Each worker checks \
     against a private replica of the logical indices, so verdicts are identical \
     to a sequential run."
  in
  Arg.(value & opt int 1 & info [ "j"; "jobs" ] ~docv:"N" ~doc)

let telemetry_arg =
  let doc =
    "Record telemetry (spans, counters, kernel stats) while running and write it \
     to $(docv) as JSON lines: one event object per line, then summary lines."
  in
  Arg.(value & opt (some string) None & info [ "telemetry" ] ~docv:"FILE" ~doc)

(* Run [f] with telemetry enabled when [file] is given, writing the
   JSONL dump before returning or re-raising.  Callers must not call
   [exit] inside [f] — the dump would be skipped. *)
let with_telemetry file f =
  match file with
  | None -> f ()
  | Some path ->
    let module T = Fcv_util.Telemetry in
    T.reset ();
    T.enable ();
    let finish () =
      (try
         T.write_jsonl path;
         Printf.eprintf "(telemetry written to %s)\n" path
       with Sys_error msg -> Printf.eprintf "fcv: cannot write telemetry: %s\n" msg);
      T.disable ()
    in
    (match f () with
    | v ->
      finish ();
      v
    | exception e ->
      finish ();
      raise e)

(* The shared BDD-kernel stats table ([fcv stats], and handy after any
   instrumented run). *)
let print_manager_stats oc mgr =
  let module M = Fcv_bdd.Manager in
  let s = M.stats mgr in
  Printf.fprintf oc "BDD manager\n";
  Printf.fprintf oc "  nodes                 %12d\n" s.M.nodes;
  Printf.fprintf oc "  peak nodes            %12d\n" s.M.peak_nodes;
  Printf.fprintf oc "  variables             %12d\n" s.M.variables;
  Printf.fprintf oc "  unique-table probes   %12d\n" (s.M.unique_hits + s.M.unique_misses);
  Printf.fprintf oc "    hits / misses       %12d / %d\n" s.M.unique_hits s.M.unique_misses;
  let buckets, longest = M.unique_shape mgr in
  Printf.fprintf oc "    buckets (longest)   %12d (%d)\n" buckets longest;
  Printf.fprintf oc "  apply-cache lookups   %12d\n" s.M.op_cache_lookups;
  Printf.fprintf oc "    hit rate            %12.1f%%\n" (100. *. M.cache_hit_rate s);
  Printf.fprintf oc "  op-cache entries      %12d\n" s.M.op_cache_entries;
  Printf.fprintf oc "  budget trips          %12d\n" s.M.budget_trips;
  Printf.fprintf oc "  compact reclaimed     %12d\n" s.M.compact_reclaimed;
  let calls = List.filter (fun (_, n) -> n > 0) s.M.op_calls in
  if calls <> [] then
    Printf.fprintf oc "  op calls              %s\n"
      (String.concat ", " (List.map (fun (name, n) -> Printf.sprintf "%s=%d" name n) calls))

(* The memory-lifecycle table: what a long-running store has allocated,
   what is actually live, and what reclamation has run. *)
let print_lifecycle_stats oc index =
  let ls = Core.Index.lifecycle_stats index in
  Printf.fprintf oc "Memory lifecycle\n";
  Printf.fprintf oc "  live nodes            %12d\n" ls.Core.Index.live;
  Printf.fprintf oc "  peak nodes            %12d\n" ls.Core.Index.peak;
  Printf.fprintf oc "  dead ratio            %12.1f%%\n" (100. *. ls.Core.Index.dead);
  Printf.fprintf oc "  levels used (live)    %12d (%d)\n" ls.Core.Index.levels_used
    ls.Core.Index.levels_alive;
  Printf.fprintf oc "  gc runs               %12d\n" ls.Core.Index.gc_runs;
  Printf.fprintf oc "  gc reclaimed          %12d\n" ls.Core.Index.gc_reclaimed;
  Printf.fprintf oc "  level recycles        %12d\n" ls.Core.Index.level_recycles;
  if ls.Core.Index.deferred_rebuilds > 0 then
    Printf.fprintf oc "  deferred rebuilds     %12d\n" ls.Core.Index.deferred_rebuilds

(* -- fcv check --------------------------------------------------------------- *)

(* The constraints of a file, one per line, as (source, spec) pairs;
   blank lines and lines starting with # are skipped.  A parse error
   is a [Failure] naming the file and line. *)
let read_constraints path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec go lineno acc =
        match input_line ic with
        | exception End_of_file -> List.rev acc
        | l ->
          let t = String.trim l in
          if t = "" || t.[0] = '#' then go (lineno + 1) acc
          else
            match Core.Fol_parser.spec_of_string l with
            | spec -> go (lineno + 1) ((l, spec) :: acc)
            | exception Core.Fol_parser.Error msg ->
              failwith (Printf.sprintf "%s:%d: %s" path lineno msg)
      in
      go 1 [])

(* Run on each constraint the static checks {!Core.Monitor.add} runs —
   closed, and well typed against [db], which also names an unknown
   relation — before any index is built: a constraint that fails them
   keeps its error message in place of its spec. *)
let statically_checked db constraints =
  List.map
    (fun (src, (sp : Core.Formula.spec)) ->
      let free = Core.Formula.free_vars sp.formula in
      if not (Core.Formula.Sset.is_empty free) then
        ( src,
          Error
            ("constraint must be closed; free: "
            ^ String.concat ", " (Core.Formula.Sset.elements free)) )
      else
        match Core.Typing.infer_spec db sp with
        | _ -> (src, Ok sp)
        | exception Core.Typing.Type_error msg -> (src, Error msg))
    constraints

(* the specs of the constraints that passed {!statically_checked} *)
let checked_specs constraints = List.filter_map (fun (_, c) -> Result.to_option c) constraints

let errored constraints =
  List.length (List.filter (fun (_, c) -> Result.is_error c) constraints)

(* The line that reports a constraint {!statically_checked} set aside. *)
let print_error src msg = Printf.printf "[ERROR    ] %s: %s\n" src msg

(* The setup [fcv check], [stats], [monitor], [explain] and [bench]
   share: load the tables, parse the constraints file and run its
   static checks, then build the logical indices the constraints that
   passed mention (after restoring [load_index], when given, under the
   [max_nodes] budget).  Returns the index, the checked constraints
   and the index build time in ms. *)
let load_checked ?load_index ~data ~constraints_file ~strategy ~max_nodes () =
  let db, _ = load_dir data in
  let constraints = statically_checked db (read_constraints constraints_file) in
  let t0 = Fcv_util.Timer.now () in
  let index =
    Fcv_util.Telemetry.with_span "build_indices" @@ fun () ->
    let index =
      match load_index with
      | Some path ->
        let index = Core.Index_io.load_file db path in
        Fcv_bdd.Manager.set_max_nodes (Core.Index.mgr index) max_nodes;
        index
      | None -> Core.Index.create ~max_nodes db
    in
    (* any relation not covered by a restored index still gets one *)
    Core.Checker.ensure_indices ~strategy:(strategy_of_string strategy) index
      (List.map (fun sp -> sp.Core.Formula.formula) (checked_specs constraints));
    index
  in
  (index, constraints, (Fcv_util.Timer.now () -. t0) *. 1000.)

let constraints_arg =
  let doc =
    "File of constraints, one per line, in the FOL syntax, e.g.\n\
     forall x . people(x, c) -> (exists s . cities(c, s)).\n\
     Lines starting with # are comments."
  in
  Arg.(required & opt (some file) None & info [ "c"; "constraints" ] ~docv:"FILE" ~doc)

(* Check the constraints that passed {!statically_checked} as one
   batch ([Checker.check_all ~jobs]) and print one line per constraint
   in input order — a verdict, or the static error (shared by [fcv
   check] and [fcv stats]), then the summary line.  Witness
   enumeration runs on [index] afterwards.  Returns the number violated
   and the number errored. *)
let run_checks ?(witnesses = 0) ?(jobs = 1) index constraints =
  let results = Core.Checker.check_all ~jobs index (checked_specs constraints) in
  let violated = ref 0 in
  let report src (sp : Core.Formula.spec) r =
    let verdict =
      match r.Core.Checker.outcome with
      | Core.Checker.Satisfied -> "SATISFIED"
      | Core.Checker.Violated ->
        incr violated;
        "VIOLATED "
    in
    let rate =
      match r.Core.Checker.rate with
      | None -> ""
      | Some rt ->
        Printf.sprintf ", rate %.6g (allowed %.6g)" rt.Core.Checker.ratio
          (1. -. rt.Core.Checker.threshold)
    in
    Printf.printf "[%s] (%6.2f ms, %s%s) %s\n" verdict r.Core.Checker.elapsed_ms
      (Core.Checker.method_name r.Core.Checker.method_used)
      rate src;
    if witnesses > 0 && r.Core.Checker.outcome = Core.Checker.Violated then begin
      match Core.Violations.enumerate ~limit:witnesses index sp.formula with
      | Some ws ->
        List.iter
          (fun w ->
            print_endline
              ("    "
              ^ String.concat ", "
                  (List.map (fun (x, v) -> x ^ "=" ^ R.Value.to_string v) w)))
          ws
      | None -> print_endline "    (no finite witnesses)"
    end
  in
  ignore
    (List.fold_left
       (fun results (src, c) ->
         match (c, results) with
         | Ok sp, r :: rest ->
           report src sp r;
           rest
         | Error msg, _ ->
           print_error src msg;
           results
         | Ok _, [] -> assert false (* one result per checked constraint *))
       results constraints);
  let errored = errored constraints in
  Printf.printf "\n%d/%d constraints violated%s\n" !violated (List.length constraints)
    (if errored > 0 then Printf.sprintf ", %d errored" errored else "");
  (!violated, errored)

let check_cmd =
  let witnesses_arg =
    let doc = "Print up to $(docv) violating bindings per violated constraint." in
    Arg.(value & opt int 0 & info [ "w"; "witnesses" ] ~docv:"K" ~doc)
  in
  let save_index_arg =
    let doc = "Persist the logical indices to $(docv) after building them." in
    Arg.(value & opt (some string) None & info [ "save-index" ] ~docv:"FILE" ~doc)
  in
  let load_index_arg =
    let doc = "Restore logical indices from $(docv) instead of re-encoding." in
    Arg.(value & opt (some string) None & info [ "load-index" ] ~docv:"FILE" ~doc)
  in
  let run data constraints_file strategy max_nodes witnesses save_index load_index jobs
      telemetry =
    let violated, errored =
      with_telemetry telemetry @@ fun () ->
      let index, constraints, build_ms =
        load_checked ?load_index ~data ~constraints_file ~strategy ~max_nodes ()
      in
      Option.iter (Core.Index_io.save_file index) save_index;
      Printf.printf "%s %d logical indices in %.1f ms\n\n"
        (if load_index = None then "built" else "loaded")
        (List.length (Core.Index.entries index))
        build_ms;
      run_checks ~witnesses ~jobs index constraints
    in
    if errored > 0 then exit 2 else if violated > 0 then exit 1
  in
  let doc = "validate constraints against CSV tables using BDD logical indices" in
  Cmd.v
    (Cmd.info "check" ~doc)
    Term.(
      const run $ data_arg $ constraints_arg $ strategy_arg $ max_nodes_arg
      $ witnesses_arg $ save_index_arg $ load_index_arg $ jobs_arg $ telemetry_arg)

(* -- fcv repair ---------------------------------------------------------------- *)

let repair_cmd =
  let repair_strategy_arg =
    let doc = "Planner: exact (provably minimum; tractable FD classes only) | greedy \
               (general; blame-driven) | brute (tiny instances only)." in
    Arg.(value & opt string "greedy" & info [ "s"; "strategy" ] ~docv:"STRATEGY" ~doc)
  in
  let max_deletions_arg =
    let doc = "Cap the deletion set at $(docv) tuples (the plan reports incomplete if \
               violations remain)." in
    Arg.(value & opt (some int) None & info [ "max-deletions" ] ~docv:"N" ~doc)
  in
  let json_arg =
    let doc = "Emit the plan as one JSON object instead of the table." in
    Arg.(value & flag & info [ "json" ] ~doc)
  in
  let run data constraints_file strategy max_nodes max_deletions json telemetry =
    let plan =
      with_telemetry telemetry @@ fun () ->
      let db, _ = load_dir data in
      let constraints = read_constraints constraints_file in
      let strategy =
        match Fcv_repair.Repair.strategy_of_string strategy with
        | Ok s -> s
        | Error msg -> failwith msg
      in
      match
        Fcv_repair.Repair.plan_specs ~strategy ?max_deletions ~max_nodes db
          (List.map snd constraints)
      with
      | exception Fcv_repair.Repair.Not_tractable msg -> failwith msg
      | plan ->
        let module Rp = Fcv_repair.Repair in
        if json then print_endline (Fcv_util.Telemetry.Json.to_string (Rp.plan_json plan))
        else begin
          Printf.printf "repair plan (%s): %d deletions in %.1f ms\n"
            (Rp.strategy_name plan.Rp.strategy)
            (List.length plan.Rp.deletions)
            plan.Rp.elapsed_ms;
          Printf.printf "  constraints violated %d -> %d, witnesses %.0f -> %.0f%s\n"
            plan.Rp.violated_before plan.Rp.violated_after plan.Rp.witnesses_before
            plan.Rp.witnesses_after
            (if plan.Rp.complete then "" else "  (INCOMPLETE)");
          List.iter
            (fun d ->
              Printf.printf "  delete %s(%s)   blame %.0f\n" d.Rp.table
                (String.concat ", " d.Rp.cells)
                d.Rp.blame)
            plan.Rp.deletions
        end;
        plan
    in
    if not plan.Fcv_repair.Repair.complete then exit 1
  in
  let doc =
    "plan a minimal tuple-deletion repair restoring every constraint (read-only: \
     prints the plan, never touches the CSVs)"
  in
  Cmd.v
    (Cmd.info "repair" ~doc)
    Term.(
      const run $ data_arg $ constraints_arg $ repair_strategy_arg $ max_nodes_arg
      $ max_deletions_arg $ json_arg $ telemetry_arg)

(* -- fcv index ----------------------------------------------------------------- *)

let index_cmd =
  let table_arg =
    let doc = "Table to index (default: every loaded table)." in
    Arg.(value & opt (some string) None & info [ "t"; "table" ] ~docv:"TABLE" ~doc)
  in
  let attrs_arg =
    let doc = "Comma-separated attribute subset to index (default: all)." in
    Arg.(value & opt (some string) None & info [ "a"; "attrs" ] ~docv:"A,B,C" ~doc)
  in
  let run data strategy table attrs =
    let db, tables = load_dir data in
    let names =
      match table with Some t -> [ t ] | None -> List.map R.Table.name tables
    in
    let attrs = Option.map (String.split_on_char ',') attrs in
    let index = Core.Index.create db in
    Printf.printf "%-16s %10s %12s %12s  %s\n" "table" "rows" "BDD nodes" "build ms" "ordering";
    List.iter
      (fun name ->
        let e = Core.Index.add index ~table_name:name ?attrs ~strategy:(strategy_of_string strategy) () in
        let t = R.Database.table db name in
        let schema = R.Table.schema t in
        let order_names =
          Array.to_list e.Core.Index.order
          |> List.map (fun k -> schema.(e.Core.Index.attrs.(k)).R.Schema.name)
        in
        Printf.printf "%-16s %10d %12d %12.1f  %s\n" name (R.Table.cardinality t)
          (Core.Index.entry_size index e)
          (e.Core.Index.build_time *. 1000.)
          (String.concat " < " order_names))
      names
  in
  let doc = "build logical indices and report size, build time and chosen ordering" in
  Cmd.v (Cmd.info "index" ~doc) Term.(const run $ data_arg $ strategy_arg $ table_arg $ attrs_arg)

(* -- fcv orderings ---------------------------------------------------------------- *)

let orderings_cmd =
  let table_arg =
    let doc = "Table whose orderings to compare." in
    Arg.(required & opt (some string) None & info [ "t"; "table" ] ~docv:"TABLE" ~doc)
  in
  let run data table =
    let db, _ = load_dir data in
    let t = R.Database.table db table in
    let schema = R.Table.schema t in
    let show order = String.concat " < " (Array.to_list order |> List.map (fun a -> schema.(a).R.Schema.name)) in
    let report label order =
      let size = Core.Ordering.bdd_size t order in
      Printf.printf "%-14s %10d nodes   %s\n" label size (show order)
    in
    report "MaxInf-Gain" (Core.Ordering.max_inf_gain t);
    report "Prob-Converge" (Core.Ordering.prob_converge t);
    report "random" (Core.Ordering.random_order (Fcv_util.Rng.create 1) t);
    if R.Table.arity t <= 6 then begin
      let order, size = Core.Ordering.optimal t in
      Printf.printf "%-14s %10d nodes   %s\n" "optimal" size (show order)
    end
    else print_endline "(arity > 6: skipping exhaustive optimal search)"
  in
  let doc = "compare variable-ordering heuristics on a table" in
  Cmd.v (Cmd.info "orderings" ~doc) Term.(const run $ data_arg $ table_arg)

(* -- fcv sql ------------------------------------------------------------------------ *)

let sql_cmd =
  let query_arg =
    let doc = "The SQL query to run." in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"QUERY" ~doc)
  in
  let explain_arg =
    let doc = "Print the physical plan instead of executing." in
    Arg.(value & flag & info [ "explain" ] ~doc)
  in
  let run data explain query =
    let db, tables = load_dir data in
    if explain then begin
      let q = Fcv_sql.Parser.query_of_string query in
      let plan, names = Fcv_sql.Planner.plan db q in
      Printf.printf "columns: %s\n%s\n" (String.concat "," names)
        (Fcv_sql.Algebra.to_string plan);
      ignore tables;
      exit 0
    end;
    let rows, names = Fcv_sql.Planner.run db query in
    print_endline (String.concat "," names);
    (* decode codes through any table that owns the dictionary; the
       planner names columns alias.attr so we re-derive dictionaries *)
    let dict_of_col i =
      (* best effort: find a table+attr whose qualified name matches *)
      let col = List.nth names i in
      let attr = match String.index_opt col '.' with
        | Some k -> String.sub col (k + 1) (String.length col - k - 1)
        | None -> col
      in
      List.find_map
        (fun t ->
          match R.Schema.position_opt (R.Table.schema t) attr with
          | Some p -> Some (R.Table.dict t p)
          | None -> None)
        tables
    in
    let dicts = List.mapi (fun i _ -> dict_of_col i) names in
    List.iter
      (fun row ->
        let cells =
          List.mapi
            (fun i d ->
              match d with
              | Some dict when row.(i) < R.Dict.size dict ->
                R.Value.to_string (R.Dict.value dict row.(i))
              | _ -> string_of_int row.(i))
            dicts
        in
        print_endline (String.concat "," cells))
      rows;
    Printf.eprintf "(%d rows)\n" (List.length rows)
  in
  let doc = "run a SQL query against the CSV tables" in
  Cmd.v (Cmd.info "sql" ~doc) Term.(const run $ data_arg $ explain_arg $ query_arg)

(* -- fcv deps -------------------------------------------------------------------------- *)

let deps_cmd =
  let table_arg =
    let doc = "Table to analyse." in
    Arg.(required & opt (some string) None & info [ "t"; "table" ] ~docv:"TABLE" ~doc)
  in
  let lhs_arg =
    let doc = "Comma-separated left-hand-side attributes." in
    Arg.(required & opt (some string) None & info [ "lhs" ] ~docv:"A,B" ~doc)
  in
  let rhs_arg =
    let doc = "Comma-separated right-hand-side attributes (FD) or middle set (MVD)." in
    Arg.(required & opt (some string) None & info [ "rhs" ] ~docv:"C,D" ~doc)
  in
  let mvd_arg =
    let doc = "Check the multivalued dependency lhs ->> rhs instead of the FD lhs -> rhs." in
    Arg.(value & flag & info [ "mvd" ] ~doc)
  in
  let run data table lhs rhs mvd =
    let db, _ = load_dir data in
    let split s = String.split_on_char ',' s |> List.map String.trim |> List.filter (( <> ) "") in
    let lhs = split lhs and rhs = split rhs in
    let index = Core.Index.create db in
    ignore
      (Core.Index.add index ~table_name:table ~attrs:(lhs @ rhs)
         ~strategy:Core.Ordering.Prob_converge ());
    if mvd then begin
      let holds = Core.Fd_check.mvd_holds index ~table_name:table ~lhs ~mid:rhs in
      Printf.printf "%s: %s ->> %s %s\n" table (String.concat "," lhs)
        (String.concat "," rhs)
        (if holds then "HOLDS" else "is VIOLATED");
      if not holds then exit 1
    end
    else begin
      let holds = Core.Fd_check.fd_holds index ~table_name:table ~lhs ~rhs in
      Printf.printf "%s: %s -> %s %s\n" table (String.concat "," lhs)
        (String.concat "," rhs)
        (if holds then "HOLDS" else "is VIOLATED");
      if not holds then begin
        let bad = Core.Fd_check.violating_lhs ~limit:10 index ~table_name:table ~lhs ~rhs in
        List.iter
          (fun vs ->
            Printf.printf "  violating %s = %s\n" (String.concat "," lhs)
              (String.concat "," (List.map R.Value.to_string vs)))
          bad;
        exit 1
      end
    end
  in
  let doc = "check a functional or multivalued dependency on the logical index" in
  Cmd.v (Cmd.info "deps" ~doc) Term.(const run $ data_arg $ table_arg $ lhs_arg $ rhs_arg $ mvd_arg)

(* -- fcv stats ------------------------------------------------------------------------ *)

let stats_cmd =
  let run data constraints_file strategy max_nodes telemetry =
    let module T = Fcv_util.Telemetry in
    T.reset ();
    T.enable ();
    let index, constraints, _ =
      load_checked ~data ~constraints_file ~strategy ~max_nodes ()
    in
    let _, errored = run_checks index constraints in
    print_newline ();
    print_manager_stats stdout (Core.Index.mgr index);
    print_newline ();
    print_lifecycle_stats stdout index;
    print_newline ();
    T.print_summary stdout;
    Option.iter
      (fun path ->
        T.write_jsonl path;
        Printf.eprintf "(telemetry written to %s)\n" path)
      telemetry;
    T.disable ();
    if errored > 0 then exit 2
  in
  let doc =
    "run the checks with telemetry on and print kernel statistics (apply-cache \
     hit rate, peak node count, per-stage spans, rewrite-rule firings)"
  in
  Cmd.v
    (Cmd.info "stats" ~doc)
    Term.(const run $ data_arg $ constraints_arg $ strategy_arg $ max_nodes_arg $ telemetry_arg)

(* -- fcv monitor ---------------------------------------------------------------------- *)

(* Updates file: one command per line (the {!Fcv_server.Protocol}
   update-stream syntax, shared with `fcv client updates`) —
     insert TABLE,v1,v2,...
     delete TABLE,v1,v2,...
     validate
   Values are matched against the tables' existing dictionaries; a row
   mentioning an unknown value is skipped with a warning (the offline
   monitor never grows domains — stream against a daemon for that). *)
let monitor_cmd =
  let updates_arg =
    let doc =
      "File of streamed updates: lines 'insert TABLE,v1,...', 'delete TABLE,v1,...' \
       or 'validate'.  Lines starting with # are comments."
    in
    Arg.(required & opt (some file) None & info [ "u"; "updates" ] ~docv:"FILE" ~doc)
  in
  let print_reports reports =
    List.iter
      (fun rep ->
        let rate =
          match rep.Core.Monitor.rate with
          | None -> ""
          | Some rt ->
            Printf.sprintf ", rate %.6g (allowed %.6g)" rt.Core.Checker.ratio
              (1. -. rt.Core.Checker.threshold)
        in
        Printf.printf "  [%s] (%s%6.2f ms%s) %s\n"
          (match rep.Core.Monitor.outcome with
          | Core.Checker.Satisfied -> "SATISFIED"
          | Core.Checker.Violated -> "VIOLATED ")
          (if rep.Core.Monitor.fresh then "fresh,  " else "cached, ")
          rep.Core.Monitor.elapsed_ms rate rep.Core.Monitor.constraint_.Core.Monitor.source)
      reports
  in
  let run data constraints_file strategy max_nodes updates_file telemetry =
    let any_violated, errored =
      with_telemetry telemetry @@ fun () ->
      let index, constraints, _ =
        load_checked ~data ~constraints_file ~strategy ~max_nodes ()
      in
      let db = index.Core.Index.db in
      let monitor = Core.Monitor.create index in
      List.iter
        (function
          | src, Ok _ -> ignore (Core.Monitor.add monitor src)
          | src, Error msg -> print_error src msg)
        constraints;
      let any_violated = ref false in
      let validate label =
        Printf.printf "%s:\n" label;
        let reports = Core.Monitor.validate monitor in
        print_reports reports;
        if List.exists (fun r -> r.Core.Monitor.outcome = Core.Checker.Violated) reports
        then any_violated := true
      in
      let ic = open_in updates_file in
      let module P = Fcv_server.Protocol in
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () ->
          let n = ref 0 in
          let coded table cells =
            match P.code_row db ~table cells with
            | P.Coded row -> Some row
            | P.Unknown_value v ->
              Printf.eprintf "line %d: unknown value %s, row skipped\n" !n v;
              None
          in
          try
            while true do
              let line = input_line ic in
              incr n;
              match P.update_of_line line with
              | None -> ()
              | Some P.U_validate -> validate (Printf.sprintf "validate (line %d)" !n)
              | Some (P.U_insert (table, cells)) ->
                Option.iter (Core.Monitor.insert monitor ~table_name:table) (coded table cells)
              | Some (P.U_delete (table, cells)) ->
                Option.iter
                  (fun row -> ignore (Core.Monitor.delete monitor ~table_name:table row))
                  (coded table cells)
              | exception P.Malformed msg -> failwith (Printf.sprintf "line %d: %s" !n msg)
            done
          with End_of_file -> ());
      validate "final validation";
      (!any_violated, errored constraints)
    in
    if errored > 0 then exit 2 else if any_violated then exit 1
  in
  let doc =
    "replay a stream of inserts/deletes through the logical indices and lazily \
     re-validate the registered constraints"
  in
  Cmd.v
    (Cmd.info "monitor" ~doc)
    Term.(
      const run $ data_arg $ constraints_arg $ strategy_arg $ max_nodes_arg $ updates_arg
      $ telemetry_arg)

(* -- fcv explain ---------------------------------------------------------------------- *)

let explain_cmd =
  let id_arg =
    let doc =
      "Explain only constraint $(docv) (1-based position in the constraints file); \
       default: every constraint."
    in
    Arg.(value & opt (some int) None & info [ "n"; "constraint" ] ~docv:"N" ~doc)
  in
  let warm_arg =
    let doc =
      "Run $(docv) warm validation passes first, each re-checking every constraint, \
       so the tree shows measured last-actual costs next to the estimates and the \
       planner's learned history (0 = pure estimates)."
    in
    Arg.(value & opt int 1 & info [ "warm" ] ~docv:"PASSES" ~doc)
  in
  let run data constraints_file strategy max_nodes id warm =
    let index, constraints, _ =
      load_checked ~data ~constraints_file ~strategy ~max_nodes ()
    in
    let monitor = Core.Monitor.create index in
    (* registered in file order, so [-n] numbers errored constraints too *)
    let regs =
      List.map
        (function
          | src, Ok _ -> Ok (Core.Monitor.add monitor src)
          | src, Error msg -> Error (src, msg))
        constraints
    in
    (* each pass re-checks every constraint: a clean table would let
       validate reuse the first pass's verdicts *)
    for _ = 1 to warm do
      List.iter
        (function
          | Ok reg -> List.iter (Core.Monitor.mark_dirty monitor) reg.Core.Monitor.tables
          | Error _ -> ())
        regs;
      ignore (Core.Monitor.validate monitor)
    done;
    let chosen =
      match id with
      | None -> regs
      | Some n -> (
        match List.nth_opt regs (n - 1) with
        | Some r -> [ r ]
        | None ->
          failwith
            (Printf.sprintf "no constraint %d (file has %d)" n (List.length regs)))
    in
    let explain reg =
      match Core.Monitor.explain monitor reg.Core.Monitor.id with
      | Some (r, plan) ->
        print_string (Core.Planner.render plan);
        (* soft constraints: the threshold the verdict is taken
           against, and the last measured rate next to it *)
        if r.Core.Monitor.threshold < 1.0 then (
          match r.Core.Monitor.last_rate with
          | Some rt ->
            Printf.printf
              "  soft: threshold ≥ %g satisfied; measured rate %.6g (%s of %s \
               bindings violated) -> %s\n"
              r.Core.Monitor.threshold rt.Core.Checker.ratio
              (Fcv_bdd.Nat.to_string rt.Core.Checker.violations)
              (Fcv_bdd.Nat.to_string rt.Core.Checker.total)
              (if
                 Core.Checker.clears ~threshold:rt.Core.Checker.threshold
                   ~violations:rt.Core.Checker.violations
                   ~total:rt.Core.Checker.total
               then "satisfied"
               else "violated")
          | None ->
            Printf.printf "  soft: threshold ≥ %g satisfied; rate not yet measured\n"
              r.Core.Monitor.threshold)
      | None -> Printf.printf "constraint %d: no plan\n" reg.Core.Monitor.id
    in
    List.iteri
      (fun i reg ->
        if i > 0 then print_newline ();
        match reg with Error (src, msg) -> print_error src msg | Ok reg -> explain reg)
      chosen;
    if List.exists Result.is_error chosen then exit 2
  in
  let doc =
    "print the cost-based planner's costed plan tree per constraint (EXPLAIN \
     VERBOSE for constraints): estimated BDD-pipeline vs SQL cost, the chosen \
     strategy with its reason, and last measured actuals after warm passes"
  in
  Cmd.v
    (Cmd.info "explain" ~doc)
    Term.(
      const run $ data_arg $ constraints_arg $ strategy_arg $ max_nodes_arg $ id_arg
      $ warm_arg)

(* -- fcv serve ------------------------------------------------------------------------ *)

let sock_arg =
  let doc = "Socket to serve/reach the daemon on: a Unix path or host:port." in
  Arg.(required & opt (some string) None & info [ "sock" ] ~docv:"ADDR" ~doc)

let serve_cmd =
  let state_arg =
    let doc =
      "Durability directory (snapshot generations + write-ahead log).  On start the \
       daemon recovers from the latest snapshot plus the WAL; without $(docv) all \
       state is in-memory only."
    in
    Arg.(value & opt (some string) None & info [ "state" ] ~docv:"DIR" ~doc)
  in
  let constraints_opt_arg =
    let doc = "File of constraints to register at startup (one per line, FOL syntax)." in
    Arg.(value & opt (some file) None & info [ "c"; "constraints" ] ~docv:"FILE" ~doc)
  in
  let fsync_arg =
    let doc = "fsync the WAL every $(docv)-th record (1 = every record, 0 = never)." in
    Arg.(value & opt int 1 & info [ "fsync-every" ] ~docv:"N" ~doc)
  in
  let snapshot_every_arg =
    let doc = "Cut a snapshot automatically every $(docv) WAL records (0 = only on \
               'snapshot' requests and shutdown)." in
    Arg.(value & opt int 10_000 & info [ "snapshot-every" ] ~docv:"N" ~doc)
  in
  let idle_arg =
    let doc = "Close sessions silent for $(docv) seconds (0 = never)." in
    Arg.(value & opt float 0. & info [ "idle-timeout" ] ~docv:"SECONDS" ~doc)
  in
  let shards_arg =
    let doc =
      "Partition constraints and tables across $(docv) serving shards, each with its \
       own monitor, WAL generation sequence and snapshot lineage.  A state directory \
       remembers its shard count; restarting with a different one is refused."
    in
    Arg.(value & opt int 1 & info [ "shards" ] ~docv:"N" ~doc)
  in
  let group_commit_arg =
    let doc =
      "Group-commit window: release acknowledgements after at most $(docv) journaled \
       mutations share one fsync per dirty shard WAL (every processing round also \
       flushes, bounding latency)."
    in
    Arg.(value & opt int 8 & info [ "group-commit" ] ~docv:"N" ~doc)
  in
  let run data sock state constraints_file strategy max_nodes fsync_every snapshot_every
      idle_timeout jobs shards group_commit_window telemetry =
    with_telemetry telemetry @@ fun () ->
    let module S = Fcv_server.Server in
    let module Tier = Fcv_server.Tier in
    let strategy = strategy_of_string strategy in
    let load_base () = fst (load_dir data) in
    let tier, origin =
      match state with
      | Some dir ->
        let tier, rs = Tier.recover ~max_nodes ~shards ~fsync:(fsync_every > 0) ~state_dir:dir ~load_base () in
        let replayed = Array.fold_left (fun a r -> a + r.Fcv_server.Shard.replayed) 0 rs in
        let snaps =
          Array.fold_left (fun a r -> a + if r.Fcv_server.Shard.from_snapshot then 1 else 0) 0 rs
        in
        ( tier,
          Printf.sprintf "%d/%d shard snapshots + %d WAL records" snaps shards replayed )
      | None -> (Tier.create_fresh ~max_nodes ~shards ~load_base (), "base data (no durability)")
    in
    let config =
      {
        (S.default_config ~addr:sock) with
        S.state_dir = state;
        fsync_every;
        snapshot_every;
        idle_timeout;
        jobs;
        shards;
        group_commit_window;
      }
    in
    let server = S.of_tier config tier in
    (* Register startup constraints through the tier's durability path
       (WAL-logged under their pinned ids on their owning shard, so
       they stay stable across recoveries), skipping sources the
       recovered state already holds — or explicitly unregistered
       (tombstones): a restart must not resurrect those. *)
    Option.iter
      (fun path ->
        let known = List.map (fun r -> r.Core.Monitor.source) (Tier.constraints tier) in
        let unregistered =
          List.concat_map Fcv_server.Shard.unregistered (Array.to_list (Tier.shards tier))
        in
        List.iter
          (fun (src, spec) ->
            if (not (List.mem src known)) && not (List.mem src unregistered) then begin
              Array.iter
                (fun sh ->
                  Core.Checker.ensure_indices ~strategy
                    (Core.Monitor.index (Fcv_server.Shard.monitor sh))
                    [ spec.Core.Formula.formula ])
                (Tier.shards tier);
              ignore (S.register server src)
            end)
          (read_constraints path))
      constraints_file;
    let db = (Core.Monitor.index (S.monitor server)).Core.Index.db in
    Printf.printf
      "fcv serve: listening on %s — %d tables, %d constraints, %d shard%s, state from %s\n%!"
      sock
      (List.length (R.Database.table_names db))
      (List.length (Tier.constraints tier))
      shards
      (if shards = 1 then "" else "s")
      origin;
    S.run server;
    print_endline "fcv serve: stopped"
  in
  let doc =
    "run the constraint service: a daemon holding the logical indices resident, \
     validating registered constraints against streamed updates from concurrent \
     clients, with WAL-backed crash recovery (see docs/PROTOCOL.md)"
  in
  Cmd.v
    (Cmd.info "serve" ~doc)
    Term.(
      const run $ data_arg $ sock_arg $ state_arg $ constraints_opt_arg $ strategy_arg
      $ max_nodes_arg $ fsync_arg $ snapshot_every_arg $ idle_arg $ jobs_arg $ shards_arg
      $ group_commit_arg $ telemetry_arg)

(* -- fcv client ----------------------------------------------------------------------- *)

let client_cmd =
  let cmd_arg =
    let doc =
      "One of: ping | stats | validate | repair | explain | compact | snapshot | \
       shutdown | register | unregister | insert | delete | updates."
    in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"CMD" ~doc)
  in
  let arg_arg =
    let doc =
      "The command's argument: a constraint (register), an id (unregister, \
       explain), 'TABLE,v1,...' (insert/delete), 'STRATEGY[,N][,apply]' (repair: \
       plan — and with 'apply', execute — up to N deletions), or an updates file \
       / '-' for stdin (updates)."
    in
    Arg.(value & pos 1 (some string) None & info [] ~docv:"ARG" ~doc)
  in
  let run sock cmd arg =
    let module P = Fcv_server.Protocol in
    let module C = Fcv_server.Client in
    let module T = Fcv_util.Telemetry in
    let need what =
      match arg with
      | Some a -> a
      | None -> failwith (Printf.sprintf "client %s needs %s" cmd what)
    in
    let client = C.connect sock in
    Fun.protect ~finally:(fun () -> C.close client) @@ fun () ->
    let one req = print_endline (T.Json.to_string (C.ok_exn (C.request client req))) in
    let print_validation body =
      (match T.Json.member "reports" body with
      | Some (T.List reports) ->
        List.iter
          (fun rep ->
            let str f = match T.Json.member f rep with Some (T.String s) -> s | _ -> "?" in
            let fresh =
              match T.Json.member "fresh" rep with Some (T.Bool b) -> b | _ -> false
            in
            let ms = match T.Json.member "ms" rep with Some (T.Float f) -> f | _ -> 0. in
            let num f =
              match T.Json.member f rep with
              | Some (T.Float x) -> Some x
              | Some (T.Int i) -> Some (float_of_int i)
              | _ -> None
            in
            let rate =
              match (num "rate", num "threshold") with
              | Some r, Some p -> Printf.sprintf ", rate %.6g (allowed %.6g)" r (1. -. p)
              | _ -> ""
            in
            Printf.printf "  [%-9s] (%s%6.2f ms%s) %s\n"
              (String.uppercase_ascii (str "outcome"))
              (if fresh then "fresh,  " else "cached, ")
              ms rate (str "source"))
          reports
      | _ -> ());
      match T.Json.member "violated" body with Some (T.Int v) -> v | _ -> 0
    in
    match cmd with
    | "ping" -> one P.Ping
    | "stats" -> one P.Stats
    | "compact" -> one P.Compact
    | "snapshot" -> one P.Snapshot
    | "shutdown" -> one P.Shutdown
    | "register" -> one (P.Register { source = need "a constraint"; id = None })
    | "unregister" -> one (P.Unregister (int_of_string (need "a constraint id")))
    | "insert" | "delete" -> (
      match P.update_of_line (cmd ^ " " ^ need "TABLE,v1,...") with
      | Some u -> one (P.request_of_update u)
      | None -> failwith "empty row")
    | "validate" ->
      let body = C.ok_exn (C.request client P.Validate) in
      print_endline "validation:";
      if print_validation body > 0 then exit 1
    | "repair" ->
      let strategy, max_deletions, apply =
        match arg with
        | None -> ("greedy", None, false)
        | Some a -> (
          match List.map String.trim (String.split_on_char ',' a) with
          | [] -> ("greedy", None, false)
          | s :: rest ->
            ( (if s = "" then "greedy" else s),
              List.find_map int_of_string_opt rest,
              List.mem "apply" rest ))
      in
      one (P.Repair { strategy; max_deletions; apply })
    | "explain" -> (
      let c = int_of_string (need "a constraint id") in
      let body = C.ok_exn (C.request client (P.Explain c)) in
      match T.Json.member "text" body with
      | Some (T.String text) -> print_string text
      | _ -> print_endline (T.Json.to_string body))
    | "updates" ->
      let path = need "an updates file or '-'" in
      let ic = if path = "-" then stdin else open_in path in
      let violated = ref 0 in
      let updates, validations =
        Fun.protect
          ~finally:(fun () -> if path <> "-" then close_in ic)
          (fun () ->
            C.stream_updates client ic ~on_validate:(fun body ->
                print_endline "validation:";
                violated := !violated + print_validation body))
      in
      Printf.eprintf "(%d updates streamed, %d validations)\n" updates validations;
      if !violated > 0 then exit 1
    | c -> failwith ("unknown client command: " ^ c)
  in
  let doc = "talk to a running fcv serve daemon (line-delimited JSON protocol)" in
  Cmd.v (Cmd.info "client" ~doc) Term.(const run $ sock_arg $ cmd_arg $ arg_arg)

(* -- fcv bench ------------------------------------------------------------------------ *)

let bench_cmd =
  let repeat_arg =
    let doc = "Time the batch $(docv) times and report the best run." in
    Arg.(value & opt int 3 & info [ "r"; "repeat" ] ~docv:"R" ~doc)
  in
  let run data constraints_file strategy max_nodes jobs repeat =
    let index, constraints, _ =
      load_checked ~data ~constraints_file ~strategy ~max_nodes ()
    in
    List.iter (function src, Error msg -> print_error src msg | _, Ok _ -> ()) constraints;
    let specs = checked_specs constraints in
    let time () =
      let t0 = Fcv_util.Timer.now () in
      let results = Core.Checker.check_all ~jobs index specs in
      let ms = (Fcv_util.Timer.now () -. t0) *. 1000. in
      let violated =
        List.length
          (List.filter (fun r -> r.Core.Checker.outcome = Core.Checker.Violated) results)
      in
      (ms, violated)
    in
    let runs = List.init (max 1 repeat) (fun _ -> time ()) in
    let times = List.map fst runs in
    let violated = snd (List.hd runs) in
    let best = List.fold_left min infinity times in
    let mean = List.fold_left ( +. ) 0. times /. float_of_int (List.length times) in
    Printf.printf
      "jobs=%d constraints=%d violated=%d runs=%d best_ms=%.2f mean_ms=%.2f\n" jobs
      (List.length specs) violated (List.length runs) best mean;
    if errored constraints > 0 then exit 2
  in
  let doc =
    "time one parallel validation batch (all constraints, -j worker domains); \
     see bench/parallel.ml for the full j-scaling sweep"
  in
  Cmd.v
    (Cmd.info "bench" ~doc)
    Term.(
      const run $ data_arg $ constraints_arg $ strategy_arg $ max_nodes_arg $ jobs_arg
      $ repeat_arg)

(* -- fcv gen -------------------------------------------------------------------------- *)

let gen_cmd =
  let kind_arg =
    let doc = "Dataset: customers | university | noise | prod1 | prod4 | prod8 | random." in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"KIND" ~doc)
  in
  let noise_arg =
    let doc =
      "Per-row FD corruption rate for the noise dataset (fraction of readings rows \
       with a wrong location/unit) — drive a soft constraint above or below its \
       threshold."
    in
    Arg.(value & opt float 0.001 & info [ "noise" ] ~docv:"RATE" ~doc)
  in
  let out_arg =
    let doc = "Output directory." in
    Arg.(required & opt (some string) None & info [ "o"; "out" ] ~docv:"DIR" ~doc)
  in
  let rows_arg =
    let doc = "Number of rows." in
    Arg.(value & opt int 10_000 & info [ "n"; "rows" ] ~docv:"N" ~doc)
  in
  let seed_arg =
    let doc = "RNG seed." in
    Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc)
  in
  let run kind out rows seed noise =
    if not (Sys.file_exists out) then Sys.mkdir out 0o755;
    let rng = Fcv_util.Rng.create seed in
    let dump t = R.Csv.write_table t (Filename.concat out (R.Table.name t ^ ".csv")) in
    (match kind with
    | "noise" ->
      let cfg =
        { Fcv_datagen.Noise.default with rows; loc_noise = noise; unit_noise = noise }
      in
      let _, t = Fcv_datagen.Noise.generate rng cfg in
      dump t
    | "customers" ->
      let db = Fcv_datagen.Customers.make_db () in
      let t, world = Fcv_datagen.Customers.generate ~violation_rate:0.001 rng db ~name:"cust" ~rows in
      let cons = Fcv_datagen.Customers.constraints_table rng db world ~name:"allowed" ~n:(rows / 5) in
      dump t;
      dump cons
    | "university" ->
      let _, student, course, takes =
        Fcv_datagen.University.generate rng
          { Fcv_datagen.University.default with students = rows; violators = rows / 100 }
      in
      dump student;
      dump course;
      dump takes
    | "prod1" | "prod4" | "prod8" | "random" ->
      let family =
        match kind with
        | "prod1" -> Fcv_datagen.Synth.Prod 1
        | "prod4" -> Fcv_datagen.Synth.Prod 4
        | "prod8" -> Fcv_datagen.Synth.Prod 8
        | _ -> Fcv_datagen.Synth.Random
      in
      let _, t = Fcv_datagen.Synth.table rng ~name:kind ~attrs:5 ~dom:100 ~rows ~family in
      dump t
    | k -> failwith ("unknown dataset kind: " ^ k));
    Printf.printf "wrote %s dataset to %s\n" kind out
  in
  let doc = "generate synthetic datasets as CSV" in
  Cmd.v
    (Cmd.info "gen" ~doc)
    Term.(const run $ kind_arg $ out_arg $ rows_arg $ seed_arg $ noise_arg)

let sim_cmd =
  let seed_arg =
    let doc = "Master seed (sweep mode: schedule $(i,i) derives its own seed from it; \
               with $(b,--fault) it is the workload seed itself)." in
    Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc)
  in
  let schedules_arg =
    let doc = "Number of seeded workload schedules to sweep; every schedule is crashed \
               at every reachable fault point." in
    Arg.(value & opt int 50 & info [ "schedules" ] ~docv:"N" ~doc)
  in
  let ops_arg =
    let doc = "Override every workload's operation count (counterexample replay uses \
               this to pin the shrunk length)." in
    Arg.(value & opt (some int) None & info [ "ops" ] ~docv:"N" ~doc)
  in
  let fault_arg =
    let doc = "Replay mode: run only this fault point of the workload seeded by \
               $(b,--seed) (-1 = the fault-free clean-restart check)." in
    Arg.(value & opt (some int) None & info [ "fault" ] ~docv:"K" ~doc)
  in
  let inject_arg =
    let doc = "Plant a known durability bug (log-before-apply | skip-fsync | \
               skip-rotate | skip-shard-fsync) to demonstrate the harness catches it." in
    Arg.(value & opt (some string) None & info [ "inject" ] ~docv:"BUG" ~doc)
  in
  let shards_arg =
    let doc = "Force every workload onto an $(docv)-shard tier (otherwise each \
               schedule draws its own count, 1-3)." in
    Arg.(value & opt (some int) None & info [ "shards" ] ~docv:"N" ~doc)
  in
  let failures_arg =
    let doc = "Stop after this many shrunk counterexamples." in
    Arg.(value & opt int 1 & info [ "max-failures" ] ~docv:"N" ~doc)
  in
  let run seed schedules ops fault inject shards max_failures =
    let inject =
      Option.map
        (fun s ->
          match Fcv_sim.Sim.inject_of_string s with Ok i -> i | Error msg -> failwith msg)
        inject
    in
    let t0 = Unix.gettimeofday () in
    let r =
      Fcv_sim.Sim.run ?inject ?ops ?fault ?shards ~max_failures
        ~progress:(fun msg -> Printf.eprintf "fcv sim: %s\n%!" msg)
        ~seed ~schedules ()
    in
    Printf.printf "schedules %d  crash runs %d  failures %d  (%.1fs)\n" r.Fcv_sim.Sim.schedules_run
      r.Fcv_sim.Sim.crash_runs
      (List.length r.Fcv_sim.Sim.failures)
      (Unix.gettimeofday () -. t0);
    List.iter
      (fun cx ->
        Printf.printf "FAIL seed=%d ops=%d fault=%d: %s\n  repro: %s\n" cx.Fcv_sim.Sim.cx_seed
          cx.Fcv_sim.Sim.cx_ops cx.Fcv_sim.Sim.cx_fault cx.Fcv_sim.Sim.cx_reason
          cx.Fcv_sim.Sim.cx_repro)
      r.Fcv_sim.Sim.failures;
    if r.Fcv_sim.Sim.failures <> [] then exit 1
  in
  let doc =
    "deterministic fault-injection simulation of the constraint service's durability \
     (crash at every file-system effect point, recover, check invariants)"
  in
  Cmd.v
    (Cmd.info "sim" ~doc)
    Term.(
      const run $ seed_arg $ schedules_arg $ ops_arg $ fault_arg $ inject_arg $ shards_arg
      $ failures_arg)

let () =
  let doc = "fast identification of relational constraint violations (ICDE'07 reproduction)" in
  let info = Cmd.info "fcv" ~version:"1.0.0" ~doc in
  (* User-level errors (bad input files, unknown tables/kinds, ...) are
     raised as Failure/Sys_error from the subcommands; turn them into a
     clean message instead of cmdliner's "internal error" backtrace. *)
  exit
    (try
       Cmd.eval ~catch:false
         (Cmd.group info
          [
            check_cmd;
            explain_cmd;
            repair_cmd;
            bench_cmd;
            monitor_cmd;
            serve_cmd;
            client_cmd;
            sim_cmd;
            stats_cmd;
            index_cmd;
            orderings_cmd;
            sql_cmd;
            deps_cmd;
            gen_cmd;
          ])
     with
     | Failure msg | Sys_error msg | Invalid_argument msg ->
       Printf.eprintf "fcv: %s\n" msg;
       2
     | Fcv_bdd.Manager.Node_limit n ->
       (* checks fall back past the budget; only building or maintaining
          the logical indices themselves lets the trip escape *)
       Printf.eprintf
         "fcv: the logical indices need more than the node budget of %d BDD nodes; raise \
          --max-nodes (0 = unlimited)\n"
         n;
       2
     | Unix.Unix_error (err, fn, arg) ->
       Printf.eprintf "fcv: %s %s: %s\n" fn arg (Unix.error_message err);
       2
     | Fcv_server.Protocol.Malformed msg ->
       Printf.eprintf "fcv: protocol error: %s\n" msg;
       2)
