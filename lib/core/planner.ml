(** Cost-based adaptive strategy planner: estimate the BDD-pipeline
    and SQL-plan cost per constraint from index statistics blended
    with measured history, cache the decision, and learn online from
    every result.  See the interface for the full contract. *)

module T = Fcv_util.Telemetry
module R = Fcv_relation

type choice = Use_bdd | Use_sql

let choice_name = function Use_bdd -> "BDD" | Use_sql -> "SQL"

type node = {
  op : string;
  detail : string;
  est_ms : float;
  actual_ms : float option;
  chosen : bool;
  children : node list;
}

type plan = {
  choice : choice;
  strategy : Checker.strategy;
  est_bdd_ms : float;
  est_sql_ms : float;
  cost_ms : float;
  reason : string;
  probe : bool;
  tree : node;
}

type config = {
  ewma_alpha : float;
  trip_demote : int;
  probe_every : int;
  drift_band : float;
}

let default_config =
  { ewma_alpha = 0.3; trip_demote = 2; probe_every = 16; drift_band = 2.0 }

(* Per-constraint state: the spec, method EWMAs, trip evidence, probe
   clock and the cached plan.  Looked up by the printed spec, so
   syntactically equal constraints share history and a soft spec
   keeps its own. *)
type history = {
  spec : Formula.spec;
  mutable bdd_ms : float;
  mutable bdd_n : int;
  mutable sql_ms : float;
  mutable sql_n : int;
  mutable consec_trips : int;
  mutable total_trips : int;
  mutable since_probe : int;
  mutable planned : bool;  (** a later recomputation is a replan, not a miss *)
  mutable cached : cached option;
}

and cached = {
  version : int;  (** {!Index.t.structure_version} at plan time *)
  fingerprint : float;  (** data-size fingerprint at plan time *)
  model_bdd : float;  (** model-only estimates, for flip detection *)
  model_sql : float;
  cplan : plan;
}

type t = {
  cfg : config;
  tbl : (string, history) Hashtbl.t;
  mutable hits : int;
  mutable misses : int;
  mutable probes : int;
  mutable replans : int;
}

type stats = { hits : int; misses : int; probes : int; replans : int }

let create ?(config = default_config) () =
  {
    cfg = config;
    tbl = Hashtbl.create 32;
    hits = 0;
    misses = 0;
    probes = 0;
    replans = 0;
  }

let config t = t.cfg

let stats (t : t) =
  { hits = t.hits; misses = t.misses; probes = t.probes; replans = t.replans }

let invalidate t = Hashtbl.iter (fun _ h -> h.cached <- None) t.tbl

let history t spec =
  let key = Formula.spec_to_string spec in
  match Hashtbl.find_opt t.tbl key with
  | Some h -> h
  | None ->
    let h =
      {
        spec;
        bdd_ms = 0.;
        bdd_n = 0;
        sql_ms = 0.;
        sql_n = 0;
        consec_trips = 0;
        total_trips = 0;
        since_probe = 0;
        planned = false;
        cached = None;
      }
    in
    Hashtbl.replace t.tbl key h;
    h

(* -- cost model ------------------------------------------------------------- *)

(* Index statistics over the relations a formula mentions: total entry
   node count, total block width (bits, which grows with domain size),
   and total sat-count (distinct indexed rows).  The index counts each
   entry once per root, so reading them here is cheap. *)
let index_terms index f =
  List.fold_left
    (fun (nodes, bits, sat) rel ->
      List.fold_left
        (fun (nodes, bits, sat) (e : Index.entry) ->
          let w =
            Array.fold_left (fun a b -> a + Fcv_bdd.Fd.width b) 0 e.Index.blocks
          in
          (nodes + Index.entry_size index e, bits + w, sat +. Index.entry_rows index e))
        (nodes, bits, sat)
        (Index.entries_for index rel))
    (0, 0, 0.) (Formula.relations f)

let cardinality db rel =
  match R.Database.table_opt db rel with
  | Some tbl -> float_of_int (R.Table.cardinality tbl)
  | None -> 0.

(* Coefficients are rough milliseconds; only the relative order of the
   two sides matters initially, and the EWMA blend corrects both
   quickly. *)
let c_fixed = 0.02
let c_node = 0.0012
let c_atom = 0.04
let c_bit = 0.004
let c_sat = 0.00002

let estimate_bdd_ms index f =
  let nodes, bits, sat = index_terms index f in
  let atoms = Formula.atom_count f in
  match Fd_check.covered_fd index f with
  | Some _ ->
    (* Fig. 5(b): two projections + counts over the existing index BDD
       — far cheaper than compiling the self-join, but still monotone
       in node count and width *)
    c_fixed
    +. (0.3 *. c_node *. float_of_int nodes)
    +. (0.5 *. c_bit *. float_of_int bits)
    +. (c_sat *. sat)
  | None ->
    c_fixed
    +. (c_node *. float_of_int nodes)
    +. (c_atom *. float_of_int atoms)
    +. (c_bit *. float_of_int bits)
    +. (c_sat *. sat)

let estimate_sql_ms index f =
  let db = index.Index.db in
  let rels = Formula.relations f in
  let cards = List.map (cardinality db) rels in
  let scan = List.fold_left ( +. ) 0. cards in
  let atoms = Formula.atom_count f in
  let join =
    (* a crude join term: the product of the two largest scans (the
       same one twice for a self-join), capped so estimates stay
       finite and comparable *)
    if atoms <= 1 then 0.
    else
      let sorted = List.sort (fun a b -> compare b a) cards in
      let a = match sorted with x :: _ -> x | [] -> 0. in
      let b = match sorted with _ :: y :: _ -> y | _ -> a in
      Float.min 1e9 (a *. b)
  in
  0.05 +. (0.002 *. scan) +. (1.5e-6 *. join)

(* Data-size fingerprint: entry nodes + base cardinalities over the
   formula's relations.  Drift beyond the band invalidates the cached
   plan; shrinking below 1/band also forgets trip evidence. *)
let fingerprint index f =
  List.fold_left
    (fun acc rel ->
      let acc =
        List.fold_left
          (fun a e -> a +. float_of_int (Index.entry_size index e))
          acc (Index.entries_for index rel)
      in
      acc +. cardinality index.Index.db rel)
    0. (Formula.relations f)

let within_band cfg now was =
  if was <= 0. then now <= 0.
  else
    let r = now /. was in
    r <= cfg.drift_band && r >= 1. /. cfg.drift_band

(* -- decision --------------------------------------------------------------- *)

let blend ~model ~measured ~n =
  if n <= 0 then model
  else
    let w = Float.min 0.85 (float_of_int n /. float_of_int (n + 1)) in
    ((1. -. w) *. model) +. (w *. measured)

(* Why a plan chose its side.  A soft spec's BDD-free engine is the
   naive recount, exponential in its ∀-block — there is no SQL rate
   query — so only trip demotion plans it there, never an estimate
   priced against SQL. *)
type why = Tripped | Soft | Bdd_cheaper | Sql_cheaper

let choice_of = function Tripped | Sql_cheaper -> Use_sql | Soft | Bdd_cheaper -> Use_bdd

(* The decision and both blended estimates; the flip test in
   {!observe} reads only the choice, so no reason is printed here. *)
let decide cfg h ~model_bdd ~model_sql =
  let est_bdd = blend ~model:model_bdd ~measured:h.bdd_ms ~n:h.bdd_n in
  let est_sql = blend ~model:model_sql ~measured:h.sql_ms ~n:h.sql_n in
  let why =
    if h.consec_trips >= cfg.trip_demote then Tripped
    else if not (Formula.is_hard h.spec) then Soft
    else if est_bdd <= est_sql then Bdd_cheaper
    else Sql_cheaper
  in
  (why, est_bdd, est_sql)

let reason h why ~est_bdd ~est_sql =
  match why with
  | Tripped ->
    Printf.sprintf "%d consecutive budget trips — planned straight to SQL" h.consec_trips
  | Soft -> "soft spec: no SQL rate query, only the naive recount — BDD until it trips"
  | Bdd_cheaper -> Printf.sprintf "est BDD %.3f ms <= est SQL %.3f ms" est_bdd est_sql
  | Sql_cheaper -> Printf.sprintf "est SQL %.3f ms < est BDD %.3f ms" est_sql est_bdd

(* -- plan trees ------------------------------------------------------------- *)

let leaf ?(detail = "") ?actual ~chosen op est =
  { op; detail; est_ms = est; actual_ms = actual; chosen; children = [] }

let make_tree index f h ~choice ~est_bdd ~est_sql =
  let db = index.Index.db in
  let bdd_chosen = choice = Use_bdd in
  let atoms = Formula.atom_count f in
  let scan_nodes chosen =
    List.concat_map
      (fun rel ->
        List.map
          (fun (e : Index.entry) ->
            let w =
              Array.fold_left (fun a b -> a + Fcv_bdd.Fd.width b) 0 e.Index.blocks
            in
            let nodes = Index.entry_size index e in
            leaf ~chosen "index-scan"
              ~detail:(Printf.sprintf "%s (nodes=%d, bits=%d)" rel nodes w)
              (c_node *. float_of_int nodes))
          (Index.entries_for index rel))
      (Formula.relations f)
  in
  let head =
    match Fd_check.covered_fd index f with
    | Some (table, lhs, rhs) ->
      leaf ~chosen:bdd_chosen "fd-fast-path"
        ~detail:(Printf.sprintf "%s: %s -> %s" table (String.concat "," lhs) rhs)
        (0.5 *. est_bdd)
    | None ->
      leaf ~chosen:bdd_chosen "rewrite+compile"
        ~detail:(Printf.sprintf "atoms=%d" atoms)
        (0.8 *. est_bdd)
  in
  let bdd_branch =
    {
      op = "bdd-pipeline";
      detail = "";
      est_ms = est_bdd;
      actual_ms = (if h.bdd_n > 0 then Some h.bdd_ms else None);
      chosen = bdd_chosen;
      children =
        (head :: scan_nodes bdd_chosen) @ [ leaf ~chosen:bdd_chosen "verdict" ~detail:"O(1)" 0. ];
    }
  in
  let sql_scans =
    List.map
      (fun rel ->
        leaf ~chosen:(not bdd_chosen) "seq-scan"
          ~detail:(Printf.sprintf "%s (rows=%.0f)" rel (cardinality db rel))
          (0.002 *. cardinality db rel))
      (Formula.relations f)
  in
  let sql_branch =
    {
      op = "sql-violation-query";
      detail = "";
      est_ms = est_sql;
      actual_ms = (if h.sql_n > 0 then Some h.sql_ms else None);
      chosen = not bdd_chosen;
      children =
        (if atoms > 1 then
           {
             op = "join";
             detail = Printf.sprintf "atoms=%d" atoms;
             est_ms = est_sql;
             actual_ms = None;
             chosen = not bdd_chosen;
             children = sql_scans;
           }
           :: []
         else sql_scans);
    }
  in
  let chosen_est = if bdd_chosen then est_bdd else est_sql in
  let chosen_actual =
    if bdd_chosen then (if h.bdd_n > 0 then Some h.bdd_ms else None)
    else if h.sql_n > 0 then Some h.sql_ms
    else None
  in
  {
    op = "constraint";
    detail = Formula.to_string f;
    est_ms = chosen_est;
    actual_ms = chosen_actual;
    chosen = true;
    children = [ bdd_branch; sql_branch ];
  }

let make_plan index f h ~choice ~reason ~est_bdd ~est_sql ~probe =
  {
    choice;
    strategy = (match choice with Use_bdd -> Checker.Auto | Use_sql -> Checker.Force_sql);
    est_bdd_ms = est_bdd;
    est_sql_ms = est_sql;
    cost_ms = (match choice with Use_bdd -> est_bdd | Use_sql -> est_sql);
    reason;
    probe;
    tree = make_tree index f h ~choice ~est_bdd ~est_sql;
  }

(* A cached plan's tree froze its actual_ms annotations at plan time;
   re-stamp the branch (and root) actuals from the live history so a
   cache hit still reports what the last runs measured. *)
let refresh_actuals h p =
  let bdd_a = if h.bdd_n > 0 then Some h.bdd_ms else None in
  let sql_a = if h.sql_n > 0 then Some h.sql_ms else None in
  let branch n =
    match n.op with
    | "bdd-pipeline" -> { n with actual_ms = bdd_a }
    | "sql-violation-query" -> { n with actual_ms = sql_a }
    | _ -> n
  in
  let tree =
    {
      p.tree with
      actual_ms = (if p.choice = Use_bdd then bdd_a else sql_a);
      children = List.map branch p.tree.children;
    }
  in
  { p with tree }

(* -- planning --------------------------------------------------------------- *)

let c_hit = T.counter "planner.hit"
let c_miss = T.counter "planner.miss"
let c_probe = T.counter "planner.probe"
let c_replans = T.counter "planner.replans"

let plan t index h =
  let f = h.spec.Formula.formula in
  let version = index.Index.structure_version in
  let fp = fingerprint index f in
  let recompute () =
    (* re-promotion: the watched data shrank well below what tripped
       the budget, so the trip evidence (and the stale BDD timing it
       came with) no longer describes this constraint *)
    (match h.cached with
    | Some c when fp < c.fingerprint /. t.cfg.drift_band ->
      h.consec_trips <- 0;
      h.bdd_n <- 0
    | _ -> ());
    let model_bdd = estimate_bdd_ms index f in
    let model_sql = estimate_sql_ms index f in
    let why, est_bdd, est_sql = decide t.cfg h ~model_bdd ~model_sql in
    let p =
      make_plan index f h ~choice:(choice_of why) ~reason:(reason h why ~est_bdd ~est_sql)
        ~est_bdd ~est_sql ~probe:false
    in
    if h.planned then begin
      t.replans <- t.replans + 1;
      T.incr c_replans
    end
    else begin
      t.misses <- t.misses + 1;
      T.incr c_miss
    end;
    h.planned <- true;
    h.cached <- Some { version; fingerprint = fp; model_bdd; model_sql; cplan = p };
    p
  in
  match h.cached with
  | Some c when c.version = version && within_band t.cfg fp c.fingerprint ->
    if c.cplan.choice = Use_sql && h.since_probe >= t.cfg.probe_every then begin
      (* ε-probe: run the guarded BDD pipeline once so the BDD-side
         estimate tracks reality; the cached SQL plan stays *)
      h.since_probe <- 0;
      t.probes <- t.probes + 1;
      T.incr c_probe;
      refresh_actuals h
        {
          c.cplan with
          choice = Use_bdd;
          strategy = Checker.Auto;
          cost_ms = c.cplan.est_bdd_ms;
          reason = "ε-probe: re-measuring the BDD pipeline";
          probe = true;
        }
    end
    else begin
      if c.cplan.choice = Use_sql then h.since_probe <- h.since_probe + 1;
      t.hits <- t.hits + 1;
      T.incr c_hit;
      refresh_actuals h c.cplan
    end
  | _ -> recompute ()

let ewma alpha old n x = if n <= 0 then x else (alpha *. x) +. ((1. -. alpha) *. old)

let observe t h (r : Checker.result) =
  let cfg = t.cfg in
  let note_bdd x =
    h.bdd_ms <- ewma cfg.ewma_alpha h.bdd_ms h.bdd_n x;
    h.bdd_n <- h.bdd_n + 1
  in
  let note_sql x =
    h.sql_ms <- ewma cfg.ewma_alpha h.sql_ms h.sql_n x;
    h.sql_n <- h.sql_n + 1
  in
  (match r.Checker.method_used with
  | Checker.Bdd ->
    note_bdd r.Checker.elapsed_ms;
    h.consec_trips <- 0
  | Checker.Sql | Checker.Naive ->
    if r.Checker.bdd_overhead_ms > 0. then begin
      (* a budget-tripping fallback: choosing BDD actually cost the
         abandoned attempt plus the fallback it forced *)
      h.consec_trips <- h.consec_trips + 1;
      h.total_trips <- h.total_trips + 1;
      note_bdd (r.Checker.bdd_overhead_ms +. r.Checker.elapsed_ms);
      note_sql r.Checker.elapsed_ms
    end
    else note_sql r.Checker.elapsed_ms);
  (* decision-flip invalidation: if the fresh evidence reverses the
     cached choice, drop the plan so the next [plan] re-decides *)
  match h.cached with
  | Some c ->
    let why, _, _ = decide cfg h ~model_bdd:c.model_bdd ~model_sql:c.model_sql in
    if choice_of why <> c.cplan.choice then h.cached <- None
  | None -> ()

(* -- rendering -------------------------------------------------------------- *)

let render p =
  let b = Buffer.create 512 in
  Buffer.add_string b (Printf.sprintf "Plan: %s\n" p.tree.detail);
  Buffer.add_string b
    (Printf.sprintf "Strategy: %s%s  (est bdd=%.3f ms, est sql=%.3f ms) — %s\n"
       (choice_name p.choice)
       (if p.probe then " [probe]" else "")
       p.est_bdd_ms p.est_sql_ms p.reason);
  let rec go prefix is_last n =
    Buffer.add_string b
      (Printf.sprintf "%s%s %s%s  (est=%.3f ms%s)%s\n" prefix
         (if is_last then "└─" else "├─")
         n.op
         (if n.detail = "" then "" else " " ^ n.detail)
         n.est_ms
         (match n.actual_ms with
         | Some a -> Printf.sprintf ", last actual=%.3f ms" a
         | None -> "")
         (if n.chosen then "  [chosen]" else ""));
    let child_prefix = prefix ^ if is_last then "   " else "│  " in
    let rec each = function
      | [] -> ()
      | [ c ] -> go child_prefix true c
      | c :: rest ->
        go child_prefix false c;
        each rest
    in
    each n.children
  in
  (let rec each = function
     | [] -> ()
     | [ c ] -> go "" true c
     | c :: rest ->
       go "" false c;
       each rest
   in
   each p.tree.children);
  Buffer.contents b

let rec node_json n =
  T.Obj
    [
      ("op", T.String n.op);
      ("detail", T.String n.detail);
      ("est_ms", T.Float n.est_ms);
      ( "last_actual_ms",
        match n.actual_ms with Some a -> T.Float a | None -> T.Null );
      ("chosen", T.Bool n.chosen);
      ("children", T.List (List.map node_json n.children));
    ]

let plan_json p =
  T.Obj
    [
      ("choice", T.String (choice_name p.choice));
      ("strategy", T.String (Checker.strategy_name p.strategy));
      ("est_bdd_ms", T.Float p.est_bdd_ms);
      ("est_sql_ms", T.Float p.est_sql_ms);
      ("cost_ms", T.Float p.cost_ms);
      ("reason", T.String p.reason);
      ("probe", T.Bool p.probe);
      ("tree", node_json p.tree);
    ]

(* -- FD implication (Kenig–Suciu direction) --------------------------------- *)

type fd = { table : string; lhs : string list; rhs : string }

let fd_of db f =
  match Fd_check.recognize_fd db f with
  | Some (table, lhs, rhs) -> Some { table; lhs = List.sort_uniq compare lhs; rhs }
  | None -> None

module Sset = Set.Make (String)

let entails ~by fd =
  let same = List.filter (fun (_, f) -> f.table = fd.table) by in
  let closure = ref (Sset.of_list fd.lhs) in
  let used = ref [] in
  let changed = ref true in
  (* attribute closure of lhs under the registered FDs: augmentation is
     implicit (we start from the full lhs), transitivity is the
     fixpoint *)
  while !changed do
    changed := false;
    List.iter
      (fun (id, f) ->
        if
          (not (Sset.mem f.rhs !closure))
          && List.for_all (fun a -> Sset.mem a !closure) f.lhs
        then begin
          closure := Sset.add f.rhs !closure;
          used := id :: !used;
          changed := true
        end)
      same
  done;
  if Sset.mem fd.rhs !closure then Some (List.sort_uniq compare !used) else None
