(** Unit tests for {!Fcv_util.Telemetry}: counter/gauge/histogram
    semantics, span nesting, JSON-lines export round-trip, the
    disabled fast path, and the end-to-end budget-fallback regression
    (a tiny node budget must produce exactly one budget-trip event and
    a correct fallback verdict, on the generic compile path and on
    FD-shaped hard and soft specs alike), with the [check.done]
    event's kernel deltas checked against [Manager.stats] on the BDD
    route, on the trip and on a re-check after it; and the JSON writer
    against the one it replaced (the same bytes on finite values, a
    parse round trip, [null] for non-finite floats, [\u] escapes
    decoded to UTF-8). *)

module T = Fcv_util.Telemetry

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

(* Telemetry is global state: every test runs against a fresh enabled
   instance and leaves it disabled. *)
let with_telemetry f () =
  T.reset ();
  T.enable ();
  Fun.protect
    ~finally:(fun () ->
      T.disable ();
      T.reset ())
    f

let test_counters () =
  let c = T.counter "test.c" in
  check_int "fresh counter is zero" 0 (T.counter_value c);
  T.incr c;
  T.incr ~by:41 c;
  check_int "incr accumulates" 42 (T.counter_value c);
  check "interning returns the same counter" true (T.counter "test.c" == c);
  T.reset ();
  check_int "reset zeroes" 0 (T.counter_value c)

let test_gauges () =
  let g = T.gauge "test.g" in
  T.gauge_set g 7;
  T.gauge_set g 3;
  check_int "gauge holds last value" 3 (T.gauge_value g);
  check_int "gauge tracks peak" 7 (T.gauge_peak g);
  T.gauge_set g 11;
  check_int "peak moves up" 11 (T.gauge_peak g)

let test_histograms () =
  let h = T.histogram "test.h" in
  List.iter (T.observe h) [ 1.0; 1.5; 3.0; 1024.0 ];
  check_int "count" 4 (T.histogram_count h);
  check (Printf.sprintf "sum = %f" (T.histogram_sum h)) true
    (abs_float (T.histogram_sum h -. 1029.5) < 1e-9);
  let buckets = T.histogram_buckets h in
  (* log2 buckets: 1.0 and 1.5 share [1,2); 3.0 in [2,4); 1024 in [1024,2048) *)
  check "bucket lows" true
    (List.map fst buckets = [ 1.0; 2.0; 1024.0 ]
    && List.map snd buckets = [ 2; 1; 1 ])

let test_span_nesting () =
  let v =
    T.with_span "outer" (fun () ->
        T.with_span "inner" (fun () -> 21 * 2))
  in
  check_int "with_span returns the body's value" 42 v;
  let paths =
    List.filter_map
      (fun ev ->
        match (T.Json.member "kind" ev, T.Json.member "path" ev) with
        | Some (T.String "span"), Some (T.String p) -> Some p
        | _ -> None)
      (T.events ())
  in
  (* inner completes (and records) first *)
  check "nested paths" true (paths = [ "outer/inner"; "outer" ]);
  (* the stack unwinds even when the body raises *)
  (try T.with_span "boom" (fun () -> failwith "x") with Failure _ -> ());
  let v2 = T.with_span "after" (fun () -> 1) in
  check_int "span stack survives exceptions" 1 v2;
  let paths2 =
    List.filter_map
      (fun ev ->
        match (T.Json.member "kind" ev, T.Json.member "path" ev) with
        | Some (T.String "span"), Some (T.String p) -> Some p
        | _ -> None)
      (T.events ())
  in
  check "no stale frame after an exception" true
    (List.mem "after" paths2 && not (List.exists (fun p -> p = "boom/after") paths2))

let test_jsonl_round_trip () =
  T.incr ~by:3 (T.counter "rt.counter");
  T.observe (T.histogram "rt.hist") 2.5;
  T.event "rt.event"
    [
      ("answer", T.Int 42);
      ("pi", T.Float 3.25);
      ("label", T.String "quotes \" and \\ and\nnewline");
      ("flag", T.Bool true);
      ("nothing", T.Null);
      ("list", T.List [ T.Int 1; T.Int 2 ]);
    ];
  let lines =
    String.split_on_char '\n' (T.jsonl ()) |> List.filter (fun l -> l <> "")
  in
  check "export is non-empty" true (List.length lines >= 3);
  List.iter
    (fun line ->
      let parsed = T.Json.of_string line in
      (* canonical: parse(print(parse(line))) = parse(line) *)
      let reprinted = T.Json.of_string (T.Json.to_string parsed) in
      check ("round-trips: " ^ line) true (parsed = reprinted))
    lines;
  (* the event line carries its fields through the export *)
  let ev =
    List.find
      (fun l ->
        match T.Json.member "kind" (T.Json.of_string l) with
        | Some (T.String "rt.event") -> true
        | _ -> false)
      lines
    |> T.Json.of_string
  in
  check "int field" true (T.Json.member "answer" ev = Some (T.Int 42));
  check "string field" true
    (T.Json.member "label" ev = Some (T.String "quotes \" and \\ and\nnewline"));
  check "list field" true (T.Json.member "list" ev = Some (T.List [ T.Int 1; T.Int 2 ]))

let test_json_parser_errors () =
  List.iter
    (fun s ->
      match T.Json.of_string s with
      | exception T.Json.Parse_error _ -> ()
      | j -> Alcotest.failf "parsed %S to %s" s (T.Json.to_string j))
    [ ""; "{"; "[1,"; "{\"a\":}"; "truex"; "\"unterminated" ]

(* Numbers parse only in JSON's grammar, an [Int] when one has no
   fraction or exponent and fits; a raw control byte in a string is an
   error, its escape is not.  Python's json.loads draws the same line. *)
let test_json_strict () =
  let parses s j =
    match T.Json.of_string s with
    | j' -> if j' <> j then Alcotest.failf "%S parsed to %s" s (T.Json.to_string j')
    | exception T.Json.Parse_error msg -> Alcotest.failf "%S: %s" s msg
  in
  List.iter
    (fun (s, j) -> parses s j)
    [
      ("0", T.Int 0); ("-0", T.Int 0); ("12", T.Int 12); ("-12", T.Int (-12));
      ("4611686018427387903", T.Int max_int); ("-4611686018427387904", T.Int min_int);
      ("4611686018427387904", T.Float 4611686018427387904.); ("5.0", T.Float 5.);
      ("0.5", T.Float 0.5); ("-12.5e-3", T.Float (-0.0125)); ("1E+2", T.Float 100.);
      ("1e3", T.Float 1000.); ("[1,-0.0]", T.List [ T.Int 1; T.Float (-0.) ]);
      ({|"a\tb"|}, T.String "a\tb"); ("\"\x7f\xc3\xa9\"", T.String "\x7f\xc3\xa9");
      ({|{"a":"x\"y","b":""}|}, T.Obj [ ("a", T.String "x\"y"); ("b", T.String "") ]);
    ];
  List.iter
    (fun s ->
      match T.Json.of_string s with
      | exception T.Json.Parse_error _ -> ()
      | j -> Alcotest.failf "parsed %S to %s" s (T.Json.to_string j))
    [
      "+1"; "01"; "-01"; "00"; "-"; "5."; ".5"; "1.e3"; "1e"; "1e+"; "--1"; "0x1F"; "1_000";
      "[1,]"; "1 2"; "nan"; "Infinity"; "\"a\tb\""; "\"\001\""; "\"x\ny\""; "\"\000\"";
    ]

let test_disabled_is_noop () =
  (* with_telemetry enabled us; turn it off and hammer the API *)
  T.disable ();
  let c = T.counter "off.c" in
  let g = T.gauge "off.g" in
  let h = T.histogram "off.h" in
  T.incr ~by:100 c;
  T.gauge_set g 9;
  T.observe h 1.0;
  T.event "off.event" [ ("x", T.Int 1) ];
  let v = T.with_span "off.span" (fun () -> 5) in
  check_int "span still runs the body" 5 v;
  check_int "counter untouched" 0 (T.counter_value c);
  check_int "gauge untouched" 0 (T.gauge_peak g);
  check_int "histogram untouched" 0 (T.histogram_count h);
  check_int "no events recorded" 0 (List.length (T.events ()));
  check_int "nothing dropped" 0 (T.dropped_events ())

(* -- budget-fallback regression ------------------------------------------------ *)

(* A non-FD-shaped constraint, so the checker takes the generic
   compile path.  Its ∃c scopes a conjunction, so the violation form
   projects nothing and the compile still needs more nodes than the
   budget's headroom below. *)
let fallback_constraint = "forall x, y . r(x, y) -> (exists c . s(y, c) and t(x))"

(* FD-shaped specs over a four-column table, so the FD fast path's
   projection allocates nodes and is what trips the budget. *)
let sensor_fd =
  "forall s, l1, l2 . readings(s, l1, _, _) and readings(s, l2, _, _) -> l1 = l2"

let noise_db () =
  fst
    (Fcv_datagen.Noise.generate (Fcv_util.Rng.create 7)
       {
         Fcv_datagen.Noise.default with
         rows = 200;
         sensors = 20;
         locations = 6;
         units = 3;
         readings = 10;
         loc_noise = 0.05;
       })

(* Each input, with no budget, takes its BDD route (the span named
   last) without a trip; under a tight budget it trips once and falls
   back once: a trip anywhere in the BDD attempt, FD fast path
   included, goes straight to the BDD-free engine. *)
let budget_fallback_inputs =
  [
    ("generic compile", (fun () -> Gen.random_db 42), fallback_constraint, "check/compile");
    ("hard FD", noise_db, sensor_fd, "check/fd_fast_path");
    ("soft FD", noise_db, "holds >= 0.9 . " ^ sensor_fd, "check_soft/fd_fast_path");
  ]

let events_of kind =
  List.filter (fun ev -> T.Json.member "kind" ev = Some (T.String kind)) (T.events ())

(* The one check.done event's kernel deltas against [Manager.stats]
   read around the call ([before] just ahead of it, the current
   counters after it). *)
let check_done_kernel ~label ~trips mgr (before : Fcv_bdd.Manager.stats) =
  let module M = Fcv_bdd.Manager in
  let after = M.stats mgr in
  match events_of "check.done" with
  | [ ev ] ->
    let field name =
      match T.Json.member name ev with
      | Some (T.Int n) -> n
      | _ -> Alcotest.failf "%s: check.done lacks %s" label name
    in
    let check_int name = check_int (label ^ ": check.done " ^ name) in
    check_int "nodes_allocated = unique_misses delta"
      (after.M.unique_misses - before.M.unique_misses)
      (field "nodes_allocated");
    check_int "budget_trips" trips (field "budget_trips");
    check_int "budget_trips = trip delta" (after.M.budget_trips - before.M.budget_trips)
      (field "budget_trips");
    check_int "peak_nodes = peak afterwards" after.M.peak_nodes (field "peak_nodes")
  | evs -> Alcotest.failf "%s: %d check.done events" label (List.length evs)

let test_budget_fallback () =
  List.iter
    (fun (label, make_db, source, route_span) ->
      let check name = check (label ^ ": " ^ name) in
      let check_int name = check_int (label ^ ": " ^ name) in
      let spec = Core.Fol_parser.spec_of_string source in
      let f = spec.Core.Formula.formula in
      let indexed () =
        let db = make_db () in
        let index = Core.Index.create db in
        Core.Checker.ensure_indices index [ f ];
        (db, index)
      in
      T.reset ();
      let _, index = indexed () in
      let mgr = Core.Index.mgr index in
      let before = Fcv_bdd.Manager.stats mgr in
      let r = Core.Checker.check_spec index spec in
      check "unbudgeted check stays on BDD" true
        (r.Core.Checker.method_used = Core.Checker.Bdd);
      check ("took " ^ route_span) true
        (List.exists
           (fun ev -> T.Json.member "path" ev = Some (T.String route_span))
           (events_of "span"));
      check "the BDD route allocated nodes" true
        (Fcv_bdd.Manager.size mgr > before.Fcv_bdd.Manager.nodes);
      check_done_kernel ~label ~trips:0 mgr before;
      T.reset ();
      let db, index = indexed () in
      let expected =
        if Core.Formula.is_hard spec then Core.Naive_eval.holds db f
        else
          let v, t = Core.Naive_eval.soft_counts db f in
          Core.Checker.clears ~threshold:spec.Core.Formula.threshold
            ~violations:(Fcv_bdd.Nat.of_int v) ~total:(Fcv_bdd.Nat.of_int t)
      in
      (* leave just enough headroom that compilation, not index building,
         trips the budget *)
      let mgr = Core.Index.mgr index in
      Fcv_bdd.Manager.set_max_nodes mgr (Fcv_bdd.Manager.size mgr + 8);
      let before = Fcv_bdd.Manager.stats mgr in
      let r = Core.Checker.check_spec index spec in
      check_done_kernel ~label ~trips:1 mgr before;
      check "fell back off the BDD path" true (r.Core.Checker.method_used <> Core.Checker.Bdd);
      check "fallback verdict matches the naive evaluator" expected
        (r.Core.Checker.outcome = Core.Checker.Satisfied);
      check "abandoned BDD attempt was accounted" true (r.Core.Checker.bdd_overhead_ms >= 0.);
      (* a budget trip charges the whole fallback run to fallback_ms *)
      check "fallback_ms is the fallback's elapsed time" true
        (r.Core.Checker.fallback_ms = r.Core.Checker.elapsed_ms);
      let trips = events_of "bdd.budget_trip" in
      check_int "exactly one budget-trip event" 1 (List.length trips);
      (match trips with
      | [ ev ] ->
        check "trip records the budget" true
          (T.Json.member "budget" ev = Some (T.Int (Fcv_bdd.Manager.max_nodes mgr)))
      | _ -> ());
      let fallbacks = events_of "check.fallback" in
      check_int "exactly one fallback event" 1 (List.length fallbacks);
      (match fallbacks with
      | [ ev ] ->
        (match T.Json.member "method" ev with
        | Some (T.String m) ->
          check_string "fallback method matches the result" (Core.Checker.method_name r.Core.Checker.method_used) m
        | _ -> Alcotest.fail "fallback event lacks a method field");
        (match T.Json.member "bdd_overhead_ms" ev with
        | Some (T.Float ms) -> check "overhead is non-negative" true (ms >= 0.)
        | _ -> Alcotest.fail "fallback event lacks bdd_overhead_ms")
      | _ -> ());
      (* the same store with the budget lifted: the manager has
         tripped once, so only a per-check delta reads 0 *)
      T.reset ();
      Fcv_bdd.Manager.set_max_nodes mgr 0;
      let before = Fcv_bdd.Manager.stats mgr in
      let r = Core.Checker.check_spec index spec in
      check "re-check after the trip stays on BDD" true
        (r.Core.Checker.method_used = Core.Checker.Bdd);
      check_done_kernel ~label:(label ^ " re-check") ~trips:0 mgr before)
    budget_fallback_inputs

(* Regression: choosing SQL up-front (the planner's [Force_sql]) pays
   neither the abandoned BDD attempt nor a "fallback" — both cost
   fields must be exactly zero, unlike the budget-trip path above. *)
let test_force_sql_costs_nothing_extra () =
  let db = Gen.random_db 42 in
  let f = Core.Fol_parser.of_string fallback_constraint in
  let index = Core.Index.create db in
  Core.Checker.ensure_indices index [ f ];
  let expected = Core.Naive_eval.holds db f in
  let r = Core.Checker.check ~strategy:Core.Checker.Force_sql index f in
  check "method is SQL" true (r.Core.Checker.method_used = Core.Checker.Sql);
  check "verdict matches the naive evaluator" expected
    (r.Core.Checker.outcome = Core.Checker.Satisfied);
  check "no abandoned-attempt cost when SQL was chosen up-front" true
    (r.Core.Checker.bdd_overhead_ms = 0.);
  check "no fallback cost when SQL was chosen up-front" true
    (r.Core.Checker.fallback_ms = 0.);
  check_int "no budget-trip events" 0
    (List.length
       (List.filter
          (fun ev -> T.Json.member "kind" ev = Some (T.String "bdd.budget_trip"))
          (T.events ())))

(* The violation form of the retail audit's orders → customers
   dependency projects four of its five variables (o, ci, st, sg; c
   joins the atoms): the counter and the rewrite event both say so. *)
let test_projected_vars () =
  let gen =
    Fcv_datagen.Retail.generate (Fcv_util.Rng.create 3)
      { Fcv_datagen.Retail.default with customers = 30; products = 10; orders = 60 }
  in
  let f =
    Core.Fol_parser.of_string
      (List.assoc "orders reference existing customers" Fcv_datagen.Retail.audit_constraints)
  in
  let index = Core.Index.create gen.Fcv_datagen.Retail.db in
  Core.Checker.ensure_indices index [ f ];
  T.reset ();
  let r = Core.Checker.check index f in
  check "checked on BDD" true (r.Core.Checker.method_used = Core.Checker.Bdd);
  check_int "rewrite.projected_vars" 4 (T.counter_value (T.counter "rewrite.projected_vars"));
  check "rewrite event carries projected_vars" true
    (List.map (T.Json.member "projected_vars") (events_of "rewrite") = [ Some (T.Int 4) ])

(* The second check of audit's orders → customers, and of its
   three-way join of orders, customers and shipments, on an unchanged
   index reads every atom's projection from the index's cache, already
   renamed onto its home blocks: the first check builds each atom's
   projection and its renamed form, the second only hits, and neither
   restricts, projects nor renames an entry. *)
let test_projection_cache_counters () =
  let gen =
    Fcv_datagen.Retail.generate (Fcv_util.Rng.create 3)
      { Fcv_datagen.Retail.default with customers = 30; products = 10; orders = 60 }
  in
  let audit name = Core.Fol_parser.of_string (List.assoc name Fcv_datagen.Retail.audit_constraints) in
  let f = audit "orders reference existing customers" in
  let join = audit "shipments go to the customer's state" in
  let index = Core.Index.create gen.Fcv_datagen.Retail.db in
  Core.Checker.ensure_indices index [ f; join ];
  let mgr = Core.Index.mgr index in
  let op name = List.assoc name (Fcv_bdd.Manager.stats mgr).Fcv_bdd.Manager.op_calls in
  let builds () = T.counter_value (T.counter "index.projection_builds") in
  let hits () = T.counter_value (T.counter "index.projection_hits") in
  let first = Core.Checker.check index f in
  check "first check on BDD" true (first.Core.Checker.method_used = Core.Checker.Bdd);
  (* orders' projection; customers' projection, and its rename onto
     orders' cust_id block, a key of its own *)
  check_int "first check builds both atoms' projections and one rename" 3 (builds ());
  check_int "first check hits nothing" 0 (hits ());
  let no_entry_ops what f =
    let ops = [ "exists"; "restrict"; "replace"; "ite" ] in
    let before = List.map op ops in
    let r = f () in
    List.iter2
      (fun name n -> check_int (Printf.sprintf "%s: no op_%s" what name) n (op name))
      ops before;
    r
  in
  let second = no_entry_ops "second check" (fun () -> Core.Checker.check index f) in
  check "same verdict" true (second.Core.Checker.outcome = first.Core.Checker.outcome);
  check_int "second check builds nothing" 3 (builds ());
  check_int "second check hits both atoms" 2 (hits ());
  let first_join = Core.Checker.check index join in
  check "join on BDD" true (first_join.Core.Checker.method_used = Core.Checker.Bdd);
  (* its three atoms' projections, and the renames of customers' c and
     shipments' o onto orders' blocks *)
  check_int "first join builds three projections and two renames" 8 (builds ());
  check_int "first join hits nothing" 2 (hits ());
  let built = builds () and hit = hits () in
  let second_join = no_entry_ops "second join" (fun () -> Core.Checker.check index join) in
  check "same join verdict" true
    (second_join.Core.Checker.outcome = first_join.Core.Checker.outcome);
  check_int "second join builds nothing" built (builds ());
  check_int "second join hits its three atoms" (hit + 3) (hits ())

(* The planner's cache telemetry: every plan outcome ticks exactly one
   of planner.{hit,miss,probe,replans}, in step with Planner.stats. *)
let test_planner_counters () =
  let module P = Core.Planner in
  let db = Gen.random_db 7 in
  let f = Core.Fol_parser.of_string fallback_constraint in
  let index = Core.Index.create db in
  Core.Checker.ensure_indices index [ f ];
  let p = P.create () in
  (* expensive measured SQL history pins the first plan to BDD *)
  let slow_sql =
    {
      Core.Checker.outcome = Core.Checker.Satisfied;
      method_used = Core.Checker.Sql;
      elapsed_ms = 5.0;
      bdd_overhead_ms = 0.;
      fallback_ms = 0.;
      rewritten = f;
      rate = None;
    }
  in
  let trip = { slow_sql with Core.Checker.elapsed_ms = 1.0; bdd_overhead_ms = 3.0 } in
  List.iter (P.observe (P.history p (Core.Formula.hard f))) [ slow_sql; slow_sql; slow_sql ];
  ignore (P.plan p index (P.history p (Core.Formula.hard f))) (* miss *);
  ignore (P.plan p index (P.history p (Core.Formula.hard f))) (* hit *);
  List.iter (P.observe (P.history p (Core.Formula.hard f))) [ trip; trip ]
  (* decision flip drops the cache *);
  ignore (P.plan p index (P.history p (Core.Formula.hard f))) (* replan, cached SQL *);
  for _ = 1 to 16 do
    ignore (P.plan p index (P.history p (Core.Formula.hard f))) (* hit (probe clock +1) *)
  done;
  ignore (P.plan p index (P.history p (Core.Formula.hard f))) (* ε-probe *);
  let counters =
    [ ("planner.hit", 17); ("planner.miss", 1); ("planner.probe", 1); ("planner.replans", 1) ]
  in
  List.iter
    (fun (name, expect) -> check_int name expect (T.counter_value (T.counter name)))
    counters;
  let s = P.stats p in
  check_int "stats.hits agrees" s.P.hits (T.counter_value (T.counter "planner.hit"));
  check_int "stats.misses agrees" s.P.misses (T.counter_value (T.counter "planner.miss"));
  check_int "stats.probes agrees" s.P.probes (T.counter_value (T.counter "planner.probe"));
  check_int "stats.replans agrees" s.P.replans
    (T.counter_value (T.counter "planner.replans"))

(* -- the JSON writer against the one it replaced -------------------------------- *)

(* The writer as it was before it copied clean runs whole and wrote
   numbers without [Printf]: the reference the current one must match
   byte for byte on every finite value. *)
module Reference = struct
  let escape buf s =
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | '\r' -> Buffer.add_string buf "\\r"
        | '\t' -> Buffer.add_string buf "\\t"
        | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char buf c)
      s

  let rec write buf = function
    | T.Null -> Buffer.add_string buf "null"
    | T.Bool b -> Buffer.add_string buf (if b then "true" else "false")
    | T.Int i -> Buffer.add_string buf (string_of_int i)
    | T.Float f ->
      if Float.is_nan f then Buffer.add_string buf "null"
      else if Float.is_integer f && Float.abs f < 1e15 then
        Buffer.add_string buf (Printf.sprintf "%.1f" f)
      else Buffer.add_string buf (Printf.sprintf "%.12g" f)
    | T.String s ->
      Buffer.add_char buf '"';
      escape buf s;
      Buffer.add_char buf '"'
    | T.List xs ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i x ->
          if i > 0 then Buffer.add_char buf ',';
          write buf x)
        xs;
      Buffer.add_char buf ']'
    | T.Obj fields ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          Buffer.add_char buf '"';
          escape buf k;
          Buffer.add_string buf "\":";
          write buf v)
        fields;
      Buffer.add_char buf '}'

  let to_string j =
    let buf = Buffer.create 128 in
    write buf j;
    Buffer.contents buf
end

(* Strings over all 256 bytes, with the ones the writer escapes (and
   their neighbours) drawn often. *)
let json_string_gen =
  let specials = [ '"'; '\\'; '/'; '\n'; '\r'; '\t'; '\b'; '\000'; '\031'; ' '; '\127'; '\128'; '\195'; '\255' ] in
  QCheck.Gen.(string_size ~gen:(frequency [ (3, char); (2, oneofl specials) ]) (0 -- 24))

let json_int_gen =
  QCheck.Gen.(
    frequency
      [
        (3, int);
        (3, small_signed_int);
        (1, oneofl [ min_int; max_int; min_int + 1; max_int - 1; 0; -1; 1; 9; 10; -10 ]);
      ])

(* Finite floats from every branch of the writer: signed zeros,
   integral values on both sides of 1e15, subnormals, random bit
   patterns and plain fractions. *)
let finite_float_gen =
  let finite f = if Float.is_finite f then f else 0.5 in
  let sign neg f = if neg then -.f else f in
  QCheck.Gen.(
    frequency
      [
        ( 2,
          oneofl
            [
              0.0; -0.0; 1e15; -1e15; 1e15 -. 1.; 1e15 +. 2.; -.(1e15 -. 1.); 999_999_999_999_999.5;
              Float.min_float; -.Float.min_float; 4.9e-324; Float.max_float; -.Float.max_float;
              0.1; 1e-7; 0.0417; 2.5e-5;
            ] );
        (3, map Float.of_int (int_range (-4_000_000_000_000_000) 4_000_000_000_000_000));
        (2, map Float.of_int small_signed_int);
        (2, map2 (fun neg bits -> sign neg (Int64.float_of_bits (Int64.of_int bits))) bool (int_bound 0xF_FFFF_FFFF_FFFF));
        (3, map (fun bits -> finite (Int64.float_of_bits bits)) int64);
        (2, map finite float);
      ])

(* Floats whose text reads back as the same value: integral, below 1e15. *)
let exact_float_gen =
  QCheck.Gen.(
    frequency
      [
        (1, oneofl [ 0.0; -0.0; 1e15 -. 1.; -.(1e15 -. 1.) ]);
        (2, map Float.of_int (int_range (-999_999_999_999_999) 999_999_999_999_999));
        (2, map Float.of_int small_signed_int);
      ])

let json_gen float_gen =
  QCheck.Gen.(
    sized
    @@ fix (fun self n ->
           let leaf =
             frequency
               [
                 (1, return T.Null);
                 (1, map (fun b -> T.Bool b) bool);
                 (3, map (fun i -> T.Int i) json_int_gen);
                 (3, map (fun f -> T.Float f) float_gen);
                 (3, map (fun s -> T.String s) json_string_gen);
               ]
           in
           if n <= 0 then leaf
           else
             frequency
               [
                 (3, leaf);
                 (1, map (fun xs -> T.List xs) (list_size (0 -- 4) (self (n / 3))));
                 ( 1,
                   map (fun fs -> T.Obj fs) (list_size (0 -- 4) (pair json_string_gen (self (n / 3))))
                 );
               ]))

let prop_writer_matches_reference =
  QCheck.Test.make ~count:2000 ~name:"JSON writer: the reference's bytes on finite values"
    (QCheck.make ~print:(fun j -> String.escaped (Reference.to_string j)) (json_gen finite_float_gen))
    (fun j -> T.Json.to_string j = Reference.to_string j)

let prop_json_round_trip =
  QCheck.Test.make ~count:2000 ~name:"JSON: of_string (to_string j) = j without fractions"
    (QCheck.make ~print:(fun j -> String.escaped (T.Json.to_string j)) (json_gen exact_float_gen))
    (fun j -> T.Json.of_string (T.Json.to_string j) = j)

let test_json_writer_edges () =
  List.iter
    (fun j -> check_string (Reference.to_string j) (Reference.to_string j) (T.Json.to_string j))
    [
      T.Int min_int; T.Int max_int; T.Int 0; T.Int (-7);
      T.Float (-0.0); T.Float 0.0; T.Float (1e15 -. 1.); T.Float 1e15; T.Float (-1e15);
      T.Float 4.9e-324; T.Float Float.max_float; T.Float 0.0417; T.Float nan;
      T.String ""; T.String "\"\\\n\r\t\b\012\000\031\127\128\255"; T.String "plain run";
      T.Obj [ ("k\"ey", T.List []); ("", T.Obj []) ];
    ]

(* JSON has no infinities: they are written as null, as NaN is, and
   read back as null. *)
let test_json_non_finite () =
  let j = T.List [ T.Float infinity; T.Float neg_infinity; T.Float nan; T.Obj [ ("x", T.Float infinity) ] ] in
  check_string "written as null" {|[null,null,null,{"x":null}]|} (T.Json.to_string j);
  check "read back as null" true
    (T.Json.of_string (T.Json.to_string j) = T.List [ T.Null; T.Null; T.Null; T.Obj [ ("x", T.Null) ] ])

(* \uXXXX escapes decode to UTF-8; a surrogate pair joins into one
   astral character, and a surrogate out of a pair is malformed. *)
let test_json_unicode_escapes () =
  let str s =
    match T.Json.of_string s with T.String v -> v | _ -> Alcotest.failf "%s: not a string" s
  in
  check_string "two-byte" "Montr\xc3\xa9al" (str {|"Montr\u00e9al"|});
  check_string "upper-case hex" "\xc3\xa9" (str {|"\u00E9"|});
  check_string "three-byte" "\xe2\x82\xac" (str {|"\u20ac"|});
  check_string "surrogate pair" "\xf0\x9f\x98\x80" (str {|"\ud83d\ude00"|});
  check_string "ASCII and control characters" "A\001" (str {|"A\u0001"|});
  List.iter
    (fun s ->
      match T.Json.of_string s with
      | exception T.Json.Parse_error _ -> ()
      | j -> Alcotest.failf "parsed %S to %s" s (T.Json.to_string j))
    [
      {|"\ud83d"|}; {|"\ude00"|}; {|"\ud83dx"|}; {|"\ud83dxude00"|}; {|"\ud83d\ud83d"|};
      {|"\ud83d\|}; {|"\u00g1"|}; {|"\u12"|};
    ]

let suite =
  [
    Alcotest.test_case "counter semantics" `Quick (with_telemetry test_counters);
    Alcotest.test_case "gauge peak tracking" `Quick (with_telemetry test_gauges);
    Alcotest.test_case "histogram log buckets" `Quick (with_telemetry test_histograms);
    Alcotest.test_case "span nesting paths" `Quick (with_telemetry test_span_nesting);
    Alcotest.test_case "JSON-lines round-trip" `Quick (with_telemetry test_jsonl_round_trip);
    Alcotest.test_case "JSON parse errors" `Quick (with_telemetry test_json_parser_errors);
    Alcotest.test_case "JSON: numbers and strings only as JSON spells them" `Quick
      test_json_strict;
    Alcotest.test_case "disabled path records nothing" `Quick
      (with_telemetry test_disabled_is_noop);
    Alcotest.test_case "budget fallback: one trip, correct verdict" `Quick
      (with_telemetry test_budget_fallback);
    Alcotest.test_case "Force_sql up-front: zero overhead and fallback cost" `Quick
      (with_telemetry test_force_sql_costs_nothing_extra);
    Alcotest.test_case "planner cache counters" `Quick
      (with_telemetry test_planner_counters);
    Alcotest.test_case "violation form counts projected variables" `Quick
      (with_telemetry test_projected_vars);
    Alcotest.test_case "entry projections: built once, then hit" `Quick
      (with_telemetry test_projection_cache_counters);
    Alcotest.test_case "JSON writer: edge values as the reference" `Quick test_json_writer_edges;
    Alcotest.test_case "JSON: non-finite floats written as null" `Quick test_json_non_finite;
    Alcotest.test_case "JSON: \\u escapes decode to UTF-8" `Quick test_json_unicode_escapes;
    Gen.qcheck_case prop_writer_matches_reference;
    Gen.qcheck_case prop_json_round_trip;
  ]

let () = Registry.register "telemetry" suite
