(* audit: the paper's batch scenario, in process.  One caller runs
   [Checker.check_spec] (what [fcv check] calls) over a fixed retail
   suite, pass after pass, each pass starting with empty op caches. *)

module C = Core.Checker
module F = Core.Formula
module M = Measure
module N = Fcv_bdd.Nat

(* bench/parallel.ml's 24-constraint retail audit suite, plus two
   soft FDs that go through the exact counting path. *)
let suite =
  List.map snd Fcv_datagen.Retail.audit_constraints
  @ List.init 4 (fun sg ->
        Printf.sprintf
          "forall c, ch . orders(_, c, _, _, ch) and customers(c, _, _, %d) -> \
           allowed_channel(%d, ch)"
          sg sg)
  @ List.init 12 (fun k ->
        Printf.sprintf "forall o . shipments(o, %d, _) -> (exists hs . carriers(%d, hs))" k k)
  @ [
      "holds >= 0.99 . forall b, c1, c2 . products(_, c1, b) and products(_, c2, b) -> c1 = c2";
      "holds >= 0.999 . forall c, g1, g2 . customers(c, _, _, g1) and customers(c, _, _, g2) \
       -> g1 = g2";
    ]

let customers = 100
let products = 75
let orders = 500

(* [fcv check]'s default node budget. *)
let max_nodes = 1_000_000

(* Mutations per pass: [moves] seeded orders rows are each deleted from
   the indexed database and put back ([Index.delete], [Index.insert]),
   what a mutation costs the indices on its table.  The pairs are
   net-zero, so the pass's answers do not change.  One call takes 10 to
   20 us, close to the clock's 1 us step, so the sample is the batch's
   time per call, over a batch of a few milliseconds. *)
let moves = 128

(* The route a check took, as the checker.route_* metrics name it. *)
let route db (sp : F.spec) (r : C.result) =
  if not (F.is_hard sp) then "soft"
  else
    match r.C.method_used with
    | C.Sql -> "sql"
    | C.Naive -> "naive"
    | C.Bdd -> if Core.Fd_check.recognize_fd db sp.F.formula <> None then "fd" else "bdd"

(* What a pass must reproduce: the outcome, and for soft specs the
   exact counts as decimal strings. *)
let answer (r : C.result) =
  ( r.C.outcome,
    Option.map (fun rt -> (N.to_string rt.C.violations, N.to_string rt.C.total)) r.C.rate )

type pass = {
  wall_ms : float;
  calls : (C.result * float) list;  (** result and the call's wall ms *)
}

let run_pass index specs =
  let t0 = M.now () in
  let calls =
    List.map
      (fun sp ->
        let t = M.now () in
        let r = C.check_spec index sp in
        (r, M.ms_since t))
      specs
  in
  { wall_ms = M.ms_since t0; calls }

(* The data is the same on every run; the seed draws the rows the
   mutations move.  Drawing the data per seed spread the pass time by a
   sixth across ten seeds. *)
let data_seed = 42

let run ~seed ~seconds ~trace =
  let r = M.run () in
  let gen =
    Fcv_datagen.Retail.generate (Fcv_util.Rng.create data_seed)
      {
        Fcv_datagen.Retail.default with
        customers;
        products;
        orders;
        bad_ref_rate = 0.002;
        bad_dest_rate = 0.01;
        bad_channel_rate = 0.005;
      }
  in
  let db = gen.Fcv_datagen.Retail.db in
  let specs = List.map Core.Fol_parser.spec_of_string suite in
  let formulas = List.map (fun sp -> sp.F.formula) specs in
  Printf.printf "audit: retail %d customers, %d products, %d orders; %d constraints\n%!"
    customers products orders (List.length specs);
  (* set-up: Index.create + ensure_indices from a collected heap; the
     first index is the one the passes check *)
  let setup_s = M.samples () in
  let build () =
    Gc.full_major ();
    let t0 = M.now () in
    let index = Core.Index.create ~max_nodes db in
    C.ensure_indices index formulas;
    M.add setup_s (M.now () -. t0);
    index
  in
  let index = build () in
  let mgr = Core.Index.mgr index in
  let orders_t = Fcv_relation.Database.table db "orders" in
  let rng = Fcv_util.Rng.create seed in
  (* between passes, outside the pass timer: a set-up whose index is
     thrown away (untraced runs, so the set-up samples spread over the
     whole run as the passes do), the acknowledged mutations, then an
     empty start (compact, no op caches, a collected heap) *)
  let acks = M.samples () in
  let start_pass () =
    if not trace then ignore (build ());
    let rows =
      List.init moves (fun _ ->
          Array.copy (Fcv_relation.Table.row orders_t (Fcv_util.Rng.int rng orders)))
    in
    let t0 = M.now () in
    let removed =
      List.map
        (fun row ->
          let removed = Core.Index.delete index ~table_name:"orders" row in
          Core.Index.insert index ~table_name:"orders" row;
          removed)
        rows
    in
    M.add acks (M.ms_since t0 /. float (2 * moves));
    List.iter
      (fun removed ->
        M.attempt r removed;
        if not removed then M.problem r "audit: a present orders row was not deleted")
      removed;
    ignore (Core.Index.compact index);
    Fcv_bdd.Manager.clear_caches mgr;
    Gc.full_major ()
  in
  (* one untimed pass warms up and gives the answers to repeat *)
  start_pass ();
  let first = run_pass index specs in
  let expected = List.map (fun (res, _) -> answer res) first.calls in
  let check_pass p =
    List.iteri
      (fun i ((res, _), want) ->
        let ok = answer res = want in
        M.attempt r ok;
        if not ok then M.problem r "audit: constraint %d changed its answer between passes" i)
      (List.combine p.calls expected)
  in
  (* timed passes; [on_pass] sees each pass between timed regions *)
  let timed ~budget ~on_pass =
    let passes = M.samples () in
    let stop = M.now () +. budget in
    while M.now () < stop do
      start_pass ();
      let p = run_pass index specs in
      M.add passes p.wall_ms;
      check_pass p;
      on_pass p
    done;
    passes
  in
  let e2e_passes =
    if not trace then timed ~budget:seconds ~on_pass:ignore
    else begin
      (* untraced half: bench-side route timing with telemetry off *)
      let routes = Hashtbl.create 8 in
      let abandoned = ref 0. and unreported = ref 0. in
      let on_pass p =
        List.iter2
          (fun sp (res, wall) ->
            let rt = route db sp res in
            let n, ms = Option.value ~default:(0, 0.) (Hashtbl.find_opt routes rt) in
            Hashtbl.replace routes rt (n + 1, ms +. res.C.elapsed_ms);
            abandoned := !abandoned +. res.C.bdd_overhead_ms;
            unreported := !unreported +. (wall -. res.C.elapsed_ms -. res.C.bdd_overhead_ms))
          specs p.calls
      in
      (* Manager.stats walks every unique-table bucket: it is read
         only on either side of each half *)
      let k0 = Layers.read [ mgr ] in
      let untraced = timed ~budget:(seconds /. 2.) ~on_pass in
      let k1 = Layers.read [ mgr ] in
      Layers.set_kernel r (Layers.delta ~before:k0 ~after:k1) ~passes:(M.count untraced);
      let passes = float (M.count untraced) in
      List.iter
        (fun rt ->
          let n, ms = Option.value ~default:(0, 0.) (Hashtbl.find_opt routes rt) in
          M.metric r ("checker.route_" ^ rt) (float n /. passes);
          if rt <> "naive" then M.metric r ("checker.route_" ^ rt ^ "_ms") (ms /. passes))
        [ "fd"; "bdd"; "soft"; "sql"; "naive" ];
      M.metric r "checker.abandoned_ms" (!abandoned /. passes);
      M.metric r "checker.unreported_ms" (!unreported /. passes);
      (* traced half: the program's own telemetry on *)
      Fcv_util.Telemetry.reset ();
      Fcv_util.Telemetry.enable ();
      let traced = timed ~budget:(seconds /. 2.) ~on_pass:ignore in
      let k2 = Layers.read [ mgr ] in
      Fcv_util.Telemetry.disable ();
      let tpasses = M.count traced in
      Layers.set_ops r (Layers.delta ~before:k1 ~after:k2) ~passes:tpasses;
      Layers.set_stages r ~per:(fun name -> M.span_ms name /. float (max 1 tpasses));
      let explained = Layers.checker_span_ms () /. float (max 1 tpasses) in
      let pass_ms = M.mean traced in
      Printf.printf "trace: %d untraced and %d traced passes\n" (M.count untraced) tpasses;
      Printf.printf "trace: checker spans explain %.1f of %.1f ms per traced pass (%.1f%%)\n"
        explained pass_ms (100. *. M.ratio explained pass_ms);
      M.metric r "trace.explained_share" (M.ratio explained pass_ms);
      M.metric r "trace.unattributed_ms" (pass_ms -. explained);
      M.metric r "trace.overhead_share" (M.ratio (M.p50 traced) (M.p50 untraced) -. 1.);
      M.metric r "trace.dropped_events" (float (Fcv_util.Telemetry.dropped_events ()));
      untraced
    end
  in
  let peak_rss = M.peak_rss_mb 0 in
  (* the oracle, outside every timer: the SQL violation query for each
     hard constraint, the naive recount for each soft one *)
  List.iteri
    (fun i (sp, (outcome, counts)) ->
      let ok =
        if F.is_hard sp then fst (C.check_sql db sp.F.formula) = outcome && counts = None
        else begin
          let v, t = Core.Naive_eval.soft_counts db sp.F.formula in
          let want_outcome =
            if C.clears ~threshold:sp.F.threshold ~violations:(N.of_int v) ~total:(N.of_int t)
            then C.Satisfied
            else C.Violated
          in
          counts = Some (string_of_int v, string_of_int t) && outcome = want_outcome
        end
      in
      M.attempt r ok;
      if not ok then M.problem r "audit: constraint %d disagrees with the oracle" i)
    (List.combine specs expected);
  Printf.printf "audit: %d passes, %d set-ups, %d mutations; first-pass verdicts: %d violated\n%!"
    (M.count e2e_passes) (M.count setup_s) (2 * moves * M.count acks)
    (List.length (List.filter (fun (o, _) -> o = C.Violated) expected));
  if not trace then begin
    M.metric r "setup_s" (M.p50 setup_s);
    M.latency r "validate_ms" e2e_passes;
    M.print_latency "ack_ms" acks;
    M.metric r "peak_rss_mb" peak_rss
  end
  else begin
    M.metric r "bdd.peak_nodes" (float (Core.Index.peak_nodes index));
    M.metric r "index.build_ms"
      (1000.
      *. List.fold_left
           (fun acc e -> acc +. e.Core.Index.build_time)
           0. (Core.Index.entries index));
    M.metric r "index.live_nodes" (float (Core.Index.live_nodes index))
  end;
  r
