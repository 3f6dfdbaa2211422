(** The sharded serving tier: N {!Shard}s behind one {!Router}.
    Constraints and tables partition across shards — a table's
    authoritative copy lives on its owner ({!Router.owner}); a
    constraint lives on the shard owning its first watched table, and
    that shard keeps synced replicas of any watched table it does not
    own.  Mutations fan out to the owner plus every watcher; a
    [validate] fans out to each shard's monitor (one dirty-set pass
    per shard) and the verdicts merge by constraint id, so an N-shard
    tier answers exactly what the 1-shard tier (and the library-level
    checker) would.

    {e Group commit}: shard WALs are opened un-fsynced; {!flush} —
    called by the server once per group-commit window and at the end
    of every event-loop round, and by the simulator at its ack points
    — fsyncs every dirty shard's WAL, batching mutations across
    sessions into one fsync per WAL.  Acknowledgements must only be
    released after {!flush} returns.

    {e Cross-shard registration}: registering a constraint whose
    watched tables are owned elsewhere first {e migrates} each such
    table — the constraint's shard syncs its replica from the owner's
    copy by a textual row diff, journaled as ordinary insert/delete
    records on that shard so replay reproduces the replica
    deterministically — then registers (and journals) the constraint
    there.  Constraint ids are allocated tier-globally, so ids never
    collide across shards and match the single-monitor allocation.

    {e Lineage}: a state directory records its shard count in a
    [SHARDS] file (shards > 1 lay out as [shard-<i>/] subdirectories;
    one shard keeps the flat legacy layout).  Restarting with a
    different count is refused — re-sharding would need a migration
    no code path performs. *)

module R = Fcv_relation
module T = Fcv_util.Telemetry
module P = Protocol

type t = {
  nshards : int;
  shards : Shard.t array;
  router : Router.t;
  fsync : bool;  (** fsync WALs at group-commit flush *)
  mutable next_id : int;  (** tier-global constraint id allocation *)
  mutable pending : int;  (** records journaled since the last flush *)
}

let shards t = t.shards
let shard_count t = t.nshards
let pending t = t.pending
let clear_pending t = t.pending <- 0

(* -- SHARDS lineage -------------------------------------------------------- *)

let shards_path dir = Filename.concat dir "SHARDS"

let record_shards dir n = Vfs.write_file (shards_path dir) (Printf.sprintf "shards %d\n" n)

(* Infer the shard count of a directory whose SHARDS file is missing
   or crash-damaged: shard subdirectories mean a multi-shard layout,
   a flat CURRENT / wal-0.log means a legacy single shard, an empty
   directory means fresh (no lineage yet). *)
let infer_shards dir =
  let entries = if Vfs.file_exists dir then Vfs.readdir dir else [||] in
  let sub =
    Array.fold_left
      (fun acc name ->
        match Scanf.sscanf_opt name "shard-%d%!" (fun i -> i) with
        | Some i -> max acc (i + 1)
        | None -> acc)
      0 entries
  in
  if sub > 0 then Some sub
  else if
    Vfs.file_exists (State.current_path dir) || Vfs.file_exists (State.wal_path ~dir ~gen:0)
  then Some 1
  else None

let read_shards dir =
  if not (Vfs.file_exists dir) then None
  else if not (Vfs.file_exists (shards_path dir)) then infer_shards dir
  else begin
    match
      String.split_on_char ' ' (String.trim (Vfs.read_file (shards_path dir)))
    with
    | [ "shards"; n ] -> ( match int_of_string_opt n with Some n -> Some n | None -> infer_shards dir)
    | _ -> infer_shards dir (* crash-damaged SHARDS: the layout itself is the record *)
  end

let shard_dirs ~state_dir nshards =
  if nshards = 1 then [| state_dir |]
  else Array.init nshards (fun i -> Filename.concat state_dir (Printf.sprintf "shard-%d" i))

(* -- construction ---------------------------------------------------------- *)

let watched_tables shard =
  List.concat_map (fun r -> r.Core.Monitor.tables) (Core.Monitor.constraints (Shard.monitor shard))

let recompute_watchers t =
  Router.recompute t.router
    ~watched:(Array.to_list (Array.map watched_tables t.shards))

let of_shards ?(fsync = true) shards =
  let nshards = Array.length shards in
  if nshards < 1 then invalid_arg "Tier.of_shards: need at least one shard";
  let next_id =
    Array.fold_left
      (fun acc s ->
        List.fold_left
          (fun acc r -> max acc (r.Core.Monitor.id + 1))
          acc
          (Core.Monitor.constraints (Shard.monitor s)))
      0 shards
  in
  let t = { nshards; shards; router = Router.create nshards; fsync; next_id; pending = 0 } in
  recompute_watchers t;
  t

let create_fresh ?fsync ?(max_nodes = 0) ~shards ~load_base () =
  of_shards ?fsync
    (Array.init shards (fun sid ->
         Shard.create ~sid (Core.Monitor.create (Core.Index.create ~max_nodes (load_base ())))))

let recover ?(max_nodes = 0) ?(shards = 1) ?(fsync = true) ~state_dir ~load_base () =
  if shards < 1 then invalid_arg "Tier.recover: shards must be >= 1";
  (match read_shards state_dir with
  | Some n when n <> shards ->
    invalid_arg
      (Printf.sprintf
         "state dir %s holds a %d-shard tier; restarting with %d shards would need a \
          re-sharding migration no code path performs — use a fresh state dir"
         state_dir n shards)
  | Some _ | None -> ());
  if not (Vfs.file_exists state_dir) then Vfs.mkdir state_dir 0o755;
  record_shards state_dir shards;
  let dirs = shard_dirs ~state_dir shards in
  let rs = Array.map (fun dir -> Shard.recover ~max_nodes ~state_dir:dir ~load_base ()) dirs in
  let ss =
    Array.mapi
      (fun sid (r : Shard.recovered) ->
        Shard.create ~unregistered:r.Shard.unregistered ~sid ~dir:dirs.(sid) r.Shard.monitor)
      rs
  in
  (of_shards ~fsync ss, rs)

(* -- group commit ---------------------------------------------------------- *)

let flush t =
  if t.fsync then Array.iter Shard.sync t.shards;
  t.pending <- 0

(* -- routing + fan-out ----------------------------------------------------- *)

let constraint_tables source =
  (* spec-aware: tolerates the [holds >= p .] soft-constraint prefix *)
  Core.Formula.relations (Core.Fol_parser.spec_of_string source).Core.Formula.formula

(* The shards a logged request journals on (owner first), for the
   simulator's instrumentation.  Registration may additionally journal
   migration records on the constraint's shard. *)
let targets t req =
  match req with
  | P.Insert (table, _) | P.Delete (table, _) -> Router.mutation_targets t.router table
  | P.Register { source; _ } -> (
    match constraint_tables source with
    | tables -> [ Router.constraint_shard ~shards:t.nshards tables ]
    | exception _ -> [])
  | P.Unregister c ->
    Array.to_list t.shards
    |> List.filter_map (fun s ->
           if
             List.exists
               (fun r -> r.Core.Monitor.id = c)
               (Core.Monitor.constraints (Shard.monitor s))
           then Some (Shard.sid s)
           else None)
  | P.Repair _ | P.Explain _ | P.Validate | P.Stats | P.Compact | P.Snapshot | P.Ping
  | P.Shutdown ->
    []

let textual_rows db table =
  let tbl = R.Database.table db table in
  let rows = ref [] in
  R.Table.iter tbl (fun row ->
      rows :=
        Array.to_list
          (Array.mapi
             (fun j code -> R.Value.to_string (R.Dict.value (R.Table.dict tbl j) code))
             row)
        :: !rows);
  List.sort compare !rows

(* [a \ b] on sorted textual row lists. *)
let rec row_diff a b =
  match (a, b) with
  | [], _ -> []
  | a, [] -> a
  | x :: a', y :: b' ->
    let c = compare x y in
    if c = 0 then row_diff a' b'
    else if c < 0 then x :: row_diff a' b
    else row_diff a b'

(* Sync [shard]'s replica of [table] from its owner's authoritative
   copy, journaling the diff as ordinary insert/delete records on
   [shard] — replay then reproduces the replica without any extra
   persistence.  A no-op when [shard] owns the table or already
   watches it (its replica is current by fan-out). *)
let migrate t ~shard table =
  let sid = Shard.sid shard in
  if Router.owner ~shards:t.nshards table <> sid
     && not (Router.watches t.router ~shard:sid table)
  then begin
    let owner = t.shards.(Router.owner ~shards:t.nshards table) in
    let here_db = (Core.Monitor.index (Shard.monitor shard)).Core.Index.db in
    let owner_db = (Core.Monitor.index (Shard.monitor owner)).Core.Index.db in
    if List.mem table (R.Database.table_names owner_db) then begin
      let src = textual_rows owner_db table in
      let dst = textual_rows here_db table in
      let fail_divergence req = function
        | Ok _ -> ()
        | Error (_, msg) ->
          failwith
            (Printf.sprintf "shard %d: migration of table %s rejected %s: %s" sid table
               (P.request_to_line req) msg)
      in
      List.iter
        (fun row ->
          let req = P.Delete (table, row) in
          fail_divergence req (Mutator.apply (Shard.mut shard) req))
        (row_diff dst src);
      List.iter
        (fun row ->
          let req = P.Insert (table, row) in
          fail_divergence req (Mutator.apply (Shard.mut shard) req))
        (row_diff src dst)
    end
  end

(* Apply + journal one registration tier-wide: place the constraint,
   migrate its remote tables onto its shard, register under a
   tier-allocated (or pinned) id.  Raises the {!Core.Monitor.add}
   errors on a bad constraint, like {!Mutator.register}. *)
let register ?id t source =
  let tables = constraint_tables source in
  let shard = t.shards.(Router.constraint_shard ~shards:t.nshards tables) in
  List.iter (migrate t ~shard) tables;
  let id = match id with Some i -> i | None -> t.next_id in
  let reg = Mutator.register ~id (Shard.mut shard) source in
  t.next_id <- max t.next_id (reg.Core.Monitor.id + 1);
  recompute_watchers t;
  reg

let journaled_total t = Array.fold_left (fun acc s -> acc + Shard.journaled s) 0 t.shards

(* Assemble the repair planner's database: the owner's authoritative
   copy of every constraint-watched table, copied by DECODED values —
   per-shard dictionaries may have assigned codes in different orders
   (migrations, replay), so coded rows are not portable across
   shards.  The planner deep-clones again internally; this copy is
   only the tier-wide logical state it plans against. *)
let repair_db t =
  let db = R.Database.create () in
  let tables =
    Array.to_list t.shards
    |> List.concat_map (fun s ->
           List.concat_map
             (fun r -> r.Core.Monitor.tables)
             (Core.Monitor.constraints (Shard.monitor s)))
    |> List.sort_uniq compare
  in
  List.iter
    (fun tname ->
      let owner_db =
        (Core.Monitor.index (Shard.monitor t.shards.(Router.owner ~shards:t.nshards tname)))
          .Core.Index.db
      in
      if List.mem tname (R.Database.table_names owner_db) then begin
        let src = R.Database.table owner_db tname in
        let attrs =
          Array.to_list
            (Array.map (fun a -> (a.R.Schema.name, a.R.Schema.domain)) (R.Table.schema src))
        in
        let dst = R.Database.create_table db ~name:tname ~attrs in
        R.Table.iter src (fun row -> ignore (R.Table.insert dst (R.Table.decode src row)))
      end)
    tables;
  db

(* Answer one request tier-wide, mirroring {!Mutator.apply}'s contract
   (apply first, journal only on success; non-mutating requests are
   [Ok []]).  Mutations apply on the owner first — its verdict is the
   response — then on every watcher; a watcher disagreeing with the
   owner is a shard-divergence bug and escapes as an exception.
   Repair plans tier-wide and, when asked to apply, executes each
   planned deletion through this very function — owner-first fan-out,
   journaled, inside the caller's group-commit window. *)
let rec apply t req : ((string * T.json) list, P.error_code * string) result =
  match req with
  | P.Repair { strategy; max_deletions; apply = do_apply } ->
    (* no window accounting of its own: an applied plan's deletions
       run through [apply] below and account themselves *)
    repair t ~strategy ~max_deletions ~do_apply
  | _ ->
    let before = journaled_total t in
    let result = apply_routed t req in
    t.pending <- t.pending + (journaled_total t - before);
    result

and repair t ~strategy ~max_deletions ~do_apply =
  match Fcv_repair.Repair.strategy_of_string strategy with
  | Error msg -> Error (P.Bad_request, msg)
  | Ok strategy -> (
    let specs =
      List.map
        (fun r ->
          {
            Core.Formula.threshold = r.Core.Monitor.threshold;
            formula = r.Core.Monitor.formula;
          })
        (List.sort
           (fun a b -> compare a.Core.Monitor.id b.Core.Monitor.id)
           (Array.fold_left
              (fun acc s ->
                List.rev_append (Core.Monitor.constraints (Shard.monitor s)) acc)
              [] t.shards))
    in
    match Fcv_repair.Repair.plan_specs ~strategy ?max_deletions (repair_db t) specs with
    | exception Fcv_repair.Repair.Not_tractable msg -> Error (P.Constraint_error, msg)
    | exception (Invalid_argument msg | Failure msg) -> Error (P.Bad_request, msg)
    | plan ->
      let applied = ref 0 in
      let failed = ref None in
      if do_apply then
        List.iter
          (fun d ->
            if !failed = None then
              match apply t (P.Delete (d.Fcv_repair.Repair.table, d.Fcv_repair.Repair.cells)) with
              | Ok _ -> incr applied
              | Error (_, msg) ->
                failed :=
                  Some
                    (Printf.sprintf "planned deletion on %s rejected: %s"
                       d.Fcv_repair.Repair.table msg))
          plan.Fcv_repair.Repair.deletions;
      if T.enabled () then begin
        T.incr (T.counter "repair.requests");
        if do_apply then T.incr ~by:!applied (T.counter "repair.applied")
      end;
      match !failed with
      | Some msg -> Error (P.Internal, msg)
      | None ->
        Ok
          [
            ("repair", Fcv_repair.Repair.plan_json plan); ("applied", T.Int !applied);
          ])

and apply_routed t req : ((string * T.json) list, P.error_code * string) result =
    match req with
    | P.Register { source; id } -> (
      match register ?id t source with
      | reg -> Ok [ ("constraint", T.Int reg.Core.Monitor.id) ]
      | exception
          ( Core.Fol_parser.Error msg
          | Core.Typing.Type_error msg
          | Core.Compile.Unsupported msg
          | Invalid_argument msg ) ->
        Error (P.Constraint_error, msg))
    | P.Unregister c -> (
      match targets t req with
      | sid :: _ ->
        let r = Mutator.apply (Shard.mut t.shards.(sid)) req in
        recompute_watchers t;
        r
      | [] -> Error (P.Bad_request, Printf.sprintf "no constraint %d" c))
    | P.Insert (table, _) | P.Delete (table, _) -> (
      match Router.mutation_targets t.router table with
      | [] -> assert false
      | owner :: watchers -> (
        match Mutator.apply (Shard.mut t.shards.(owner)) req with
        | Error _ as e -> e
        | Ok fields ->
          List.iter
            (fun sid ->
              match Mutator.apply (Shard.mut t.shards.(sid)) req with
              | Ok _ -> ()
              | Error (_, msg) ->
                failwith
                  (Printf.sprintf "shard %d rejected a mutation shard %d accepted: %s" sid
                     owner msg))
            watchers;
          Ok fields))
    | P.Repair _ -> assert false (* dispatched in [apply] *)
    | P.Explain c -> (
      (* the owning shard's monitor answers; read-only, so no journal
         and no fan-out *)
      match
        Array.to_list t.shards
        |> List.find_map (fun s -> Core.Monitor.explain (Shard.monitor s) c)
      with
      | Some (reg, plan) ->
        Ok
          [
            ("constraint", T.Int reg.Core.Monitor.id);
            ("source", T.String reg.Core.Monitor.source);
            ("plan", Core.Planner.plan_json plan);
            ("text", T.String (Core.Planner.render plan));
          ]
      | None -> Error (P.Bad_request, Printf.sprintf "no constraint %d" c))
    | P.Validate | P.Stats | P.Compact | P.Snapshot | P.Ping | P.Shutdown -> Ok []

(* -- validation ------------------------------------------------------------ *)

let validate t =
  let reports =
    Array.fold_left
      (fun acc s -> List.rev_append (Core.Monitor.validate (Shard.monitor s)) acc)
      [] t.shards
  in
  List.sort
    (fun a b ->
      compare a.Core.Monitor.constraint_.Core.Monitor.id
        b.Core.Monitor.constraint_.Core.Monitor.id)
    reports

let verdicts t =
  List.sort compare
    (Array.fold_left
       (fun acc s -> List.rev_append (Core.Monitor.verdicts (Shard.monitor s)) acc)
       [] t.shards)

let constraints t =
  List.sort
    (fun a b -> compare a.Core.Monitor.id b.Core.Monitor.id)
    (Array.fold_left
       (fun acc s -> List.rev_append (Core.Monitor.constraints (Shard.monitor s)) acc)
       [] t.shards)

(* -- lifecycle ------------------------------------------------------------- *)

let set_jobs t n = Array.iter (fun s -> Core.Monitor.set_jobs (Shard.monitor s) n) t.shards
let gc t = Array.fold_left (fun acc s -> acc + Core.Monitor.gc (Shard.monitor s)) 0 t.shards

(* A committed rotation covers every applied mutation, so a snapshot
   implies the shard's group commit. *)
let snapshot t =
  Array.iter Shard.snapshot t.shards;
  t.pending <- 0

(* Per-shard snapshot lifecycle: each shard rotates on its own WAL
   growth, so one write-hot shard doesn't force tier-wide rotations. *)
let auto_snapshot t ~every =
  Array.iter (fun s -> if Shard.since_snapshot s >= every then Shard.snapshot s) t.shards

let close t = Array.iter Shard.close t.shards

(* The cardinality a client observes for [table] — its owner's
   authoritative copy. *)
let table_cardinality t table =
  let db =
    (Core.Monitor.index (Shard.monitor t.shards.(Router.owner ~shards:t.nshards table)))
      .Core.Index.db
  in
  R.Table.cardinality (R.Database.table db table)
