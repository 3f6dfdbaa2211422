(** The fault-injection driver.  See sim.mli for the invariant; the
    accounting that makes it checkable, {e per shard}:

    - [journaled.(s)] = records handed to shard [s]'s journal
      (bumped before the WAL append, so an in-flight record whose
      append crashed is included — {!Fcv_server.Shard.journaled});
    - [synced.(s)] = records known durable on [s]: covered by its
      last snapshot rotation, or acknowledged by a group-commit flush
      — the {e ack contract}: once the flush returns, every
      journaled mutation is durable, so a flush that skipped a
      shard's fsync (the planted cross-shard bug) makes the window
      itself catch the lie.

    Recovery must then reproduce, on every shard, the oracle state of
    that shard after [k] journaled records for some [k] in
    [[synced.(s), journaled.(s)]].  The digest is extensional
    (database dump + registry + tombstones + verdicts), so BDD node
    numbering differences between a recovered index and the oracle's
    never matter. *)

module R = Fcv_relation
module Rng = Fcv_util.Rng
module P = Fcv_server.Protocol
module S = Fcv_server.Server
module Shard = Fcv_server.Shard
module Tier = Fcv_server.Tier
module Vfs = Fcv_server.Vfs
module Wal = Fcv_server.Wal
module State = Fcv_server.State
module U = Fcv_datagen.University

type inject = Log_before_apply | Skip_fsync | Skip_rotate | Skip_shard_fsync

let inject_to_string = function
  | Log_before_apply -> "log-before-apply"
  | Skip_fsync -> "skip-fsync"
  | Skip_rotate -> "skip-rotate"
  | Skip_shard_fsync -> "skip-shard-fsync"

let inject_of_string = function
  | "log-before-apply" -> Ok Log_before_apply
  | "skip-fsync" -> Ok Skip_fsync
  | "skip-rotate" -> Ok Skip_rotate
  | "skip-shard-fsync" -> Ok Skip_shard_fsync
  | s ->
    Error
      (Printf.sprintf
         "unknown injection %S (log-before-apply|skip-fsync|skip-rotate|skip-shard-fsync)" s)

type counterexample = {
  cx_seed : int;
  cx_ops : int;
  cx_fault : int;
  cx_inject : inject option;
  cx_reason : string;
  cx_repro : string;
}

type result = {
  schedules_run : int;
  crash_runs : int;
  failures : counterexample list;
}

(* -- workload generation --------------------------------------------------- *)

type workload = {
  seed : int;
  n_ops : int;
  shards : int;
  window : int;  (** group-commit window: flush after this many journaled records *)
  load_base : unit -> R.Database.t;
  ops : P.request list;
  snapshot_at : int list;  (** rotate every shard before these op indices *)
}

let univ_cfg = { U.default with U.students = 12; courses = 6; takes_per_student = 2 }

let retail_cfg =
  {
    Fcv_datagen.Retail.default with
    Fcv_datagen.Retail.customers = 25;
    products = 10;
    orders = 40;
    shipment_rate = 0.8;
  }

(* Soft twins of the curriculum policy and of the takes -> course
   reference keep the soft path, and the exact counts the digest
   records, in every university schedule.  The reference's twin has a
   literal over another table beside its hypothesis, which a hard
   constraint's lookup would let block a takes row: its counts change
   with every takes row all the same, so a soft spec marked by lookups
   keeps stale counts the recovered digest does not. *)
let univ_sources =
  let curriculum = "forall s . student(s, 0, _) -> (exists c . course(c, 0) and takes(s, c))" in
  let reference = "forall s, c . takes(s, c) -> (exists a . course(c, a))" in
  [ curriculum; reference; "holds >= 0.9 . " ^ curriculum; "holds >= 0.9 . " ^ reference ]

let retail_sources =
  List.filteri (fun i _ -> i < 3) (List.map snd Fcv_datagen.Retail.audit_constraints)

(* Constraint sources the server must REJECT (and must therefore never
   journal): a parse error and an unknown table. *)
let bad_sources = [ "forall s . student(s,"; "forall z . nosuchtable(z, z)" ]

let row_to_cells tbl row =
  Array.to_list
    (Array.mapi (fun j code -> R.Value.to_string (R.Dict.value (R.Table.dict tbl j) code)) row)

(* [ops] truncates the drawn length but never changes the draw stream,
   so a shrunk workload is a prefix of the original; [shards]
   overrides the drawn shard count (the [--shards] CLI knob). *)
let gen_workload ?ops ?shards ~seed () =
  let rng = Rng.create seed in
  let drawn = 8 + Rng.int rng 17 in
  let n_ops = Option.value ops ~default:drawn in
  let drawn_shards = Rng.choose rng [| 1; 1; 2; 3 |] in
  let shards = Option.value shards ~default:drawn_shards in
  let window = Rng.choose rng [| 1; 2; 4 |] in
  let base_seed = Rng.int rng 1_000_000 in
  let university = Rng.bool rng in
  let load_base =
    if university then fun () ->
      let db, _, _, _ = U.generate (Rng.create base_seed) univ_cfg in
      db
    else fun () -> (Fcv_datagen.Retail.generate (Rng.create base_seed) retail_cfg).Fcv_datagen.Retail.db
  in
  let sources = if university then univ_sources else retail_sources in
  let db = load_base () in
  let tables =
    Array.of_list (List.map (fun n -> R.Database.table db n) (R.Database.table_names db))
  in
  let base_rows =
    Array.map
      (fun tbl ->
        let acc = ref [] in
        R.Table.iter tbl (fun row -> acc := Array.copy row :: !acc);
        Array.of_list (List.rev !acc))
      tables
  in
  let random_cells tbl =
    List.init (R.Table.arity tbl) (fun j ->
        let dict = R.Table.dict tbl j in
        let sz = R.Dict.size dict in
        if Rng.bernoulli rng 0.85 then R.Value.to_string (R.Dict.value dict (Rng.int rng sz))
        else string_of_int (sz + Rng.int rng 4))
  in
  let registers = List.map (fun s -> P.Register { source = s; id = None }) sources in
  let snapshot_at = ref [] in
  let ops =
    List.init (max 0 (n_ops - List.length registers)) (fun i ->
        let i = i + List.length registers in
        if Rng.bernoulli rng 0.08 then snapshot_at := i :: !snapshot_at;
        let ti = Rng.int rng (Array.length tables) in
        let tbl = tables.(ti) in
        let tname = List.nth (R.Database.table_names db) ti in
        match Rng.int rng 100 with
        | r when r < 55 -> P.Insert (tname, random_cells tbl)
        | r when r < 75 ->
          let rows = base_rows.(ti) in
          if Array.length rows = 0 then P.Insert (tname, random_cells tbl)
          else P.Delete (tname, row_to_cells tbl rows.(Rng.int rng (Array.length rows)))
        | r when r < 83 ->
          (* a register: usually valid (sometimes a duplicate source —
             legal), sometimes one the server must reject *)
          let pool = if Rng.bernoulli rng 0.3 then bad_sources else sources in
          P.Register { source = List.nth pool (Rng.int rng (List.length pool)); id = None }
        | r when r < 88 -> P.Unregister (Rng.int rng 8)
        | r when r < 91 ->
          (* an applied repair mid-schedule: the planner is
             deterministic, so the oracle run and every crash run plan
             the same deletions, journaled as ordinary Delete records *)
          P.Repair
            { strategy = "greedy"; max_deletions = Some (1 + Rng.int rng 3); apply = true }
        | r when r < 95 -> P.Insert ("nonesuch", [ "1" ])  (* unknown table: rejected *)
        | _ -> P.Insert (tname, "0" :: random_cells tbl) (* wrong arity: rejected *))
  in
  (* truncate to exactly [n_ops] — a shrunk workload is a strict
     prefix, even below the register preamble *)
  let ops = List.filteri (fun i _ -> i < n_ops) (registers @ ops) in
  { seed; n_ops; shards; window; load_base; ops; snapshot_at = List.rev !snapshot_at }

(* -- the oracle ------------------------------------------------------------ *)

(* Extensional digest of one shard: database dump (dictionaries in
   code order + coded rows), constraint registry, tombstones,
   verdicts, and each soft constraint's exact counts as decimal
   strings.  The oracle's monitor keeps its verdicts incrementally,
   one validate after each journaled record; a recovered one checks
   every constraint fresh, so equal digests mean the kept verdicts
   and counts are the fresh ones. *)
let digest_shard shard =
  let monitor = Shard.monitor shard in
  let buf = Buffer.create 4096 in
  State.save_db (Core.Monitor.index monitor).Core.Index.db buf;
  List.iter
    (fun r -> Printf.bprintf buf "c\t%d\t%s\n" r.Core.Monitor.id r.Core.Monitor.source)
    (Core.Monitor.constraints monitor);
  List.iter
    (fun s -> Printf.bprintf buf "u\t%s\n" s)
    (List.sort compare (Shard.unregistered shard));
  let id (r : Core.Monitor.report) = r.constraint_.Core.Monitor.id in
  List.iter
    (fun (r : Core.Monitor.report) ->
      Printf.bprintf buf "v\t%d\t%b" (id r) (r.outcome = Core.Checker.Violated);
      Option.iter
        (fun (rt : Core.Checker.rate) ->
          Printf.bprintf buf "\t%s\t%s" (Fcv_bdd.Nat.to_string rt.violations)
            (Fcv_bdd.Nat.to_string rt.total))
        r.rate;
      Buffer.add_char buf '\n')
    (List.sort (fun a b -> compare (id a) (id b)) (Core.Monitor.validate monitor));
  Digest.to_hex (Digest.string (Buffer.contents buf))

(* [digests.(s).(k)] = shard [s]'s state after the first [k] records
   journaled on it by a never-crashed run (rejected requests don't
   count — they are not journaled, and the workload proves they leave
   no durable trace; registration-migration deltas do count — they
   are ordinary journaled records of the constraint's shard). *)
let oracle w =
  let tier = Tier.create_fresh ~fsync:false ~shards:w.shards ~load_base:w.load_base () in
  let ss = Tier.shards tier in
  let digests = Array.map (fun s -> ref [ digest_shard s ]) ss in
  Array.iteri
    (fun i s -> Shard.set_on_journal s (fun _ -> digests.(i) := digest_shard s :: !(digests.(i))))
    ss;
  List.iter (fun req -> ignore (Tier.apply tier req)) w.ops;
  Array.map (fun l -> Array.of_list (List.rev !l)) digests

(* Every shard's sequential verdicts must equal a pooled check of its
   registered specs on a started two-worker pool, each worker checking
   its own copy of the shard's store. *)
let parallel_parity tier =
  let pool = Fcv_util.Pool.create ~name:"sim" ~jobs:2 () in
  Fun.protect ~finally:(fun () -> Fcv_util.Pool.shutdown pool) @@ fun () ->
  let agrees shard =
    let monitor = Shard.monitor shard in
    let regs = Core.Monitor.constraints monitor in
    let specs =
      List.map
        (fun r ->
          { Core.Formula.threshold = r.Core.Monitor.threshold; formula = r.Core.Monitor.formula })
        regs
    in
    let pooled =
      Core.Checker.check_all_pooled ~pool (Core.Replica.create (Core.Monitor.index monitor)) specs
    in
    Core.Monitor.verdicts monitor
    = List.sort compare
        (List.map2 (fun r res -> (r.Core.Monitor.id, res.Core.Checker.outcome)) regs pooled)
  in
  if Array.for_all agrees (Tier.shards tier) then Ok ()
  else Error "sequential validation and a pooled check disagree on the recovered state"

(* -- driving the durable core under faults --------------------------------- *)

let dir = "sim-state"

type acct = {
  mutable tier : Tier.t option;  (** set as soon as recovery completes *)
  synced : int array;  (** per shard: records known durable *)
}

(* Run the workload against the server's durable tier (per-shard
   Mutator + WAL + snapshot rotation, routed fan-out, group commit) on
   whatever Vfs backend is installed, keeping the per-shard durable
   counters the invariant needs.  Raises [Fault.Crash] when the
   backend's scheduled crash fires. *)
let drive w ~inject ~acct =
  if not (Vfs.file_exists dir) then Vfs.mkdir dir 0o755;
  let tier, _ = Tier.recover ~shards:w.shards ~state_dir:dir ~load_base:w.load_base () in
  acct.tier <- Some tier;
  let ss = Tier.shards tier in
  let note_synced () = Array.iteri (fun i s -> acct.synced.(i) <- Shard.journaled s) ss in
  (* One group commit.  The ack contract — synced := journaled — is
     asserted for every shard regardless of the injection: a planted
     bug that skips an fsync still acknowledges, which is exactly the
     lie the sweep must catch. *)
  let flush () =
    (match inject with
    | Some Skip_fsync -> ()
    | Some Skip_shard_fsync -> (
      (* the planted cross-shard bug: the flush syncs every dirty
         shard's WAL except the last one's *)
      match List.rev (List.filter Shard.is_dirty (Array.to_list ss)) with
      | [] -> ()
      | _victim :: rest -> List.iter Shard.sync rest)
    | _ -> Array.iter Shard.sync ss);
    Tier.clear_pending tier;
    note_synced ()
  in
  List.iteri
    (fun i req ->
      if List.mem i w.snapshot_at then begin
        match inject with
        | Some Skip_rotate -> (
          (* the bug: snapshot shard 0 without the atomic WAL rotation
             — its old handle keeps journaling into a swept-away
             file *)
          match Shard.dir ss.(0) with
          | Some sdir ->
            ignore
              (State.save ~dir:sdir ~unregistered:(Shard.unregistered ss.(0))
                 (Shard.monitor ss.(0)));
            acct.synced.(0) <- Shard.journaled ss.(0)
          | None -> ())
        | _ ->
          Tier.snapshot tier;
          note_synced ()
      end;
      (match inject with
      | Some Log_before_apply when P.logged req ->
        (* the bug: journal on every target shard before applying —
           rejected requests reach the WALs, accepted ones land
           twice *)
        List.iter (fun sid -> Shard.raw_append ss.(sid) req) (Tier.targets tier req)
      | _ -> ());
      ignore (Tier.apply tier req);
      if Tier.pending tier >= w.window then flush ())
    w.ops;
  flush ()

(* One run at one fault point ([crash_at = -1]: fault-free, then a
   clean restart, whose recovered tier must also pass
   [parallel_parity]).  Returns [Ok ()] or [Error reason]. *)
let check_run w ~inject ~digests ~crash_at =
  let fs = Fault.create ~crash_at ~seed:(Rng.derive w.seed (crash_at + 1)) () in
  let acct = { tier = None; synced = Array.make w.shards 0 } in
  Vfs.with_backend (Fault.backend fs) @@ fun () ->
  let live =
    try
      drive w ~inject ~acct;
      true
    with Fault.Crash -> false
  in
  let journaled =
    match acct.tier with
    | Some tier -> Array.map Shard.journaled (Tier.shards tier)
    | None -> Array.make w.shards 0
  in
  Fault.restart fs;
  match Tier.recover ~shards:w.shards ~state_dir:dir ~load_base:w.load_base () with
  | exception e -> Error (Printf.sprintf "recovery failed: %s" (Printexc.to_string e))
  | rtier, rs ->
    let rec check s =
      if s >= w.shards then Ok ()
      else begin
        match digest_shard (Tier.shards rtier).(s) with
        | exception e ->
          Error
            (Printf.sprintf "recovered shard %d unusable: %s" s (Printexc.to_string e))
        | d ->
          let n = Array.length digests.(s) - 1 in
          let lo, hi =
            if live then (journaled.(s), journaled.(s)) (* clean restart: nothing may be lost *)
            else (acct.synced.(s), min n journaled.(s))
          in
          let matches = ref [] in
          Array.iteri (fun k dk -> if dk = d then matches := k :: !matches) digests.(s);
          if List.exists (fun k -> k >= lo && k <= hi) !matches then check (s + 1)
          else
            Error
              (match !matches with
              | [] ->
                Printf.sprintf
                  "shard %d: recovered state matches no oracle state (window [%d, %d] of \
                   %d, replayed %d)"
                  s lo hi n rs.(s).Shard.replayed
              | ks ->
                Printf.sprintf
                  "shard %d: recovered state is oracle state %s, outside the durable \
                   window [%d, %d]"
                  s
                  (String.concat "/" (List.map string_of_int (List.rev ks)))
                  lo hi)
      end
    in
    (* a clean restart also holds pooled checks to the sequential
       verdicts *)
    match check 0 with Ok () when live -> parallel_parity rtier | r -> r

(* -- schedules, shrinking, reporting --------------------------------------- *)

let repro ~seed ~ops ~fault ~inject ~shards =
  Printf.sprintf "fcv sim --seed %d --ops %d --fault=%d%s%s" seed ops fault
    (match inject with None -> "" | Some i -> " --inject " ^ inject_to_string i)
    (match shards with None -> "" | Some n -> Printf.sprintf " --shards %d" n)

(* Exercise one workload at every reachable fault point; [Some
   (fault, reason)] on the first violation.  Also counts runs. *)
let sweep w ~inject ~runs ~only_fault =
  match oracle w with
  | exception e -> Some (-1, "oracle run failed: " ^ Printexc.to_string e)
  | digests -> (
    let clean () =
      incr runs;
      match check_run w ~inject ~digests ~crash_at:(-1) with
      | Ok () -> None
      | Error reason -> Some (-1, reason)
    in
    match only_fault with
    | Some (-1) -> clean ()
    | Some k ->
      incr runs;
      (match check_run w ~inject ~digests ~crash_at:k with
      | Ok () -> None
      | Error reason -> Some (k, reason))
    | None -> (
      match clean () with
      | Some _ as fail -> fail
      | None ->
        (* count the workload's reachable fault points with a
           fault-free instrumented run, then crash at each — the
           points cover every per-shard effect: each shard's WAL
           appends within one routed burst, each fsync of a group
           commit, and every write / rename of each shard's
           snapshot rotation *)
        let fs = Fault.create ~seed:(Rng.derive w.seed 0) () in
        let acct = { tier = None; synced = Array.make w.shards 0 } in
        Vfs.with_backend (Fault.backend fs) (fun () -> drive w ~inject ~acct);
        let n_faults = Fault.effects fs in
        let rec go k =
          if k >= n_faults then None
          else begin
            incr runs;
            match check_run w ~inject ~digests ~crash_at:k with
            | Ok () -> go (k + 1)
            | Error reason -> Some (k, reason)
          end
        in
        go 0))

(* Minimal replayable counterexample: the shortest prefix of the
   workload's op stream that still fails somewhere, and its earliest
   failing fault point. *)
let shrink ~seed ~inject ~shards ~runs ~full_ops ~first =
  let rec try_n n =
    if n > full_ops then first
    else
      let w = gen_workload ~ops:n ?shards ~seed () in
      match sweep w ~inject ~runs ~only_fault:None with
      | Some (fault, reason) -> (n, fault, reason)
      | None -> try_n (n + 1)
  in
  try_n 1

let run ?inject ?ops ?fault ?shards ?(max_failures = 1) ?(progress = fun _ -> ()) ~seed
    ~schedules () =
  let runs = ref 0 in
  let failures = ref [] in
  let fail ~wseed ~n_ops ~fault ~reason =
    failures :=
      {
        cx_seed = wseed;
        cx_ops = n_ops;
        cx_fault = fault;
        cx_inject = inject;
        cx_reason = reason;
        cx_repro = repro ~seed:wseed ~ops:n_ops ~fault ~inject ~shards;
      }
      :: !failures
  in
  let schedules_run = ref 0 in
  (match fault with
  | Some k ->
    (* replay mode: [seed] IS the workload seed *)
    let w = gen_workload ?ops ?shards ~seed () in
    incr schedules_run;
    (match sweep w ~inject ~runs ~only_fault:(Some k) with
    | None -> ()
    | Some (f, reason) -> fail ~wseed:seed ~n_ops:w.n_ops ~fault:f ~reason)
  | None ->
    let s = ref 0 in
    while !s < schedules && List.length !failures < max_failures do
      let wseed = Rng.derive seed !s in
      let w = gen_workload ?ops ?shards ~seed:wseed () in
      incr schedules_run;
      (match sweep w ~inject ~runs ~only_fault:None with
      | None -> ()
      | Some (first_fault, first_reason) ->
        progress
          (Printf.sprintf "schedule %d (seed %d): violation at fault %d — shrinking" !s wseed
             first_fault);
        let n_ops, f, reason =
          shrink ~seed:wseed ~inject ~shards ~runs ~full_ops:w.n_ops
            ~first:(w.n_ops, first_fault, first_reason)
        in
        fail ~wseed ~n_ops ~fault:f ~reason);
      if (!s + 1) mod 25 = 0 then
        progress (Printf.sprintf "%d/%d schedules, %d crash runs" (!s + 1) schedules !runs);
      incr s
    done);
  { schedules_run = !schedules_run; crash_runs = !runs; failures = List.rev !failures }
