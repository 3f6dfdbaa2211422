(** Per-worker replicas of the logical index store (see the interface
    for the protocol).  The moving parts:

    - [epoch] counts master mutations ({!invalidate} and the
      [note_*] functions bump it).
    - [log] journals the row ops of the window [(base, epoch]] while
      the window is still expressible as row traffic.  {!prepare}
      publishes it as it stands, or restarts the window at the current
      epoch when it is not row traffic.
    - Each domain caches its replica, stamped with its epoch, in
      domain-local storage.  {!get} reuses it while the epoch stands,
      {b replays the suffix} of the window it has not seen when it sits
      inside the window, and otherwise copies the master
      ({!Index.copy}) at the current epoch.

    Why replay is verdict-safe: the log is dropped the moment the
    master's {!Index.t.structure_version} moves (entry
    add/remove/rebuild/defer, level recycle), so inside a window every
    replica entry has exactly the block widths the master had when it
    applied the op, and {!Index.update_entry} performs the identical
    root/count maintenance the master did.  Content-preserving GC
    ({!Index.compact}) renumbers only the master's own node ids, which a
    copy does not keep, so it neither bumps the epoch nor invalidates
    anything.

    Memory model: workers read [epoch] through an [Atomic], but
    [published] and the master itself are plain mutable state.  That is
    sound because every fan-out goes prepare → {!Fcv_util.Pool.run_ordered}
    enqueues the batch's drainers → a worker runs a task, the pool's
    queue mutex orders the main domain's writes before the worker's
    reads, and the main domain changes nothing until the batch
    settles. *)

module T = Fcv_util.Telemetry

(* A window longer than this restarts at the next {!prepare}: unbounded
   replay would eventually cost more than a copy. *)
let max_delta_ops = 4096

type delta_op =
  | Delta_insert of string * int array  (** table name, full coded row *)
  | Delta_delete of string * int array

type t = {
  master : Index.t;
  epoch : int Atomic.t;
  mutable base : int;  (** the epoch the window starts at *)
  mutable log : delta_op list;
      (** newest first; while [log_valid], exactly the ops of
          [(base, epoch]] *)
  mutable log_valid : bool;
  mutable structure_seen : int;
      (** the master's [structure_version] when the window started *)
  mutable published : (int * int * delta_op list) option;
      (** [(base, epoch, log)] at the last {!prepare}: what workers
          read *)
  cache : (int * Index.t) option ref Domain.DLS.key;
      (** this domain's replica, stamped with its epoch *)
  full_hydrations : int Atomic.t;
  delta_hydrations : int Atomic.t;
  delta_ops_applied : int Atomic.t;
}

let create master =
  {
    master;
    epoch = Atomic.make 0;
    base = 0;
    log = [];
    log_valid = true;
    structure_seen = master.Index.structure_version;
    published = None;
    cache = Domain.DLS.new_key (fun () -> ref None);
    full_hydrations = Atomic.make 0;
    delta_hydrations = Atomic.make 0;
    delta_ops_applied = Atomic.make 0;
  }

(* -- mutation notes (main domain only) -------------------------------------- *)

(** A change the log cannot express: stale replicas copy the master. *)
let invalidate t =
  Atomic.incr t.epoch;
  t.log <- [];
  t.log_valid <- false

(* Append one row op if the window is still sound: no structural
   change slipped in (the master may rebuild an entry inside
   Index.insert, invisibly to the caller; the version check catches
   it) and the window stays within [max_delta_ops]. *)
let note t op =
  Atomic.incr t.epoch;
  if
    t.log_valid
    && t.master.Index.structure_version = t.structure_seen
    && Atomic.get t.epoch - t.base <= max_delta_ops
  then t.log <- op :: t.log
  else begin
    t.log <- [];
    t.log_valid <- false
  end

let note_insert t ~table_name row = note t (Delta_insert (table_name, row))
let note_delete t ~table_name row = note t (Delta_delete (table_name, row))

(* -- hydration telemetry ---------------------------------------------------- *)

type stats = {
  full : int;
  delta : int;
  delta_ops : int;
  snapshot_bytes : int;  (* always 0 *)
  delta_bytes : int;  (* always 0 *)
}

let stats t =
  {
    full = Atomic.get t.full_hydrations;
    delta = Atomic.get t.delta_hydrations;
    delta_ops = Atomic.get t.delta_ops_applied;
    snapshot_bytes = 0;
    delta_bytes = 0;
  }

(* -- publication (main domain only) ----------------------------------------- *)

let prepare t =
  let e = Atomic.get t.epoch in
  if not t.log_valid then begin
    (* not row traffic: the window restarts here, and every replica
       older than [e] copies the master *)
    t.base <- e;
    t.log <- [];
    t.log_valid <- true;
    t.structure_seen <- t.master.Index.structure_version
  end;
  t.published <- Some (t.base, e, t.log)

(* -- worker-side hydration -------------------------------------------------- *)

(* Replay row ops against [index]'s entries only, never the base
   tables, which a replica shares with the already-updated master.
   @raise Index.Needs_rebuild when an op falls outside an entry's
   frozen domain capacity. *)
let apply_delta index ops =
  List.iter
    (fun op ->
      let insert, table_name, row =
        match op with
        | Delta_insert (t, r) -> (true, t, r)
        | Delta_delete (t, r) -> (false, t, r)
      in
      List.iter
        (fun e -> Index.update_entry index e ~insert row)
        (Index.entries_for index table_name))
    ops

let copy t =
  T.with_span "replica.hydrate" (fun () ->
      let index = Index.copy t.master in
      Atomic.incr t.full_hydrations;
      T.incr (T.counter "replica.hydrations.full");
      index)

(* The [k] newest ops of a newest-first log, oldest first. *)
let newest k log =
  let rec go k acc = function
    | op :: rest when k > 0 -> go (k - 1) (op :: acc) rest
    | _ -> acc
  in
  go k [] log

let get t =
  let e = Atomic.get t.epoch in
  let slot = Domain.DLS.get t.cache in
  match !slot with
  | Some (e', index) when e' = e -> index
  | cached ->
    let base, log =
      match t.published with
      | Some (base, e', log) when e' = e -> (base, log)
      | Some (_, e', _) ->
        invalid_arg
          (Printf.sprintf "Replica.get: prepared at epoch %d but master at %d — missing prepare"
             e' e)
      | None -> invalid_arg "Replica.get: missing prepare"
    in
    let index =
      match cached with
      | Some (e', index) when e' >= base -> (
        (* this domain's replica sits inside the window: replay just
           the suffix it has not seen *)
        let ops = newest (e - e') log in
        match T.with_span "replica.delta" (fun () -> apply_delta index ops) with
        | () ->
          Atomic.incr t.delta_hydrations;
          let n = List.length ops in
          ignore (Atomic.fetch_and_add t.delta_ops_applied n);
          T.incr ~by:n (T.counter "replica.delta_ops");
          T.incr (T.counter "replica.hydrations.delta");
          index
        | exception Index.Needs_rebuild _ ->
          (* defensive only: a sound window never trips this *)
          copy t)
      | _ -> copy t
    in
    slot := Some (e, index);
    index
