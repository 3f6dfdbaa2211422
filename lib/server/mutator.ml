(** The durable mutation engine: apply a mutating request to a
    monitor, journal it (through a caller-supplied [log] callback)
    {e only on success}, so a mutation the client saw fail can never
    be replayed by recovery.  Factored out of {!Server} so the
    per-shard durable unit ({!Shard}) and the fault-injection
    simulator drive the exact code paths the daemon runs, without the
    sockets. *)

module T = Fcv_util.Telemetry
module P = Protocol

type t = {
  monitor : Core.Monitor.t;
  mutable unregistered : string list;
      (** tombstones: sources explicitly unregistered, persisted in
          snapshots so startup files don't resurrect them *)
  mutable log : P.request -> unit;
      (** journal an {e acknowledged} mutation (the WAL append); set
          by whoever owns the WAL handle *)
}

let create ?(unregistered = []) ?(log = fun _ -> ()) monitor = { monitor; unregistered; log }
let monitor t = t.monitor
let unregistered t = t.unregistered
let set_log t log = t.log <- log

(* Apply + journal one registration.  Re-registering digs up a
   tombstone.  Raises the {!Core.Monitor.add} errors on a bad
   constraint (callers that want a response code use [apply]). *)
let register ?id t source =
  let reg = Core.Monitor.add ?id t.monitor source in
  t.unregistered <- List.filter (( <> ) source) t.unregistered;
  t.log (P.Register { source; id = Some reg.Core.Monitor.id });
  reg

(* Answer one mutating request: apply first, journal only on
   success, so a failed mutation (the client gets an error) can
   never be replayed by recovery.  Non-mutating requests are [Ok []]
   — they carry no durable effect. *)
let apply t req : ((string * T.json) list, P.error_code * string) result =
  let db = (Core.Monitor.index t.monitor).Core.Index.db in
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
    match
      List.find_opt (fun r -> r.Core.Monitor.id = c) (Core.Monitor.constraints t.monitor)
    with
    | Some r ->
      Core.Monitor.remove t.monitor c;
      let source = r.Core.Monitor.source in
      if not (List.mem source t.unregistered) then t.unregistered <- source :: t.unregistered;
      t.log req;
      Ok []
    | None -> Error (P.Bad_request, Printf.sprintf "no constraint %d" c))
  | P.Insert (table, row) -> (
    match P.code_row ~intern:true db ~table row with
    | P.Coded coded ->
      Core.Monitor.insert t.monitor ~table_name:table coded;
      t.log req;
      Ok []
    | P.Unknown_value _ -> assert false (* intern never yields this *)
    | exception P.Malformed msg -> Error (P.Bad_request, msg)
    | exception Invalid_argument msg -> Error (P.Unknown_table, msg))
  | P.Delete (table, row) -> (
    (* coded without interning: a value the dictionary lacks is in no
       row, so the delete removes nothing and grows no domain *)
    match P.code_row db ~table row with
    | P.Coded coded ->
      let removed = Core.Monitor.delete t.monitor ~table_name:table coded in
      t.log req;
      Ok [ ("removed", T.Bool removed) ]
    | P.Unknown_value _ ->
      t.log req;
      Ok [ ("removed", T.Bool false) ]
    | exception P.Malformed msg -> Error (P.Bad_request, msg)
    | exception Invalid_argument msg -> Error (P.Unknown_table, msg))
  | P.Repair _ | P.Explain _ | P.Validate | P.Stats | P.Compact | P.Snapshot | P.Ping
  | P.Shutdown ->
    Ok [] (* repair is planned at the tier; an applied plan reaches the
             shard as ordinary Delete requests *)

(* -- replay semantics (shared with recovery and the crash tests) ----------- *)

let apply_logged monitor req =
  let db = (Core.Monitor.index monitor).Core.Index.db in
  match req with
  | P.Register { source; id } -> ignore (Core.Monitor.add ?id monitor source)
  | P.Unregister c -> Core.Monitor.remove monitor c
  | P.Insert (table, row) -> (
    match P.code_row ~intern:true db ~table row with
    | P.Coded coded -> Core.Monitor.insert monitor ~table_name:table coded
    | P.Unknown_value _ -> assert false (* intern never yields this *))
  | P.Delete (table, row) -> (
    match P.code_row db ~table row with
    | P.Coded coded -> ignore (Core.Monitor.delete monitor ~table_name:table coded)
    | P.Unknown_value _ -> () (* the same no-op the live path answered *))
  | P.Repair _ | P.Explain _ | P.Validate | P.Stats | P.Compact | P.Snapshot | P.Ping
  | P.Shutdown ->
    ()
