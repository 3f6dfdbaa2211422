(** The constraint-service daemon: a single-threaded [select] loop
    multiplexing pipelined client sessions over a sharded {!Tier},
    coalescing update bursts into one dirty-set pass per shard per
    validation, journaling mutations to the per-shard WALs, and
    releasing acknowledgements behind the tier's group commit.  See
    server.mli for the design summary.

    The durable core — route a mutation, apply + journal it per
    shard, group-commit, rotate snapshots — lives in {!Mutator} /
    {!Shard} / {!Tier} so the fault-injection simulator drives the
    exact code paths the daemon runs, without the sockets. *)

module R = Fcv_relation
module T = Fcv_util.Telemetry
module P = Protocol

(* -- daemon ---------------------------------------------------------------- *)

type config = {
  addr : string;
  state_dir : string option;
  fsync_every : int;
  snapshot_every : int;
  idle_timeout : float;
  partial_timeout : float;
  max_line : int;
  max_sessions : int;
  jobs : int;
  shards : int;
  group_commit_window : int;
}

let default_config ~addr =
  {
    addr;
    state_dir = None;
    fsync_every = 1;
    snapshot_every = 10_000;
    idle_timeout = 60.;
    partial_timeout = 10.;
    max_line = 1 lsl 20;
    max_sessions = 64;
    jobs = 1;
    shards = 1;
    group_commit_window = 8;
  }

type t = {
  config : config;
  tier : Tier.t;
  listen_fd : Unix.file_descr;
  unix_path : string option;  (** to unlink on close *)
  mutable sessions : Session.t list;  (** arrival order *)
  mutable next_session : int;
  mutable requests : int;
  mutable draining : bool;
  mutable stopped : bool;
  mutable kill_requested : bool;
  started : float;
  readbuf : Bytes.t;
}

let tier t = t.tier
let monitor t = Shard.monitor (Tier.shards t.tier).(0)
let draining t = t.draining
let request_drain t = t.draining <- true

let of_tier config tier =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  (* the select loop stays single-threaded; only the per-shard
     validate passes inside it fan out (Monitor worker pools) *)
  Tier.set_jobs tier config.jobs;
  let sockaddr = P.sockaddr_of_string config.addr in
  let domain, unix_path =
    match sockaddr with
    | Unix.ADDR_UNIX path ->
      if Sys.file_exists path then Unix.unlink path;
      (Unix.PF_UNIX, Some path)
    | Unix.ADDR_INET _ -> (Unix.PF_INET, None)
  in
  let listen_fd = Unix.socket domain Unix.SOCK_STREAM 0 in
  if unix_path = None then Unix.setsockopt listen_fd Unix.SO_REUSEADDR true;
  Unix.bind listen_fd sockaddr;
  Unix.listen listen_fd 64;
  Unix.set_nonblock listen_fd;
  {
    config;
    tier;
    listen_fd;
    unix_path;
    sessions = [];
    next_session = 0;
    requests = 0;
    draining = false;
    stopped = false;
    kill_requested = false;
    started = Unix.gettimeofday ();
    readbuf = Bytes.create 65536;
  }

let create ?(unregistered = []) config monitor =
  (match config.state_dir with
  | Some dir ->
    if not (Vfs.file_exists dir) then Vfs.mkdir dir 0o755;
    Tier.record_shards dir 1
  | None -> ());
  let shard = Shard.create ~unregistered ~sid:0 ?dir:config.state_dir monitor in
  of_tier config (Tier.of_shards ~fsync:(config.fsync_every > 0) [| shard |])

(* -- durability ------------------------------------------------------------ *)

(* The group commit: fsync every dirty shard WAL, then release the
   acknowledgements staged behind it — in per-session order.  Runs
   when the window fills and at the end of every processing round. *)
let release_all t =
  Tier.flush t.tier;
  List.iter Session.release t.sessions

let snapshot t =
  match t.config.state_dir with
  | None -> ()
  | Some _ ->
    T.with_span "server.snapshot" @@ fun () ->
    Tier.snapshot t.tier

(* -- request handling ------------------------------------------------------ *)

let json_of_report rep =
  T.Obj
    ([
       ("constraint", T.Int rep.Core.Monitor.constraint_.Core.Monitor.id);
       ("source", T.String rep.Core.Monitor.constraint_.Core.Monitor.source);
       ( "outcome",
         T.String
           (match rep.Core.Monitor.outcome with
           | Core.Checker.Satisfied -> "satisfied"
           | Core.Checker.Violated -> "violated") );
       ("fresh", T.Bool rep.Core.Monitor.fresh);
       ("ms", T.Float rep.Core.Monitor.elapsed_ms);
     ]
    @
    (* soft constraints report their measured violation rate and the
       threshold the verdict was taken against *)
    match rep.Core.Monitor.rate with
    | None -> []
    | Some rt ->
      [
        ("rate", T.Float rt.Core.Checker.ratio);
        ("threshold", T.Float rt.Core.Checker.threshold);
        ("violations", T.String (Fcv_bdd.Nat.to_string rt.Core.Checker.violations));
        ("bindings", T.String (Fcv_bdd.Nat.to_string rt.Core.Checker.total));
      ])

let shard_json s =
  let index = Core.Monitor.index (Shard.monitor s) in
  T.Obj
    [
      ("shard", T.Int (Shard.sid s));
      ("constraints", T.Int (List.length (Core.Monitor.constraints (Shard.monitor s))));
      ("bdd_nodes", T.Int (Fcv_bdd.Manager.size (Core.Index.mgr index)));
      ("wal_appended", T.Int (Shard.wal_appended s));
      ("since_snapshot", T.Int (Shard.since_snapshot s));
      ("dirty", T.Bool (Shard.is_dirty s));
    ]

let stats_json t =
  let shards = Tier.shards t.tier in
  let sum f = Array.fold_left (fun acc s -> acc + f s) 0 shards in
  let index0 = Core.Monitor.index (monitor t) in
  let tables =
    List.map
      (fun n -> (n, T.Int (Tier.table_cardinality t.tier n)))
      (R.Database.table_names index0.Core.Index.db)
  in
  let lifecycle =
    Array.map (fun s -> Core.Index.lifecycle_stats (Core.Monitor.index (Shard.monitor s))) shards
  in
  let mem f = Array.fold_left (fun acc ls -> acc + f ls) 0 lifecycle in
  [
    ("uptime_ms", T.Float ((Unix.gettimeofday () -. t.started) *. 1000.));
    ("sessions", T.Int (List.length t.sessions));
    ("requests", T.Int t.requests);
    ("jobs", T.Int (Core.Monitor.jobs (monitor t)));
    ("constraints", T.Int (List.length (Tier.constraints t.tier)));
    ( "indices",
      T.Int (sum (fun s -> List.length (Core.Index.entries (Core.Monitor.index (Shard.monitor s))))) );
    ( "bdd_nodes",
      T.Int (sum (fun s -> Fcv_bdd.Manager.size (Core.Index.mgr (Core.Monitor.index (Shard.monitor s))))) );
    ( "memory",
      T.Obj
        [
          ("live_nodes", T.Int (mem (fun ls -> ls.Core.Index.live)));
          ("peak_nodes", T.Int (mem (fun ls -> ls.Core.Index.peak)));
          ( "dead_ratio",
            T.Float (Array.fold_left (fun acc ls -> max acc ls.Core.Index.dead) 0. lifecycle) );
          ("levels_used", T.Int (mem (fun ls -> ls.Core.Index.levels_used)));
          ("levels_live", T.Int (mem (fun ls -> ls.Core.Index.levels_alive)));
          ("op_cache_entries", T.Int (mem (fun ls -> ls.Core.Index.cache_entries)));
          ("gc_runs", T.Int (mem (fun ls -> ls.Core.Index.gc_runs)));
          ("gc_reclaimed", T.Int (mem (fun ls -> ls.Core.Index.gc_reclaimed)));
          ("level_recycles", T.Int (mem (fun ls -> ls.Core.Index.level_recycles)));
          ("deferred_rebuilds", T.Int (mem (fun ls -> ls.Core.Index.deferred_rebuilds)));
        ] );
    ("tables", T.Obj tables);
    ( "pool",
      (* the pool gate, over shards: started when any shard's pool has,
         passes summed, and the highest P a shard prices its next
         pooled pass at *)
      let pools = Array.map (fun s -> Core.Monitor.pool_stats (Shard.monitor s)) shards in
      let sum f = T.Int (Array.fold_left (fun n st -> n + f st) 0 pools) in
      T.Obj
        [
          ("started", T.Bool (Array.exists (fun st -> st.Core.Monitor.started) pools));
          ("pooled_passes", sum (fun st -> st.Core.Monitor.pooled_passes));
          ("sequential_passes", sum (fun st -> st.Core.Monitor.sequential_passes));
          ( "price_ms",
            T.Float (Array.fold_left (fun m st -> Float.max m st.Core.Monitor.price_ms) 0. pools)
          );
        ] );
    ( "hydration",
      (* replica refresh telemetry summed over the shards whose pool
         started: delta catch-ups are the cheap path the mutation
         journal buys *)
      match
        List.filter_map
          (fun s -> Core.Monitor.replica_stats (Shard.monitor s))
          (Array.to_list shards)
      with
      | [] -> T.Null
      | rs ->
        let sum f = T.Int (List.fold_left (fun n st -> n + f st) 0 rs) in
        T.Obj
          [
            ("full", sum (fun st -> st.Core.Replica.full));
            ("delta", sum (fun st -> st.Core.Replica.delta));
            ("delta_ops", sum (fun st -> st.Core.Replica.delta_ops));
          ] );
    ( "wal",
      T.Obj
        [
          ("appended", T.Int (sum Shard.wal_appended));
          ("since_snapshot", T.Int (sum Shard.since_snapshot));
        ] );
    ( "group_commit",
      T.Obj
        [
          ("window", T.Int t.config.group_commit_window);
          ("pending", T.Int (Tier.pending t.tier));
        ] );
    ("shards", T.List (Array.to_list (Array.map shard_json shards)));
  ]

(* Registration through the durability path, flushed immediately — a
   --constraints startup file must be durable before the loop runs. *)
let register ?id t source =
  let reg = Tier.register ?id t.tier source in
  Tier.flush t.tier;
  reg

(* Answer one non-validate request.  Mutations go through
   {!Tier.apply} (apply + journal per shard on success) and their
   replies are {e staged} behind the group commit; when the window
   fills, flush and release.  Any escaping exception becomes an
   [internal] error response — a bad request must not kill the
   loop. *)
let handle t session rid req =
  let t0 = Fcv_util.Timer.now () in
  let reply line = Session.stage session line in
  (try
     match req with
     | P.Ping -> reply (P.ok_line ?id:rid [ ("pong", T.Bool true) ])
     | P.Register _ | P.Unregister _ | P.Insert _ | P.Delete _ | P.Repair _ ->
       (match Tier.apply t.tier req with
       | Ok fields -> reply (P.ok_line ?id:rid fields)
       | Error (code, msg) -> reply (P.error_line ?id:rid code msg));
       if Tier.pending t.tier >= t.config.group_commit_window then release_all t
     | P.Explain _ -> (
       (* read-only: routed through Tier.apply for the shard lookup,
          but journals nothing and stages immediately *)
       match Tier.apply t.tier req with
       | Ok fields -> reply (P.ok_line ?id:rid fields)
       | Error (code, msg) -> reply (P.error_line ?id:rid code msg))
     | P.Stats -> reply (P.ok_line ?id:rid (stats_json t))
     | P.Compact ->
       (* the select loop is single-threaded and validates are
          coalesced elsewhere, so no check is in flight here *)
       let reclaimed = Tier.gc t.tier in
       let index = Core.Monitor.index (monitor t) in
       reply
         (P.ok_line ?id:rid
            [
              ("reclaimed", T.Int reclaimed);
              ("nodes", T.Int (Fcv_bdd.Manager.size (Core.Index.mgr index)));
              ("gc_runs", T.Int index.Core.Index.gc_runs);
            ])
     | P.Snapshot ->
       snapshot t;
       reply (P.ok_line ?id:rid [ ("snapshot", T.Bool (t.config.state_dir <> None)) ])
     | P.Shutdown ->
       reply (P.ok_line ?id:rid [ ("draining", T.Bool true) ]);
       t.draining <- true
     | P.Validate -> assert false (* coalesced by [process] *)
   with e ->
     reply (P.error_line ?id:rid P.Internal (Printexc.to_string e)));
  session.Session.requests <- session.Session.requests + 1;
  t.requests <- t.requests + 1;
  if T.enabled () then
    T.observe
      (T.histogram ("server.op." ^ P.request_name req))
      ((Fcv_util.Timer.now () -. t0) *. 1000.)

(* Drain every session's request queue.  Sessions are pipelined: one
   read may queue many complete lines, and each outer round applies
   all sessions' update bursts first, then — if anyone asked — runs
   ONE tier validate (one dirty-set pass per shard, verdicts merged)
   whose reports answer every waiting session.  A session's requests
   keep their order: replies are staged in arrival order and its
   lines after a [validate] wait for the next round.  The round ends
   with a group commit, so every staged acknowledgement is released
   behind its WAL fsync. *)
let process t =
  let progress = ref true in
  while !progress do
    progress := false;
    let validators = ref [] in
    List.iter
      (fun session ->
        let continue = ref true in
        while !continue do
          match Session.next_line session with
          | None -> continue := false
          | Some line ->
            progress := true;
            if String.trim line = "" then ()
            else (
              match P.parse_request line with
              | Error (code, msg) ->
                Session.stage session (P.error_line code msg);
                session.Session.requests <- session.Session.requests + 1;
                t.requests <- t.requests + 1
              | Ok (rid, P.Validate) ->
                validators := (session, rid) :: !validators;
                continue := false
              | Ok (rid, req) -> handle t session rid req)
        done)
      t.sessions;
    if !validators <> [] then begin
      let t0 = Fcv_util.Timer.now () in
      let result =
        match Tier.validate t.tier with
        | reports ->
          let violated =
            List.length
              (List.filter (fun r -> r.Core.Monitor.outcome = Core.Checker.Violated) reports)
          in
          Ok
            [
              ("violated", T.Int violated);
              ("reports", T.List (List.map json_of_report reports));
            ]
        | exception e -> Error (Printexc.to_string e)
      in
      let ms = (Fcv_util.Timer.now () -. t0) *. 1000. in
      List.iter
        (fun (session, rid) ->
          (match result with
          | Ok fields -> Session.stage session (P.ok_line ?id:rid fields)
          | Error msg -> Session.stage session (P.error_line ?id:rid P.Internal msg));
          session.Session.requests <- session.Session.requests + 1;
          t.requests <- t.requests + 1;
          if T.enabled () then T.observe (T.histogram "server.op.validate") ms)
        (List.rev !validators)
    end
  done;
  (* end-of-round group commit: the latency bound when the window
     never fills *)
  release_all t

(* -- the event loop -------------------------------------------------------- *)

let drop_session t session =
  (try Unix.close session.Session.fd with Unix.Unix_error _ -> ());
  t.sessions <- List.filter (fun s -> s != session) t.sessions

let accept_pending t =
  let continue = ref true in
  while !continue do
    match Unix.accept t.listen_fd with
    | fd, peer ->
      let peer =
        match peer with
        | Unix.ADDR_UNIX _ -> "unix"
        | Unix.ADDR_INET (a, p) -> Printf.sprintf "%s:%d" (Unix.string_of_inet_addr a) p
      in
      let session = Session.create ~id:t.next_session ~fd ~peer in
      t.next_session <- t.next_session + 1;
      let refuse code msg =
        Session.send session (P.error_line code msg);
        ignore (Session.flush session);
        (try Unix.close fd with Unix.Unix_error _ -> ())
      in
      if t.draining then
        (* still answer connects during drain: a refusal beats letting
           the client hang until its own timeout *)
        refuse P.Shutting_down "server is shutting down"
      else if List.length t.sessions >= t.config.max_sessions then
        refuse P.Internal "session limit reached"
      else begin
        t.sessions <- t.sessions @ [ session ];
        if T.enabled () then T.incr (T.counter "server.accepts")
      end
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
      continue := false
  done

(* Read whatever is ready on [session]; [false] when it must be
   dropped (EOF with an empty queue, dead peer, or an over-long
   line).  One read may carry many pipelined request lines —
   {!Session.feed} queues them all. *)
let read_session t session =
  match Unix.read session.Session.fd t.readbuf 0 (Bytes.length t.readbuf) with
  | 0 ->
    (* EOF: answer what was already queued, then close *)
    session.Session.closing <- true;
    true
  | n -> (
    match Session.feed session ~max_line:t.config.max_line t.readbuf n with
    | `Ok -> true
    | `Line_too_long ->
      Session.send session
        (P.error_line P.Bad_request
           (Printf.sprintf "request line exceeds %d bytes" t.config.max_line));
      ignore (Session.flush session);
      false)
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> true
  | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) -> false

let reap_timeouts t =
  let now = Unix.gettimeofday () in
  let expired session =
    let idle = t.config.idle_timeout in
    let partial = t.config.partial_timeout in
    (idle > 0. && now -. session.Session.last_activity > idle)
    || partial > 0.
       && (match session.Session.partial_since with
          | Some since -> now -. since > partial
          | None -> false)
  in
  List.iter
    (fun session ->
      if expired session then begin
        if T.enabled () then T.incr (T.counter "server.timeouts");
        drop_session t session
      end)
    t.sessions

let close_all t =
  List.iter (fun s -> try Unix.close s.Session.fd with Unix.Unix_error _ -> ()) t.sessions;
  t.sessions <- [];
  (try Unix.close t.listen_fd with Unix.Unix_error _ -> ());
  Option.iter (fun path -> try Unix.unlink path with Unix.Unix_error _ -> ()) t.unix_path;
  (* closes every shard's WAL and joins worker domains so the process
     can exit; harmless under the [kill] crash simulation — domains
     are not on-disk state *)
  Tier.close t.tier

let stop t =
  if not t.stopped then begin
    t.stopped <- true;
    snapshot t;
    close_all t
  end

let kill t = t.kill_requested <- true

let poll ?(timeout = 0.25) t =
  if t.kill_requested && not t.stopped then begin
    (* crash simulation: drop every fd — staged, un-flushed replies
       and all — without a final snapshot, so recovery exercises the
       per-shard snapshot + WAL path *)
    t.stopped <- true;
    close_all t
  end;
  if t.stopped then false
  else begin
    let watched = List.map (fun s -> s.Session.fd) t.sessions in
    let read_fds = t.listen_fd :: watched in
    let write_fds =
      List.filter_map
        (fun s -> if Session.has_output s then Some s.Session.fd else None)
        t.sessions
    in
    let ready_r, _, _ =
      try Unix.select read_fds write_fds [] timeout
      with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
    in
    if List.memq t.listen_fd ready_r then accept_pending t;
    List.iter
      (fun session ->
        if List.memq session.Session.fd ready_r then
          if not (read_session t session) then drop_session t session)
      t.sessions;
    if T.enabled () then
      T.gauge_set (T.gauge "server.queue_depth")
        (List.fold_left (fun acc s -> acc + Session.queued s) 0 t.sessions);
    process t;
    List.iter
      (fun session ->
        if not (Session.flush session) then drop_session t session
        else if session.Session.closing && not (Session.has_output session) then
          drop_session t session)
      t.sessions;
    reap_timeouts t;
    if t.config.snapshot_every > 0 && not t.draining then
      Tier.auto_snapshot t.tier ~every:t.config.snapshot_every;
    if t.draining then stop t;
    not t.stopped
  end

let run t =
  let drain _ = t.draining <- true in
  Sys.set_signal Sys.sigterm (Sys.Signal_handle drain);
  Sys.set_signal Sys.sigint (Sys.Signal_handle drain);
  while poll t do
    ()
  done
