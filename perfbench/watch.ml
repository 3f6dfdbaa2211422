(* watch: continuous validation against the durable [fcv serve] daemon,
   driven over its Unix socket from this one process (one connection,
   no threads): a burst of mutations, then [validate], round after
   round.  For the output check and the traced run, the same seeded
   stream is replayed in process through the tier's public entry
   points: [Protocol.parse_request], [Tier.register], [Tier.apply],
   [Tier.flush], [Tier.auto_snapshot] and [Tier.validate]. *)

module P = Fcv_server.Protocol
module Tier = Fcv_server.Tier
module Shard = Fcv_server.Shard
module R = Fcv_relation
module T = Fcv_util.Telemetry
module Json = T.Json
module M = Measure
module C = Core.Checker
module Mon = Core.Monitor

(* -- the workload ------------------------------------------------------------ *)

(* At 1,000 students a daemon took 1.5 s to set up, a 45 s run held
   five daemons, and each daemon's planner settled on plans of its own,
   so runs differed by the plans they drew (README.md, watch).  At 500
   a run holds about 30 daemons. *)
let students = 500
let shards = 1
let jobs = 2

let policy d a =
  Printf.sprintf
    "forall s, k . student(s, %d, k) -> (exists c . takes(s, c) and course(c, %d))" d a

(* bench/parallel.ml's 50-constraint university suite, the student key
   FD in fast-path form, and (student_id, contact) -> department, which
   that key entails.  No soft policies: the planner sends them to SQL,
   which recounts them naively, and one such validate ran past a minute
   (README.md, findings). *)
let constraints =
  [
    "forall s, c . takes(s, c) -> (exists a . course(c, a))";
    "forall s, c . takes(s, c) -> (exists d, k . student(s, d, k))";
    "forall s, d1, k1, d2, k2 . student(s, d1, k1) and student(s, d2, k2) -> d1 = d2";
    "forall c, a1, a2 . course(c, a1) and course(c, a2) -> a1 = a2";
  ]
  @ List.init 46 (fun i -> policy (i mod 8) (i / 8))
  @ [
      "forall s, d1, d2 . student(s, d1, _) and student(s, d2, _) -> d1 = d2";
      "forall s, k, d1, d2 . student(s, d1, k) and student(s, d2, k) -> d1 = d2";
    ]

(* [fcv serve]'s defaults, which the daemon runs with. *)
let max_nodes = 1_000_000
let group_commit = 8
let snapshot_every = 10_000

(* Each daemon serves this many rounds from its set-up; a run starts
   daemons one after another until its measuring time is up, and pools
   their samples.  A daemon's validate time grows with the rounds it has
   served (README.md, findings), so a fixed count keeps every run on the
   same trajectory, whatever the machine's speed.  At 30 rounds a daemon
   lasts about 2 s, so the last one ends soon after the measuring time.
   A traced run has one daemon. *)
let rounds = 30

(* A round: a burst of this many mutations, then validate. *)
let burst = 4

(* -- inputs ------------------------------------------------------------------ *)

(* The base data is the same on every run; the seed draws the request
   stream.  The planner's choices, and with them validate times, depend
   on the data, and drawing it per seed spread validate_ms.p50 from 17
   to 55 ms across five seeds. *)
let data_seed = 42

let write_data dir =
  let rng = Fcv_util.Rng.create data_seed in
  let db, student, course, takes =
    Fcv_datagen.University.generate rng
      { Fcv_datagen.University.default with students; violators = students / 100 }
  in
  List.iter
    (fun t -> R.Csv.write_table t (Filename.concat dir (R.Table.name t ^ ".csv")))
    [ student; course; takes ];
  db

(* [fcv]'s CSV loading: one table per file, same-named columns share a
   domain. *)
let load_base dir () =
  let db = R.Database.create () in
  Sys.readdir dir |> Array.to_list |> List.sort compare
  |> List.iter (fun f ->
         if Filename.check_suffix f ".csv" then begin
           let path = Filename.concat dir f in
           let header, _ = R.Csv.read_file path in
           ignore
             (R.Csv.load_table db ~name:(Filename.chop_suffix f ".csv") ~path
                ~domains:(List.map (fun h -> (h, h)) header)
                ())
         end);
  db

(* The seeded mutation stream over a model of the tables.  Every delete
   names a row that is present, every insert one that is absent. *)
type model = {
  rng : Fcv_util.Rng.t;
  nstudents : int;
  ncourses : int;
  takes : (int * int) array;
  where : (int * int, int) Hashtbl.t;  (** takes row -> slot *)
  dept : int array;
  contact : int array;
  area : int array;
}

let model ~seed db =
  let rows name = R.Table.to_list (R.Database.table db name) in
  let value name j code =
    int_of_string
      (R.Value.to_string (R.Dict.value (R.Table.dict (R.Database.table db name) j) code))
  in
  let students = rows "student" and courses = rows "course" and takes = rows "takes" in
  let n = List.length students in
  let dept = Array.make n 0 and contact = Array.make n 0 in
  List.iter
    (fun r ->
      let s = value "student" 0 r.(0) in
      dept.(s) <- value "student" 1 r.(1);
      contact.(s) <- value "student" 2 r.(2))
    students;
  let area = Array.make (List.length courses) 0 in
  List.iter (fun r -> area.(value "course" 0 r.(0)) <- value "course" 1 r.(1)) courses;
  let arr =
    Array.of_list (List.map (fun r -> (value "takes" 0 r.(0), value "takes" 1 r.(1))) takes)
  in
  let where = Hashtbl.create (Array.length arr) in
  Array.iteri (fun i st -> Hashtbl.replace where st i) arr;
  {
    rng = Fcv_util.Rng.create seed;
    nstudents = n;
    ncourses = Array.length area;
    takes = arr;
    where;
    dept;
    contact;
    area;
  }

let row xs = List.map string_of_int xs
let rint m n = Fcv_util.Rng.int m.rng n

(* Drop one enrolment, enrol the same student in a course they lack. *)
let takes_move m =
  let i = rint m (Array.length m.takes) in
  let ((s, c) as dropped) = m.takes.(i) in
  Hashtbl.remove m.where dropped;
  let rec pick () =
    let c' = rint m m.ncourses in
    if c' = c || Hashtbl.mem m.where (s, c') then pick () else c'
  in
  let c' = pick () in
  m.takes.(i) <- (s, c');
  Hashtbl.replace m.where (s, c') i;
  [ P.Delete ("takes", row [ s; c ]); P.Insert ("takes", row [ s; c' ]) ]

let student_move m =
  let s = rint m m.nstudents in
  let d = m.dept.(s) in
  let d' = (d + 1 + rint m 7) mod 8 in
  m.dept.(s) <- d';
  [
    P.Delete ("student", row [ s; d; m.contact.(s) ]);
    P.Insert ("student", row [ s; d'; m.contact.(s) ]);
  ]

let course_move m =
  let c = rint m m.ncourses in
  let a = m.area.(c) in
  let a' = (a + 1 + rint m 9) mod 10 in
  m.area.(c) <- a';
  [ P.Delete ("course", row [ c; a ]); P.Insert ("course", row [ c; a' ]) ]

(* One burst: two pairs across takes, student and course; department
   and area moves flip policy verdicts. *)
let next_burst m =
  let pair () =
    match rint m 4 with 0 -> student_move m | 1 -> course_move m | _ -> takes_move m
  in
  (* bound first: OCaml evaluates [@]'s right operand first, and the
     model must see the pairs in the order they are sent *)
  let first = pair () in
  let b = first @ pair () in
  assert (List.length b = burst);
  b

(* -- the connection ------------------------------------------------------------ *)

(* One blocking connection: the client sends a round's lines, then reads
   their replies. *)
type conn = {
  fd : Unix.file_descr;
  partial : Buffer.t;
  lines : (string * float) Queue.t;  (** reply line, time read *)
  mutable eof : bool;
}

let connect sock =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX sock);
  { fd; partial = Buffer.create 4096; lines = Queue.create (); eof = false }

let send c line =
  let s = line ^ "\n" in
  let rec from off =
    if off < String.length s then
      match Unix.write_substring c.fd s off (String.length s - off) with
      | k -> from (off + k)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> from off
      | exception Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) -> c.eof <- true
  in
  from 0

let readbuf = Bytes.create 65536

let read_some c =
  match Unix.read c.fd readbuf 0 (Bytes.length readbuf) with
  | 0 -> c.eof <- true
  | k ->
    let t = M.now () in
    let pos = ref 0 in
    while !pos < k do
      match Bytes.index_from_opt readbuf !pos '\n' with
      | Some i when i < k ->
        Buffer.add_subbytes c.partial readbuf !pos (i - !pos);
        Queue.add (Buffer.contents c.partial, t) c.lines;
        Buffer.clear c.partial;
        pos := i + 1
      | _ ->
        Buffer.add_subbytes c.partial readbuf !pos (k - !pos);
        pos := k
    done
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  | exception Unix.Unix_error (Unix.ECONNRESET, _, _) -> c.eof <- true

exception Stalled of string

(* Block until [c] has a reply line (or [deadline] passes). *)
let rec next_line c ~deadline =
  match Queue.take_opt c.lines with
  | Some l -> l
  | None ->
    if c.eof then raise (Stalled "the daemon closed the connection");
    if M.now () > deadline then raise (Stalled "no reply before the deadline");
    (match Unix.select [ c.fd ] [] [] 0.01 with
    | [], _, _ -> ()
    | _ -> read_some c
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
    next_line c ~deadline

(* -- the daemon ------------------------------------------------------------------ *)

type daemon = { pid : int; sock : string }

(* Daemons started and not yet reaped; [kill_all] ends them whatever
   way the run ends. *)
let live = ref []

let rec reap pid ~deadline =
  match Unix.waitpid [ Unix.WNOHANG ] pid with
  | 0, _ ->
    if M.now () > deadline then begin
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (Unix.waitpid [] pid);
      live := List.filter (( <> ) pid) !live;
      false
    end
    else begin
      Unix.sleepf 0.01;
      reap pid ~deadline
    end
  | _, status ->
    live := List.filter (( <> ) pid) !live;
    status = Unix.WEXITED 0
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> reap pid ~deadline

let kill_all () = List.iter (fun pid -> ignore (reap pid ~deadline:0.)) !live

let spawn ~fcv ~tag =
  let state = M.fresh_dir ("state-" ^ tag) in
  let sock = "s-" ^ tag ^ ".sock" and log = "serve-" ^ tag ^ ".log" in
  let out = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let args =
    [|
      fcv; "serve"; "-d"; "data"; "--sock"; sock; "--state"; state; "--shards";
      string_of_int shards; "-j"; string_of_int jobs; "--max-nodes"; string_of_int max_nodes;
      "--group-commit"; string_of_int group_commit; "--snapshot-every";
      string_of_int snapshot_every;
    |]
  in
  let pid = Unix.create_process fcv args Unix.stdin out out in
  Unix.close out;
  live := pid :: !live;
  let deadline = M.now () +. 60. in
  (* ready once the log says so: the socket file alone may be stale *)
  let rec wait () =
    let text = In_channel.with_open_text log In_channel.input_all in
    if
      List.exists
        (String.starts_with ~prefix:"fcv serve: listening")
        (String.split_on_char '\n' text)
    then ()
    else
      match Unix.waitpid [ Unix.WNOHANG ] pid with
      | 0, _ when M.now () < deadline ->
        Unix.sleepf 0.005;
        wait ()
      | _ -> raise (Stalled ("fcv serve did not start: " ^ String.trim text))
  in
  wait ();
  { pid; sock }

let stop_daemon d conn =
  send conn (P.request_to_line P.Shutdown);
  (try ignore (next_line conn ~deadline:(M.now () +. 30.)) with Stalled _ -> ());
  Unix.close conn.fd;
  reap d.pid ~deadline:(M.now () +. 30.)

(* -- replies ------------------------------------------------------------------- *)

(* A validate reply's verdict set: per constraint, its outcome. *)
type verdict = int * string

let verdicts_of_json body : verdict list =
  match Json.member "reports" body with
  | Some (T.List reports) ->
    List.map
      (fun rep ->
        match (Json.member "constraint" rep, Json.member "outcome" rep) with
        | Some (T.Int id), Some (T.String outcome) -> (id, outcome)
        | _ -> (-1, "?"))
      reports
  | _ -> []

let verdicts_of_reports reports : verdict list =
  List.map
    (fun rep ->
      ( rep.Mon.constraint_.Mon.id,
        match rep.Mon.outcome with C.Satisfied -> "satisfied" | C.Violated -> "violated" ))
    reports

(* A request on the wire: its id and line, and whether it is a mutation
   or a delete (which must report [removed]). *)
type sent = { rid : int; line : string; mut : bool; removes : bool }

let next_id = ref 0

let sent_line req =
  incr next_id;
  let mut, removes =
    match req with P.Insert _ -> (true, false) | P.Delete _ -> (true, true) | _ -> (false, false)
  in
  let line = P.request_to_line ~id:(T.Int !next_id) req in
  ({ rid = !next_id; line; mut; removes }, line)

(* Check one reply against the request it answers: its body, or [None]
   when it is wrong (the run's failure is recorded).  A mutation's usual
   reply is compared as text first; its body is then [Null]. *)
let check_reply r e (line, _) =
  let usual =
    Printf.sprintf "{\"id\":%d,\"ok\":true%s}" e.rid (if e.removes then ",\"removed\":true" else "")
  in
  match if e.mut && line = usual then None else Some (P.parse_response line) with
  | None ->
    M.attempt r true;
    Some T.Null
  | exception P.Malformed msg ->
    M.attempt r false;
    M.problem r "malformed reply: %s" msg;
    None
  | Some resp ->
    let ok =
      resp.P.ok
      && resp.P.id = Some (T.Int e.rid)
      && ((not e.removes) || Json.member "removed" resp.P.body = Some (T.Bool true))
    in
    M.attempt r ok;
    if not ok then begin
      M.problem r "bad reply to %s: %s" e.line
        (if String.length line > 200 then String.sub line 0 200 else line);
      None
    end
    else Some resp.P.body

(* Send [reqs] and check their replies, in order; the last reply's body
   and read time, or [None] when a reply was wrong. *)
let exchange r conn reqs ~deadline =
  let sent = List.map (fun req -> let e, line = sent_line req in send conn line; e) reqs in
  List.fold_left
    (fun acc e ->
      let ((_, t) as l) = next_line conn ~deadline in
      match (check_reply r e l, acc) with
      | Some body, Some _ -> Some (body, t, fst l)
      | _ -> None)
    (Some (T.Null, 0., "")) sent

(* Start a daemon, register the suite and answer the first validate:
   one set-up, as [setup_s] times it. *)
let setup ~fcv r ~tag =
  let t0 = M.now () in
  let d = spawn ~fcv ~tag in
  let conn = connect d.sock in
  let reqs = List.map (fun source -> P.Register { source; id = None }) constraints @ [ P.Validate ] in
  ignore (exchange r conn reqs ~deadline:(M.now () +. 120.));
  (d, conn, M.now () -. t0)

(* -- driving the daemon ---------------------------------------------------------- *)

type daemon_run = {
  acks : M.samples;  (** ms from a burst's send to its last ack *)
  validates : M.samples;  (** validate round trips, ms *)
  reply_bytes : M.samples;  (** validate reply lines *)
  final : verdict list;  (** the last validate's verdicts *)
  rounds : string list list;  (** each round's mutation lines *)
  muts : P.request list;  (** every mutation sent, in order *)
}

let drive r ~m conn =
  let acks = M.samples () and validates = M.samples () and reply_bytes = M.samples () in
  let rounds_sent = ref [] and muts = ref [] and final = ref [] in
  (try
     for _ = 1 to rounds do
       let reqs = next_burst m in
       let lines = List.map (fun req -> P.request_to_line req) reqs in
       let t0 = M.now () in
       let deadline = t0 +. 120. in
       (* one sample per burst, at its last ack: the four acks leave
          together behind one group commit *)
       (match exchange r conn reqs ~deadline with
       | Some (_, t, _) -> M.add acks ((t -. t0) *. 1000.)
       | None -> ());
       rounds_sent := lines :: !rounds_sent;
       muts := List.rev_append reqs !muts;
       let t1 = M.now () in
       match exchange r conn [ P.Validate ] ~deadline with
       | Some (body, t, text) ->
         M.add validates ((t -. t1) *. 1000.);
         M.add reply_bytes (float (String.length text));
         final := verdicts_of_json body
       | None -> ()
     done
   with Stalled msg ->
     M.attempt r false;
     M.problem r "watch: %s" msg);
  {
    acks;
    validates;
    reply_bytes;
    final = !final;
    rounds = List.rev !rounds_sent;
    muts = List.rev !muts;
  }

(* -- in-process replay ------------------------------------------------------------ *)

(* What the plain replay times at the tier's entry points, from outside
   the program and with its telemetry off. *)
type probe = {
  meter : M.wal_meter;
  parse_us : M.samples;
  apply_us : M.samples;  (** Tier.apply minus its WAL appends *)
  targets : M.samples;
  register_ms : M.samples;
  commit_wait_ms : M.samples;
  validate_ms : M.samples;
  checks_ms : M.samples;  (** the fresh reports' own check time, per pass *)
  unreported_ms : M.samples;
  fresh_ratio : M.samples;
}

let probe () =
  {
    meter = M.wal_meter ();
    parse_us = M.samples ();
    apply_us = M.samples ();
    targets = M.samples ();
    register_ms = M.samples ();
    commit_wait_ms = M.samples ();
    validate_ms = M.samples ();
    checks_ms = M.samples ();
    unreported_ms = M.samples ();
    fresh_ratio = M.samples ();
  }

type replayer = {
  tier : Tier.t;
  probe : probe option;
  mutable unflushed : float list;  (** apply end times since the last flush *)
  validates : M.samples;
  mutable last : verdict list;
}

let replayer ~dir ~probe r =
  let tier, _ =
    Tier.recover ~max_nodes ~shards ~fsync:true ~state_dir:dir ~load_base:(load_base "data") ()
  in
  Tier.set_jobs tier jobs;
  List.iter
    (fun source ->
      let t0 = M.now () in
      (match Tier.register tier source with
      | _ -> M.attempt r true
      | exception e ->
        M.attempt r false;
        M.problem r "replay: register failed: %s" (Printexc.to_string e));
      Option.iter (fun p -> M.add p.register_ms (M.ms_since t0)) probe)
    constraints;
  Tier.flush tier;
  ignore (Tier.validate tier);
  { tier; probe; unflushed = []; validates = M.samples (); last = [] }

let flush rp =
  Tier.flush rp.tier;
  let t = M.now () in
  Option.iter
    (fun p -> List.iter (fun applied -> M.add p.commit_wait_ms ((t -. applied) *. 1000.)) rp.unflushed)
    rp.probe;
  rp.unflushed <- []

(* One request line as the server handles it: parse, route, apply,
   group-commit when the window fills. *)
let apply_line r rp line =
  let t0 = M.now () in
  let parsed = P.parse_request line in
  Option.iter (fun p -> M.add p.parse_us ((M.now () -. t0) *. 1e6)) rp.probe;
  match parsed with
  | Error (_, msg) ->
    M.attempt r false;
    M.problem r "replay: unparseable request: %s" msg
  | Ok (_, req) ->
    Option.iter
      (fun p -> M.add p.targets (float (List.length (Tier.targets rp.tier req))))
      rp.probe;
    let appended0 = match rp.probe with Some p -> p.meter.M.append_s | None -> 0. in
    let t1 = M.now () in
    let res = Tier.apply rp.tier req in
    let t2 = M.now () in
    Option.iter
      (fun p -> M.add p.apply_us (((t2 -. t1) -. (p.meter.M.append_s -. appended0)) *. 1e6))
      rp.probe;
    let ok =
      match (res, req) with
      | Ok fields, P.Delete _ -> List.assoc_opt "removed" fields = Some (T.Bool true)
      | Ok _, _ -> true
      | Error _, _ -> false
    in
    M.attempt r ok;
    if not ok then M.problem r "replay: request rejected: %s" line;
    rp.unflushed <- t2 :: rp.unflushed;
    if Tier.pending rp.tier >= group_commit then flush rp

let validate rp =
  let t0 = M.now () in
  let reports = Tier.validate rp.tier in
  let ms = M.ms_since t0 in
  M.add rp.validates ms;
  rp.last <- verdicts_of_reports reports;
  Option.iter
    (fun p ->
      M.add p.validate_ms ms;
      let fresh = List.filter (fun rep -> rep.Mon.fresh) reports in
      let checks = List.fold_left (fun a rep -> a +. rep.Mon.elapsed_ms) 0. fresh in
      M.add p.checks_ms checks;
      M.add p.unreported_ms (ms -. checks);
      M.add p.fresh_ratio (M.ratio (float (List.length fresh)) (float (List.length reports))))
    rp.probe

(* The end of a server round: group commit, then the snapshot
   lifecycle. *)
let end_round rp =
  flush rp;
  Tier.auto_snapshot rp.tier ~every:snapshot_every

(* -- the output check -------------------------------------------------------------- *)

let compare_verdicts r ~what want got =
  let ok = want = got && want <> [] in
  M.attempt r ok;
  if not ok then
    M.problem r "%s: final verdicts differ (%d against %d reports)" what (List.length want)
      (List.length got)

(* Replay every mutation sent, in order, on a fresh in-memory tier; its
   verdicts must be the daemon's. *)
let oracle r (d : daemon_run) =
  let tier =
    (* no node budget: verdicts do not depend on it, and this replay
       runs no validate (hence no GC) until the end *)
    Tier.create_fresh ~fsync:false ~max_nodes:0 ~shards ~load_base:(load_base "data") ()
  in
  List.iter (fun source -> ignore (Tier.register tier source)) constraints;
  List.iter
    (fun req ->
      if Result.is_error (Tier.apply tier req) then
        M.problem r "oracle: a mutation the daemon accepted was rejected")
    d.muts;
  let v = verdicts_of_reports (Tier.validate tier) in
  Tier.close tier;
  compare_verdicts r ~what:"daemon against the in-process replay" v d.final

(* -- the traced run ----------------------------------------------------------------- *)

let monitors rp = List.map Shard.monitor (Array.to_list (Tier.shards rp.tier))
let indexes rp = List.map Mon.index (monitors rp)

(* The program's spans whose totals the traced replay reads. *)
let span_names =
  [ "replica.hydrate"; "replica.delta"; "replica.snapshot"; "typing"; "rewrite"; "compile"; "verdict" ]

type counters = {
  kernel : Layers.reading;
  gc_runs : int;
  reclaimed : int;
  recycles : int;
  planner : Core.Planner.stats;
  hydration : Core.Replica.stats;
  structure : int;
  spans : (string * float) list;  (** ms *)
}

(* Read between timed sections only: [Manager.stats] and the lifecycle
   statistics walk the node store. *)
let read_counters rp =
  let ix = indexes rp in
  let sum f xs = List.fold_left (fun a x -> a + f x) 0 xs in
  let ls = List.map Core.Index.lifecycle_stats ix in
  let ps = List.map (fun m -> Core.Planner.stats (Mon.planner m)) (monitors rp) in
  let rs = List.filter_map Mon.replica_stats (monitors rp) in
  {
    kernel = Layers.read (List.map Core.Index.mgr ix);
    gc_runs = sum (fun l -> l.Core.Index.gc_runs) ls;
    reclaimed = sum (fun l -> l.Core.Index.gc_reclaimed) ls;
    recycles = sum (fun l -> l.Core.Index.level_recycles) ls;
    planner =
      {
        Core.Planner.hits = sum (fun p -> p.Core.Planner.hits) ps;
        misses = sum (fun p -> p.Core.Planner.misses) ps;
        probes = sum (fun p -> p.Core.Planner.probes) ps;
        replans = sum (fun p -> p.Core.Planner.replans) ps;
      };
    hydration =
      {
        Core.Replica.full = sum (fun h -> h.Core.Replica.full) rs;
        delta = sum (fun h -> h.Core.Replica.delta) rs;
        delta_ops = sum (fun h -> h.Core.Replica.delta_ops) rs;
        snapshot_bytes = 0;
        delta_bytes = 0;
      };
    structure = sum (fun i -> i.Core.Index.structure_version) ix;
    spans = List.map (fun n -> (n, M.span_ms n)) span_names;
  }

(* Replay the daemon run's rounds in process, from a compacted heap.
   With [probe] it is the plain replay, timed from outside with the
   program's telemetry off; with [traced] the program's telemetry is
   on.  Returns the replayer and the counters read on either side of
   the rounds. *)
let replay r rounds ~tag ~probe ~traced =
  Gc.compact ();
  let go () =
    let rp = replayer ~dir:(M.fresh_dir ("replay-" ^ tag)) ~probe r in
    let before = read_counters rp in
    let serve () =
      List.iter
        (fun lines ->
          List.iter (apply_line r rp) lines;
          end_round rp;
          validate rp;
          end_round rp)
        rounds
    in
    (match probe with Some p -> M.with_wal_meter p.meter serve | None -> serve ());
    (rp, before, read_counters rp)
  in
  if not traced then go ()
  else begin
    T.reset ();
    T.enable ();
    Fun.protect ~finally:T.disable go
  end

(* The per-layer metrics of the plain replay: timings and counters. *)
let set_plain r rp p ~(before : counters) ~(after : counters) =
  let set = M.metric r in
  let per_pass x = x /. float (max 1 (M.count p.validate_ms)) in
  let muts = float (max 1 (M.count p.apply_us)) in
  set "frontend.parse_us" (M.mean p.parse_us);
  set "tier.apply_us" (M.mean p.apply_us);
  set "tier.targets_per_mut" (M.mean p.targets);
  set "tier.register_ms" (M.mean p.register_ms);
  let meter = p.meter in
  set "wal.append_us" (1e6 *. meter.M.append_s /. float (max 1 meter.M.appends));
  set "wal.fsync_ms.p50" (M.p50 meter.M.fsync_ms);
  Option.iter (fun (_, v) -> set "wal.fsync_ms.tail" v) (M.tail meter.M.fsync_ms);
  set "wal.fsyncs_per_mut" (float (M.count meter.M.fsync_ms) /. muts);
  set "wal.commit_wait_ms" (M.mean p.commit_wait_ms);
  set "wal.bytes_per_mut" (float (meter.M.append_bytes + meter.M.file_bytes) /. muts);
  set "monitor.validate_ms" (M.mean p.validate_ms);
  set "monitor.fresh_ratio" (M.mean p.fresh_ratio);
  set "monitor.unreported_ms" (M.mean p.unreported_ms);
  let d f = float (f after - f before) in
  let hits = d (fun c -> c.planner.Core.Planner.hits)
  and misses = d (fun c -> c.planner.Core.Planner.misses) in
  set "planner.hit_ratio" (M.ratio hits (hits +. misses));
  set "planner.probes" (d (fun c -> c.planner.Core.Planner.probes));
  set "planner.replans" (d (fun c -> c.planner.Core.Planner.replans));
  let uses_sql m reg =
    match Mon.explain m reg.Mon.id with
    | Some (_, plan) -> plan.Core.Planner.choice = Core.Planner.Use_sql
    | None -> false
  in
  set "planner.sql_choices"
    (float
       (List.fold_left
          (fun acc m -> acc + List.length (List.filter (uses_sql m) (Mon.constraints m)))
          0 (monitors rp)));
  set "lifecycle.gc_runs" (d (fun c -> c.gc_runs));
  set "lifecycle.reclaimed_nodes" (d (fun c -> c.reclaimed));
  set "lifecycle.recycles" (d (fun c -> c.recycles));
  (* the checks' own time over the workers' capacity during validates
     (the pool.task histogram counts a task inside its worker's drain
     span too, so it holds each busy millisecond twice) *)
  set "pool.busy_share" (M.ratio (M.sum p.checks_ms) (float jobs *. M.sum p.validate_ms));
  set "replica.full" (per_pass (d (fun c -> c.hydration.Core.Replica.full)));
  set "replica.delta" (per_pass (d (fun c -> c.hydration.Core.Replica.delta)));
  set "replica.delta_ops" (per_pass (d (fun c -> c.hydration.Core.Replica.delta_ops)));
  set "index.structure_changes" (d (fun c -> c.structure));
  Layers.set_kernel r (Layers.delta ~before:before.kernel ~after:after.kernel)
    ~passes:(M.count p.validate_ms);
  let fsum f = List.fold_left (fun a i -> a +. f i) 0. (indexes rp) in
  set "bdd.peak_nodes" (fsum (fun i -> float (Core.Index.peak_nodes i)));
  set "index.build_ms"
    (fsum (fun i ->
         1000.
         *. List.fold_left (fun a e -> a +. e.Core.Index.build_time) 0. (Core.Index.entries i)));
  set "index.live_nodes" (fsum (fun i -> float (Core.Index.live_nodes i)))

(* The per-layer metrics of the traced replay: the program's spans and
   the kernel's op counts, which it keeps only while telemetry is on. *)
let set_traced r ~passes ~(before : counters) ~(after : counters) =
  let per_pass x = x /. float (max 1 passes) in
  let span name = List.assoc name after.spans -. List.assoc name before.spans in
  M.metric r "replica.hydrate_ms"
    (per_pass (span "replica.hydrate" +. span "replica.delta" +. span "replica.snapshot"));
  Layers.set_stages r ~per:(fun stage -> per_pass (span stage));
  Layers.set_ops r (Layers.delta ~before:before.kernel ~after:after.kernel) ~passes

(* The traced run: the daemon run's rounds replayed in process, once
   plain and once traced; the daemon's validate round trip against the
   plain replay's is what the socket and the server loop add. *)
let traced_run r (run : daemon_run) =
  let p = probe () in
  let plain, before, after = replay r run.rounds ~tag:"plain" ~probe:(Some p) ~traced:false in
  compare_verdicts r ~what:"daemon against the plain replay" run.final plain.last;
  set_plain r plain p ~before ~after;
  (* its idle worker domains would slow every stop-the-world pause of
     the traced replay *)
  Tier.close plain.tier;
  let traced, tbefore, tafter = replay r run.rounds ~tag:"traced" ~probe:None ~traced:true in
  compare_verdicts r ~what:"plain against the traced replay" plain.last traced.last;
  set_traced r ~passes:(M.count traced.validates) ~before:tbefore ~after:tafter;
  Tier.close traced.tier;
  M.metric r "frontend.reply_bytes" (M.mean run.reply_bytes);
  let daemon = run.validates and plain_v = plain.validates and traced_v = traced.validates in
  let e2e = M.mean daemon and explained = M.mean plain_v in
  M.metric r "frontend.unattributed_ms" (M.p50 daemon -. M.p50 plain_v);
  M.metric r "trace.explained_share" (M.ratio explained e2e);
  M.metric r "trace.unattributed_ms" (e2e -. explained);
  M.metric r "trace.overhead_share" (M.ratio (M.p50 traced_v) (M.p50 plain_v) -. 1.);
  M.metric r "trace.dropped_events" (float (T.dropped_events ()));
  Printf.printf "trace: validate p50 %.3f ms over the socket, %.3f ms replayed, %.3f ms traced\n"
    (M.p50 daemon) (M.p50 plain_v) (M.p50 traced_v);
  Printf.printf
    "trace: the replayed layers explain %.3f of %.3f ms per validate (%.1f%%); %.3f ms \
     unattributed\n"
    explained e2e (100. *. M.ratio explained e2e) (e2e -. explained);
  Printf.printf "trace: per replayed validate, ms: %.3f in reported checks, %.3f unreported\n"
    (M.mean p.checks_ms) (M.mean p.unreported_ms);
  Printf.printf "trace: %d telemetry events dropped\n" (T.dropped_events ())

let run ~fcv ~work ~seed ~seconds ~trace =
  let r = M.run () in
  if not (Sys.file_exists work) then Sys.mkdir work 0o755;
  Sys.chdir work;
  let db = write_data (M.fresh_dir "data") in
  Printf.printf "watch: university %d students, %d constraints, %d shard(s), -j %d\n%!" students
    (List.length constraints) shards jobs;
  let setup_s = M.samples () and peak_rss = M.samples () in
  let start = M.now () in
  (* one daemon: set up, [rounds] rounds, stopped, its outputs checked *)
  let daemon i =
    let d, conn, s = setup ~fcv r ~tag:(string_of_int i) in
    M.add setup_s s;
    let run = drive r ~m:(model ~seed:((seed * 1000) + i) db) conn in
    M.add peak_rss (M.peak_rss_mb d.pid);
    if not (stop_daemon d conn) then M.problem r "daemon %d did not stop cleanly" i;
    oracle r run;
    run
  in
  let rec daemons i acc =
    if i > 0 && (trace || M.now () -. start >= seconds || r.M.failed > 0) then List.rev acc
    else daemons (i + 1) (daemon i :: acc)
  in
  let runs = daemons 0 [] in
  Printf.printf "watch: %d daemon(s), %d rounds each\n%!" (List.length runs) rounds;
  if not trace then begin
    let pool f = M.merge (List.map f runs) in
    M.metric r "setup_s" (M.p50 setup_s);
    M.latency r "validate_ms" (pool (fun run -> run.validates));
    let acks = pool (fun run -> run.acks) in
    M.print_latency "ack_ms" acks;
    M.metric r "peak_rss_mb" (M.p50 peak_rss)
  end
  else traced_run r (List.hd runs);
  r
