(** Constraint-service tests: the wire protocol, WAL durability and
    torn-tail tolerance, snapshot/recovery parity against an
    uninterrupted run, and the live daemon — concurrent sessions,
    update coalescing, malformed-input isolation, timeouts, and the
    end-to-end crash/restart scenario.

    The daemon tests exploit {!Fcv_server.Server.poll}: most drive the
    event loop and raw client sockets deterministically from one
    thread; only the end-to-end test runs the loop on a real thread so
    the blocking {!Fcv_server.Client} can be used unchanged. *)

module P = Fcv_server.Protocol
module W = Fcv_server.Wal
module St = Fcv_server.State
module S = Fcv_server.Server
module Sh = Fcv_server.Shard
module Mu = Fcv_server.Mutator
module C = Fcv_server.Client
module T = Fcv_util.Telemetry
module R = Fcv_relation
module U = Fcv_datagen.University

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)
let check_verdicts = Alcotest.(check (list (pair int string)))

let tmpdir () =
  let path = Filename.temp_file "fcv" ".d" in
  Sys.remove path;
  Sys.mkdir path 0o700;
  path

(* -- protocol -------------------------------------------------------------- *)

let sample_requests =
  [
    P.Ping;
    P.Validate;
    P.Stats;
    P.Snapshot;
    P.Shutdown;
    P.Register { source = "forall s . student(s, 0, _) -> false"; id = None };
    P.Register { source = "x"; id = Some 3 };
    P.Unregister 2;
    P.Insert ("takes", [ "5"; "7" ]);
    P.Delete ("takes", [ "ann"; "cs101" ]);
  ]

let test_request_roundtrip () =
  List.iter
    (fun req ->
      match P.parse_request (P.request_to_line ~id:(T.Int 42) req) with
      | Ok (Some (T.Int 42), req') -> check (P.request_name req) true (req = req')
      | _ -> Alcotest.fail ("roundtrip failed for " ^ P.request_name req))
    sample_requests;
  (match P.parse_request (P.request_to_line P.Ping) with
  | Ok (None, P.Ping) -> ()
  | _ -> Alcotest.fail "id-less roundtrip");
  (* WAL records are request lines: logged() marks exactly the mutators *)
  check_int "mutating requests are the logged ones" 5
    (List.length (List.filter P.logged sample_requests))

let test_request_errors () =
  let code line =
    match P.parse_request line with
    | Error (c, _) -> P.error_code_name c
    | Ok _ -> "ok"
  in
  check_str "garbage json" "parse_error" (code "{nope");
  check_str "unknown op" "unknown_op" (code {|{"op":"frobnicate"}|});
  check_str "missing op" "bad_request" (code {|{"table":"t"}|});
  check_str "missing source" "bad_request" (code {|{"op":"register"}|});
  check_str "missing row" "bad_request" (code {|{"op":"insert","table":"t"}|});
  check_str "row not an array" "bad_request" (code {|{"op":"insert","table":"t","row":3}|})

let test_response_lines () =
  let r = P.parse_response (P.ok_line ~id:(T.Int 7) [ ("pong", T.Bool true) ]) in
  check "ok" true r.P.ok;
  check "id echoed" true (r.P.id = Some (T.Int 7));
  check "body field" true (T.Json.member "pong" r.P.body = Some (T.Bool true));
  let e = P.parse_response (P.error_line P.Unknown_table "no such table") in
  check "not ok" false e.P.ok;
  check "error code" true
    (T.Json.member "error" e.P.body = Some (T.String "unknown_table"));
  check "garbage response raises" true
    (match P.parse_response "]junk[" with
    | exception P.Malformed _ -> true
    | _ -> false)

let test_update_stream () =
  check "blank skipped" true (P.update_of_line "   " = None);
  check "comment skipped" true (P.update_of_line "# insert t,1" = None);
  check "insert" true
    (P.update_of_line "insert takes, 5, 7" = Some (P.U_insert ("takes", [ "5"; "7" ])));
  check "delete" true
    (P.update_of_line "delete takes,5,7" = Some (P.U_delete ("takes", [ "5"; "7" ])));
  check "validate" true (P.update_of_line " validate " = Some P.U_validate);
  check "malformed raises" true
    (match P.update_of_line "bogus" with
    | exception P.Malformed _ -> true
    | _ -> false);
  check "unknown command raises" true
    (match P.update_of_line "upsert t,1" with
    | exception P.Malformed _ -> true
    | _ -> false);
  check "to request" true
    (P.request_of_update (P.U_insert ("t", [ "1" ])) = P.Insert ("t", [ "1" ]))

let test_code_row () =
  let db = R.Database.create () in
  R.Database.add_domain db (R.Dict.of_int_range "d" 4);
  let _t = R.Database.create_table db ~name:"t" ~attrs:[ ("x", "d"); ("y", "d") ] in
  (match P.code_row db ~table:"t" [ "2"; "3" ] with
  | P.Coded [| 2; 3 |] -> ()
  | _ -> Alcotest.fail "known values code directly");
  (match P.code_row db ~table:"t" [ "2"; "9" ] with
  | P.Unknown_value "9" -> ()
  | _ -> Alcotest.fail "unseen value without intern");
  (match P.code_row ~intern:true db ~table:"t" [ "2"; "9" ] with
  | P.Coded [| 2; 4 |] -> ()
  | _ -> Alcotest.fail "intern assigns the next code");
  check "arity mismatch raises" true
    (match P.code_row db ~table:"t" [ "1" ] with
    | exception P.Malformed _ -> true
    | _ -> false);
  check "unknown table raises" true
    (match P.code_row db ~table:"nope" [ "1" ] with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* -- WAL ------------------------------------------------------------------- *)

let test_wal_roundtrip_and_torn_tail () =
  let dir = tmpdir () in
  let path = St.wal_path ~dir ~gen:0 in
  let reqs =
    [
      P.Register { source = "forall x . t(x) -> false"; id = Some 0 };
      P.Insert ("t", [ "1"; "2" ]);
      P.Delete ("t", [ "1"; "2" ]);
      P.Unregister 0;
    ]
  in
  let wal = W.open_ path in
  List.iter (W.append wal) reqs;
  check_int "appended counter" 4 (W.appended wal);
  W.close wal;
  let got = ref [] in
  check_int "replays all records" 4 (W.replay path ~f:(fun r -> got := r :: !got));
  check "same records, same order" true (List.rev !got = reqs);
  (* a crash mid-append leaves a torn record: ignored — and truncated,
     so the log stays appendable *)
  let oc = open_out_gen [ Open_append ] 0o644 path in
  output_string oc "{\"op\":\"ins";
  close_out oc;
  check_int "torn tail ignored" 4 (W.replay path ~f:ignore);
  (* the double-crash regression: a record acknowledged after that
     recovery must land after the valid prefix (not concatenated onto
     the partial), so the NEXT recovery still sees it *)
  let wal = W.open_ path in
  W.append wal (P.Insert ("t", [ "9" ]));
  W.close wal;
  check_int "post-recovery appends survive another crash" 5 (W.replay path ~f:ignore);
  (* garbage mid-file: everything from the first bad line on is
     unusable, even valid-looking records after it *)
  let oc = open_out_gen [ Open_append ] 0o644 path in
  output_string oc "ga rbage\n";
  output_string oc (P.request_to_line (P.Insert ("t", [ "7" ])) ^ "\n");
  close_out oc;
  check_int "replay stops at the first bad record" 5 (W.replay path ~f:ignore);
  (* a complete-looking final record without its newline was never
     fully written: not replayed, truncated like any torn tail *)
  let oc = open_out_gen [ Open_append ] 0o644 path in
  output_string oc (P.request_to_line (P.Insert ("t", [ "8" ])));
  close_out oc;
  check_int "newline-less tail not replayed" 5 (W.replay path ~f:ignore);
  check_int "missing file replays nothing" 0
    (W.replay (Filename.concat dir "absent.log") ~f:ignore)

(* -- snapshots ------------------------------------------------------------- *)

let univ_cfg = { U.default with U.students = 80; courses = 20; takes_per_student = 2 }

let make_base ?(seed = 7) () =
  let db, _, _, _ = U.generate (Fcv_util.Rng.create seed) univ_cfg in
  db

let curriculum = "forall s . student(s, 0, _) -> (exists c . course(c, 0) and takes(s, c))"
let enrolment = "forall s . student(s, _, _) -> (exists c . takes(s, c))"
let referential = "forall s, c . takes(s, c) -> (exists a . course(c, a))"
let sources = [ curriculum; enrolment; referential ]

let outcome_name = function
  | Core.Checker.Satisfied -> "satisfied"
  | Core.Checker.Violated -> "violated"

let verdicts_of_monitor mon =
  List.sort compare
    (List.map
       (fun r -> (r.Core.Monitor.constraint_.Core.Monitor.id, outcome_name r.Core.Monitor.outcome))
       (Core.Monitor.validate mon))

let verdicts_of_body body =
  match T.Json.member "reports" body with
  | Some (T.List reports) ->
    List.sort compare
      (List.map
         (fun r ->
           match (T.Json.member "constraint" r, T.Json.member "outcome" r) with
           | Some (T.Int id), Some (T.String o) -> (id, o)
           | _ -> Alcotest.fail "malformed report")
         reports)
  | _ -> Alcotest.fail "validate response without reports"

let test_db_dump_roundtrip () =
  let db = make_base () in
  (* growth after generation: code order must survive verbatim, and
     escaping must keep framing characters in values intact *)
  let dict = R.Database.domain db "course_id" in
  ignore (R.Dict.intern dict (R.Value.Int 999));
  ignore (R.Dict.intern dict (R.Value.Str "weird\tvalue\nnewline"));
  let buf = Buffer.create 4096 in
  St.save_db db buf;
  let db' = St.load_db (Buffer.contents buf) in
  check "same domains" true (R.Database.domain_names db' = R.Database.domain_names db);
  List.iter
    (fun name ->
      check ("dict verbatim: " ^ name) true
        (R.Dict.to_list (R.Database.domain db' name) = R.Dict.to_list (R.Database.domain db name)))
    (R.Database.domain_names db);
  check "same tables" true (R.Database.table_names db' = R.Database.table_names db);
  List.iter
    (fun name ->
      let t = R.Database.table db name and t' = R.Database.table db' name in
      check_int ("cardinality: " ^ name) (R.Table.cardinality t) (R.Table.cardinality t');
      let rows tbl =
        let acc = ref [] in
        R.Table.iter tbl (fun row -> acc := Array.copy row :: !acc);
        List.rev !acc
      in
      check ("rows verbatim: " ^ name) true (rows t = rows t'))
    (R.Database.table_names db)

(* Satellite: build server state, append WAL records, simulate a kill
   by dropping the in-memory monitor, recover from snapshot + WAL, and
   compare every verdict against an uninterrupted run of the same
   stream.  The stream grows domains mid-way (entry rebuilds) and a
   validation runs before the snapshot (scratch blocks allocated), so
   the snapshot exercises the variable renumbering in Index_io. *)
let test_crash_recovery_matches_uninterrupted_run () =
  let dir = tmpdir () in
  let r0 = Sh.recover ~state_dir:dir ~load_base:make_base () in
  let monitor = r0.Sh.monitor in
  check "fresh directory: no snapshot" false r0.Sh.from_snapshot;
  check_int "fresh directory: empty wal" 0 r0.Sh.replayed;
  let upd i =
    if i = 60 then P.Insert ("student", [ "777"; "0"; "3" ]) (* domain growth: rebuild *)
    else if i = 61 then P.Insert ("takes", [ "777"; "0" ])
    else if i = 140 then P.Delete ("course", [ "3"; "3" ]) (* dangling takes rows *)
    else if i mod 3 = 2 then
      P.Delete ("takes", [ string_of_int ((i - 2) mod 80); string_of_int ((i - 2) mod 20) ])
    else P.Insert ("takes", [ string_of_int (i mod 80); string_of_int (i mod 20) ])
  in
  let reqs =
    List.map (fun s -> P.Register { source = s; id = None }) sources
    @ List.init 200 upd
  in
  let wal = ref (W.open_ (St.wal_path ~dir ~gen:0)) in
  List.iteri
    (fun i req ->
      Mu.apply_logged monitor req;
      W.append !wal req;
      if i = 80 then begin
        (* a check ran before the snapshot: scratch blocks are live *)
        ignore (Core.Monitor.validate monitor);
        (* snapshot the way the server does: the new generation brings
           its own fresh WAL *)
        let gen = St.save ~dir monitor in
        W.close !wal;
        wal := W.open_ (St.wal_path ~dir ~gen)
      end)
    reqs;
  W.close !wal;
  (* the kill: [monitor] is dropped, only dir survives *)
  let r = Sh.recover ~state_dir:dir ~load_base:make_base () in
  let recovered = r.Sh.monitor in
  check "recovered from snapshot" true r.Sh.from_snapshot;
  check_int "replayed exactly the post-snapshot records" (List.length reqs - 81) r.Sh.replayed;
  check_int "constraints recovered under their ids" 3
    (List.length (Core.Monitor.constraints recovered));
  let reference = (Sh.recover ~state_dir:(tmpdir ()) ~load_base:make_base ()).Sh.monitor in
  List.iter (Mu.apply_logged reference) reqs;
  let expected = verdicts_of_monitor reference in
  check_verdicts "recovered verdicts match the uninterrupted run" expected
    (verdicts_of_monitor recovered);
  check "the stream produced a violation" true
    (List.exists (fun (_, o) -> o = "violated") expected)

(* Regression: a crash landing between the CURRENT rename and the old
   log's sweep must not replay the pre-snapshot WAL on top of the new
   snapshot (which used to abort recovery on the first re-registered
   id).  The WAL is generation-scoped: whichever generation CURRENT
   names, recovery reads that generation's log and no other. *)
let test_snapshot_commits_atomically_with_wal () =
  let dir = tmpdir () in
  let monitor = (Sh.recover ~state_dir:dir ~load_base:make_base ()).Sh.monitor in
  let reqs =
    List.map (fun s -> P.Register { source = s; id = None }) sources
    @ List.init 40 (fun i ->
          P.Insert ("takes", [ string_of_int (i mod 80); string_of_int (i mod 20) ]))
  in
  let wal0 = St.wal_path ~dir ~gen:0 in
  let wal = W.open_ wal0 in
  List.iter
    (fun req ->
      Mu.apply_logged monitor req;
      W.append wal req)
    reqs;
  W.close wal;
  let old_log = In_channel.with_open_bin wal0 In_channel.input_all in
  let gen =
    St.save ~dir
      ~prepare_wal:(fun ~gen -> Out_channel.with_open_bin (St.wal_path ~dir ~gen) ignore)
      monitor
  in
  check_int "first snapshot generation" 1 gen;
  (* resurrect the pre-snapshot log exactly as an unfinished sweep
     would leave it *)
  Out_channel.with_open_bin wal0 (fun oc -> Out_channel.output_string oc old_log);
  let r = Sh.recover ~state_dir:dir ~load_base:make_base () in
  check "recovered from the snapshot" true r.Sh.from_snapshot;
  check_int "stale pre-snapshot log not replayed" 0 r.Sh.replayed;
  check_int "constraints intact" 3 (List.length (Core.Monitor.constraints r.Sh.monitor));
  check_verdicts "verdicts preserved" (verdicts_of_monitor monitor)
    (verdicts_of_monitor r.Sh.monitor);
  (* the next snapshot sweeps every stale generation's files *)
  ignore (St.save ~dir r.Sh.monitor);
  check "stale logs swept" false (Sys.file_exists wal0)

(* Unregistering must stick across restarts, even for constraints that
   a [--constraints] startup file keeps offering: the tombstone is
   carried through WAL replay and persisted in snapshots. *)
let test_unregister_tombstones_survive_recovery () =
  let dir = tmpdir () in
  let monitor = (Sh.recover ~state_dir:dir ~load_base:make_base ()).Sh.monitor in
  let append_all gen reqs =
    let wal = W.open_ (St.wal_path ~dir ~gen) in
    List.iter
      (fun req ->
        Mu.apply_logged monitor req;
        W.append wal req)
      reqs;
    W.close wal
  in
  append_all 0
    [
      P.Register { source = curriculum; id = Some 0 };
      P.Register { source = enrolment; id = Some 1 };
    ];
  let gen = St.save ~dir monitor in
  (* the unregister arrives after the snapshot, so only the WAL has it *)
  append_all gen [ P.Unregister 0 ];
  let r = Sh.recover ~state_dir:dir ~load_base:make_base () in
  check_int "one constraint left" 1 (List.length (Core.Monitor.constraints r.Sh.monitor));
  check "unregistered source tombstoned" true (List.mem curriculum r.Sh.unregistered);
  check "live source not tombstoned" false (List.mem enrolment r.Sh.unregistered);
  (* a snapshot absorbs the unregister; the tombstone must survive it *)
  ignore (St.save ~dir ~unregistered:r.Sh.unregistered r.Sh.monitor);
  let r2 = Sh.recover ~state_dir:dir ~load_base:make_base () in
  check "tombstone persisted through the snapshot" true
    (List.mem curriculum r2.Sh.unregistered);
  (* re-registering digs the source up again *)
  append_all (St.current_gen ~dir) [ P.Register { source = curriculum; id = Some 5 } ];
  let r3 = Sh.recover ~state_dir:dir ~load_base:make_base () in
  check "re-register clears the tombstone" false (List.mem curriculum r3.Sh.unregistered);
  check_int "both constraints live again" 2
    (List.length (Core.Monitor.constraints r3.Sh.monitor))

(* -- driving the daemon and raw clients from one thread -------------------- *)

let raw_connect path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX path);
  fd

let raw_send fd line =
  let s = line ^ "\n" in
  ignore (Unix.write_substring fd s 0 (String.length s))

(* Poll the server until [fd] has yielded [want] lines (or EOF, if
   [want] is more than the server will send). *)
let pump srv fd ~want =
  let buf = Buffer.create 256 in
  let bytes = Bytes.create 65536 in
  let eof = ref false in
  let lines () =
    String.split_on_char '\n' (Buffer.contents buf) |> List.filter (( <> ) "")
  in
  let rounds = ref 0 in
  while (not !eof) && List.length (lines ()) < want && !rounds < 500 do
    incr rounds;
    ignore (S.poll ~timeout:0.01 srv);
    match Unix.select [ fd ] [] [] 0. with
    | [ _ ], _, _ ->
      let n = Unix.read fd bytes 0 (Bytes.length bytes) in
      if n = 0 then eof := true else Buffer.add_subbytes buf bytes 0 n
    | _ -> ()
  done;
  (lines (), !eof)

let in_memory_server ?(tweak = Fun.id) () =
  let sock = Filename.concat (tmpdir ()) "fcv.sock" in
  let monitor = Core.Monitor.create (Core.Index.create (make_base ())) in
  let config = tweak (S.default_config ~addr:sock) in
  (S.create config monitor, sock)

let test_coalesced_validation () =
  let srv, sock = in_memory_server () in
  let fd1 = raw_connect sock and fd2 = raw_connect sock in
  raw_send fd1 (P.request_to_line (P.Register { source = curriculum; id = None }));
  (* a fresh CS student with no enrolments: deterministic violation,
     via a code the index has never seen (transparent rebuild) *)
  raw_send fd1 (P.request_to_line (P.Insert ("student", [ "999"; "0"; "0" ])));
  raw_send fd1 (P.request_to_line P.Validate);
  raw_send fd2 (P.request_to_line P.Validate);
  let lines1, _ = pump srv fd1 ~want:3 in
  let lines2, _ = pump srv fd2 ~want:1 in
  (match List.map P.parse_response lines1 with
  | [ reg; ins; va ] ->
    check "register ok" true reg.P.ok;
    check "insert ok" true ins.P.ok;
    check "validate ok" true va.P.ok;
    check "violation found" true (T.Json.member "violated" va.P.body = Some (T.Int 1))
  | _ -> Alcotest.fail "session 1: expected three responses");
  (match List.map P.parse_response lines2 with
  | [ va2 ] ->
    check "second session validated" true va2.P.ok;
    (* both sessions were answered by ONE dirty-set pass: had the
       passes been sequential, the second would have reported a cached
       (fresh = false) verdict *)
    let fresh body =
      match T.Json.member "reports" body with
      | Some (T.List [ r ]) -> T.Json.member "fresh" r = Some (T.Bool true)
      | _ -> false
    in
    check "shared pass is fresh for both" true (fresh va2.P.body);
    check "identical verdicts" true
      (verdicts_of_body va2.P.body
      = verdicts_of_body (List.nth (List.map P.parse_response lines1) 2).P.body)
  | _ -> Alcotest.fail "session 2: expected one response");
  Unix.close fd1;
  Unix.close fd2;
  S.stop srv

let test_malformed_input_isolation () =
  let srv, sock = in_memory_server () in
  let fd1 = raw_connect sock and fd2 = raw_connect sock in
  raw_send fd1 "{this is not json";
  raw_send fd1 {|{"op":"frobnicate"}|};
  raw_send fd1 {|{"op":"insert","table":"takes"}|};
  raw_send fd1 {|{"op":"insert","table":"nope","row":["1","2"]}|};
  raw_send fd1 {|{"op":"insert","table":"takes","row":["1"]}|};
  raw_send fd1 {|{"op":"register","source":"forall x . ("}|};
  raw_send fd2 (P.request_to_line P.Ping);
  raw_send fd1 (P.request_to_line P.Ping);
  let lines1, eof1 = pump srv fd1 ~want:7 in
  let lines2, _ = pump srv fd2 ~want:1 in
  check "bad session not dropped" false eof1;
  check_int "every bad line answered" 7 (List.length lines1);
  let codes =
    List.map
      (fun l ->
        let r = P.parse_response l in
        if r.P.ok then "ok"
        else
          match T.Json.member "error" r.P.body with
          | Some (T.String c) -> c
          | _ -> "?")
      lines1
  in
  check "error codes in order" true
    (codes
    = [
        "parse_error"; "unknown_op"; "bad_request"; "unknown_table"; "bad_request";
        "constraint_error"; "ok";
      ]);
  (match lines2 with
  | [ l ] -> check "other session unaffected" true (P.parse_response l).P.ok
  | _ -> Alcotest.fail "session 2: expected pong");
  Unix.close fd1;
  Unix.close fd2;
  S.stop srv

let test_partial_line_timeout () =
  let srv, sock =
    in_memory_server ~tweak:(fun c -> { c with S.partial_timeout = 0.05 }) ()
  in
  let fd = raw_connect sock in
  ignore (Unix.write_substring fd "{\"op\":\"pi" 0 9);
  ignore (S.poll ~timeout:0.01 srv);
  ignore (S.poll ~timeout:0.01 srv);
  Unix.sleepf 0.08;
  let _, eof = pump srv fd ~want:1 in
  check "half-received request times out" true eof;
  Unix.close fd;
  S.stop srv

let test_connect_during_drain_refused () =
  let srv, sock = in_memory_server () in
  S.request_drain srv;
  (* connect lands in the backlog before the drain round runs: the
     server must refuse it with [shutting_down], not leave it hanging *)
  let fd = raw_connect sock in
  let lines, _ = pump srv fd ~want:1 in
  (match lines with
  | [ l ] ->
    let r = P.parse_response l in
    check "refused" false r.P.ok;
    check "shutting_down code" true
      (T.Json.member "error" r.P.body = Some (T.String "shutting_down"))
  | _ -> Alcotest.fail "expected exactly the shutting_down refusal");
  Unix.close fd;
  check "server stopped after drain" false (S.poll ~timeout:0.01 srv)

let test_oversized_line_rejected () =
  let srv, sock = in_memory_server ~tweak:(fun c -> { c with S.max_line = 64 }) () in
  let fd = raw_connect sock in
  raw_send fd (String.make 200 'x');
  let lines, eof = pump srv fd ~want:2 in
  (match lines with
  | [ l ] ->
    let r = P.parse_response l in
    check "rejected" false r.P.ok
  | _ -> Alcotest.fail "expected exactly the rejection response");
  check "session closed" true eof;
  Unix.close fd;
  S.stop srv

(* -- end to end ------------------------------------------------------------ *)

(* The acceptance scenario: three constraints registered over a
   generated database, >= 1k interleaved inserts/deletes streamed from
   two concurrent connections, a validation, a kill mid-stream, a
   restart recovering from snapshot + WAL, the rest of the stream, and
   final verdicts matching a single-process Monitor replay. *)
let test_e2e_crash_restart_parity () =
  let dir = tmpdir () in
  let sock = Filename.concat (tmpdir ()) "fcv.sock" in
  let ops =
    List.init 1200 (fun i ->
        if i = 700 then P.U_delete ("course", [ "5"; "5" ]) (* leaves dangling takes *)
        else if i = 901 then P.U_insert ("takes", [ "42"; "999" ]) (* domain growth *)
        else if i mod 3 = 2 then
          P.U_delete ("takes", [ string_of_int ((i - 2) mod 80); string_of_int ((i - 2) mod 20) ])
        else P.U_insert ("takes", [ string_of_int (i mod 80); string_of_int (i mod 20) ]))
  in
  let start () =
    let r = Sh.recover ~state_dir:dir ~load_base:make_base () in
    let config =
      {
        (S.default_config ~addr:sock) with
        S.state_dir = Some dir;
        snapshot_every = 200;
        idle_timeout = 0.;
        partial_timeout = 0.;
      }
    in
    let srv = S.create ~unregistered:r.Sh.unregistered config r.Sh.monitor in
    let th = Thread.create (fun () -> while S.poll ~timeout:0.02 srv do () done) () in
    (srv, th)
  in
  let take n l = List.filteri (fun i _ -> i < n) l in
  let drop n l = List.filteri (fun i _ -> i >= n) l in
  let stream c1 c2 chunk =
    List.iteri
      (fun i u ->
        ignore (C.ok_exn (C.request (if i mod 2 = 0 then c1 else c2) (P.request_of_update u))))
      chunk
  in
  (* phase 1: register, stream the first half from two connections *)
  let srv1, th1 = start () in
  let c1 = C.connect sock and c2 = C.connect sock in
  let ids =
    List.map
      (fun s ->
        match T.Json.member "constraint" (C.ok_exn (C.request c1 (P.Register { source = s; id = None }))) with
        | Some (T.Int i) -> i
        | _ -> Alcotest.fail "register returned no id")
      sources
  in
  check "ids are 0, 1, 2" true (ids = [ 0; 1; 2 ]);
  stream c1 c2 (take 600 ops);
  let mid = verdicts_of_body (C.ok_exn (C.request c2 P.Validate)) in
  (* the kill: no final snapshot; state dir survives as-is *)
  S.kill srv1;
  Thread.join th1;
  C.close c1;
  C.close c2;
  (* phase 2: restart recovers snapshot + WAL, stream the rest *)
  let srv2, th2 = start () in
  check "auto-snapshot happened before the kill" true
    (Sys.file_exists (Filename.concat dir "CURRENT"));
  let c3 = C.connect sock and c4 = C.connect sock in
  (match T.Json.member "constraints" (C.ok_exn (C.request c3 P.Stats)) with
  | Some (T.Int 3) -> ()
  | _ -> Alcotest.fail "restart lost constraints");
  let mid' = verdicts_of_body (C.ok_exn (C.request c4 P.Validate)) in
  check_verdicts "verdicts identical across the crash" mid mid';
  stream c3 c4 (drop 600 ops);
  let final = verdicts_of_body (C.ok_exn (C.request c3 P.Validate)) in
  check "final state is violated" true (List.exists (fun (_, o) -> o = "violated") final);
  (* graceful drain cuts a last snapshot *)
  (match C.request c4 P.Shutdown with
  | r -> check "drain acknowledged" true r.P.ok
  | exception End_of_file -> Alcotest.fail "shutdown not acknowledged");
  Thread.join th2;
  ignore srv2;
  C.close c3;
  C.close c4;
  (* the reference: one Monitor, same stream, single process *)
  let reference = (Sh.recover ~state_dir:(tmpdir ()) ~load_base:make_base ()).Sh.monitor in
  List.iter (fun s -> ignore (Core.Monitor.add reference s)) sources;
  List.iter (fun u -> Mu.apply_logged reference (P.request_of_update u)) (take 600 ops);
  check_verdicts "mid-stream parity with single-process replay"
    (verdicts_of_monitor reference) mid;
  List.iter (fun u -> Mu.apply_logged reference (P.request_of_update u)) (drop 600 ops);
  check_verdicts "final parity with single-process replay"
    (verdicts_of_monitor reference) final;
  (* and the post-shutdown snapshot alone reproduces them once more *)
  let r = Sh.recover ~state_dir:dir ~load_base:make_base () in
  check "final snapshot present" true r.Sh.from_snapshot;
  check_int "wal empty after graceful shutdown" 0 r.Sh.replayed;
  check_verdicts "snapshot-only recovery reproduces the final verdicts" final
    (verdicts_of_monitor r.Sh.monitor)

(* Pipelining e2e: one client writes K requests — client-chosen ids
   0..K-1 on a mix of register / insert / delete / ping / validate —
   in a SINGLE send, with the server polling from its own thread and a
   group-commit window smaller than the burst.  Exactly K replies must
   come back, ids in request order (several flush batches, never a
   reorder), every one ok. *)
let test_pipelined_burst_in_order () =
  let sock = Filename.concat (tmpdir ()) "fcv.sock" in
  let monitor = Core.Monitor.create (Core.Index.create (make_base ())) in
  let config =
    {
      (S.default_config ~addr:sock) with
      S.idle_timeout = 0.;
      partial_timeout = 0.;
      group_commit_window = 4;
    }
  in
  let srv = S.create config monitor in
  let th = Thread.create (fun () -> while S.poll ~timeout:0.02 srv do () done) () in
  let k = 25 in
  let reqs =
    List.init k (fun i ->
        let req =
          if i = 0 then P.Register { source = curriculum; id = None }
          else if i mod 5 = 4 then P.Validate
          else if i mod 5 = 3 then P.Ping
          else if i mod 2 = 0 then
            P.Insert ("takes", [ string_of_int (i mod 80); string_of_int (i mod 20) ])
          else
            P.Delete ("takes", [ string_of_int ((i - 1) mod 80); string_of_int ((i - 1) mod 20) ])
        in
        P.request_to_line ~id:(T.Int i) req)
  in
  let payload = String.concat "\n" reqs ^ "\n" in
  let fd = raw_connect sock in
  ignore (Unix.write_substring fd payload 0 (String.length payload));
  let buf = Buffer.create 4096 in
  let bytes = Bytes.create 65536 in
  let deadline = Unix.gettimeofday () +. 10. in
  let lines () =
    String.split_on_char '\n' (Buffer.contents buf) |> List.filter (( <> ) "")
  in
  while List.length (lines ()) < k && Unix.gettimeofday () < deadline do
    match Unix.select [ fd ] [] [] 0.2 with
    | [ _ ], _, _ ->
      let n = Unix.read fd bytes 0 (Bytes.length bytes) in
      if n = 0 then Alcotest.fail "server closed mid-burst"
      else Buffer.add_subbytes buf bytes 0 n
    | _ -> ()
  done;
  let replies = List.map P.parse_response (lines ()) in
  check_int "one reply per pipelined request" k (List.length replies);
  List.iteri
    (fun i r ->
      check (Printf.sprintf "reply %d carries id %d (in order)" i i) true
        (r.P.id = Some (T.Int i));
      check (Printf.sprintf "reply %d ok" i) true r.P.ok)
    replies;
  Unix.close fd;
  S.kill srv;
  Thread.join th

let suite =
  [
    Alcotest.test_case "request roundtrip" `Quick test_request_roundtrip;
    Alcotest.test_case "request errors" `Quick test_request_errors;
    Alcotest.test_case "response lines" `Quick test_response_lines;
    Alcotest.test_case "update stream" `Quick test_update_stream;
    Alcotest.test_case "code_row" `Quick test_code_row;
    Alcotest.test_case "wal roundtrip / torn tail" `Quick test_wal_roundtrip_and_torn_tail;
    Alcotest.test_case "db dump roundtrip" `Quick test_db_dump_roundtrip;
    Alcotest.test_case "crash recovery parity" `Quick
      test_crash_recovery_matches_uninterrupted_run;
    Alcotest.test_case "snapshot commits atomically with its wal" `Quick
      test_snapshot_commits_atomically_with_wal;
    Alcotest.test_case "unregister tombstones survive recovery" `Quick
      test_unregister_tombstones_survive_recovery;
    Alcotest.test_case "coalesced validation" `Quick test_coalesced_validation;
    Alcotest.test_case "connect during drain refused" `Quick
      test_connect_during_drain_refused;
    Alcotest.test_case "malformed-input isolation" `Quick test_malformed_input_isolation;
    Alcotest.test_case "partial-line timeout" `Quick test_partial_line_timeout;
    Alcotest.test_case "oversized line rejected" `Quick test_oversized_line_rejected;
    Alcotest.test_case "e2e crash/restart parity" `Quick test_e2e_crash_restart_parity;
    Alcotest.test_case "pipelined burst answered in order" `Quick
      test_pipelined_burst_in_order;
  ]

let () = Registry.register "server" suite
