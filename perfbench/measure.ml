(* Sample statistics, the result line, and the meters the workloads
   read from outside the program: a timing Vfs backend and the kernel's
   peak resident set from /proc. *)

module T = Fcv_util.Telemetry
module Vfs = Fcv_server.Vfs

let now = Fcv_util.Timer.now
let ms_since t0 = (now () -. t0) *. 1000.

(* -- samples --------------------------------------------------------------- *)

type samples = { mutable xs : float array; mutable n : int }

let samples () = { xs = Array.make 256 0.; n = 0 }

let add s x =
  if s.n = Array.length s.xs then begin
    let bigger = Array.make (2 * s.n) 0. in
    Array.blit s.xs 0 bigger 0 s.n;
    s.xs <- bigger
  end;
  s.xs.(s.n) <- x;
  s.n <- s.n + 1

let count s = s.n

(* One sample holding all of [ss]'s values. *)
let merge ss =
  let m = samples () in
  List.iter (fun s -> for i = 0 to s.n - 1 do add m s.xs.(i) done) ss;
  m

let sum s =
  let acc = ref 0. in
  for i = 0 to s.n - 1 do
    acc := !acc +. s.xs.(i)
  done;
  !acc

let mean s = if s.n = 0 then 0. else sum s /. float s.n

let sorted s =
  let a = Array.sub s.xs 0 s.n in
  Array.sort compare a;
  a

(* Nearest-rank percentile, [p] in tenths of a percent. *)
let rank n p = ((p * n) + 999) / 1000

let percentile_sorted a p =
  let n = Array.length a in
  if n = 0 then 0. else a.(max 0 (min (n - 1) (rank n p - 1)))

let p50 s = percentile_sorted (sorted s) 500

let minimum s =
  let m = ref infinity in
  for i = 0 to s.n - 1 do
    m := Float.min !m s.xs.(i)
  done;
  !m

(* The tail is the highest percentile with at least ten samples beyond
   it: the eleventh-largest sample, at percentile 100 (1 - 10/n). *)
let tail s =
  let a = sorted s in
  let n = Array.length a in
  if n < 11 then None else Some (100. *. (1. -. (10. /. float n)), a.(n - 11))

(* -- the run's outcome ---------------------------------------------------- *)

type run = {
  mutable metrics : (string * float) list;  (** reversed *)
  mutable attempted : int;
  mutable failed : int;
  mutable problems : string list;  (** reversed *)
}

let run () = { metrics = []; attempted = 0; failed = 0; problems = [] }

let metric r name value = r.metrics <- (name, value) :: r.metrics

let problem r fmt =
  Printf.ksprintf
    (fun msg ->
      if List.length r.problems < 20 then r.problems <- msg :: r.problems;
      Printf.printf "FAIL: %s\n%!" msg)
    fmt

(* One attempted operation; [ok = false] counts it failed. *)
let attempt r ok =
  r.attempted <- r.attempted + 1;
  if not ok then r.failed <- r.failed + 1

(* A latency sample printed with its count, minimum, 10th percentile,
   median and tail (with its rank). *)
let print_latency name s =
  let a = sorted s in
  Printf.printf "  %s: %d samples, min %.4f ms, p10 %.4f ms, p50 %.4f ms" name (count s)
    (minimum s) (percentile_sorted a 100) (percentile_sorted a 500);
  match tail s with
  | Some (p, v) -> Printf.printf ", tail %.4f ms (p%.2f)\n" v p
  | None -> Printf.printf ", too few for a tail\n"

(* A latency sample's metric is its minimum, [<name>.min]: on a shared
   host the slower samples of a run measure the neighbours as much as
   the program (README.md, stability).  The rest of the sample is
   printed beside it. *)
let latency r name s =
  metric r (name ^ ".min") (minimum s);
  print_latency name s

(* The metric catalogue, one list of BENCHMARK.json ([end_to_end] or
   [per_layer]): names and units, in its order. *)
let catalogue ~spec key =
  let json = T.Json.of_string (In_channel.with_open_text spec In_channel.input_all) in
  let field k m = match T.Json.member k m with Some (T.String s) -> s | _ -> failwith (spec ^ ": a " ^ key ^ " entry lacks " ^ k) in
  match T.Json.member key json with
  | Some (T.List ms) -> List.map (fun m -> (field "name" m, field "unit" m)) ms
  | _ -> failwith (spec ^ ": no " ^ key ^ " list")

let json_float v = Printf.sprintf "%.17g" v

(* Print the catalogue's metrics, then the one JSON result line (last on
   stdout).  A metric the run set outside the catalogue fails the run;
   so does a catalogued one it did not set, unless [fill], when it reads
   0 (a layer the workload does not run). *)
let finish r ~catalogue ~fill =
  List.iter
    (fun (name, _) ->
      if not (List.mem_assoc name catalogue) then problem r "metric %s is not in BENCHMARK.json" name)
    r.metrics;
  let metrics =
    List.filter_map
      (fun (name, unit_) ->
        match List.assoc_opt name r.metrics with
        | Some v ->
          if not (Float.is_finite v) then problem r "metric %s is not finite" name;
          Some (name, v, unit_)
        | None when fill -> Some (name, 0., unit_)
        | None ->
          problem r "metric %s was not measured" name;
          None)
      catalogue
  in
  let correct = r.problems = [] && r.failed = 0 && r.attempted > 0 in
  Printf.printf "\n%-32s %18s  %s\n" "metric" "value" "unit";
  List.iter (fun (name, v, u) -> Printf.printf "%-32s %18.6f  %s\n" name v u) metrics;
  Printf.printf "attempted %d, failed %d, failed_share %.6f, correct %b\n" r.attempted
    r.failed
    (if r.attempted = 0 then 1. else float r.failed /. float r.attempted)
    correct;
  let fields =
    List.map
      (fun (name, v, u) ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name
          (json_float (if Float.is_finite v then v else 0.))
          u)
      metrics
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct (max 1 r.attempted) r.failed (String.concat ", " fields);
  correct

(* -- peak resident set ---------------------------------------------------- *)

(* VmHWM of a process, in MiB. *)
let peak_rss_mb pid =
  let path = Printf.sprintf "/proc/%s/status" (if pid = 0 then "self" else string_of_int pid) in
  In_channel.with_open_text path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.find_map (fun line ->
         match String.split_on_char ':' line with
         | [ "VmHWM"; rest ] -> Scanf.sscanf_opt (String.trim rest) "%d kB" (fun kb -> float kb /. 1024.)
         | _ -> None)
  |> Option.value ~default:0.

(* -- a timing file-system backend ----------------------------------------- *)

type wal_meter = {
  mutable appends : int;
  mutable append_s : float;
  mutable append_bytes : int;
  fsync_ms : samples;
  mutable file_bytes : int;
}

let wal_meter () =
  { appends = 0; append_s = 0.; append_bytes = 0; fsync_ms = samples (); file_bytes = 0 }

(* Run [f] with every WAL append, fsync and whole-file (snapshot)
   write timed on the way to the real file system. *)
let with_wal_meter m f =
  let r = Vfs.real in
  let backend =
    {
      r with
      Vfs.b_append =
        (fun h s ->
          let t0 = now () in
          r.Vfs.b_append h s;
          m.append_s <- m.append_s +. (now () -. t0);
          m.appends <- m.appends + 1;
          m.append_bytes <- m.append_bytes + String.length s);
      b_fsync =
        (fun h ->
          let t0 = now () in
          r.Vfs.b_fsync h;
          add m.fsync_ms (ms_since t0));
      b_write_file =
        (fun path s ->
          r.Vfs.b_write_file path s;
          m.file_bytes <- m.file_bytes + String.length s);
    }
  in
  Vfs.with_backend backend f

(* -- program spans -------------------------------------------------------- *)

(* The total ms of the program's [span.<name>] histogram — complete,
   unlike the capped event list. *)
let span_ms name = T.histogram_sum (T.histogram ("span." ^ name))

(* -- files ---------------------------------------------------------------- *)

let rec rm_rf path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let fresh_dir path =
  rm_rf path;
  Sys.mkdir path 0o755;
  path

let ratio a b = if b = 0. then 0. else a /. b
