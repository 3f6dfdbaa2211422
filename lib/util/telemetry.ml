(** Zero-dependency counters / gauges / histograms / spans with
    JSON-lines export.  See the interface for the design rationale;
    the implementation notes below cover only what the types cannot:

    - recording entry points check one [bool ref] first so the
      disabled path costs a load and a branch;
    - histograms are log₂-bucketed: bucket [i] covers
      [2^(i-offset), 2^(i-offset+1)), with [offset] placing 1.0 in the
      middle of the range so both sub-microsecond and multi-minute
      observations land in real buckets;
    - the event buffer is capped; once full, further events are counted
      as dropped rather than recorded, so a runaway loop cannot eat the
      heap. *)

type json =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of json list
  | Obj of (string * json) list

module Json = struct
  exception Parse_error of string

  (* The writer appends straight into one buffer: runs of bytes that
     need no escaping are copied whole, and numbers are written digit
     by digit, with no intermediate string. *)

  let hex_digits = "0123456789abcdef"

  (* The end of the run from [i] that needs no escaping. *)
  let rec clean_run s i n =
    if i < n then
      let c = String.unsafe_get s i in
      if c >= ' ' && c <> '"' && c <> '\\' then clean_run s (i + 1) n else i
    else n

  (* [s] from byte [i] on, escaped *)
  let rec escape buf s i =
    let n = String.length s in
    let j = clean_run s i n in
    if j > i then Buffer.add_substring buf s i (j - i);
    if j < n then begin
      (match String.unsafe_get s j with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c ->
        Buffer.add_string buf "\\u00";
        Buffer.add_char buf hex_digits.[Char.code c lsr 4];
        Buffer.add_char buf hex_digits.[Char.code c land 15]);
      escape buf s (j + 1)
    end

  (* The decimal digits of [n <= 0], without its sign: counting on the
     negative side keeps [min_int] exact. *)
  let rec add_digits buf n =
    if n <= -10 then add_digits buf (n / 10);
    Buffer.add_char buf (Char.unsafe_chr (Char.code '0' - (n mod 10)))

  (* The primitive [Printf]'s [%g] ends in. *)
  external format_float : string -> float -> string = "caml_format_float"

  let rec write buf = function
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (if b then "true" else "false")
    | Int i ->
      if i < 0 then Buffer.add_char buf '-';
      add_digits buf (if i < 0 then i else -i)
    | Float f ->
      (* JSON has no infinities or NaN *)
      if not (Float.is_finite f) then Buffer.add_string buf "null"
      else if Float.is_integer f && Float.abs f < 1e15 then begin
        (* exact as an int; printed as [%.1f] would, [-0.0] included *)
        if Float.sign_bit f then Buffer.add_char buf '-';
        add_digits buf (-int_of_float (Float.abs f));
        Buffer.add_string buf ".0"
      end
      else Buffer.add_string buf (format_float "%.12g" f)
    | String s ->
      Buffer.add_char buf '"';
      escape buf s 0;
      Buffer.add_char buf '"'
    | List xs ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i x ->
          if i > 0 then Buffer.add_char buf ',';
          write buf x)
        xs;
      Buffer.add_char buf ']'
    | Obj fields ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          Buffer.add_char buf '"';
          escape buf k 0;
          Buffer.add_string buf "\":";
          write buf v)
        fields;
      Buffer.add_char buf '}'

  (* Sized for a reply line: a mutation's ack and a WAL record fit, and
     a buffer this small is still a minor-heap allocation (a larger
     start made each short line pay for a major-heap block). *)
  let to_string j =
    let buf = Buffer.create 1024 in
    write buf j;
    Buffer.contents buf

  (* Recursive-descent parser for JSON text: numbers only in JSON's
     grammar (an [Int] when the number has no fraction or exponent and
     fits), no raw control bytes in strings, and [\uXXXX] escapes
     decoded to UTF-8.  A string's runs of plain bytes are copied
     whole. *)
  let of_string s =
    let n = String.length s in
    let pos = ref 0 in
    let fail msg = raise (Parse_error (Printf.sprintf "%s at offset %d" msg !pos)) in
    (* the byte at [!pos]; NUL past the end, which no valid text holds
       outside a string *)
    let peek () = if !pos < n then String.unsafe_get s !pos else '\000' in
    let advance () = incr pos in
    let rec skip_ws () =
      match peek () with
      | ' ' | '\t' | '\n' | '\r' ->
        advance ();
        skip_ws ()
      | _ -> ()
    in
    let expect c =
      if !pos < n && s.[!pos] = c then advance () else fail (Printf.sprintf "expected '%c'" c)
    in
    let literal word value =
      let l = String.length word in
      if !pos + l <= n && String.sub s !pos l = word then begin
        pos := !pos + l;
        value
      end
      else fail ("expected " ^ word)
    in
    (* the four hex digits after the 'u' at [!pos]; moves past them *)
    let hex4 () =
      if !pos + 4 >= n then fail "truncated \\u escape";
      let digit = function
        | '0' .. '9' as c -> Char.code c - Char.code '0'
        | 'a' .. 'f' as c -> Char.code c - Char.code 'a' + 10
        | 'A' .. 'F' as c -> Char.code c - Char.code 'A' + 10
        | _ -> fail "bad \\u escape"
      in
      let v = ref 0 in
      for k = 1 to 4 do
        v := (!v lsl 4) lor digit s.[!pos + k]
      done;
      pos := !pos + 5;
      !v
    in
    (* the escape whose backslash is at [!pos], into [buf] *)
    let unescape buf =
      advance ();
      if !pos >= n then fail "unterminated escape";
      let add c =
        Buffer.add_char buf c;
        advance ()
      in
      match s.[!pos] with
      | '"' -> add '"'
      | '\\' -> add '\\'
      | '/' -> add '/'
      | 'n' -> add '\n'
      | 'r' -> add '\r'
      | 't' -> add '\t'
      | 'b' -> add '\b'
      | 'f' -> add '\012'
      | 'u' ->
        let code = hex4 () in
        let code =
          if code >= 0xDC00 && code <= 0xDFFF then fail "lone surrogate"
          else if code >= 0xD800 && code <= 0xDBFF then begin
            (* a high surrogate only as the first of a pair *)
            if !pos + 1 >= n || s.[!pos] <> '\\' || s.[!pos + 1] <> 'u' then
              fail "lone surrogate";
            advance ();
            let low = hex4 () in
            if low < 0xDC00 || low > 0xDFFF then fail "lone surrogate";
            0x10000 + ((code - 0xD800) lsl 10) + (low - 0xDC00)
          end
          else code
        in
        Buffer.add_utf_8_uchar buf (Uchar.of_int code)
      | _ -> fail "bad escape"
    in
    (* the run of plain bytes from [!pos] up to its closing quote or
       first escape; a string without escapes is one [String.sub] *)
    let parse_string () =
      expect '"';
      let start = !pos in
      let j = clean_run s start n in
      if j < n && s.[j] = '"' then begin
        pos := j + 1;
        String.sub s start (j - start)
      end
      else begin
        let buf = Buffer.create (j - start + 16) in
        let rec go i =
          let j = clean_run s i n in
          Buffer.add_substring buf s i (j - i);
          pos := j;
          if j >= n then fail "unterminated string"
          else
            match s.[j] with
            | '"' -> advance ()
            | '\\' ->
              unescape buf;
              go !pos
            | _ -> fail "raw control byte in string"
        in
        go start;
        Buffer.contents buf
      end
    in
    (* an optional minus, then 0 or a digit run not starting with 0,
       an optional fraction of one or more digits, and an optional
       exponent: e or E, an optional sign, one or more digits *)
    let parse_number () =
      let start = !pos in
      let digits () =
        let from = !pos in
        while !pos < n && s.[!pos] >= '0' && s.[!pos] <= '9' do
          advance ()
        done;
        if !pos = from then fail "bad number"
      in
      if peek () = '-' then advance ();
      (match peek () with
      | '0' -> advance ()
      | '1' .. '9' -> digits ()
      | _ -> fail "bad number");
      let integral = ref true in
      if peek () = '.' then begin
        advance ();
        integral := false;
        digits ()
      end;
      (match peek () with
      | 'e' | 'E' ->
        advance ();
        integral := false;
        (match peek () with '+' | '-' -> advance () | _ -> ());
        digits ()
      | _ -> ());
      let text = String.sub s start (!pos - start) in
      match if !integral then int_of_string_opt text else None with
      | Some i -> Int i
      | None -> Float (float_of_string text)
    in
    let rec parse_value () =
      skip_ws ();
      match peek () with
      | '{' ->
        advance ();
        skip_ws ();
        if peek () = '}' then begin
          advance ();
          Obj []
        end
        else begin
          let rec fields acc =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | ',' ->
              advance ();
              fields ((k, v) :: acc)
            | '}' ->
              advance ();
              List.rev ((k, v) :: acc)
            | _ -> fail "expected ',' or '}'"
          in
          Obj (fields [])
        end
      | '[' ->
        advance ();
        skip_ws ();
        if peek () = ']' then begin
          advance ();
          List []
        end
        else begin
          let rec elems acc =
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | ',' ->
              advance ();
              elems (v :: acc)
            | ']' ->
              advance ();
              List.rev (v :: acc)
            | _ -> fail "expected ',' or ']'"
          in
          List (elems [])
        end
      | '"' -> String (parse_string ())
      | 't' -> literal "true" (Bool true)
      | 'f' -> literal "false" (Bool false)
      | 'n' -> literal "null" Null
      | '-' | '0' .. '9' -> parse_number ()
      | _ -> if !pos >= n then fail "unexpected end of input" else fail "unexpected byte"
    in
    let v = parse_value () in
    skip_ws ();
    if !pos <> n then fail "trailing input";
    v

  let member key = function
    | Obj fields -> List.assoc_opt key fields
    | _ -> None
end

(* -- state ----------------------------------------------------------------- *)

type counter = { c_name : string; mutable count : int }

type gauge = { g_name : string; mutable value : int; mutable peak : int }

let hist_buckets = 64

(* bucket i covers [2^(i-offset), 2^(i-offset+1)); offset 24 spans
   roughly 6e-8 .. 1.1e12 in the observation's unit *)
let hist_offset = 24

type histogram = {
  h_name : string;
  buckets : int array;
  mutable n : int;
  mutable sum : float;
  mutable mn : float;
  mutable mx : float;
}

let on = ref false

(* One global lock makes the module domain-safe: worker domains of the
   validation pool record spans/counters concurrently with the main
   domain.  The disabled fast path (a load of [on]) stays lock-free;
   recording under the lock is microseconds, far below the
   milliseconds-scale work it instruments. *)
let lock = Mutex.create ()

let locked f =
  Mutex.lock lock;
  match f () with
  | v ->
    Mutex.unlock lock;
    v
  | exception e ->
    Mutex.unlock lock;
    raise e

let counters : (string, counter) Hashtbl.t = Hashtbl.create 64
let gauges : (string, gauge) Hashtbl.t = Hashtbl.create 16
let histograms : (string, histogram) Hashtbl.t = Hashtbl.create 16

let max_events = 200_000
let event_log : json list ref = ref [] (* newest first *)
let event_count = ref 0
let dropped = ref 0
let seq = ref 0
let epoch = ref 0.

(* Span nesting is per domain: concurrent pool tasks each get their
   own path, instead of interleaving into one global stack. *)
let span_stack : string list ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref [])

let enabled () = !on

let reset () =
  locked @@ fun () ->
  Hashtbl.iter (fun _ c -> c.count <- 0) counters;
  Hashtbl.iter
    (fun _ g ->
      g.value <- 0;
      g.peak <- 0)
    gauges;
  Hashtbl.iter
    (fun _ h ->
      Array.fill h.buckets 0 hist_buckets 0;
      h.n <- 0;
      h.sum <- 0.;
      h.mn <- infinity;
      h.mx <- neg_infinity)
    histograms;
  event_log := [];
  event_count := 0;
  dropped := 0;
  seq := 0;
  Domain.DLS.get span_stack := [];
  epoch := Unix.gettimeofday ()

let enable () =
  on := true;
  epoch := Unix.gettimeofday ()

let disable () = on := false

(* -- instruments ----------------------------------------------------------- *)

let counter name =
  locked @@ fun () ->
  match Hashtbl.find_opt counters name with
  | Some c -> c
  | None ->
    let c = { c_name = name; count = 0 } in
    Hashtbl.replace counters name c;
    c

let incr ?(by = 1) c = if !on then locked (fun () -> c.count <- c.count + by)

let counter_value c = c.count

let gauge name =
  locked @@ fun () ->
  match Hashtbl.find_opt gauges name with
  | Some g -> g
  | None ->
    let g = { g_name = name; value = 0; peak = 0 } in
    Hashtbl.replace gauges name g;
    g

let gauge_set g v =
  if !on then
    locked (fun () ->
        g.value <- v;
        if v > g.peak then g.peak <- v)

let gauge_value g = g.value
let gauge_peak g = g.peak

let histogram name =
  locked @@ fun () ->
  match Hashtbl.find_opt histograms name with
  | Some h -> h
  | None ->
    let h =
      {
        h_name = name;
        buckets = Array.make hist_buckets 0;
        n = 0;
        sum = 0.;
        mn = infinity;
        mx = neg_infinity;
      }
    in
    Hashtbl.replace histograms name h;
    h

let bucket_of v =
  if v <= 0. then 0
  else
    let b = int_of_float (Float.floor (Float.log2 v)) + hist_offset in
    max 0 (min (hist_buckets - 1) b)

let bucket_lo i = Float.pow 2. (float_of_int (i - hist_offset))

let observe h v =
  if !on then
    locked (fun () ->
        h.buckets.(bucket_of v) <- h.buckets.(bucket_of v) + 1;
        h.n <- h.n + 1;
        h.sum <- h.sum +. v;
        if v < h.mn then h.mn <- v;
        if v > h.mx then h.mx <- v)

let histogram_count h = h.n
let histogram_sum h = h.sum

let histogram_buckets h =
  let out = ref [] in
  for i = hist_buckets - 1 downto 0 do
    if h.buckets.(i) > 0 then out := (bucket_lo i, h.buckets.(i)) :: !out
  done;
  !out

(* -- events and spans ------------------------------------------------------- *)

let record kind fields =
  if !on then
    locked (fun () ->
        if !event_count >= max_events then Stdlib.incr dropped
        else begin
          Stdlib.incr seq;
          Stdlib.incr event_count;
          let ev =
            Obj
              (("seq", Int !seq)
              :: ("t_ms", Float ((Unix.gettimeofday () -. !epoch) *. 1000.))
              :: ("kind", String kind)
              :: fields)
          in
          event_log := ev :: !event_log
        end)

let event kind fields = record kind fields

let with_span name f =
  if not !on then f ()
  else begin
    let t0 = Unix.gettimeofday () in
    let stack = Domain.DLS.get span_stack in
    stack := name :: !stack;
    Fun.protect
      ~finally:(fun () ->
        let path = String.concat "/" (List.rev !stack) in
        stack := (match !stack with [] -> [] | _ :: tl -> tl);
        let ms = (Unix.gettimeofday () -. t0) *. 1000. in
        observe (histogram ("span." ^ name)) ms;
        record "span" [ ("name", String name); ("path", String path); ("ms", Float ms) ])
      f
  end

let events () = locked (fun () -> List.rev !event_log)
let dropped_events () = !dropped

(* -- export ----------------------------------------------------------------- *)

let sorted_by_name to_pair tbl =
  Hashtbl.fold (fun _ v acc -> v :: acc) tbl []
  |> List.map to_pair
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let summary_lines () =
  locked @@ fun () ->
  let cs =
    sorted_by_name (fun c -> (c.c_name, c)) counters
    |> List.filter_map (fun (name, c) ->
           if c.count = 0 then None
           else
             Some
               (Obj
                  [ ("kind", String "counter"); ("name", String name); ("value", Int c.count) ]))
  in
  let gs =
    sorted_by_name (fun g -> (g.g_name, g)) gauges
    |> List.filter_map (fun (name, g) ->
           if g.peak = 0 && g.value = 0 then None
           else
             Some
               (Obj
                  [
                    ("kind", String "gauge");
                    ("name", String name);
                    ("value", Int g.value);
                    ("peak", Int g.peak);
                  ]))
  in
  let hs =
    sorted_by_name (fun h -> (h.h_name, h)) histograms
    |> List.filter_map (fun (name, h) ->
           if h.n = 0 then None
           else
             Some
               (Obj
                  [
                    ("kind", String "histogram");
                    ("name", String name);
                    ("count", Int h.n);
                    ("sum", Float h.sum);
                    ("min", Float h.mn);
                    ("max", Float h.mx);
                    ( "buckets",
                      List
                        (List.map
                           (fun (lo, n) -> List [ Float lo; Int n ])
                           (histogram_buckets h)) );
                  ]))
  in
  cs @ gs @ hs

let jsonl () =
  let lines = List.map Json.to_string (events () @ summary_lines ()) in
  let lines =
    if !dropped > 0 then
      lines
      @ [
          Json.to_string
            (Obj [ ("kind", String "dropped_events"); ("value", Int !dropped) ]);
        ]
    else lines
  in
  String.concat "\n" lines ^ if lines = [] then "" else "\n"

let write_jsonl path =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc (jsonl ()))

let print_summary oc =
  locked @@ fun () ->
  let p fmt = Printf.fprintf oc fmt in
  let counters_l =
    sorted_by_name (fun c -> (c.c_name, c)) counters
    |> List.filter (fun (_, c) -> c.count <> 0)
  in
  if counters_l <> [] then begin
    p "counters:\n";
    List.iter (fun (name, c) -> p "  %-44s %12d\n" name c.count) counters_l
  end;
  let gauges_l =
    sorted_by_name (fun g -> (g.g_name, g)) gauges
    |> List.filter (fun (_, g) -> g.value <> 0 || g.peak <> 0)
  in
  if gauges_l <> [] then begin
    p "gauges (value / peak):\n";
    List.iter (fun (name, g) -> p "  %-44s %12d / %d\n" name g.value g.peak) gauges_l
  end;
  let hists_l =
    sorted_by_name (fun h -> (h.h_name, h)) histograms
    |> List.filter (fun (_, h) -> h.n > 0)
  in
  if hists_l <> [] then begin
    p "histograms (count / sum / min / max):\n";
    List.iter
      (fun (name, h) ->
        p "  %-44s %8d / %10.3f / %8.4f / %10.3f\n" name h.n h.sum h.mn h.mx)
      hists_l
  end;
  if !dropped > 0 then p "(%d events dropped past the %d-event buffer cap)\n" !dropped max_events
