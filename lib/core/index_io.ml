(** Persistence for the logical index store: save every entry's
    metadata and BDD to one file; reload against the same database
    (same tables, same dictionary contents) without re-encoding.

    The file begins with a manifest of the entries (table, attribute
    names, ordering, per-attribute domain sizes — restored verbatim,
    since block widths fix both the variable layout and the packed
    count keys; a dictionary smaller than a saved domain is rejected
    as drift), followed by one {!Fcv_bdd.Io} section with all roots. *)

module R = Fcv_relation
module M = Fcv_bdd.Manager
module Fd = Fcv_bdd.Fd

exception Format_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Format_error s)) fmt

let magic = "fcv-index 1"

let save_gen index put =
  let entries = List.rev (Index.entries index) in
  (* Compact the variable numbering: the live manager also carries
     scratch blocks and the dead blocks of rebuilt entries, but [load]
     re-allocates only the saved blocks (per entry, in ordering
     sequence).  Saving raw variable ids would therefore shift or
     overflow on reload, so renumber to exactly the layout [load]
     recreates. *)
  let remap = Hashtbl.create 64 in
  let next_var = ref 0 in
  List.iter
    (fun e ->
      Array.iter
        (fun k ->
          Array.iter
            (fun lvl ->
              Hashtbl.replace remap lvl !next_var;
              incr next_var)
            e.Index.blocks.(k).Fd.levels)
        e.Index.order)
    entries;
  let rename v =
    match Hashtbl.find_opt remap v with
    | Some v' -> v'
    | None -> fail "index BDD references variable %d outside its entry blocks" v
  in
  let pr fmt = Printf.ksprintf put fmt in
  pr "%s\n" magic;
  pr "entries %d\n" (List.length entries);
  List.iter
    (fun e ->
      let table = e.Index.table in
      let schema = R.Table.schema table in
      let attr_names =
        Array.to_list e.Index.attrs
        |> List.map (fun p -> schema.(p).R.Schema.name)
      in
      let dom_sizes =
        Array.to_list e.Index.blocks |> List.map (fun b -> string_of_int b.Fd.dom_size)
      in
      pr "entry %s\n" (R.Table.name table);
      pr "attrs %s\n" (String.concat " " attr_names);
      pr "order %s\n"
        (String.concat " " (Array.to_list e.Index.order |> List.map string_of_int));
      pr "domains %s\n" (String.concat " " dom_sizes);
      (* the maintenance multiset *)
      pr "counts %d\n" (Hashtbl.length e.Index.counts);
      Hashtbl.iter (fun k c -> pr "%d %d\n" k c) e.Index.counts)
    entries;
  put
    (Fcv_bdd.Io.save_string ~rename ~nvars:!next_var (Index.mgr index)
       ~roots:(List.map (fun e -> e.Index.root) entries))

let save index oc = save_gen index (output_string oc)

let save_string index =
  let buf = Buffer.create 4096 in
  save_gen index (Buffer.add_string buf);
  Buffer.contents buf

(** Rebuild an index store against [db] from [next_line] (a pull
    source of lines; [None] = end of input).  Blocks are re-allocated
    in the same level order, so roots load unchanged.
    @raise Format_error on malformed input or when a table's current
    dictionary sizes disagree with the saved ones. *)
let load_lines db next_line =
  let line () =
    match next_line () with Some l -> l | None -> fail "unexpected end of file"
  in
  let words s = String.split_on_char ' ' (String.trim s) |> List.filter (( <> ) "") in
  if String.trim (line ()) <> magic then fail "bad magic";
  let count =
    match words (line ()) with
    | [ "entries"; n ] -> int_of_string n
    | _ -> fail "expected entries"
  in
  let index = Index.create db in
  let mgr = Index.mgr index in
  let metas =
    List.init count (fun _ ->
        let table_name =
          match words (line ()) with
          | [ "entry"; t ] -> t
          | _ -> fail "expected entry"
        in
        let attr_names =
          match words (line ()) with
          | "attrs" :: rest -> rest
          | _ -> fail "expected attrs"
        in
        let order =
          match words (line ()) with
          | "order" :: rest -> Array.of_list (List.map int_of_string rest)
          | _ -> fail "expected order"
        in
        let dom_sizes =
          match words (line ()) with
          | "domains" :: rest -> Array.of_list (List.map int_of_string rest)
          | _ -> fail "expected domains"
        in
        let n_counts =
          match words (line ()) with
          | [ "counts"; n ] -> int_of_string n
          | _ -> fail "expected counts"
        in
        let counts = Hashtbl.create (max 16 n_counts) in
        for _ = 1 to n_counts do
          match words (line ()) with
          | [ k; c ] -> Hashtbl.replace counts (int_of_string k) (int_of_string c)
          | _ -> fail "malformed count line"
        done;
        let table = R.Database.table db table_name in
        let schema = R.Table.schema table in
        let attrs =
          Array.of_list (List.map (R.Schema.position schema) attr_names)
        in
        (* re-allocate blocks in saved (ordering) sequence, with the
           SAVED domain sizes: widths decide the variable layout and
           the packed count keys, so they must be restored verbatim.
           A dictionary that has since grown is fine — the entry comes
           back exactly as narrow as it was saved, and the first update
           beyond its capacity rebuilds it like it would have live.  A
           dictionary smaller than the saved domain means the index was
           saved against different data: reject it. *)
        let slots = Array.make (Array.length attrs) None in
        Array.iter
          (fun k ->
            let p = attrs.(k) in
            let current = R.Table.dom_size table p in
            let saved = dom_sizes.(k) in
            if saved > current then
              fail "domain of %s.%s shrank since the index was saved (%d -> %d)"
                table_name schema.(p).R.Schema.name saved current;
            slots.(k) <-
              Some (Fd.alloc mgr ~name:schema.(p).R.Schema.name ~dom_size:(max 1 saved)))
          order;
        let blocks = Array.map (function Some b -> b | None -> fail "bad order") slots in
        (table, attrs, order, blocks, counts))
  in
  let roots = Fcv_bdd.Io.load_lines mgr next_line in
  if List.length roots <> count then fail "root count mismatch";
  List.iter2
    (fun (table, attrs, order, blocks, counts) root ->
      let entry =
        {
          Index.table;
          attrs;
          order;
          strategy = Ordering.Fixed (Array.copy order);
          blocks;
          root;
          counts;
          build_time = 0.;
          size_at = -1;
          size = 0;
          rows_at = -1;
          rows = 0.;
          projections = Hashtbl.create 8;
        }
      in
      index.Index.entries <- entry :: index.Index.entries)
    metas roots;
  index

let load db ic =
  load_lines db (fun () -> try Some (input_line ic) with End_of_file -> None)

(* Split on '\n' lazily: replica hydration parses the same snapshot
   string once per worker, so avoid materialising a line list. *)
let load_string db s =
  let pos = ref 0 in
  let n = String.length s in
  let next_line () =
    if !pos >= n then None
    else begin
      let stop = match String.index_from_opt s !pos '\n' with Some i -> i | None -> n in
      let l = String.sub s !pos (stop - !pos) in
      pos := stop + 1;
      Some l
    end
  in
  load_lines db next_line

(* -- deltas ----------------------------------------------------------------- *)

(* The incremental companion to the snapshot format: the row-level
   mutations applied to the master since a base snapshot epoch.  A
   replica hydrated from the base snapshot (or already caught up to
   some epoch inside the window) replays the suffix of ops against its
   own private entries instead of re-parsing a whole snapshot — see
   {!Replica}.  Deltas carry only row traffic: any structural change
   (entry add/remove/rebuild/defer, level recycle) invalidates the
   window and forces a full snapshot, which is what keeps replay
   trivially equivalent to full hydration. *)

type delta_op =
  | Delta_insert of string * int array
  | Delta_delete of string * int array

let delta_magic = "fcv-delta 1"

let save_delta ~base ~to_ ops =
  let buf = Buffer.create 256 in
  Buffer.add_string buf delta_magic;
  Buffer.add_char buf '\n';
  Buffer.add_string buf (Printf.sprintf "window %d %d %d\n" base to_ (List.length ops));
  List.iter
    (fun op ->
      let tag, table, row =
        match op with
        | Delta_insert (t, r) -> ("i", t, r)
        | Delta_delete (t, r) -> ("d", t, r)
      in
      Buffer.add_string buf tag;
      Buffer.add_char buf ' ';
      Buffer.add_string buf table;
      Array.iter
        (fun c ->
          Buffer.add_char buf ' ';
          Buffer.add_string buf (string_of_int c))
        row;
      Buffer.add_char buf '\n')
    ops;
  Buffer.contents buf

let load_delta s =
  let lines = String.split_on_char '\n' s in
  let words l = String.split_on_char ' ' (String.trim l) |> List.filter (( <> ) "") in
  match lines with
  | magic :: header :: rest ->
    if String.trim magic <> delta_magic then fail "bad delta magic";
    let base, to_, count =
      match words header with
      | [ "window"; b; t; n ] -> (int_of_string b, int_of_string t, int_of_string n)
      | _ -> fail "expected delta window"
    in
    let ops =
      List.filter_map
        (fun l ->
          match words l with
          | [] -> None
          | tag :: table :: codes ->
            let row = Array.of_list (List.map int_of_string codes) in
            (match tag with
            | "i" -> Some (Delta_insert (table, row))
            | "d" -> Some (Delta_delete (table, row))
            | _ -> fail "unknown delta op %S" tag)
          | _ -> fail "malformed delta line %S" l)
        rest
    in
    if List.length ops <> count then fail "delta op count mismatch";
    (base, to_, ops)
  | _ -> fail "truncated delta"

(** Replay row ops against [index]'s entries only — never the base
    tables, which a replica shares with the (already-updated) master.
    @raise Index.Needs_rebuild when an op falls outside an entry's
    frozen capacity; callers fall back to full hydration. *)
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

let save_file index path =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> save index oc)

let load_file db path =
  let ic = open_in path in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () -> load db ic)
