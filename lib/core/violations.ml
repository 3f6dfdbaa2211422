(** Violating-tuple enumeration and attribution: once a constraint is
    known to be violated (the fast check of the paper), this module
    performs the second, more expensive phase — identifying the
    witnesses — directly on the BDDs: the models of nnf(¬C)'s matrix,
    restricted to valid codes, decoded through the domain
    dictionaries.  On top of the witnesses it attributes violations to
    base tuples (which rows of which tables a witness touches) and
    scores {e blame} — how many remaining witnesses a tuple's deletion
    would kill — via restrict-and-count on the violation BDD, the
    quantities the repair planner optimises over. *)

module R = Fcv_relation
module M = Fcv_bdd.Manager
module O = Fcv_bdd.Ops
module Fd = Fcv_bdd.Fd
module Sat = Fcv_bdd.Sat
open Formula

type witness = (string * R.Value.t) list
(** one violating binding: variable name → value *)

(* Witnesses share their variable order (the binder order), so
   comparing the value columns orders bindings deterministically. *)
let compare_witness =
  List.compare (fun (x1, v1) (x2, v2) ->
      match compare (x1 : string) x2 with 0 -> R.Value.compare v1 v2 | c -> c)

type analyzer = {
  ctx : Compile.ctx;
  index : Index.t;
  typing : Typing.env;
  blocks : (string * Fd.block) list;  (** witness vars, binder order *)
  levels : int array;  (** their levels, sorted *)
  root : int;  (** guarded violation BDD over exactly [levels] *)
  matrix : Formula.t;  (** nnf(¬C) under the leading existential block *)
}

(** Compile the violation BDD of [constraint_] once and keep it live
    for witness listing, counting, attribution and blame.  [None] when
    ¬C has no leading existential block to witness (e.g. the
    constraint is a bare existential — then a violation has no finite
    witness, only the fact of emptiness).  [width] keeps only the
    first [width] variables of that block as witnesses; the rest stay
    in the matrix under an ∃.  Call {!release} when done. *)
let analyze_over ?width index constraint_ =
  let db = index.Index.db in
  (* the compiler needs shadow-free binders; names without conflicts
     are preserved so witnesses keep their user-facing names *)
  let constraint_ = Rewrite.rename_apart constraint_ in
  let typing = Typing.infer db constraint_ in
  let v = Rewrite.nnf (Not constraint_) in
  let rec strip = function
    | Exists (xs, f) ->
      let xs', f' = strip f in
      (xs @ xs', f')
    | f -> ([], f)
  in
  let witnesses, matrix = strip v in
  let witnesses, matrix =
    match width with
    | Some w when List.length witnesses > w ->
      ( List.filteri (fun i _ -> i < w) witnesses,
        Exists (List.filteri (fun i _ -> i >= w) witnesses, matrix) )
    | _ -> (witnesses, matrix)
  in
  if witnesses = [] then None
  else begin
    let ctx = Compile.make_ctx index typing in
    let build () =
      let m = Compile.mgr ctx in
      let root = Compile.compile ctx matrix in
      (* a witness whose atoms all compiled to constants (an empty
         projection, with no entry block wide enough to claim) has no
         block yet, but still ranges over its whole domain *)
      let blocks = List.map (fun x -> (x, Compile.home ctx x)) witnesses in
      let guard =
        List.fold_left (fun acc (_, b) -> O.band m acc (Fd.valid m b)) M.one blocks
      in
      let root = O.band m guard root in
      (* project away any non-witness levels (inner quantifications
         leave none, but scratch equality blocks may remain) *)
      let witness_levels =
        List.concat_map (fun (_, b) -> Array.to_list b.Fd.levels) blocks
      in
      let support = M.support m root in
      let extra = List.filter (fun l -> not (List.mem l witness_levels)) support in
      let root = if extra = [] then root else O.exists m extra root in
      {
        ctx;
        index;
        typing;
        blocks;
        levels = Array.of_list (List.sort compare witness_levels);
        root;
        matrix;
      }
    in
    (* a budget trip in the build returns the borrowed scratch blocks
       before it escapes *)
    match build () with
    | a -> Some a
    | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      Compile.release ctx;
      Printexc.raise_with_backtrace e bt
  end

let analyze index constraint_ = analyze_over index constraint_

let release a = Compile.release a.ctx

(* [f a], then [a]'s scratch blocks back to the pool, on every exit. *)
let with_analyzer a f = Fun.protect ~finally:(fun () -> release a) (fun () -> f a)

(** Exact number of violating bindings, straight off the BDD. *)
let witness_count a = Sat.count_over (Compile.mgr a.ctx) a.root ~levels:a.levels

(** {!witness_count} in arbitrary-precision arithmetic — the numerator
    of a threshold verdict, immune to float rounding above [2^53]. *)
let witness_count_exact a =
  Sat.count_over_exact (Compile.mgr a.ctx) a.root ~levels:a.levels

(* The denominator of a violation rate: bindings of the witness space
   satisfying the constraint's outermost hypothesis ([True] — the
   whole guarded space — when the ∀-stripped body is not an
   implication).  Compiled in the analyzer's own context so variable
   blocks are shared with the violation BDD; scratch levels are
   projected away exactly as {!analyze} does. *)
let support_count_exact a ~renamed =
  let m = Compile.mgr a.ctx in
  let _, body = Formula.strip_foralls renamed in
  let h = Formula.hypothesis body in
  let root = Compile.compile a.ctx h in
  let guard =
    List.fold_left (fun acc (_, b) -> O.band m acc (Fd.valid m b)) M.one a.blocks
  in
  let root = O.band m guard root in
  let witness_levels = Array.to_list a.levels in
  let support = M.support m root in
  let extra = List.filter (fun l -> not (List.mem l witness_levels)) support in
  let root = if extra = [] then root else O.exists m extra root in
  Sat.count_over_exact m root ~levels:a.levels

(** Exact [(violations, total)] binding counts for a threshold
    verdict: models of ¬C's matrix over the witness space, and models
    of the outermost hypothesis over the same space.  [violations ≤
    total] always (the matrix entails the hypothesis).  The witness
    space is C's own leading ∀-block ({!Formula.strip_foralls}), the
    space {!Naive_eval.soft_counts} enumerates: a leading ∃ that
    nnf(¬body) adds stays in the matrix.  [None] when C has no
    leading ∀-block — the caller falls back to 0/1 semantics on the
    plain verdict. *)
let soft_counts index constraint_ =
  (* [analyze_over] renames apart internally; renaming here again is
     deterministic, so the hypothesis's names line up with the
     analyzer's blocks *)
  let renamed = Rewrite.rename_apart constraint_ in
  let width = List.length (fst (Formula.strip_foralls renamed)) in
  match analyze_over ~width index constraint_ with
  | None -> None
  | Some a ->
    with_analyzer a (fun a ->
        let violations = witness_count_exact a in
        let total = support_count_exact a ~renamed in
        Some (violations, total))

(* Decode every witness, then sort — enumeration must be
   deterministic (stable across manager states, index build orders and
   recoveries), so cube order never leaks into the result. *)
let decode_all a =
  let m = Compile.mgr a.ctx in
  let db = a.index.Index.db in
  let results = ref [] in
  Sat.fold_cubes m a.root ~init:() ~f:(fun () cube ->
      Sat.iter_expanded ~levels:a.levels cube ~f:(fun values ->
          let env = Array.make (M.nvars m) false in
          Array.iteri (fun i l -> env.(l) <- values.(i)) a.levels;
          let binding =
            List.map
              (fun (x, b) ->
                let code = Fd.read_env b env in
                let dict = R.Database.domain db (Typing.domain_of a.typing x) in
                (x, R.Dict.value dict code))
              a.blocks
          in
          (* the validity guard was conjoined, so every expansion
             decodes *)
          results := binding :: !results));
  List.sort compare_witness !results

(** Up to [limit] violating bindings, in witness order (sorted by
    decoded value). *)
let witness_list ?(limit = max_int) a =
  List.filteri (fun i _ -> i < limit) (decode_all a)

(* The matrix's positive atom occurrences outside inner quantifiers:
   the atoms whose base tuples keep a witness alive, i.e. the only
   rows whose deletion can kill it.  Atoms under a re-introduced
   binder reference projected-away variables and atoms under Not (or
   mixed-polarity Iff) would need insertions, not deletions — both are
   excluded. *)
let positive_atoms matrix =
  let rec go acc pos f =
    match f with
    | Atom (r, ts) -> if pos then (r, ts) :: acc else acc
    | Not g -> go acc (not pos) g
    | And (p, q) | Or (p, q) -> go (go acc pos p) pos q
    | Implies (p, q) -> go (go acc (not pos) p) pos q
    | Iff _ | Exists _ | Forall _ | Eq _ | In _ | True | False -> acc
  in
  List.rev (go [] true matrix)

(* Ground [terms] against witness [w] into a per-position pattern:
   [Some code] pins the column, [None] leaves it free.  [None] overall
   when a value has no code in the column's dictionary (the atom
   matches no row at all). *)
let ground_pattern table w terms =
  let ok = ref true in
  let pattern =
    List.mapi
      (fun j t ->
        let coded v =
          match R.Dict.code (R.Table.dict table j) v with
          | Some c -> Some c
          | None ->
            ok := false;
            None
        in
        match t with
        | Var x -> ( match List.assoc_opt x w with Some v -> coded v | None -> None)
        | Const v -> coded v
        | Wildcard -> None)
      terms
  in
  if !ok then Some (Array.of_list pattern) else None

let row_matches pattern row =
  let matches = ref true in
  Array.iteri
    (fun j p -> match p with Some c when c <> row.(j) -> matches := false | _ -> ())
    pattern;
  !matches

(** The distinct base tuples participating in (up to [limit] of) the
    witnesses: for each witness and each positive top-region atom, the
    rows matching the atom's grounding — exactly the deletion
    candidates of the repair planner.  Ordered by (table, row). *)
let participants ?limit a =
  let db = a.index.Index.db in
  let atoms = positive_atoms a.matrix in
  let seen = Hashtbl.create 64 in
  List.iter
    (fun w ->
      List.iter
        (fun (rel, terms) ->
          match R.Database.table_opt db rel with
          | None -> ()
          | Some table -> (
            match ground_pattern table w terms with
            | None -> ()
            | Some pattern ->
              R.Table.iter table (fun row ->
                  if row_matches pattern row then
                    let key = (rel, Array.to_list row) in
                    if not (Hashtbl.mem seen key) then Hashtbl.add seen key ())))
        atoms)
    (witness_list ?limit a);
  List.sort compare (Hashtbl.fold (fun k () acc -> k :: acc) seen [])
  |> List.map (fun (rel, row) -> (rel, Array.of_list row))

(* The level fixes binding one atom occurrence to one coded row, or
   [None] when the atom cannot ground to it (a constant disagreeing
   with the row). *)
let atom_fix a table row terms =
  let tbl = R.Database.table a.index.Index.db table in
  let exception Inapplicable in
  try
    Some
      (List.concat
         (List.mapi
            (fun j t ->
              match t with
              | Var x -> (
                match Hashtbl.find_opt a.ctx.Compile.vars x with
                | Some b ->
                  List.init (Fd.width b) (fun k ->
                      (Fd.level_of_bit b k, Fcv_util.Bits.test row.(j) k))
                | None -> [])
              | Const v -> (
                match R.Dict.code (R.Table.dict tbl j) v with
                | Some c when c = row.(j) -> []
                | _ -> raise Inapplicable)
              | Wildcard -> [])
            terms))
  with Inapplicable -> None

(* Merge fix lists; [None] on a conflicting level (the atoms cannot
   ground to the tuple simultaneously — an empty intersection). *)
let merge_fixes fixes =
  let h = Hashtbl.create 16 in
  let exception Conflict in
  try
    List.iter
      (List.iter (fun (l, b) ->
           match Hashtbl.find_opt h l with
           | Some b' when b' <> b -> raise Conflict
           | Some _ -> ()
           | None -> Hashtbl.add h l b))
      fixes;
    Some (Hashtbl.fold (fun l b acc -> (l, b) :: acc) h [])
  with Conflict -> None

(* Model count, over the witness space, of the union of the fix
   lists: inclusion–exclusion over restrict-and-count walks
   ({!Fcv_bdd.Sat.count_restrict}), no BDD allocation. *)
let union_count a fixes =
  let m = Compile.mgr a.ctx in
  let n = List.length fixes in
  let total = ref 0. in
  for mask = 1 to (1 lsl n) - 1 do
    let subset = List.filteri (fun i _ -> mask land (1 lsl i) <> 0) fixes in
    match merge_fixes subset with
    | None -> ()
    | Some fix ->
      let fixed = List.map fst fix in
      let free =
        Array.of_list
          (List.filter (fun l -> not (List.mem l fixed)) (Array.to_list a.levels))
      in
      let sign =
        if List.length subset mod 2 = 1 then 1. else -1.
      in
      total := !total +. (sign *. Sat.count_restrict m a.root ~fix ~levels:free)
  done;
  !total

(** How many current witnesses deleting [(table, row)] would kill: the
    union over the matrix's positive [table]-atoms of "this atom
    grounds to the row".  An upper bound when other rows share the
    row's projection onto an atom's constrained columns — the witness
    survives on the other support. *)
let blame a ~table ~row =
  union_count a
    (List.filter_map
       (fun (rel, terms) -> if rel = table then atom_fix a table row terms else None)
       (positive_atoms a.matrix))

(* -- grounded-atom patterns ------------------------------------------------- *)

type pattern = {
  p_table : string;
  p_pattern : int option array;
  p_rows : int array list;
  p_kills : float;
}

(* The level fixes binding one atom occurrence to one grounded
   pattern, or [None] when the occurrence cannot produce it (shape or
   constant mismatch). *)
let occurrence_fix a tbl pattern terms =
  let exception Inapplicable in
  try
    Some
      (List.concat
         (List.mapi
            (fun j t ->
              match (t, pattern.(j)) with
              | Var x, Some c -> (
                match Hashtbl.find_opt a.ctx.Compile.vars x with
                | Some b ->
                  List.init (Fd.width b) (fun k ->
                      (Fd.level_of_bit b k, Fcv_util.Bits.test c k))
                | None -> raise Inapplicable)
              | Var x, None ->
                if Hashtbl.mem a.ctx.Compile.vars x then raise Inapplicable else []
              | Const v, Some c -> (
                match R.Dict.code (R.Table.dict tbl j) v with
                | Some c' when c' = c -> []
                | _ -> raise Inapplicable)
              | (Const _, None | Wildcard, Some _) -> raise Inapplicable
              | Wildcard, None -> [])
            terms))
  with Inapplicable -> None

(** The distinct grounded positive-atom patterns of (up to [limit] of)
    the witnesses, each with its current supporting rows and its
    {e exact} kill count — the witnesses whose matching atoms all lose
    their support when every [p_rows] row is deleted.  Unlike
    {!blame}, the count is not an upper bound: the pattern's whole
    support goes at once, so no surviving duplicate can keep a counted
    witness alive (for conjunctively-supported witnesses).  Ordered by
    (table, pattern).  The greedy repair planner's candidates. *)
let patterns ?limit a =
  let db = a.index.Index.db in
  let atoms = positive_atoms a.matrix in
  let seen = Hashtbl.create 32 in
  List.iter
    (fun w ->
      List.iter
        (fun (rel, terms) ->
          match R.Database.table_opt db rel with
          | None -> ()
          | Some table -> (
            match ground_pattern table w terms with
            | None -> ()
            | Some pattern ->
              let key = (rel, Array.to_list pattern) in
              if not (Hashtbl.mem seen key) then Hashtbl.add seen key ()))
        atoms)
    (witness_list ?limit a);
  List.sort compare (Hashtbl.fold (fun k () acc -> k :: acc) seen [])
  |> List.map (fun (rel, pat) ->
         let pattern = Array.of_list pat in
         let table = R.Database.table db rel in
         let rows = ref [] in
         R.Table.iter table (fun row ->
             if row_matches pattern row then rows := Array.copy row :: !rows);
         let kills =
           union_count a
             (List.filter_map
                (fun (r, terms) ->
                  if r = rel then occurrence_fix a table pattern terms else None)
                atoms)
         in
         {
           p_table = rel;
           p_pattern = pattern;
           p_rows = List.sort compare !rows;
           p_kills = kills;
         })

(** Enumerate up to [limit] violating bindings of the constraint's
    outermost universally quantified variables (i.e. models of the
    leading existential block of ¬C), sorted by decoded value.
    Returns [None] when ¬C has no leading existential block to
    witness. *)
let enumerate ?limit index constraint_ =
  Option.map (fun a -> with_analyzer a (witness_list ?limit)) (analyze index constraint_)

(** Number of violating bindings (exact model count over the witness
    blocks), without enumerating them. *)
let count index constraint_ =
  Option.map (fun a -> with_analyzer a witness_count) (analyze index constraint_)
