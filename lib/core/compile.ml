(** Compilation of a (rewritten) constraint into BDD operations over
    the logical indices.

    Every logical variable is assigned a {e home block}: the attribute
    block of its first atom occurrence when that block is still free,
    otherwise a fresh scratch block.  Later occurrences are {b renamed}
    onto the home block — the §4.2 equi-join rewrite; the naive
    equality-conjunction alternative is exposed separately as
    {!join_naive} for the Fig. 6(a) comparison.

    Quantifiers range over active domains, so ∃ compiles to the fused
    [appex(∧, valid, φ)] and ∀ to [appall(⇒, valid, φ)]; when the body
    is a disjunction (resp. conjunction), the §4.3-optimised forms
    using [appex]/[appall] across the connective are used.

    The compiled BDD agrees with the formula on all {e valid}
    assignments of its free variables; callers must test validity or
    satisfiability relative to the conjunction of the free variables'
    domain guards (see {!free_guard}). *)

module R = Fcv_relation
module M = Fcv_bdd.Manager
module O = Fcv_bdd.Ops
module Fd = Fcv_bdd.Fd
open Formula

exception Unsupported of string

let fail fmt = Printf.ksprintf (fun s -> raise (Unsupported s)) fmt

type ctx = {
  index : Index.t;
  typing : Typing.env;
  use_appquant : bool;  (** §4.3 fused operators; off for ablation *)
  vars : (string, Fd.block) Hashtbl.t;  (** variable → home block *)
  claimed : (int, unit) Hashtbl.t;  (** first level of each claimed block *)
  mutable borrowed : Fd.block list;  (** scratch blocks to return on release *)
}

let make_ctx ?(use_appquant = true) index typing =
  {
    index;
    typing;
    use_appquant;
    vars = Hashtbl.create 16;
    claimed = Hashtbl.create 16;
    borrowed = [];
  }

(** Return the context's scratch blocks to the index's pool.  Call
    once the final BDD has been read; results referencing scratch
    levels must not be consulted afterwards. *)
let release ctx =
  Index.release_scratch ctx.index ctx.borrowed;
  ctx.borrowed <- []

let mgr ctx = Index.mgr ctx.index

let dict_of ctx x = R.Database.domain ctx.index.Index.db (Typing.domain_of ctx.typing x)

let claim ctx block = Hashtbl.replace ctx.claimed block.Fd.levels.(0) ()

let is_claimed ctx block = Hashtbl.mem ctx.claimed block.Fd.levels.(0)

let fresh_block ctx x =
  let dict = dict_of ctx x in
  let b = Index.borrow_scratch ctx.index ~dom_size:(R.Dict.size dict) in
  ctx.borrowed <- b :: ctx.borrowed;
  claim ctx b;
  b

(* An entry's attribute block can serve as [x]'s home only while its
   frozen capacity still covers [x]'s dictionary: after domain growth
   the block is too narrow for codes interned since it was built, and
   its [valid] guard would silently exclude them from quantifiers.
   (The entry itself stays exact — rows with out-of-capacity codes
   force an index rebuild — but other entries over the same domain may
   already be wider.) *)
let covers_domain ctx x block =
  block.Fd.dom_size >= R.Dict.size (dict_of ctx x)

(** The home block of [x], allocating a scratch block if [x] has not
    occurred in any atom yet. *)
let home ctx x =
  match Hashtbl.find_opt ctx.vars x with
  | Some b -> b
  | None ->
    let b = fresh_block ctx x in
    Hashtbl.replace ctx.vars x b;
    b

(* -- atoms ---------------------------------------------------------------- *)

(* An atom compiles in two steps.  Its constants and wildcards are
   the covering entry's projection: the root restricted to the
   constants' codes, with the wildcard blocks ∃-projected out (entry
   BDDs contain only valid codes, so unguarded bit-level ∃ is exact).
   The index caches that per root ({!Index.projection}), so a check
   over an unchanged entry neither restricts nor projects.  What
   depends on the check stays here: a repeated variable is equated
   with its first occurrence and projected, and every variable's
   block is renamed onto its home. *)
let compile_atom ctx rel terms =
  let m = mgr ctx in
  let table =
    match R.Database.table_opt ctx.index.Index.db rel with
    | Some t -> t
    | None -> fail "unknown relation %s" rel
  in
  let terms = Array.of_list terms in
  let needed = ref [] in
  Array.iteri (fun i t -> if t <> Wildcard then needed := i :: !needed) terms;
  let entry =
    match Index.find_covering ctx.index ~table_name:rel ~needed:!needed with
    | Some e -> e
    | None -> fail "no logical index on %s covers the atom's attributes" rel
  in
  let slot_of_pos = Index.slot_of entry in
  (* a constant outside the entry's domain matches no row *)
  let code_of pos value =
    match R.Dict.code (R.Table.dict table pos) value with
    | Some code when code < entry.Index.blocks.(slot_of_pos pos).Fd.dom_size -> Some code
    | _ -> None
  in
  let fix = ref [] and drop = ref [] and absent = ref false in
  Array.iteri
    (fun pos t ->
      match t with
      | Const value -> (
        match code_of pos value with
        | Some code -> fix := (pos, code) :: !fix
        | None -> absent := true)
      | Wildcard -> if Array.exists (( = ) pos) entry.Index.attrs then drop := pos :: !drop
      | Var _ -> ())
    terms;
  let projected =
    if !absent then M.zero else Index.projection ctx.index entry ~fix:!fix ~drop:!drop
  in
  if projected = M.zero then M.zero
  else begin
    let bdd = ref projected in
    (* duplicate variables within the atom: keep the first occurrence,
       equate and project the rest *)
    let seen_var : (string, int) Hashtbl.t = Hashtbl.create 4 in
    let duplicates = ref [] in
    let renames = ref [] in
    Array.iteri
      (fun pos t ->
        match t with
        | Const _ | Wildcard -> ()
        | Var x -> (
          let block = entry.Index.blocks.(slot_of_pos pos) in
          match Hashtbl.find_opt seen_var x with
          | Some first_slot ->
            (* R(x, x): equate with the first occurrence, then project *)
            let first_block = entry.Index.blocks.(first_slot) in
            bdd := O.band m !bdd (Fd.eq_blocks m first_block block);
            duplicates := block :: !duplicates
          | None ->
            Hashtbl.replace seen_var x (slot_of_pos pos);
            (match Hashtbl.find_opt ctx.vars x with
            | Some home_block ->
              if home_block.Fd.levels <> block.Fd.levels then
                renames := (block, home_block) :: !renames
            | None ->
              if is_claimed ctx block || not (covers_domain ctx x block) then begin
                (* the entry's own block already hosts another
                   variable, or is too narrow for the grown domain:
                   divert to a fresh scratch block *)
                let scratch = fresh_block ctx x in
                Hashtbl.replace ctx.vars x scratch;
                renames := (block, scratch) :: !renames
              end
              else begin
                claim ctx block;
                Hashtbl.replace ctx.vars x block
              end)))
      terms;
    let levels = List.concat_map (fun b -> Array.to_list b.Fd.levels) !duplicates in
    if levels <> [] then bdd := O.exists m levels !bdd;
    (* simultaneous rename of remaining occurrences onto home blocks.
       Homes are at least as wide as any occurrence (see
       {!covers_domain}), so bits pair up by position and the home's
       extra high bits — unconstrained after the rename — are clamped
       to 0 to keep codes exact. *)
    let pairs, high =
      List.fold_left
        (fun (pairs, high) (src, dst) ->
          let ws = Fd.width src and wd = Fd.width dst in
          ( List.init ws (fun j -> (Fd.level_of_bit src j, Fd.level_of_bit dst j))
            @ pairs,
            List.init (wd - ws) (fun j -> (Fd.level_of_bit dst (ws + j), false))
            @ high ))
        ([], []) !renames
    in
    if pairs <> [] then bdd := O.replace m !bdd pairs;
    if high <> [] then bdd := O.band m !bdd (Fd.cube m high);
    !bdd
  end

(* -- quantifiers ----------------------------------------------------------- *)

let exists_var ctx f x =
  match Hashtbl.find_opt ctx.vars x with
  | None -> f (* vacuous: domains are non-empty *)
  | Some b -> Fd.exists (mgr ctx) b f

let forall_var ctx f x =
  match Hashtbl.find_opt ctx.vars x with
  | None -> f
  | Some b -> Fd.forall (mgr ctx) b f

(* -- home planning ----------------------------------------------------------- *)

(* Before compiling, decide every variable's home block globally:
   process atom instances from the LARGEST index entry downwards and
   let each claim its own attribute blocks for still-homeless
   variables.  Renaming a BDD is linear in its size, so the big
   operands should stay put and the small ones be renamed onto them —
   without this pass, left-to-right claiming can force a rename of a
   10^5-node index because a 10^3-node relation got there first. *)
let plan_homes ctx f =
  let atoms = ref [] in
  let rec walk = function
    | True | False | Eq _ | In _ -> ()
    | Atom (rel, terms) -> atoms := (rel, terms) :: !atoms
    | Not g -> walk g
    | And (a, b) | Or (a, b) | Implies (a, b) | Iff (a, b) ->
      walk a;
      walk b
    | Exists (_, g) | Forall (_, g) -> walk g
  in
  walk f;
  let sized =
    List.filter_map
      (fun (rel, terms) ->
        let needed = ref [] in
        List.iteri (fun i t -> if t <> Wildcard then needed := i :: !needed) terms;
        match Index.find_covering ctx.index ~table_name:rel ~needed:!needed with
        | Some entry -> Some (Index.entry_size ctx.index entry, entry, terms)
        | None -> None)
      !atoms
  in
  let sorted = List.sort (fun (a, _, _) (b, _, _) -> compare b a) sized in
  List.iter
    (fun (_, entry, terms) ->
      let slot_of_pos = Index.slot_of entry in
      List.iteri
        (fun pos t ->
          match t with
          | Var x
            when (not (Hashtbl.mem ctx.vars x))
                 && Array.exists (( = ) pos) entry.Index.attrs ->
            let block = entry.Index.blocks.(slot_of_pos pos) in
            if (not (is_claimed ctx block)) && covers_domain ctx x block then begin
              claim ctx block;
              Hashtbl.replace ctx.vars x block
            end
          | _ -> ())
        terms)
    sorted

(* -- formulas --------------------------------------------------------------- *)

(* Telemetry tap on every compiled connective: counts the connective
   kind and feeds the intermediate-BDD-size histogram.  node_count is
   linear in the intermediate's size, so the tap only runs when
   telemetry is enabled. *)
let tel_connective ctx kind root =
  let module T = Fcv_util.Telemetry in
  if T.enabled () then begin
    T.incr (T.counter ("compile.connective." ^ kind));
    T.observe (T.histogram "compile.intermediate_nodes")
      (float_of_int (M.node_count (mgr ctx) root))
  end;
  root

let rec compile_rec ctx f =
  let m = mgr ctx in
  match f with
  | True -> M.one
  | False -> M.zero
  | Atom (rel, terms) -> tel_connective ctx "atom" (compile_atom ctx rel terms)
  | Eq (Var x, Var y) -> Fd.eq_blocks m (home ctx x) (home ctx y)
  | Eq (Var x, Const value) | Eq (Const value, Var x) -> (
    let b = home ctx x in
    match R.Dict.code (dict_of ctx x) value with
    | Some code when code < b.Fd.dom_size -> Fd.eq_const m b code
    | _ -> M.zero)
  | Eq (Const a, Const b) -> if R.Value.equal a b then M.one else M.zero
  | Eq _ -> fail "wildcard in equality"
  | In (Var x, values) ->
    let b = home ctx x in
    let dict = dict_of ctx x in
    let codes =
      List.filter_map
        (fun value ->
          match R.Dict.code dict value with
          | Some c when c < b.Fd.dom_size -> Some c
          | _ -> None)
        values
    in
    if codes = [] then M.zero else Fd.in_set m b codes
  | In (Const v, values) -> if List.exists (R.Value.equal v) values then M.one else M.zero
  | In (Wildcard, _) -> fail "wildcard in membership test"
  | Not g -> tel_connective ctx "not" (O.neg m (compile_rec ctx g))
  | And (a, b) -> tel_connective ctx "and" (O.band m (compile_rec ctx a) (compile_rec ctx b))
  | Or (a, b) -> tel_connective ctx "or" (O.bor m (compile_rec ctx a) (compile_rec ctx b))
  | Implies (a, b) ->
    tel_connective ctx "implies" (O.bimp m (compile_rec ctx a) (compile_rec ctx b))
  | Iff (a, b) -> tel_connective ctx "iff" (O.biff m (compile_rec ctx a) (compile_rec ctx b))
  | Exists ([ x ], Or (a, b)) when ctx.use_appquant ->
    (* Rule 6 (pull-up) in fused form:
       ∃x(φ₁ ∨ φ₂) = ∃bits((valid∧φ₁) ∨ (valid∧φ₂)) via appex *)
    let fa = compile_rec ctx a in
    let fb = compile_rec ctx b in
    tel_connective ctx "exists_appex"
      (match Hashtbl.find_opt ctx.vars x with
      | None -> O.bor m fa fb
      | Some blk ->
        let guard = Fd.valid m blk in
        O.appex m O.Or (Array.to_list blk.Fd.levels) (O.band m guard fa) (O.band m guard fb))
  | Forall ([ x ], And (a, b)) when ctx.use_appquant ->
    (* Rule 5 companion in fused form:
       ∀x(φ₁ ∧ φ₂) = ∀bits((valid⇒φ₁) ∧ (valid⇒φ₂)) via appall *)
    let fa = compile_rec ctx a in
    let fb = compile_rec ctx b in
    tel_connective ctx "forall_appall"
      (match Hashtbl.find_opt ctx.vars x with
      | None -> O.band m fa fb
      | Some blk ->
        let guard = Fd.valid m blk in
        O.appall m O.And (Array.to_list blk.Fd.levels) (O.bimp m guard fa) (O.bimp m guard fb))
  | Exists (xs, body) ->
    let f = compile_rec ctx body in
    tel_connective ctx "exists" (List.fold_left (exists_var ctx) f (List.rev xs))
  | Forall (xs, body) ->
    let f = compile_rec ctx body in
    tel_connective ctx "forall" (List.fold_left (forall_var ctx) f (List.rev xs))

(** Compile a formula to a BDD (plans variable homes first; see
    above). *)
let compile ctx f =
  plan_homes ctx f;
  compile_rec ctx f

(** Conjunction of the domain guards of the given variables' home
    blocks — the context against which validity/satisfiability of the
    compiled matrix must be judged once leading quantifiers were
    eliminated. *)
let free_guard ctx vars =
  let m = mgr ctx in
  List.fold_left
    (fun acc x ->
      match Hashtbl.find_opt ctx.vars x with
      | None -> acc
      | Some b -> O.band m acc (Fd.valid m b))
    M.one vars

(* -- standalone join strategies (Fig. 6(a)) -------------------------------- *)

(** Naive equi-join (§4.2 option 1): BDD(R1) ∧ BDD(R2) ∧ ⋀ᵢ(xᵢ=yᵢ). *)
let join_naive m f g pairs =
  let eqs = List.fold_left (fun acc (b1, b2) -> O.band m acc (Fd.eq_blocks m b1 b2)) M.one pairs in
  O.band m (O.band m f g) eqs

(** Optimised equi-join (§4.2 option 2): rename R2's join blocks onto
    R1's, then a single conjunction. *)
let join_rename m f g pairs =
  let g' =
    let level_pairs =
      List.concat_map
        (fun (b1, b2) ->
          List.init
            (min (Fd.width b1) (Fd.width b2))
            (fun j -> (Fd.level_of_bit b2 j, Fd.level_of_bit b1 j)))
        pairs
    in
    O.replace m g level_pairs
  in
  O.band m f g'
