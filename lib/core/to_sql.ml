(** Translation of constraints to relational-algebra {e violation
    queries} — the SQL baseline of the paper's experiments, and the
    fallback executed when BDD construction exceeds the node budget
    (§4's thresholding strategy).

    A constraint C is violated iff its violation formula ¬C is
    satisfiable; we put ¬C in negation normal form, strip the leading
    existential block (the violating witnesses) and translate the
    {b range-restricted} matrix into a plan producing the witness
    bindings: atoms become scans, conjunction becomes natural join,
    negative conjuncts become anti-joins, disjunction becomes union
    and ∃ becomes projection (the classical safe-FOL → algebra
    translation).  Formulas outside the safe fragment yield [None] and
    the checker falls back to direct evaluation. *)

module R = Fcv_relation
module A = Fcv_sql.Algebra
open Formula

exception Not_safe of string

let fail fmt = Printf.ksprintf (fun s -> raise (Not_safe s)) fmt

(** A translated sub-plan: [vars.(i)] is the variable produced in
    column [i]. *)
type tplan = { plan : A.plan; vars : string list }

let var_pos t x =
  let rec go i = function
    | [] -> None
    | y :: _ when y = x -> Some i
    | _ :: rest -> go (i + 1) rest
  in
  go 0 t.vars

(* Natural join of two translated plans on their shared variables. *)
let natural_join a b =
  let shared = List.filter (fun x -> List.mem x a.vars) b.vars in
  let keys =
    List.map
      (fun x -> (Option.get (var_pos a x), Option.get (var_pos b x)))
      shared
  in
  let b_keep =
    List.filteri (fun _ x -> not (List.mem x a.vars)) b.vars
  in
  let keep_cols =
    List.filteri (fun _ x -> not (List.mem x a.vars)) b.vars
    |> List.map (fun x -> List.length a.vars + Option.get (var_pos b x))
  in
  let arity_a = List.length a.vars in
  let cols = Array.of_list (List.init arity_a Fun.id @ keep_cols) in
  { plan = A.Project (cols, A.Hash_join (keys, a.plan, b.plan)); vars = a.vars @ b_keep }

(* Anti-join: rows of [a] with no match in [b]; b's vars must be a
   subset of a's. *)
let anti_join a b =
  let keys = List.map (fun x -> (Option.get (var_pos a x), Option.get (var_pos b x))) b.vars in
  { plan = A.Anti_join (keys, a.plan, b.plan); vars = a.vars }

let translate_atom db rel terms =
  let table =
    match R.Database.table_opt db rel with
    | Some t -> t
    | None -> fail "unknown relation %s" rel
  in
  let terms = Array.of_list terms in
  let pred = ref A.True in
  let first_occurrence : (string, int) Hashtbl.t = Hashtbl.create 4 in
  Array.iteri
    (fun i t ->
      match t with
      | Wildcard -> ()
      | Const value -> (
        match R.Dict.code (R.Table.dict table i) value with
        | Some code -> pred := A.And (!pred, A.Eq_const (i, code))
        | None -> pred := A.False)
      | Var x -> (
        match Hashtbl.find_opt first_occurrence x with
        | Some j -> pred := A.And (!pred, A.Eq_col (j, i))
        | None -> Hashtbl.replace first_occurrence x i))
    terms;
  let vars =
    Array.to_list terms
    |> List.mapi (fun i t -> (i, t))
    |> List.filter_map (fun (i, t) ->
           match t with
           | Var x when Hashtbl.find_opt first_occurrence x = Some i -> Some (x, i)
           | _ -> None)
  in
  let cols = Array.of_list (List.map snd vars) in
  { plan = A.Project (cols, A.Select (!pred, A.Scan table)); vars = List.map fst vars }

(* Disjunctive normal form over the boolean skeleton: quantified
   subformulas and (negated) literals are leaves.  Distributing ∧ over
   ∨ lets a conjunction carry its positive conjuncts into every
   branch, which is what makes mixed positive/negative disjunctions
   range-restricted branch by branch. *)
let rec dnf = function
  | Or (a, b) -> dnf a @ dnf b
  | And (a, b) ->
    let das = dnf a and dbs = dnf b in
    List.concat_map (fun ca -> List.map (fun cb -> ca @ cb) dbs) das
  | f -> [ [ f ] ]

(** Translate an NNF, range-restricted formula into a plan over its
    free variables.  @raise Not_safe outside the fragment. *)
let rec translate db typing f =
  match f with
  | Atom (rel, terms) -> translate_atom db rel terms
  | And _ | Or _ -> (
    match dnf f with
    | [] -> fail "empty disjunction"
    | [ parts ] -> translate_conjunction db typing parts
    | parts_list ->
      let branches = List.map (translate_conjunction db typing) parts_list in
      (match branches with
      | [] -> assert false
      | first :: rest ->
        List.fold_left
          (fun acc p ->
            if List.sort compare p.vars <> List.sort compare acc.vars then
              fail "disjuncts bind different variables";
            (* align p's columns with acc's variable order *)
            let cols =
              Array.of_list (List.map (fun x -> Option.get (var_pos p x)) acc.vars)
            in
            { plan = A.Union (acc.plan, A.Project (cols, p.plan)); vars = acc.vars })
          first rest))
  | Exists (xs, body) ->
    let t = translate db typing body in
    let keep = List.filter (fun x -> not (List.mem x xs)) t.vars in
    let cols = Array.of_list (List.map (fun x -> Option.get (var_pos t x)) keep) in
    { plan = A.Distinct (A.Project (cols, t.plan)); vars = keep }
  | Eq _ | In _ | Not _ | Forall _ | True | False ->
    (* a bare literal can still be translated when wrapped as a
       single-conjunct conjunction with something positive; alone it
       is not range-restricted *)
    fail "formula is not range-restricted: %s" (Formula.to_string f)
  | Implies _ | Iff _ ->
    fail "unexpected connective after NNF: %s" (Formula.to_string f)

and translate_conjunction db typing parts =
  (* positives generate bindings; Eq/In filter; negatives anti-join *)
  let is_positive = function Atom _ | And _ | Or _ | Exists _ -> true | _ -> false in
  let positives, rest = List.partition is_positive parts in
  if positives = [] then fail "conjunction has no positive (range-restricting) conjunct";
  let base =
    match List.map (translate db typing) positives with
    | [] -> assert false
    | first :: others -> List.fold_left natural_join first others
  in
  List.fold_left
    (fun acc part ->
      match part with
      | True -> acc
      | False -> { acc with plan = A.Select (A.False, acc.plan) }
      | Not True -> { acc with plan = A.Select (A.False, acc.plan) }
      | Not False -> acc
      | Eq (Var x, Var y) -> (
        match (var_pos acc x, var_pos acc y) with
        | Some i, Some j -> { acc with plan = A.Select (A.Eq_col (i, j), acc.plan) }
        | _ -> fail "equality over unbound variable")
      | Eq (Var x, Const value) | Eq (Const value, Var x) -> (
        match var_pos acc x with
        | Some i ->
          let dict = R.Database.domain db (Typing.domain_of typing x) in
          let pred =
            match R.Dict.code dict value with
            | Some code -> A.Eq_const (i, code)
            | None -> A.False
          in
          { acc with plan = A.Select (pred, acc.plan) }
        | None -> fail "equality over unbound variable")
      | Eq (Const a, Const b) ->
        if R.Value.equal a b then acc else { acc with plan = A.Select (A.False, acc.plan) }
      | In (Var x, values) -> (
        match var_pos acc x with
        | Some i ->
          let dict = R.Database.domain db (Typing.domain_of typing x) in
          let codes = List.filter_map (R.Dict.code dict) values in
          let pred = if codes = [] then A.False else A.In_set (i, codes) in
          { acc with plan = A.Select (pred, acc.plan) }
        | None -> fail "membership over unbound variable")
      | In (Const v, values) ->
        if List.exists (R.Value.equal v) values then acc
        else { acc with plan = A.Select (A.False, acc.plan) }
      | Not inner -> (
        match inner with
        | Eq (Var x, Var y) -> (
          match (var_pos acc x, var_pos acc y) with
          | Some i, Some j ->
            { acc with plan = A.Select (A.Not (A.Eq_col (i, j)), acc.plan) }
          | _ -> fail "negated equality over unbound variable")
        | Eq (Var x, Const value) | Eq (Const value, Var x) -> (
          match var_pos acc x with
          | Some i ->
            let dict = R.Database.domain db (Typing.domain_of typing x) in
            let pred =
              match R.Dict.code dict value with
              | Some code -> A.Not (A.Eq_const (i, code))
              | None -> A.True
            in
            { acc with plan = A.Select (pred, acc.plan) }
          | None -> fail "negated equality over unbound variable")
        | In (Var x, values) -> (
          match var_pos acc x with
          | Some i ->
            let dict = R.Database.domain db (Typing.domain_of typing x) in
            let codes = List.filter_map (R.Dict.code dict) values in
            let pred = if codes = [] then A.True else A.Not (A.In_set (i, codes)) in
            { acc with plan = A.Select (pred, acc.plan) }
          | None -> fail "negated membership over unbound variable")
        | _ ->
          let neg = translate db typing inner in
          if List.exists (fun x -> not (List.mem x acc.vars)) neg.vars then
            fail "negated conjunct binds a variable not bound positively";
          anti_join acc neg)
      | Forall (xs, body) ->
        (* ∀xs body ≡ ¬∃xs ¬body, with ¬body renormalised *)
        let counter = Rewrite.nnf (Not body) in
        let witness = translate db typing (Exists (xs, counter)) in
        if List.exists (fun x -> not (List.mem x acc.vars)) witness.vars then
          fail "universal conjunct ranges over unbound variables";
        anti_join acc witness
      | _ -> assert false)
    base rest

(* nnf(¬C) as its leading existential block (the witness variables)
   and the matrix under it. *)
let violation_matrix constraint_ =
  let rec strip = function
    | Exists (xs, f) ->
      let xs', f' = strip f in
      (xs @ xs', f')
    | f -> ([], f)
  in
  strip (Rewrite.nnf (Not constraint_))

(** Build the violation plan of a closed constraint: the plan's rows
    are the bindings of the leading existential block of nnf(¬C) (the
    violating witnesses); the constraint is violated iff the plan is
    non-empty.  Returns the plan and the witness variables, or raises
    {!Not_safe}. *)
let violation_plan db typing constraint_ =
  let witnesses, matrix = violation_matrix constraint_ in
  let t = translate db typing matrix in
  (t.plan, t.vars, witnesses)

(** Is the constraint violated, per the SQL engine?  A matrix that
    normalised to a constant needs no query. *)
let violated db typing constraint_ =
  match snd (violation_matrix constraint_) with
  | False -> false
  | True -> true
  | matrix -> not (Fcv_sql.Exec.is_empty (translate db typing matrix).plan)
