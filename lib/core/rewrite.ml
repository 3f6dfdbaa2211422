(** The paper's query re-write rules (§4), applied in the prioritised
    order of §4.4:

    + convert to {b prenex normal form} (this subsumes the pull-up
      rules: ∃ across ∨, Eq. 3, and ∀ across ∧, Eq. 4);
    + {b leading-quantifier elimination} (§4.1): drop the maximal
      leading run of same-kind quantifiers — a leading ∀-run turns the
      check into a validity test of the remainder, a leading ∃-run
      into a satisfiability test, both O(1) on the final ROBDD;
    + {b push-down} of the remaining universal quantifiers across
      conjunctions (Rule 5): ∀x(φ₁ ∧ φ₂) ⇝ ∀xφ₁ ∧ ∀xφ₂, because
      ∀xφᵢ is typically much smaller than φᵢ;
    + existential quantifiers stay pulled up so {!Compile} can use the
      fused [appex] on ∃x(φ₁ ∨ φ₂) (Rule 6).

    The violation polarity compiles the negated matrix, and negation
    turns the pulled-up ∃ of an inclusion dependency into a ∀ over a
    conjunction; {!violation} builds that form, reapplying Rule 5 and
    projecting single-atom variables onto the logical index of a
    projection of the relation.

    The equi-join rename rule (§4.2) lives in {!Compile}, where blocks
    are known. *)

open Formula

(** How to read the final BDD of the rewritten matrix: a leading ∀-run
    was dropped ⇒ the constraint holds iff the BDD is [true]; a
    leading ∃-run ⇒ holds iff the BDD is not [false]. *)
type check = Check_valid | Check_satisfiable

type quantifier = Q_exists | Q_forall

let gensym =
  let counter = ref 0 in
  fun base ->
    incr counter;
    Printf.sprintf "%s#%d" base !counter

(* Eliminate Iff and push all negations to the atoms (NNF), so that
   quantifier polarity is explicit before prenexing.  Implications stay
   only in positive position as syntax sugar and are expanded. *)
let rec nnf = function
  | True -> True
  | False -> False
  | (Atom _ | Eq _ | In _) as a -> a
  | And (a, b) -> And (nnf a, nnf b)
  | Or (a, b) -> Or (nnf a, nnf b)
  | Implies (a, b) -> Or (nnf (Not a), nnf b)
  | Iff (a, b) -> And (Or (nnf (Not a), nnf b), Or (nnf (Not b), nnf a))
  | Exists (xs, f) -> Exists (xs, nnf f)
  | Forall (xs, f) -> Forall (xs, nnf f)
  | Not f -> (
    match f with
    | True -> False
    | False -> True
    | Atom _ | Eq _ | In _ -> Not (nnf f)
    | Not g -> nnf g
    | And (a, b) -> Or (nnf (Not a), nnf (Not b))
    | Or (a, b) -> And (nnf (Not a), nnf (Not b))
    | Implies (a, b) -> And (nnf a, nnf (Not b))
    | Iff (a, b) -> Or (And (nnf a, nnf (Not b)), And (nnf (Not a), nnf b))
    | Exists (xs, g) -> Forall (xs, nnf (Not g))
    | Forall (xs, g) -> Exists (xs, nnf (Not g)))

(* Prenex an NNF formula: returns the quantifier prefix (outermost
   first) and the quantifier-free matrix.  Bound variables are renamed
   apart so hoisting cannot capture. *)
let rec prenex_nnf f =
  match f with
  | True | False | Atom _ | Eq _ | In _ | Not _ -> ([], f)
  | And (a, b) ->
    let pa, ma = prenex_nnf a in
    let pb, mb = prenex_nnf b in
    (pa @ pb, And (ma, mb))
  | Or (a, b) ->
    let pa, ma = prenex_nnf a in
    let pb, mb = prenex_nnf b in
    (pa @ pb, Or (ma, mb))
  | Exists (xs, g) ->
    let fresh = List.map (fun x -> (x, gensym x)) xs in
    let pg, mg = prenex_nnf (rename fresh g) in
    (List.map (fun (_, x') -> (Q_exists, x')) fresh @ pg, mg)
  | Forall (xs, g) ->
    let fresh = List.map (fun x -> (x, gensym x)) xs in
    let pg, mg = prenex_nnf (rename fresh g) in
    (List.map (fun (_, x') -> (Q_forall, x')) fresh @ pg, mg)
  | Implies _ | Iff _ -> assert false (* removed by nnf *)

(** Prenex normal form of an arbitrary formula. *)
let prenex f = prenex_nnf (nnf f)

(** Rename binders apart so no variable name is bound twice (or
    shadows a free variable); names without conflicts are kept.  The
    compiler assigns one home block per name, so it requires
    shadow-free input — prenexing provides it on the main path, and
    this provides it everywhere else. *)
let rename_apart f =
  let seen = Hashtbl.create 16 in
  Sset.iter (fun x -> Hashtbl.replace seen x ()) (free_vars f);
  let rec go f =
    match f with
    | True | False | Atom _ | Eq _ | In _ -> f
    | Not g -> Not (go g)
    | And (a, b) -> And (go a, go b)
    | Or (a, b) -> Or (go a, go b)
    | Implies (a, b) -> Implies (go a, go b)
    | Iff (a, b) -> Iff (go a, go b)
    | Exists (xs, g) ->
      let xs', g' = binder xs g in
      Exists (xs', go g')
    | Forall (xs, g) ->
      let xs', g' = binder xs g in
      Forall (xs', go g')
  and binder xs g =
    let subst, xs' =
      List.fold_left
        (fun (subst, acc) x ->
          if Hashtbl.mem seen x then begin
            let x' = gensym x in
            Hashtbl.replace seen x' ();
            ((x, x') :: subst, x' :: acc)
          end
          else begin
            Hashtbl.replace seen x ();
            (subst, x :: acc)
          end)
        ([], []) xs
    in
    (List.rev xs', rename subst g)
  in
  go f

(* Rebuild a formula from a prefix + matrix, grouping adjacent
   same-kind quantifiers. *)
let requantify prefix matrix =
  let rec go = function
    | [] -> matrix
    | (q, x) :: rest ->
      let same, later =
        let rec span acc = function
          | (q', x') :: tl when q' = q -> span (x' :: acc) tl
          | tl -> (List.rev acc, tl)
        in
        span [ x ] rest
      in
      let inner = go later in
      (match q with Q_exists -> Exists (same, inner) | Q_forall -> Forall (same, inner))
  in
  go prefix

(** §4.1: drop the maximal leading run of same-kind quantifiers from a
    prenex form; returns the induced check mode and the remaining
    formula.  An empty prefix defaults to a validity check (the closed
    matrix must evaluate to [true]). *)
let eliminate_leading (prefix, matrix) =
  match prefix with
  | [] -> (Check_valid, matrix)
  | (q, _) :: _ ->
    let rec drop = function
      | (q', _) :: tl when q' = q -> drop tl
      | tl -> tl
    in
    let remaining = drop prefix in
    let check = match q with Q_forall -> Check_valid | Q_exists -> Check_satisfiable in
    (check, requantify remaining matrix)

(** Rule 5: distribute remaining universal quantifiers across
    conjunctions, recursively; a quantifier not occurring free in a
    conjunct is dropped for that conjunct (domains are non-empty). *)
let rec push_forall = function
  | Forall (xs, body) -> (
    let body = push_forall body in
    match body with
    | And (a, b) ->
      let keep f = List.filter (fun x -> Sset.mem x (free_vars f)) xs in
      let wrap f = match keep f with [] -> f | vs -> push_forall (Forall (vs, f)) in
      And (wrap a, wrap b)
    | _ -> Forall (xs, body))
  | Exists (xs, body) -> Exists (xs, push_forall body)
  | And (a, b) -> And (push_forall a, push_forall b)
  | Or (a, b) -> Or (push_forall a, push_forall b)
  | Not f -> Not (push_forall f)
  | (True | False | Atom _ | Eq _ | In _) as f -> f
  | Implies (a, b) -> Implies (push_forall a, push_forall b)
  | Iff (a, b) -> Iff (push_forall a, push_forall b)

(* -- the violation form -------------------------------------------------------

   An entry BDD holds only valid codes, so bit-level ∃ over one of its
   blocks is the active-domain ∃ (the reason {!Compile} projects a
   wildcard that way).  For a variable x occurring exactly once in the
   atom R(…x…) that is the whole scope of its quantifier, therefore,

     ∃x. R(…x…) ≡ R(…_…)    and    ∀x. ¬R(…x…) ≡ ¬R(…_…),

   and the atom compiles on the entry of a projection of R.  A
   variable repeated in its atom, shared with [=], [in] or another
   atom, or under a positive ∀ or a negated ∃ is left alone. *)

(* Bound variables, bottom-up, so a quantifier emptied below exposes
   its atom to the one above; [n] counts the variables made
   wildcards. *)
let project_bound ?(n = ref 0) f =
  (* the variables of [xs] occurring once in [ts] become wildcards;
     returns the ones left bound and the new terms *)
  let split xs ts =
    let once x = List.length (List.filter (( = ) (Var x)) ts) = 1 in
    let gone, kept = List.partition once xs in
    n := !n + List.length gone;
    (kept, List.map (function Var x when List.mem x gone -> Wildcard | t -> t) ts)
  in
  let bind q xs body = requantify (List.map (fun x -> (q, x)) xs) body in
  let rec go = function
    | Exists (xs, g) -> (
      match go g with
      | Atom (r, ts) ->
        let kept, ts = split xs ts in
        bind Q_exists kept (Atom (r, ts))
      | g -> Exists (xs, g))
    | Forall (xs, g) -> (
      match go g with
      | Not (Atom (r, ts)) ->
        let kept, ts = split xs ts in
        bind Q_forall kept (Not (Atom (r, ts)))
      | g -> Forall (xs, g))
    | And (a, b) -> And (go a, go b)
    | Or (a, b) -> Or (go a, go b)
    | Implies (a, b) -> Implies (go a, go b)
    | Iff (a, b) -> Iff (go a, go b)
    | Not g -> Not (go g)
    | (True | False | Atom _ | Eq _ | In _) as f -> f
  in
  go f

(* Free occurrences of each variable of [f]. *)
let free_occurrences f =
  let count = Hashtbl.create 16 in
  let term bound = function
    | Var x when not (Sset.mem x bound) ->
      Hashtbl.replace count x (1 + Option.value ~default:0 (Hashtbl.find_opt count x))
    | Var _ | Const _ | Wildcard -> ()
  in
  let rec go bound = function
    | True | False -> ()
    | Atom (_, ts) -> List.iter (term bound) ts
    | Eq (a, b) ->
      term bound a;
      term bound b
    | In (a, _) -> term bound a
    | Not g -> go bound g
    | And (a, b) | Or (a, b) | Implies (a, b) | Iff (a, b) ->
      go bound a;
      go bound b
    | Exists (xs, g) | Forall (xs, g) -> go (List.fold_right Sset.add xs bound) g
  in
  go Sset.empty f;
  count

(* Free variables: one occurring once in all of [f], in a positive atom
   that is a top-level conjunct, becomes a wildcard — exact for a
   satisfiability test, as ∃x. (R(…x…) ∧ φ) ≡ R(…_…) ∧ φ when x is not
   free in φ. *)
let project_free n f =
  let count = free_occurrences f in
  let term = function
    | Var x when Hashtbl.find_opt count x = Some 1 ->
      incr n;
      Wildcard
    | t -> t
  in
  let rec go = function
    | And (a, b) -> And (go a, go b)
    | Atom (r, ts) -> Atom (r, List.map term ts)
    | g -> g
  in
  go f

(* The violation form and the number of variables it made wildcards. *)
let violation_counted f =
  let n = ref 0 in
  let g = project_free n (project_bound ~n (push_forall (nnf (Not f)))) in
  (g, !n)

(** The formula the violation polarity compiles for a validity matrix
    [f]: the NNF of ¬[f], ∀ pushed down across its conjunctions
    (Rule 5), and single-atom variables made wildcards.  Equivalent to
    ¬[f] up to the ∃-closure of their free variables, the
    satisfiability test the verdict makes.  When telemetry is enabled,
    counts the variables made wildcards
    ([rewrite.projected_vars]). *)
let violation f =
  let module T = Fcv_util.Telemetry in
  let g, n = violation_counted f in
  if n > 0 && T.enabled () then T.incr ~by:n (T.counter "rewrite.projected_vars");
  g

(** The full §4.4 pipeline.  Returns the check mode and the optimised
    formula whose BDD is to be tested for validity/satisfiability.
    When telemetry is enabled, records which rules fired: the leading
    quantifiers dropped (§4.1), whether ∀ push-down (Rule 5) changed
    the formula, and how many variables the violation form of a
    validity matrix projects ({!violation}). *)
let optimize f =
  let module T = Fcv_util.Telemetry in
  let prefix, matrix = prenex f in
  let check, g = eliminate_leading (prefix, matrix) in
  let g' = push_forall g in
  if T.enabled () then begin
    T.incr (T.counter "rewrite.prenex");
    let dropped = List.length prefix - List.length (fst (prenex_nnf g)) in
    if dropped > 0 then
      T.incr ~by:dropped (T.counter "rewrite.leading_quantifiers_eliminated");
    if g' <> g then T.incr (T.counter "rewrite.forall_pushdown");
    let projected =
      match check with Check_valid -> snd (violation_counted g') | Check_satisfiable -> 0
    in
    T.event "rewrite"
      [
        ("leading_dropped", T.Int dropped);
        ("forall_pushdown", T.Bool (g' <> g));
        ("projected_vars", T.Int projected);
        ( "check",
          T.String (match check with Check_valid -> "valid" | Check_satisfiable -> "satisfiable")
        );
      ]
  end;
  (check, g')

(** Drop-in identity pipeline for the ablation benchmarks: no
    rewrites beyond the rename-apart hygiene the compiler requires;
    validity check of the whole closed formula. *)
let no_rewrite f = (Check_valid, rename_apart f)
