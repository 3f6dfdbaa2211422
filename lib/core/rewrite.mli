(** The paper's query re-write rules (§4), applied in the prioritised
    order of §4.4: prenex normal form (subsuming the ∃/∨ and ∀/∧
    pull-ups of Eqs. 3–4), leading-quantifier elimination (§4.1), and
    ∀ push-down across conjunctions (Rule 5).  The violation polarity
    compiles {!violation}, which reapplies Rule 5 after negating the
    matrix and projects single-atom variables.  The equi-join rename
    (§4.2) lives in {!Compile}. *)

type check = Check_valid | Check_satisfiable
(** How to read the final BDD: a dropped leading ∀-run means the
    constraint holds iff the matrix is valid; a dropped ∃-run, iff it
    is satisfiable. *)

type quantifier = Q_exists | Q_forall

val nnf : Formula.t -> Formula.t
(** Negation normal form: ¬ pushed to literals, [Implies]/[Iff]
    expanded. *)

val prenex : Formula.t -> (quantifier * string) list * Formula.t
(** Prefix (outermost first, variables renamed apart) and
    quantifier-free matrix. *)

val rename_apart : Formula.t -> Formula.t
(** Rename binders so no name is bound twice or shadows a free
    variable; conflict-free names are kept.  {!Compile} requires
    shadow-free input. *)

val requantify : (quantifier * string) list -> Formula.t -> Formula.t
(** Rebuild a formula from prefix + matrix, grouping adjacent
    same-kind quantifiers. *)

val eliminate_leading :
  (quantifier * string) list * Formula.t -> check * Formula.t
(** Drop the maximal leading run of same-kind quantifiers (§4.1). *)

val push_forall : Formula.t -> Formula.t
(** Rule 5: ∀x(φ₁ ∧ φ₂) ⇝ ∀xφ₁ ∧ ∀xφ₂, recursively; vacuous
    quantifiers are dropped (domains are non-empty). *)

val project_bound : ?n:int ref -> Formula.t -> Formula.t
(** In an NNF formula, each bound variable occurring exactly once, in
    the atom that is its quantifier's whole scope, made a wildcard:
    ∃x̄. R(…x̄…) ⇝ R(…_…) and ∀x̄. ¬R(…x̄…) ⇝ ¬R(…_…), bottom-up, so a
    quantifier emptied below exposes its atom to the one above.  Exact
    under the active-domain semantics of wildcards.  [n] counts the
    variables made wildcards. *)

val violation : Formula.t -> Formula.t
(** The formula the violation polarity compiles for a validity matrix
    [f]:
    + the NNF of ¬[f];
    + ∀ pushed down across its conjunctions ({!push_forall});
    + each bound variable occurring exactly once, in the atom that is
      its quantifier's whole scope, made a wildcard:
      ∃x̄. R(…x̄…) ⇝ R(…_…) and ∀x̄. ¬R(…x̄…) ⇝ ¬R(…_…);
    + each free variable occurring exactly once in the whole formula,
      in a positive atom that is a top-level conjunct, made a
      wildcard.

    Steps 3 and 4 rely on the index invariant that an entry BDD holds
    only valid codes, so bit-level ∃ over an attribute block is the
    active-domain ∃.  The result is equivalent to ¬[f] up to the
    ∃-closure of the free variables: [∃x̄. violation f ≡ ∃x̄. ¬f],
    which is what the satisfiability verdict tests.  With telemetry
    enabled, adds the number of variables made wildcards to the
    [rewrite.projected_vars] counter. *)

val optimize : Formula.t -> check * Formula.t
(** The full §4.4 pipeline.  With telemetry enabled, its [rewrite]
    event records the leading quantifiers dropped, whether ∀ push-down
    fired, the check mode, and [projected_vars]: how many variables
    {!violation} makes wildcards in the returned matrix (0 for a
    satisfiability check). *)

val no_rewrite : Formula.t -> check * Formula.t
(** Identity pipeline (ablation): validity of the unchanged closed
    formula. *)
