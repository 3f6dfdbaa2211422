(** Violating-tuple enumeration and attribution — the second,
    expensive phase the paper defers until a fast check has said
    "violated".  Witnesses are the models of ¬C's leading existential
    block, read directly off the BDDs and decoded through the domain
    dictionaries; on top of them sit the tuple-attribution and blame
    primitives the repair planner optimises over. *)

type witness = (string * Fcv_relation.Value.t) list
(** one violating binding: variable name → value *)

val enumerate : ?limit:int -> Index.t -> Formula.t -> witness list option
(** Up to [limit] violating bindings of the constraint's outermost
    universally quantified variables, {e sorted by decoded value} (so
    the output is deterministic across manager states, index build
    orders and recoveries); [None] when ¬C has no leading existential
    block to witness. *)

val count : Index.t -> Formula.t -> float option
(** Exact number of violating bindings (model count over the witness
    blocks) without enumerating them. *)

val soft_counts : Index.t -> Formula.t -> (Fcv_bdd.Nat.t * Fcv_bdd.Nat.t) option
(** Exact [(violations, total)] binding counts for a threshold
    verdict: models of ¬C's matrix over the witness space, and models
    of the constraint's outermost hypothesis ([True] — the whole
    guarded space — when the ∀-stripped body is not an implication)
    over the same space.  [violations ≤ total] always.  Arbitrary
    precision: immune to the [2^53] float rounding of {!count}.  The
    space is C's own leading ∀-block ({!Formula.strip_foralls}), as
    {!Naive_eval.soft_counts} enumerates it; [None] when C has no
    leading ∀-block (the caller's 0/1 semantics). *)

(** {2 Analysis sessions}

    {!analyze} compiles the violation BDD once and keeps it live, so
    witness listing, counting, attribution and per-tuple blame share
    the compilation.  The session borrows scratch blocks from the
    index; {!release} returns them — results must be read before
    releasing, and the underlying index must not be mutated while a
    session is open.  A budget trip inside {!analyze} returns the
    blocks it borrowed before it escapes, and {!enumerate}, {!count}
    and {!soft_counts} release on every exit. *)

type analyzer

val analyze : Index.t -> Formula.t -> analyzer option
(** [None] when ¬C has no leading existential block (a violation of a
    bare existential has no finite witness). *)

val release : analyzer -> unit

val witness_count : analyzer -> float

val witness_list : ?limit:int -> analyzer -> witness list
(** Up to [limit] witnesses, sorted by decoded value. *)

val participants : ?limit:int -> analyzer -> (string * int array) list
(** The distinct base tuples — [(table, coded row)] pairs, sorted —
    participating in (up to [limit] of) the witnesses: for each
    witness, the rows matched by the groundings of the matrix's
    positive top-region atoms.  Exactly the tuples whose deletion can
    kill a witness, i.e. the repair planner's candidates. *)

val blame : analyzer -> table:string -> row:int array -> float
(** The number of current witnesses deleting [(table, row)] kills:
    inclusion–exclusion over the positive [table]-atoms, each term a
    restrict-and-count walk of the violation BDD
    ({!Fcv_bdd.Sat.count_restrict}) — no BDD allocation.  An upper
    bound when other rows share the row's projection onto an atom's
    constrained columns (the witness survives on the other support). *)

type pattern = {
  p_table : string;
  p_pattern : int option array;
      (** per-column grounding: [Some code] pins, [None] is free *)
  p_rows : int array list;  (** current supporting rows, sorted *)
  p_kills : float;
      (** witnesses killed when {e every} [p_rows] row is deleted —
          exact, unlike the per-row {!blame} upper bound *)
}

val patterns : ?limit:int -> analyzer -> pattern list
(** The distinct grounded positive-atom patterns of (up to [limit] of)
    the witnesses, ordered by (table, pattern) — the greedy repair
    planner's candidate moves: deleting a pattern's whole support is
    guaranteed to kill its counted witnesses. *)
