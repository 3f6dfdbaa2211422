(** Constraint → BDD compilation over the logical indices.

    Variables get {e home blocks}: a planning pre-pass lets the
    largest index entries claim their own attribute blocks, and later
    occurrences are {b renamed} onto the homes — the §4.2 equi-join
    rewrite.  Quantifiers range over active domains through validity
    guards fused with [appex]/[appall] (§4.3).

    The compiled BDD agrees with the formula on all {e valid}
    assignments of its free variables; judge validity or
    satisfiability relative to {!free_guard}. *)

exception Unsupported of string

type ctx = {
  index : Index.t;
  typing : Typing.env;
  use_appquant : bool;  (** §4.3 fused operators; off for ablation *)
  vars : (string, Fcv_bdd.Fd.block) Hashtbl.t;  (** variable → home block *)
  claimed : (int, unit) Hashtbl.t;
  mutable borrowed : Fcv_bdd.Fd.block list;  (** scratch blocks to return *)
}

val make_ctx : ?use_appquant:bool -> Index.t -> Typing.env -> ctx

val release : ctx -> unit
(** Return the context's scratch blocks to the index's pool; call
    after the final BDD has been read.  Results referencing scratch
    levels must not be consulted afterwards. *)

val mgr : ctx -> Fcv_bdd.Manager.t

val compile : ctx -> Formula.t -> int
(** Compile a formula (plans homes first).  Free variables keep their
    home blocks in [ctx.vars] for decoding.
    @raise Unsupported on atoms without covering indices.
    @raise Fcv_bdd.Manager.Node_limit past the node budget. *)

val home : ctx -> string -> Fcv_bdd.Fd.block
(** The home block of a variable, allocating a scratch block sized to
    its dictionary when no atom has given it one. *)

val free_guard : ctx -> string list -> int
(** Conjunction of the named variables' domain guards. *)

(** {2 Standalone §4.2 join strategies (Fig. 6(a))} *)

val join_naive :
  Fcv_bdd.Manager.t ->
  int ->
  int ->
  (Fcv_bdd.Fd.block * Fcv_bdd.Fd.block) list ->
  int
(** BDD(R1) ∧ BDD(R2) ∧ ⋀ᵢ(xᵢ = yᵢ) — keeps both attribute copies. *)

val join_rename :
  Fcv_bdd.Manager.t ->
  int ->
  int ->
  (Fcv_bdd.Fd.block * Fcv_bdd.Fd.block) list ->
  int
(** Rename R2's join blocks onto R1's, then one conjunction. *)
