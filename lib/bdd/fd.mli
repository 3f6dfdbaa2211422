(** Finite-domain variables: blocks of ⌈log₂ d⌉ boolean variables with
    MSB shallowest (§2.1 of the paper).  All relational encoding and
    constraint compilation speaks in blocks.

    Quantifiers range over the {e active domain}: {!exists} and
    {!forall} guard the bit-level quantification with the block's
    domain-validity BDD, which matters whenever the domain size is not
    a power of two. *)

type block = {
  name : string;
  dom_size : int;
  levels : int array;  (** strictly increasing; [levels.(0)] is the MSB *)
}

val width : block -> int

val alloc : Manager.t -> name:string -> dom_size:int -> block
(** Allocate a block of consecutive fresh variables. *)

val level_of_bit : block -> int -> int
(** Level carrying bit [j] (LSB = 0). *)

val cube : Manager.t -> (int * bool) list -> int
(** Conjunction of literals, built bottom-up without apply calls. *)

val eq_const : Manager.t -> block -> int -> int
(** BDD of [x = c].  @raise Invalid_argument if [c] is out of domain. *)

val tuple_minterm : Manager.t -> (block * int) list -> int
(** ⋀ᵢ (xᵢ = cᵢ) across several blocks. *)

val lt_const : Manager.t -> block -> int -> int
(** BDD of [x < c] (MSB-first comparator). *)

val valid : Manager.t -> block -> int
(** Domain guard: codes in [0, dom_size).  [one] for power-of-two
    domains. *)

val eq_blocks : Manager.t -> block -> block -> int
(** BDD of [x = y]; widths may differ (extra high bits forced to 0). *)

val in_set : Manager.t -> block -> int list -> int
(** Membership [x ∈ S], built by direct sorted-code construction. *)

val exists : Manager.t -> block -> int -> int
(** ∃x over the active domain (guard fused via [appex]). *)

val forall : Manager.t -> block -> int -> int
(** ∀x over the active domain (guard fused via [appall]). *)

val exists_bits : Manager.t -> block -> int -> int
(** Unguarded bit-level ∃ — exact when the operand is false outside
    the domain (e.g. any relation-index BDD). *)

val forall_bits : Manager.t -> block -> int -> int

val rename : Manager.t -> int -> src:block -> dst:block -> int
(** Rename block [src] to [dst] (same domain size). *)

val rename_onto : Manager.t -> int -> (block * block) list -> int
(** Rename each [(src, dst)] block onto [dst] in one simultaneous
    replace; each [dst] is at least as wide as its [src], and its
    extra high bits are clamped to 0.
    @raise Invalid_argument on a target narrower than its source. *)

val set_env : block -> int -> bool array -> unit
(** Write a code's bits into an evaluation environment. *)

val read_env : block -> bool array -> int
(** Read a block's code back from an environment. *)
