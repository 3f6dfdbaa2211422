(** Plan evaluator: a push-based pipeline over rows read in place.
    Joins build on the right input, semi and anti joins build a key
    set on the right, grouping is hash aggregation; keys are read
    straight from the rows' key columns.  Evaluations share no state,
    so domains may evaluate plans over the same tables concurrently
    while no one mutates them. *)

val run : Algebra.plan -> int array list
(** The plan's result rows (dictionary codes), in no particular order.
    Every row is a fresh array: mutating it changes no table. *)

val count : Algebra.plan -> int
(** The result's cardinality, counted without collecting rows. *)

val is_empty : Algebra.plan -> bool
(** Whether the plan produces no row; evaluation stops at the first
    row produced, so inputs are read only as far as that. *)
