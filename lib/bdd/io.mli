(** BDD (de)serialisation: a compact children-first text format for
    the node graphs reachable from a root set. *)

exception Format_error of string

val save :
  ?rename:(int -> int) -> ?nvars:int -> Manager.t -> roots:int list -> out_channel -> unit
(** [rename] maps manager variable ids to file variable ids (identity
    by default) and [nvars] overrides the recorded variable count;
    together they let callers compact away variables the roots never
    reference.  [rename] must be strictly increasing on each root's
    own variables. *)

val save_string : ?rename:(int -> int) -> ?nvars:int -> Manager.t -> roots:int list -> string
(** {!save} into an in-memory string. *)

val load : Manager.t -> in_channel -> int list
(** Load into a manager with at least as many variables (same intended
    order); returns the renumbered roots.  Hash-conses against
    existing nodes.  @raise Format_error *)

val load_lines : Manager.t -> (unit -> string option) -> int list
(** {!load} from a pull source of lines ([None] = end of input). *)

val save_file : Manager.t -> roots:int list -> string -> unit
val load_file : Manager.t -> string -> int list
