(** Persistence for the logical index store: entry manifests plus one
    {!Fcv_bdd.Io} section.  Loading re-allocates the blocks in the
    saved level order with their saved domain sizes (grown
    dictionaries are fine — the entry rebuilds on its first
    out-of-capacity update, as it would have live); a dictionary
    smaller than a saved domain is rejected as drift.

    This is the disk format (the daemon's state snapshots,
    [fcv check --save-index]/[--load-index]) and the level renumbering
    of [Lifecycle.recycle]: a save numbers the entries' levels densely,
    so a load drops every abandoned level.  Worker replicas do not go
    through it; they copy the master ({!Index.copy}). *)

exception Format_error of string

val save : Index.t -> out_channel -> unit

val save_string : Index.t -> string
(** {!save} into an in-memory string. *)

val load : Fcv_relation.Database.t -> in_channel -> Index.t
(** @raise Format_error on malformed input or a shrunken domain. *)

val load_string : Fcv_relation.Database.t -> string -> Index.t
(** {!load} from a {!save_string} snapshot.  The returned store shares
    [db] (tables, dictionaries) but owns a fresh manager. *)

val save_file : Index.t -> string -> unit
val load_file : Fcv_relation.Database.t -> string -> Index.t
