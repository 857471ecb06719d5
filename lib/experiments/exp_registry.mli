(** Every experiment the command-line front end and the bench harness
    can run, in the order both print them. *)

type id = string
type doc = string

val all : (id * doc * (Exp_config.t -> string)) list
(** [(id, one-line description, run)] per experiment; [run cfg] renders
    its table. *)

val find : id -> (Exp_config.t -> string, string) result
(** The experiment named [id], or a message naming every known id. *)
