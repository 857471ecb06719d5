(** Packed [(scanned, fired)] result of a [fire_due] call.

    Every timer store's [fire_due] returns one of
    these: [scanned] is the number of due pending entries collected
    into the dispatch batch at call time, [fired] how many callbacks
    actually ran.  [fired < scanned] when the caller's [~limit] (the
    facility check budget) withheld entries — those are re-inserted
    with their deadline and sequence number preserved — or when an
    earlier callback in the batch cancelled a later entry (dispatch
    recheck).  Packed into one immediate int ([scanned lsl 31 lor
    fired]) so hot paths return both without allocating. *)

type t = int

val pack : scanned:int -> fired:int -> t
val scanned : t -> int
val fired : t -> int
