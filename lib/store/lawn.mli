(** Lawn-style timer store (Lev-Libfeld, "Lawn: an unbound low latency
    timer data structure", 2019).

    Entries are grouped into per-{e duration} FIFO buckets (duration =
    deadline minus the store's notion of "now" at insert time).  Because
    the store's clock only moves forward, entries of equal duration are
    inserted with non-decreasing deadlines, so each bucket is sorted by
    construction: insert is an O(1) tail append, cancel an O(1) unlink
    (physical — a Lawn never holds corpses, [resident = pending]), and
    expiry pops due heads.  Re-arm is unlink + re-append, also O(1).

    The structure is ideal when timer durations are {e few and repeated}
    — exactly the TCP retransmit / delayed-ACK shape the soft-timers
    paper targets, where every connection uses the same handful of
    timeout constants.  Its weak spot is many {e distinct} durations:
    the earliest-deadline query and expiry sweep are linear in the
    number of buckets (one per distinct duration still held; emptied
    buckets are dropped at the end of a [fire_due] once they outnumber
    the occupied ones, past a floor of 64).

    Conforms to the {!Timer_store.S} contract; see [timer_store.mli] for
    the fire/re-arm semantics. *)

include Timer_store.S
