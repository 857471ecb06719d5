(** Hashed timing wheel (Varghese & Lauck, SOSP'87).

    The soft-timer facility keeps its pending events in "a modified form
    of timing wheels" (paper, footnote 2): scheduling and cancellation
    must be O(1), and the per-trigger-state check must find the earliest
    pending deadline in O(1) in the common case.

    Deadlines are bucketed into [slots] circular slots of [tick]
    duration each; an entry due at absolute time [d] lives in slot
    [(d / tick) mod slots] and carries its exact deadline, so entries
    more than one rotation away are simply skipped when their slot is
    swept.  An occupancy bitmap restricts every sweep to occupied slots,
    and the earliest-deadline query is served from a cache that is
    invalidated only when the minimum could have changed.

    Entries live in a generation-stamped slab and a handle is an
    immediate int: the steady schedule / check / fire / re-arm cycle
    allocates nothing.  Cancel and re-arm act in place, so the wheel
    never holds cancelled corpses ([resident = pending]).

    The module matches [Timer_store.S] structurally (with
    [create] at the default 512 slots); [Timer_store.wheel] returns it
    as is.  The contract — tie positions, snapshot batches, budgets,
    handles surviving re-arm — is the one documented there. *)

type 'a t

type 'a handle
(** Stable identity of a scheduled entry; survives re-arms. *)

val name : string
(** ["wheel"]. *)

val default_slots : int
(** 512. *)

val create : tick:Time_ns.span -> unit -> 'a t
(** [create ~tick ()] is [create_sized ~slots:default_slots ~tick ()]. *)

val create_sized : slots:int -> tick:Time_ns.span -> unit -> 'a t
(** An empty wheel of [slots] slots, each covering [tick] of time.
    @raise Invalid_argument if [tick <= 0] or [slots <= 0]. *)

val slots : 'a t -> int
val tick : 'a t -> Time_ns.span

val schedule : 'a t -> at:Time_ns.t -> 'a -> 'a handle
(** [schedule t ~at v] registers [v] to expire at absolute time [at].
    O(1); allocates nothing once the slab has grown to the peak
    population. *)

val schedule_i : 'a t -> at_i:int -> 'a -> 'a handle
(** [schedule] with the deadline in integer nanoseconds (boxed once,
    for the callback). *)

val cancel : 'a t -> 'a handle -> unit
(** Remove an entry at once.  No-op on a cancelled or fired entry. *)

val rearm : 'a t -> 'a handle -> at:Time_ns.t -> bool
(** Move a pending entry to [at] with a fresh tie position, in place;
    [false] when the entry is no longer pending. *)

val pending : 'a t -> int
(** Scheduled, uncancelled, unfired entries. *)

val resident : 'a t -> int
(** Entries held; always equal to [pending t]. *)

val next_deadline : 'a t -> Time_ns.t option
(** Earliest pending deadline, or [None] when the wheel is empty.  This
    is the comparison the soft-timer facility performs at every trigger
    state: a cached read (and no allocation) unless the minimum changed,
    in which case occupied slots are walked in time order from the
    sweep horizon until the minimum is certain. *)

val words : 'a t -> int
(** Analytic heap footprint in 64-bit words, excluding payloads: the
    record, slot heads and bitmap, eight slab arrays of capacity cells,
    the batch buffer and one boxed deadline per pending entry.
    Cross-checked against [Obj.reachable_words] in tests. *)

val handle_pending : 'a t -> 'a handle -> bool

val handle_deadline : 'a t -> 'a handle -> Time_ns.t
(** The entry's deadline while it is pending; [Time_ns.zero] after it
    fired or was cancelled. *)

val fire_due :
  'a t ->
  ?prefetch:('a -> unit) ->
  now:Time_ns.t ->
  limit:int ->
  (Time_ns.t -> 'a -> unit) ->
  Fire_outcome.t
(** [fire_due t ~now ~limit f] removes every entry with deadline
    [<= now] and calls [f deadline value] on each, in (deadline, tie)
    order, invoking at most [limit] callbacks; entries beyond the budget
    stay pending with deadline and tie position intact.  The sweep
    starts at the earliest entry's slot and visits occupied slots only.
    Handlers may schedule new entries, including already-due ones;
    those fire on the next call.  Each entry is re-checked just before
    its callback, so a handler that cancels or re-arms a later
    same-batch entry suppresses its dispatch.  [prefetch] is ignored. *)

val iter_pending : 'a t -> (Time_ns.t -> 'a -> unit) -> unit
(** Visit every pending entry in unspecified order (for tests). *)

val slot_visits : 'a t -> int
(** Slot lists walked so far by the due and minimum sweeps — the work
    counter behind the O(occupied slots) sweep bound (for tests). *)
