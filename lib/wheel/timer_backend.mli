(** A common signature for pending-timer stores, and reference
    implementations.

    The soft-timer facility needs three operations on its pending-event
    set: O(1)-ish [schedule]/[cancel], a cheap earliest-deadline query
    (performed at {e every} trigger state), and batched expiry.  The
    paper picks a modified hashed timing wheel (footnote 2); this module
    captures the interface so alternatives can be compared — see the
    ablation in [bench/timer_ablation.ml]:

    - {!Sorted_list}: the classic BSD callout list; O(n) insert, O(1)
      check/expiry.  Fine for a handful of timers, pathological for the
      per-connection timers of a busy server.
    - {!Binary_heap}: O(log n) insert/expiry, O(1) check.
    - [Timing_wheel] (hashed; in this library): O(1) insert/cancel,
      O(1) amortised check and expiry.  It implements the richer
      [Timer_store.S] natively rather than this signature.
    - {!Hier}: hierarchical timing wheels (the second variant of
      Varghese & Lauck): multiple levels of coarser wheels; entries
      cascade down as time advances.  O(1) insert at the right level,
      no long-deadline slot collisions.

    The richer [Timer_store] signature in [lib/store] (re-arm, stable
    handles, the Lawn and grouped-sorting stores) is layered on top of
    this one via [Timer_store.Of_base]. *)

module type S = sig
  type 'a t

  type handle

  val name : string

  val create : tick:Time_ns.span -> unit -> 'a t
  (** [tick] is the finest scheduling granularity. *)

  val schedule : 'a t -> at:Time_ns.t -> 'a -> handle
  val cancel : 'a t -> handle -> unit

  val pending : 'a t -> int
  (** Scheduled, uncancelled, unfired entries. *)

  val resident : 'a t -> int
  (** Entries physically present in the store: pending entries plus
      cancelled corpses awaiting lazy reclamation.  Every backend bounds
      this by [2 * max (pending t) 64]: once corpses reach both that
      floor and the live count, a compaction pass sheds them all, keeping the
      amortized cost per cancel O(1). *)

  val next_deadline : 'a t -> Time_ns.t option

  val words : 'a t -> int
  (** Analytic estimate of the store's own heap footprint in 64-bit
      words — records, handles, backing arrays and boxed deadlines, but
      {e not} the payload values it borrows.  Cross-checked against
      [Obj.reachable_words] (with immediate payloads) in tests; used by
      the memory observatory to report words/timer per backend. *)

  val fire_due :
    'a t -> now:Time_ns.t -> limit:int -> (Time_ns.t -> 'a -> unit) -> Fire_outcome.t
  (** [fire_due t ~now ~limit f] dispatches entries due at or before
      [now] and returns the packed batch size and callback count
      ({!Fire_outcome}).  All backends implement the same re-entrancy
      contract:

      - The due batch is the set of pending entries with deadline
        [<= now] {e at call time}.  Entries scheduled by callbacks
        during the call are never dispatched in the same call, even if
        already due; they wait for the next call.
      - Dispatch is in (deadline, schedule order) order, and each
        entry's state is re-checked immediately before its callback
        runs: an entry cancelled by an earlier callback in the same
        batch is skipped, not fired.
      - At most [limit] callbacks run (pass [max_int] for no budget);
        entries beyond the budget are re-inserted with their deadline
        and sequence number preserved, so the next call dispatches the
        remainder in the same order.  Recheck-skips do not consume the
        budget.  [Fire_outcome.scanned] counts the whole due batch,
        withheld entries included.
      - [fire_due] must not be called from within a callback. *)
end

module Sorted_list : S
module Binary_heap : S
module Hier : S
(** Hierarchical timing wheels: 4 levels of 64 slots, each level's tick
    64x the previous. *)

module With_metrics (_ : S) : S
(** [With_metrics (B)] behaves exactly like [B] but counts operations
    into {!Metrics.default} under ["backend.<name>.scheduled"],
    [".cancelled"] and [".fired"], so an ablation run can report each
    store's operation mix alongside its timings. *)

val all : (module S) list
(** The three reference backends, for tests and {!Timer_store.Of_base}. *)
