(** Array-based binary min-heap.

    The generic closure-compared heap: the baseline the engine's
    specialized {!Eventq} is benchmarked against.  Elements are ordered
    by the comparison supplied at creation; ties are resolved
    arbitrarily. *)

type 'a t

val create : cmp:('a -> 'a -> int) -> 'a t
(** [create ~cmp] is an empty heap ordered by [cmp]. *)

val length : 'a t -> int
(** Number of elements currently stored. *)

val is_empty : 'a t -> bool

val capacity : 'a t -> int
(** Length of the backing array (≥ {!length}); what the heap's memory
    footprint is proportional to, as opposed to its live size. *)

val push : 'a t -> 'a -> unit
(** [push h x] inserts [x].  O(log n). *)

val peek : 'a t -> 'a option
(** Smallest element, or [None] when empty.  O(1). *)

val pop : 'a t -> 'a option
(** Remove and return the smallest element.  O(log n). *)

val pop_exn : 'a t -> 'a
(** Like {!pop}.  @raise Invalid_argument when empty. *)

val clear : 'a t -> unit
(** Remove all elements (keeps the backing array). *)

val to_sorted_list : 'a t -> 'a list
(** Non-destructively extract all elements in ascending order.
    O(n log n); intended for tests and debugging. *)
