(** Deterministic pseudo-random number generation.

    A small, explicit-state PRNG (xoshiro256++ seeded through splitmix64)
    so that every simulation run is reproducible from a single integer
    seed and no global state is touched.  Quality is far beyond what the
    stochastic workload models need, and the explicit state makes it easy
    to give independent streams to independent model components. *)

type t
(** Mutable generator state. *)

val create : seed:int -> t
(** [create ~seed] builds a generator deterministically from [seed].
    Equal seeds yield equal streams. *)

val split : t -> t
(** [split t] derives a new generator from [t], advancing [t].  The two
    streams are statistically independent; use this to hand sub-streams
    to model components so that adding draws in one component does not
    perturb another. *)

val copy : t -> t
(** [copy t] duplicates the state; the copy replays the same future
    stream as [t]. *)

val bits64 : t -> int64
(** Next raw 64-bit output. *)

val bits53 : t -> int
(** The 53 high bits of the next raw output, as an immediate int in
    [\[0, 2^53)].  [float t] is exactly [Float.of_int (bits53 t) *.
    0x1.0p-53]; a caller in another module that builds the float itself
    avoids the box a returned float costs. *)

val float : t -> float
(** [float t] is uniform in [\[0, 1)]. *)

val chance : t -> float -> bool
(** [chance t p] is [float t < p]: true with probability [p]. *)

val float_range : t -> float -> float -> float
(** [float_range t lo hi] is uniform in [\[lo, hi)].
    @raise Invalid_argument if [hi < lo]. *)

val int : t -> int -> int
(** [int t n] is uniform in [\[0, n)].  @raise Invalid_argument if
    [n <= 0]. *)

val bool : t -> bool
(** Fair coin. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)
