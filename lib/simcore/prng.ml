(* The xoshiro256++ state s0..s3 lives in one 32-byte [Bytes], read and
   written as little-endian int64 words.  Four mutable [int64] record
   fields would hold a pointer to a box each, so every draw re-boxed all
   four; the [Bytes] accessors move raw 64-bit words, and within [next]
   the compiler keeps the locals unboxed.  A draw allocates nothing
   beyond what its caller returns. *)
type t = Bytes.t

(* splitmix64: used only to expand the seed into the xoshiro state, per
   the xoshiro authors' recommendation. *)
let splitmix64 state =
  let open Int64 in
  state := add !state 0x9E3779B97F4A7C15L;
  let z = !state in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

let of_splitmix seed =
  let st = ref seed in
  let t = Bytes.create 32 in
  for i = 0 to 3 do
    Bytes.set_int64_le t (8 * i) (splitmix64 st)
  done;
  t

let create ~seed = of_splitmix (Int64.of_int seed)

(* ALLOC003: the Int64 operations act on unboxed locals read from and
   written back to the [Bytes] state; [next] is inlined into each
   caller, so only a caller that returns the int64 ([bits64]) boxes. *)
let[@inline] next t =
  let open Int64 in
  let s0 = Bytes.get_int64_le t 0 and s1 = Bytes.get_int64_le t 8 in
  let s2 = Bytes.get_int64_le t 16 and s3 = Bytes.get_int64_le t 24 in
  let sum = add s0 s3 in
  let result = add (logor (shift_left sum 23) (shift_right_logical sum 41)) s0 in
  let tmp = shift_left s1 17 in
  let s2 = logxor s2 s0 in
  let s3 = logxor s3 s1 in
  let s1 = logxor s1 s2 in
  let s0 = logxor s0 s3 in
  let s2 = logxor s2 tmp in
  let s3 = logor (shift_left s3 45) (shift_right_logical s3 19) in
  Bytes.set_int64_le t 0 s0;
  Bytes.set_int64_le t 8 s1;
  Bytes.set_int64_le t 16 s2;
  Bytes.set_int64_le t 24 s3;
  result
[@@lint.allow "ALLOC003"]

let[@hot] bits64 t = next t

let split t = of_splitmix (next t)
let copy t = Bytes.copy t

(* 53 high bits of the next output: an immediate int, so a caller in
   another module can build the float itself without a box. *)
let[@hot] bits53 t = Int64.to_int (Int64.shift_right_logical (next t) 11)
[@@lint.allow "ALLOC003"]

(* 53 high bits -> uniform double in [0,1).  The bits fit a double's
   mantissa, so the int conversion is exact. *)
let[@hot] float t = Float.of_int (bits53 t) *. 0x1.0p-53

let[@hot] chance t p = float t < p

let float_range t lo hi =
  if hi < lo then invalid_arg "Prng.float_range: hi < lo";
  lo +. ((hi -. lo) *. float t)

(* Rejection-free for our purposes: modulo bias is negligible for the
   bounds used in this project (all far below 2^63). *)
let[@hot] int t n =
  if n <= 0 then invalid_arg "Prng.int: bound must be positive";
  Int64.to_int (Int64.rem (Int64.shift_right_logical (next t) 1) (Int64.of_int n))
[@@lint.allow "ALLOC003"]

let bool t = Int64.logand (next t) 1L = 1L

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done
