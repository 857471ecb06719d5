type t =
  | Constant of float
  | Uniform of float * float
  | Exponential of float
  | Pareto of { scale : float; shape : float }
  | Lognormal of { mu : float; sigma : float }
  | Erlang of { k : int; mean : float }
  | Mixture of (float * t) list
  | Shifted of float * t

(* A uniform double in [0,1), bit-identical to [Prng.float]: taking
   the immediate bits keeps the float unboxed here. *)
let[@inline] unit_float rng = Float.of_int (Prng.bits53 rng) *. 0x1.0p-53

(* Box–Muller; one variate per call keeps the generator state simple. *)
let[@inline] normal rng =
  let u1 = 1.0 -. unit_float rng in
  let u2 = unit_float rng in
  sqrt (-2.0 *. log u1) *. cos (2.0 *. Float.pi *. u2)

(* The mixture branch a draw of [x] in [\[0, total)] selects: the first
   whose cumulative weight exceeds [x], else the last.  The weights are
   summed left to right exactly as the chosen branch's bounds, and the
   loops keep their accumulators in local refs, which the compiler
   unboxes. *)
let pick branches rng =
  let total = ref 0.0 and rest = ref branches in
  while
    match !rest with
    | [] -> false
    | (w, _) :: tl ->
      total := !total +. w;
      rest := tl;
      true
  do
    ()
  done;
  let x = unit_float rng *. !total in
  match branches with
  | [] -> invalid_arg "Dist.draw: empty mixture"
  | (_, first) :: _ ->
    let acc = ref 0.0 and rest = ref branches and chosen = ref first in
    while
      match !rest with
      | [] -> false
      | [ (_, d) ] ->
        chosen := d;
        false
      | (w, d) :: tl ->
        if x < !acc +. w then begin
          chosen := d;
          false
        end
        else begin
          acc := !acc +. w;
          rest := tl;
          true
        end
    do
      ()
    done;
    !chosen

(* Every constructor but [Mixture] and [Shifted], which [draw_raw] and
   [draw] resolve first: not recursive, so it inlines and the
   arithmetic stays unboxed up to [draw]'s one result box. *)
let[@inline] leaf t rng =
  match t with
  | Constant c -> c
  | Uniform (lo, hi) ->
    if hi < lo then invalid_arg "Prng.float_range: hi < lo";
    lo +. ((hi -. lo) *. unit_float rng)
  | Exponential mean ->
    let u = 1.0 -. unit_float rng in
    -.mean *. log u
  | Pareto { scale; shape } ->
    let u = 1.0 -. unit_float rng in
    scale /. (u ** (1.0 /. shape))
  | Lognormal { mu; sigma } -> exp (mu +. (sigma *. normal rng))
  | Erlang { k; mean } ->
    let rate = float_of_int k /. mean in
    let acc = ref 0.0 in
    for _ = 1 to k do
      let u = 1.0 -. unit_float rng in
      acc := !acc -. (log u /. rate)
    done;
    !acc
  | Mixture _ | Shifted _ -> assert false

let rec draw_raw t rng =
  match t with
  | Mixture branches -> draw_raw (pick branches rng) rng
  | Shifted (c, d) -> c +. draw_raw d rng
  | Constant _ | Uniform _ | Exponential _ | Pareto _ | Lognormal _ | Erlang _ -> leaf t rng

(* Clamping is idempotent, so a mixture clamps its chosen branch's draw
   once.  Only [Shifted] needs the raw, unclamped variate underneath. *)
let[@hot] rec draw t rng =
  match t with
  | Mixture branches -> draw (pick branches rng) rng
  | Shifted (c, d) -> Float.max 0.0 (c +. draw_raw d rng)
  | Constant _ | Uniform _ | Exponential _ | Pareto _ | Lognormal _ | Erlang _ ->
    Float.max 0.0 (leaf t rng)

let rec mean = function
  | Constant c -> c
  | Uniform (lo, hi) -> (lo +. hi) /. 2.0
  | Exponential m -> m
  | Pareto { scale; shape } ->
    if shape <= 1.0 then infinity else scale *. shape /. (shape -. 1.0)
  | Lognormal { mu; sigma } -> exp (mu +. (sigma *. sigma /. 2.0))
  | Erlang { k = _; mean = m } -> m
  | Mixture branches ->
    let total = List.fold_left (fun acc (w, _) -> acc +. w) 0.0 branches in
    List.fold_left (fun acc (w, d) -> acc +. (w /. total *. mean d)) 0.0 branches
  | Shifted (c, d) -> c +. mean d

let span t rng = Time_ns.of_us (draw t rng)
