(* Host-speed reference.

   The benchmark's host shares its machine with other tenants, and its
   speed drifts by up to 1.6x over seconds to minutes.  A fixed loop of
   the benchmark's own is timed every [period_ns] of host time: random
   read-modify-writes over a 32 MB table (DRAM-bound, like the
   million-flow state), binary-heap pushes and pops over 4096 ints
   (branchy and cache-resident, like the event queue) and short-lived
   closures (minor-heap churn, like the simulator's event handlers).
   End-to-end timings are reported in reference-host units: host ns x
   [nominal_ns] / (median of the run's reference times), the time the
   run would have taken on a host on which the loop takes exactly
   [nominal_ns].  One factor per run: a factor per slice tracked the
   drift within a run better but put the reference's own noise into
   the tail quantiles.  No simulator code runs in the loop, so a change
   to the simulator moves the normalised figures exactly as it moves
   the raw ones.  The loop never runs inside the deterministic window,
   whose GC counts therefore stay exact. *)

let clock = Probes.clock
let nominal_ns = 8_000_000
let period_ns = 200_000_000
let iterations = 131_072

(* Outside the OCaml heap, so it does not count in peak_heap_mb. *)
let table =
  let t = Bigarray.Array1.create Bigarray.int Bigarray.c_layout (1 lsl 22) in
  Bigarray.Array1.fill t 0;
  t

let heap = Array.make 4097 0

let loop () =
  let x = ref 88172645463325252 in
  let n = ref 0 in
  let l = ref [] in
  for i = 1 to iterations do
    x := !x lxor (!x lsl 13);
    x := !x lxor (!x lsr 7);
    x := !x lxor (!x lsl 17);
    let j = !x land (Bigarray.Array1.dim table - 1) in
    table.{j} <- table.{j} + i;
    if !n = 0 || (!n < 4096 && i land 1 = 0) then begin
      incr n;
      let k = ref !n in
      heap.(!k) <- !x land 0xffff;
      while !k > 1 && heap.(!k / 2) > heap.(!k) do
        let p = !k / 2 in
        let v = heap.(!k) in
        heap.(!k) <- heap.(p);
        heap.(p) <- v;
        k := p
      done
    end
    else begin
      heap.(1) <- heap.(!n);
      decr n;
      let k = ref 1 and go = ref true in
      while !go do
        let c = 2 * !k in
        if c > !n then go := false
        else begin
          let c = if c + 1 <= !n && heap.(c + 1) < heap.(c) then c + 1 else c in
          if heap.(c) < heap.(!k) then begin
            let v = heap.(c) in
            heap.(c) <- heap.(!k);
            heap.(!k) <- v;
            k := c
          end
          else go := false
        end
      done
    end;
    l := (fun () -> i + !n) :: (if i land 255 = 0 then [] else !l)
  done;
  ignore (Sys.opaque_identity !l)

type t = { mutable all : int list; mutable last : int (* clock after the last measurement *) }

let measure t =
  let t0 = clock () in
  loop ();
  let t1 = clock () in
  t.all <- (t1 - t0) :: t.all;
  t.last <- t1

(* The first pass faults the table into the caches and TLB; it is not
   measured. *)
let create () =
  let t = { all = []; last = 0 } in
  loop ();
  measure t;
  t

(* Measure when [period_ns] has passed since the last measurement.
   [true] when it did, so the caller can leave the next slice, whose
   caches the loop disturbed, out of its statistics. *)
let tick t =
  if clock () - t.last >= period_ns then begin
    measure t;
    true
  end
  else false

let median_ns t = Probes.median (Array.of_list (List.map float_of_int t.all))

(* Host ns -> reference-host ns over the whole run. *)
let factor t = float_of_int nominal_ns /. median_ns t
