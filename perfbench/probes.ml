(* Layer probes: each one calls a single layer's public API in
   isolation, at the pending size observed in the workload, and returns
   host ns per operation.  Every probe runs its loop [reps] times and
   keeps the median, so one descheduling does not move the figure. *)

let clock () = Int64.to_int (Monotonic_clock.now ())

let median a =
  let a = Array.copy a in
  Array.sort Float.compare a;
  a.(Array.length a / 2)

let reps = 3
let budget_ns = 100_000_000

(* Host ns per operation.  [f k] performs [k] operations; each of the
   [reps] repetitions runs batches of 64 for [budget_ns]. *)
let per_op f =
  median
    (Array.init reps (fun _ ->
         let t0 = clock () in
         let n = ref 0 in
         while clock () - t0 < budget_ns do
           f 64;
           n := !n + 64
         done;
         float_of_int (clock () - t0) /. float_of_int !n))

(* Engine queue: the classic hold model.  [pending] events, each of
   which reschedules itself a random delay ahead when it runs, so every
   [Engine.step] is one pop plus one push at constant queue size. *)
let eventq_hold_ns ~pending =
  let e = Engine.create () in
  let rng = Prng.create ~seed:1 in
  let deltas = Array.init 4096 (fun _ -> Time_ns.of_ns (1 + Prng.int rng 100_000)) in
  let k = ref 0 in
  let rec hold () =
    k := (!k + 1) land 4095;
    ignore (Engine.schedule_after e deltas.(!k) hold : Engine.handle)
  in
  for i = 1 to max 1 pending do
    ignore (Engine.schedule_after e deltas.(i land 4095) hold : Engine.handle)
  done;
  per_op (fun k ->
      for _ = 1 to k do
        ignore (Engine.step e : bool)
      done)

(* Soft-timer facility on a bare machine whose CPU is kept busy, as on
   the saturated server: checks happen at trigger states, never from
   the idle loop.
   - check: one trigger state with [pending] events armed, none due;
   - fire: the marginal cost of one due event at a trigger state —
     dispatch, the handler's re-arm and the CPU charge for the
     dispatch — over the same loop with nothing due. *)
let softtimer_ns ~pending =
  let pending = max 1 pending in
  let e = Engine.create () in
  let m = Machine.create e in
  let st = Softtimer.attach m in
  Machine.submit_quantum m ~prio:Cpu.prio_background ~work_us:1e12 ~trigger:None (fun _ -> ());
  let far = Time_ns.of_sec 3600.0 in
  let parked =
    Array.init pending (fun _ -> Softtimer.schedule_after st far (fun _ -> ()))
  in
  let check_ns =
    per_op (fun k ->
        for _ = 1 to k do
          Machine.fire_trigger m Trigger.Syscall
        done)
  in
  Array.iter (Softtimer.cancel st) parked;
  let step = Time_ns.of_us 1.0 in
  let advance_and_check k =
    for _ = 1 to k do
      Engine.run_until e Time_ns.(Engine.now e + step);
      Machine.fire_trigger m Trigger.Syscall
    done
  in
  let base = per_op advance_and_check in
  let rec rearm _ = ignore (Softtimer.schedule_soft_event st ~ticks:0L rearm : Softtimer.handle) in
  for _ = 1 to pending do
    rearm Time_ns.zero
  done;
  let with_fire = per_op advance_and_check in
  (check_ns, Float.max 0.0 (with_fire -. base) /. float_of_int pending)

type store_ns = {
  hold : float;  (* next_deadline, fire one, reschedule it *)
  rearm : float;  (* move one pending entry to a new deadline *)
  cancel : float;  (* cancel one pending entry and schedule a fresh one *)
  fire_resched : float;  (* per fired entry: tick-driven fire_due, each entry rescheduled *)
  words_per_timer : float;
}

(* A timer store holding [pending] entries.  Entry [i] is first due at
   [start i] and thereafter every [interval i] ns on an ideal
   (drift-free) schedule, as the fleet's flows are; [warm] ticks run
   before timing so the store reaches its steady shape. *)
let store_ns (module M : Timer_store.S) ~pending ~tick ~start ~interval ~warm =
  let pending = max 1 pending in
  let tick_ns = Int64.to_int (Time_ns.to_ns tick) in
  let s : int M.t = M.create ~tick () in
  let next = Array.init pending start in
  let hs = Array.init pending (fun i -> M.schedule_i s ~at_i:next.(i) i) in
  let now = ref 0 in
  let fired = ref 0 in
  let resched _due i =
    incr fired;
    let at = next.(i) + interval i in
    next.(i) <- at;
    hs.(i) <- M.schedule_i s ~at_i:at i
  in
  let advance ticks =
    for _ = 1 to ticks do
      now := !now + tick_ns;
      ignore (M.fire_due s ~now:(Int64.of_int !now) ~limit:max_int resched : Fire_outcome.t)
    done
  in
  advance warm;
  let words_per_timer = float_of_int (M.words s) /. float_of_int (M.pending s) in
  let fire_resched =
    median
      (Array.init reps (fun _ ->
           let f0 = !fired in
           let t0 = clock () in
           while clock () - t0 < budget_ns do
             advance 1
           done;
           float_of_int (clock () - t0) /. float_of_int (max 1 (!fired - f0))))
  in
  let hold =
    per_op (fun k ->
        for _ = 1 to k do
          match M.next_deadline s with
          | Some d ->
            (* Round up to the tick so an approximate store's bucket is
               due too. *)
            let d_i = (Int64.to_int d + tick_ns - 1) / tick_ns * tick_ns in
            if d_i > !now then now := d_i;
            ignore (M.fire_due s ~now:(Int64.of_int !now) ~limit:1 resched : Fire_outcome.t)
          | None -> ()
        done)
  in
  (* Random victims and fresh deadlines within one interval of [now],
     drawn before timing. *)
  let rng = Prng.create ~seed:3 in
  let victims = Array.init 4096 (fun _ -> Prng.int rng pending) in
  let moved =
    Array.map (fun i -> Time_ns.of_ns (!now + 1 + Prng.int rng (interval i))) victims
  in
  let c = ref 0 in
  let rearm =
    per_op (fun k ->
        for _ = 1 to k do
          let j = !c land 4095 in
          incr c;
          ignore (M.rearm s hs.(victims.(j)) ~at:moved.(j) : bool)
        done)
  in
  let cancel =
    per_op (fun k ->
        for _ = 1 to k do
          let j = !c land 4095 in
          incr c;
          let i = victims.(j) in
          M.cancel s hs.(i);
          hs.(i) <- M.schedule s ~at:moved.(j) i
        done)
  in
  { hold; rearm; cancel; fire_resched; words_per_timer }

(* Trace emission with no sink and no tap (the always-on cost of the
   instrumentation), and with a counting tap installed. *)
let trace_emit_ns ~tap =
  Trace.set_tap tap;
  let at = Time_ns.of_us 5.0 and due = Time_ns.of_us 3.0 in
  let ns =
    per_op (fun k ->
        for i = 1 to k do
          Trace.soft_fire ~at ~id:i ~due
        done)
  in
  Trace.set_tap None;
  ns

let hdr_record_ns () =
  let h = Hdr.create ~lowest:0.01 () in
  per_op (fun k ->
      for i = 1 to k do
        Hdr.record h (float_of_int (i land 1023) *. 0.37)
      done)
