let m_checks = Metrics.dcounter Metrics.default "softtimer.checks"
let m_fired = Metrics.dcounter Metrics.default "softtimer.fired"
let m_scheduled = Metrics.dcounter Metrics.default "softtimer.scheduled"
let m_cancelled = Metrics.dcounter Metrics.default "softtimer.cancelled"
let h_fire_delay = Metrics.dhistogram Metrics.default "softtimer.fire_delay_us"

type pending_event = { id : int; due : Time_ns.t; handler : Time_ns.t -> unit }

type t = {
  machine : Machine.t;
  store : pending_event Timer_store.inst;
  store_slots : int;  (* slot figure reported to the sanitizer *)
  measure_hz : int64;
  intr_hz : int64;
  ns_per_tick : float;
  check_budget : int;  (* max handler dispatches per trigger-state check *)
  mutable next_id : int;  (* timer identity carried by the trace events *)
  mutable fired : int;
  mutable checks : int;
  mutable attached : bool;
  (* The running check's instant and trigger name, read by [fire_cb]:
     the fire callback is built once per facility, not once per check. *)
  mutable check_now : Time_ns.t;
  mutable check_source : string;
  mutable fire_cb : Time_ns.t -> pending_event -> unit;
}

(* The ticket plus the trace identity: cancel and re-arm must stamp the
   same [id] the schedule carried, so the audit can chain them. *)
type handle = { ticket : Timer_store.ticket; ev_id : int }

(* Process-wide default store, consulted when [attach] is not given an
   explicit one.  Lets the CLI (or a test) swap the facility's pending
   set without threading a parameter through every experiment.
   RACE002: written only from the main domain before any parallel
   fan-out (CLI argument parsing); experiment workers read it at
   attach time and never write it. *)
let default_store : (module Timer_store.S) option ref =
  ref None
[@@lint.allow "RACE002"]

let set_default_store s = default_store := s

(* Process-wide check budget (paper §4.2 batching discussion): at most
   this many handlers dispatch per trigger-state check; the remainder of
   a due batch waits for the next trigger state or the backup interrupt.
   [Atomic] rather than [ref]: workers of a parallel sweep may attach
   while the main domain still holds the CLI value — a plain ref would
   be a data race under the lint's RACE rules. *)
let default_check_budget = Atomic.make max_int

let set_default_check_budget n =
  if n < 1 then invalid_arg "Softtimer.set_default_check_budget: budget must be >= 1";
  Atomic.set default_check_budget n

let machine t = t.machine
let measure_resolution t = t.measure_hz
let interrupt_clock_resolution t = t.intr_hz
let x_ratio t = Int64.div t.measure_hz t.intr_hz

(* Tick and deadline arithmetic runs in immediate ints.  The float
   expressions are the int64 ones term for term ([float_of_int] and
   [int_of_float] convert exactly as [Int64.to_float] / [Int64.of_float]
   do in range), so every tick and due time is bit-identical. *)
let measure_ticks t =
  let now = Int64.to_int (Engine.now (Machine.engine t.machine)) in
  int_of_float (float_of_int now /. t.ns_per_tick)

let measure_time t = Int64.of_int (measure_ticks t)

(* Round up: a tick boundary maps to the first instant at or after it. *)
let ns_of_tick t tick = int_of_float (Float.ceil (float_of_int tick *. t.ns_per_tick))

(* An event scheduled [ticks] ahead now fires once measure_time exceeds
   now + ticks, i.e. at tick now + ticks + 1. *)
let due_after t ticks = Int64.of_int (ns_of_tick t (measure_ticks t + ticks + 1))
[@@lint.allow "ALLOC003"]

let a_fire = Profile.intern [ "softtimer"; "fire" ]
let fire_attr = Some a_fire
let ignore_done (_ : Time_ns.t) = ()

(* One due event: charge the dispatch cost (a procedure call) to the CPU
   and run the handler inline.  The profiler's per-trigger dispatch
   breakdown (paper Table 1) records which state fired it and at what
   latency. *)
let fire_one t due ev =
  let now = t.check_now in
  t.fired <- t.fired + 1;
  Metrics.dincr m_fired;
  Trace.soft_fire ~at:now ~id:ev.id ~due;
  let delay = Int64.to_int now - Int64.to_int due in
  if Profile.enabled () then
    Profile.dispatch ~source:t.check_source ~delay:(Int64.of_int delay);
  Metrics.drecord h_fire_delay (float_of_int delay /. 1e3);
  Machine.submit_quantum t.machine
    ?attr:(if Profile.enabled () then fire_attr else None)
    ~prio:Cpu.prio_intr ~klass:Cpu.klass_timer
    ~work_us:(Machine.profile t.machine).Costs.softtimer_fire_us ~trigger:None ignore_done;
  ev.handler now

(* The per-trigger-state check: compare the cached earliest deadline with
   now and fire anything due.  [kind] is the trigger state that
   performed this check. *)
let check t kind now =
  t.checks <- t.checks + 1;
  Metrics.dincr m_checks;
  match t.store.Timer_store.i_next_deadline () with
  | Some d when Time_ns.(d <= now) ->
    let source = Trigger.name kind in
    t.check_now <- now;
    t.check_source <- source;
    let outcome = t.store.Timer_store.i_fire_due ~now ~limit:t.check_budget t.fire_cb in
    (* One record per check that found work: the audit uses
       [scanned > fired] to see that a check reached the store but a
       budget kept it from this timer.  Emitted after the batch's
       [Soft_fire]s — same timestamp, dispatch order. *)
    let scanned = Fire_outcome.scanned outcome in
    if scanned > 0 then
      Trace.soft_check ~at:now ~src:source ~scanned ~fired:(Fire_outcome.fired outcome)
  | Some _ | None -> ()

let attach ?store ?(wheel_tick = Time_ns.of_us 10.0) ?(wheel_slots = 512) machine =
  if Machine.check_hook_attached machine then
    invalid_arg "Softtimer.attach: a facility is already attached to this machine";
  let profile = Machine.profile machine in
  let store_mod =
    match store with
    | Some s -> s
    | None -> (
      match !default_store with
      | Some s -> s
      | None -> Timer_store.wheel ~slots:wheel_slots ())
  in
  let t =
    {
      machine;
      store = Timer_store.instantiate store_mod ~tick:wheel_tick ();
      store_slots = wheel_slots;
      measure_hz = Int64.of_float (profile.Costs.cpu_mhz *. 1e6);
      intr_hz = Int64.of_float profile.Costs.interrupt_clock_hz;
      ns_per_tick = 1e9 /. (profile.Costs.cpu_mhz *. 1e6);
      check_budget = Atomic.get default_check_budget;
      next_id = 0;
      fired = 0;
      checks = 0;
      attached = true;
      check_now = Time_ns.zero;
      check_source = "";
      fire_cb = (fun _ _ -> ());
    }
  in
  t.fire_cb <- fire_one t;
  Machine.set_check_hook machine (Some (check t));
  Machine.set_idle_deadline_fn machine (Some (fun () -> t.store.Timer_store.i_next_deadline ()));
  Machine.start_interrupt_clock machine;
  (* Pull-style store stats: the sanitizer (lib/check) reads these to
     assert the residency bound during runs.  The slots figure is the
     configured wheel size; every store's compaction floor is at or
     below it, so the sanitizer's [resident <= 2 * max pending slots]
     invariant is store-independent. *)
  Metrics.probe Metrics.default "softtimer.wheel_resident" (fun () ->
      float_of_int (t.store.Timer_store.i_resident ()));
  Metrics.probe Metrics.default "softtimer.wheel_pending" (fun () ->
      float_of_int (t.store.Timer_store.i_pending ()));
  Metrics.probe Metrics.default "softtimer.wheel_slots" (fun () ->
      float_of_int t.store_slots);
  t

let detach t =
  if t.attached then begin
    t.attached <- false;
    Machine.set_check_hook t.machine None;
    Machine.set_idle_deadline_fn t.machine None
  end

let store_name t = t.store.Timer_store.i_name

let notify_if_earliest t due =
  (* If this event became the earliest, an idle checking CPU may be
     armed for a later (or no) deadline: wake it up for this one. *)
  match t.store.Timer_store.i_next_deadline () with
  | Some d when t.attached && Time_ns.(d = due) -> Machine.notify_deadline_changed t.machine
  | _ -> ()

(* ALLOC002/003: the due time's box, the pending event and the handle
   are this path's per-schedule allocations, left until [Time_ns.t]
   stops being a boxed int64 (ROADMAP item 2). *)
let schedule_ticks t ticks handler =
  let due = due_after t ticks in
  let id = t.next_id in
  t.next_id <- id + 1;
  Metrics.dincr m_scheduled;
  Trace.soft_sched ~at:(Engine.now (Machine.engine t.machine)) ~id ~due;
  let ticket = t.store.Timer_store.i_schedule ~at:due { id; due; handler } in
  notify_if_earliest t due;
  { ticket; ev_id = id }
[@@lint.allow "ALLOC002"]

let schedule_soft_event t ~ticks handler =
  if Int64.compare ticks 0L < 0 then
    invalid_arg "Softtimer.schedule_soft_event: negative ticks";
  schedule_ticks t (Int64.to_int ticks) handler

let schedule_after t span handler =
  let span = if Int64.compare span 0L < 0 then 0 else Int64.to_int span in
  schedule_ticks t (int_of_float (Float.ceil (float_of_int span /. t.ns_per_tick))) handler

let cancel t h =
  if Timer_store.ticket_pending h.ticket then begin
    Metrics.dincr m_cancelled;
    Trace.soft_cancel
      ~at:(Engine.now (Machine.engine t.machine))
      ~id:h.ev_id
      ~due:(Timer_store.ticket_deadline h.ticket)
  end;
  Timer_store.ticket_cancel h.ticket

let rearm t h ~ticks =
  if Int64.compare ticks 0L < 0 then invalid_arg "Softtimer.rearm: negative ticks";
  if not (Timer_store.ticket_pending h.ticket) then false
  else begin
    let at = Engine.now (Machine.engine t.machine) in
    Trace.soft_cancel ~at ~id:h.ev_id ~due:(Timer_store.ticket_deadline h.ticket);
    let due = due_after t (Int64.to_int ticks) in
    (* A re-arm is cancel + schedule with the handle kept; the trace
       records it as exactly that pair — same id, so the audit keeps
       one causal chain per handle — and digests are independent of
       whether a client re-arms or reschedules. *)
    Trace.soft_sched ~at ~id:h.ev_id ~due;
    Metrics.dincr m_scheduled;
    let moved = Timer_store.ticket_rearm h.ticket due in
    if moved then notify_if_earliest t due;
    moved
  end

let pending t = t.store.Timer_store.i_pending ()

let wheel_stats t =
  (t.store.Timer_store.i_resident (), t.store.Timer_store.i_pending (), t.store_slots)
let fired t = t.fired
let checks t = t.checks
