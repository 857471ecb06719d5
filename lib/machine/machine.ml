let kind_index : Trigger.kind -> int = function
  | Trigger.Syscall -> 0
  | Trigger.Trap -> 1
  | Trigger.Ip_intr -> 2
  | Trigger.Ip_output -> 3
  | Trigger.Tcpip_other -> 4
  | Trigger.Dev_intr -> 5
  | Trigger.Clock_tick -> 6
  | Trigger.Idle -> 7

let m_triggers = Metrics.dcounter Metrics.default "machine.triggers"

type t = {
  engine : Engine.t;
  profile : Costs.profile;
  check_span : Time_ns.span;  (* the profile's softtimer_check_us *)
  cpus : Cpu.t array;
  idle : bool array;  (* per-CPU idle state *)
  mutable checker : int option;  (* the one idle CPU checking (§5.2) *)
  mutable intc : Interrupt.t option;  (* set right after creation *)
  mutable locality : Cache.locality;
  mutable check_hook : (Trigger.kind -> Time_ns.t -> unit) option;
  (* Observers in registration order in [observers.(0 .. n_observers-1)];
     a growable array keeps registration O(1) amortised and notification
     an indexed loop (this runs at every trigger state). *)
  mutable observers : (Trigger.kind -> Time_ns.t -> unit) array;
  mutable n_observers : int;
  counts : int array;
  mutable clock_running : bool;
  mutable idle_poll : Time_ns.span option;
  mutable idle_deadline_fn : (unit -> Time_ns.t option) option;
  mutable idle_epoch : int;  (* bumped on checker changes; invalidates stale pokes *)
}

let engine t = t.engine
let cpu t = t.cpus.(0)
let cpu_count t = Array.length t.cpus

let nth_cpu t i =
  if i < 0 || i >= Array.length t.cpus then invalid_arg "Machine.nth_cpu: bad index";
  t.cpus.(i)

let any_cpu_idle t = Array.exists Fun.id t.idle

let total_busy_ns t =
  Array.fold_left (fun acc c -> Time_ns.(acc + Cpu.busy_ns c)) 0L t.cpus

let checking_cpu t = t.checker
let profile t = t.profile

let interrupts t =
  match t.intc with Some i -> i | None -> assert false

let set_locality t l =
  t.locality <- l;
  Interrupt.set_locality (interrupts t) l

let locality t = t.locality

let fire_trigger t kind =
  let now = Engine.now t.engine in
  t.counts.(kind_index kind) <- t.counts.(kind_index kind) + 1;
  Metrics.dincr m_triggers;
  Trace.trigger ~at:now (Trigger.name kind);
  for i = 0 to t.n_observers - 1 do
    t.observers.(i) kind now
  done;
  match t.check_hook with Some f -> f kind now | None -> ()

let add_observer t f =
  let cap = Array.length t.observers in
  if t.n_observers = cap then begin
    let grown = Array.make (Stdlib.max 4 (2 * cap)) f in
    Array.blit t.observers 0 grown 0 t.n_observers;
    t.observers <- grown
  end;
  t.observers.(t.n_observers) <- f;
  t.n_observers <- t.n_observers + 1
let set_check_hook t hook = t.check_hook <- hook
let check_hook_attached t = t.check_hook <> None
let trigger_count t kind = t.counts.(kind_index kind)
let trigger_total t = Array.fold_left ( + ) 0 t.counts

let check_attr = Profile.intern [ "softtimer"; "check" ]

(* Split the trigger-state check surcharge out of a quantum so it shows
   up under softtimer;check rather than inflating the work's own
   category.  ALLOC002: profiling only; [submit_quantum] calls it just
   while a profiler is installed. *)
let split_check t ~prio attr =
  let base = match attr with Some a -> a | None -> Cpu.default_attr prio in
  Some (Profile.seq [ (check_attr, t.check_span) ] ~tail:base)
[@@lint.allow "ALLOC002"]

(* A quantum's work, with the check surcharge added when [checked].
   Rounds as [Time_ns.of_us (Float.max 0.0 us)] does, written out so the
   float sum stays unboxed: the span box is the only allocation. *)
let work_of_us t ~checked work_us =
  let us = if checked then work_us +. t.profile.Costs.softtimer_check_us else work_us in
  let us = if us > 0.0 || Float.is_nan us then us else 0.0 in
  (* ALLOC003: [Cpu.submit] takes a boxed span; this box is the one
     allocation per quantum. *)
  (Int64.of_float (Float.round (us *. 1e3)) [@lint.allow "ALLOC003"])

let[@hot] submit_quantum t ?(cpu = 0) ?attr ?klass ~prio ~work_us ~trigger cb =
  if cpu < 0 || cpu >= Array.length t.cpus then
    invalid_arg "Machine.submit_quantum: bad cpu";
  let checked = Option.is_some trigger && Option.is_some t.check_hook in
  let attr = if checked && Profile.enabled () then split_check t ~prio attr else attr in
  (* The trigger kind rides in the task: the CPU reports it through the
     hook [create] installs, just before [cb]. *)
  Cpu.submit t.cpus.(cpu) ?attr ?klass ?trigger ~prio ~work:(work_of_us t ~checked work_us) cb

let interrupt_line t ~name ~source ?latch_depth ?spl_blockable ?cpu ~handler () =
  Interrupt.line (interrupts t) ~name ~source ?latch_depth ?spl_blockable ?cpu ~handler ()

let start_spl_sections t ?rate_per_sec ?duration_us ~seed () =
  Interrupt.start_spl_sections (interrupts t) ~rng:(Prng.create ~seed) ?rate_per_sec
    ?duration_us ()

let raise_irq t ln ?(handler_work_us = 0.0) () =
  let handler_work = Time_ns.of_us (Float.max 0.0 handler_work_us) in
  Interrupt.raise_irq (interrupts t) ln ~handler_work ()

(* Idle-loop machinery.  At most one idle CPU -- the checker (§5.2) --
   polls for soft-timer events and runs the idle measurement poll; the
   other idle CPUs halt.  Both the poll and the facility's deadline poke
   are one-shot events re-armed while that CPU stays the checker; the
   epoch counter discards events armed before the last checker change. *)

(* Not [t.checker = Some i]: that builds the [Some] to compare, and
   [on_resume] runs at every submit to an idle CPU. *)
let is_checker t i = match t.checker with Some c -> c = i | None -> false

let checker_still t epoch i =
  t.idle_epoch = epoch && is_checker t i && Cpu.is_idle t.cpus.(i)

let rec arm_idle_poll t epoch i =
  match t.idle_poll with
  | None -> ()
  | Some dt ->
    ignore
      (Engine.schedule_after t.engine dt (fun () ->
           if checker_still t epoch i then begin
             fire_trigger t Trigger.Idle;
             if checker_still t epoch i then arm_idle_poll t epoch i
           end)
        : Engine.handle)

let rec arm_idle_deadline t epoch i =
  match t.idle_deadline_fn with
  | None -> ()
  | Some next_deadline -> begin
    match next_deadline () with
    | None -> ()
    | Some d ->
      ignore
        (Engine.schedule_at t.engine d (fun () ->
             if checker_still t epoch i then begin
               (* The check hook fires the due event; if the handler
                  spawned no CPU work we are still idle and must re-arm
                  for the next deadline ourselves. *)
               fire_trigger t Trigger.Idle;
               if checker_still t epoch i then arm_idle_deadline t epoch i
             end)
          : Engine.handle)
  end

(* Elect an idle CPU as the checker.  Bumping the epoch kills any chain
   armed for a previous election, so re-entry can never double-arm. *)
let assign_checker t =
  t.idle_epoch <- t.idle_epoch + 1;
  let epoch = t.idle_epoch in
  let rec first_idle i =
    if i >= Array.length t.idle then None
    else if t.idle.(i) then Some i
    else first_idle (i + 1)
  in
  t.checker <- first_idle 0;
  match t.checker with
  | None -> ()
  | Some i ->
    arm_idle_poll t epoch i;
    arm_idle_deadline t epoch i

let on_idle t i _now =
  t.idle.(i) <- true;
  (* A newly idle CPU only matters if nobody is checking yet. *)
  if t.checker = None then assign_checker t

let on_resume t i _now =
  t.idle.(i) <- false;
  if is_checker t i then assign_checker t

let create ?(profile = Costs.pentium_ii_300) ?(cpus = 1) engine =
  if cpus < 1 then invalid_arg "Machine.create: need at least one cpu";
  let cpu_arr = Array.init cpus (fun i -> Cpu.create ~id:i engine) in
  Trace.sim_start ~at:(Engine.now engine);
  let t =
    {
      engine;
      profile;
      check_span = Time_ns.of_us profile.Costs.softtimer_check_us;
      cpus = cpu_arr;
      idle = Array.make cpus true;
      checker = None;
      intc = None;
      locality = Cache.neutral;
      check_hook = None;
      observers = [||];
      n_observers = 0;
      counts = Array.make 8 0;
      clock_running = false;
      idle_poll = None;
      idle_deadline_fn = None;
      idle_epoch = 0;
    }
  in
  let intc =
    Interrupt.create ~engine ~cpus:cpu_arr ~profile
      ~on_trigger:(fun kind now ->
        ignore now;
        fire_trigger t kind)
      ()
  in
  t.intc <- Some intc;
  Array.iteri
    (fun i cpu ->
      Cpu.set_idle_hook cpu (on_idle t i);
      Cpu.set_resume_hook cpu (on_resume t i);
      Cpu.set_trigger_hook cpu (fire_trigger t))
    cpu_arr;
  t

let add_periodic_timer t ~hz ?(handler_work_us = 0.0) handler =
  if hz <= 0.0 then invalid_arg "Machine.add_periodic_timer: hz must be positive";
  let period = Time_ns.of_sec (1.0 /. hz) in
  let handler_work = Time_ns.of_us handler_work_us in
  let ln =
    (* A fast-interrupt handler: serviced even inside spl sections, like
       the paper's null-handler measurement timer (Â§5.1). *)
    interrupt_line t ~name:(Printf.sprintf "timer-%.0fHz" hz) ~source:Trigger.Clock_tick
      ~latch_depth:1 ~handler ()
  in
  let rec tick () =
    ignore (Interrupt.raise_irq (interrupts t) ln ~handler_work () : bool);
    ignore (Engine.schedule_after t.engine period tick : Engine.handle)
  in
  ignore (Engine.schedule_after t.engine period tick : Engine.handle);
  ln

let start_interrupt_clock t =
  if not t.clock_running then begin
    t.clock_running <- true;
    (* hardclock: bump ticks, run due callouts — a small constant cost. *)
    ignore
      (add_periodic_timer t ~hz:t.profile.Costs.interrupt_clock_hz ~handler_work_us:0.6
         (fun _now -> ())
        : Interrupt.line)
  end

let interrupt_clock_running t = t.clock_running

let notify_deadline_changed t = if t.checker <> None then assign_checker t

let set_idle_poll t poll =
  t.idle_poll <- poll;
  if any_cpu_idle t then assign_checker t

let set_idle_deadline_fn t fn =
  t.idle_deadline_fn <- fn;
  if any_cpu_idle t then assign_checker t
