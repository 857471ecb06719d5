(* Tests for the machine layer: CPU scheduling and preemption, interrupt
   controller (latching, spl windows, pollution costs), trigger-state
   dispatch, kernel scripts and the periodic clock. *)

let us = Time_ns.of_us

let fresh () =
  let e = Engine.create () in
  let m = Machine.create e in
  (e, m)

(* ------------------------------------------------------------------ *)
(* Cpu *)

let test_cpu_runs_in_priority_order () =
  let e = Engine.create () in
  let cpu = Cpu.create e in
  let log = ref [] in
  let submit prio tag =
    Cpu.submit cpu ~prio ~work:(us 10.0) (fun _ -> log := tag :: !log)
  in
  (* "first" (kernel, preemptible) starts; the softintr submission
     preempts it; then priority order drains the rest. *)
  submit Cpu.prio_kernel "first";
  submit Cpu.prio_user "user";
  submit Cpu.prio_softintr "softintr";
  submit Cpu.prio_background "bg";
  Engine.run e;
  Alcotest.(check (list string)) "preemption then priority order"
    [ "softintr"; "first"; "user"; "bg" ]
    (List.rev !log)

let test_cpu_intr_preempts_user () =
  let e = Engine.create () in
  let cpu = Cpu.create e in
  let finish = Hashtbl.create 4 in
  Cpu.submit cpu ~prio:Cpu.prio_user ~work:(us 100.0) (fun t -> Hashtbl.add finish "user" t);
  (* Arrives mid-way through the user quantum; must preempt. *)
  ignore
    (Engine.schedule_at e (us 30.0) (fun () ->
         Cpu.submit cpu ~prio:Cpu.prio_intr ~work:(us 5.0) (fun t -> Hashtbl.add finish "intr" t))
      : Engine.handle);
  Engine.run e;
  Alcotest.(check int64) "interrupt done at 35us" (us 35.0) (Hashtbl.find finish "intr");
  Alcotest.(check int64) "user resumed, done at 105us" (us 105.0) (Hashtbl.find finish "user")

let test_cpu_intr_does_not_preempt_softintr () =
  let e = Engine.create () in
  let cpu = Cpu.create e in
  let finish = Hashtbl.create 4 in
  Cpu.submit cpu ~prio:Cpu.prio_softintr ~work:(us 50.0) (fun t -> Hashtbl.add finish "si" t);
  ignore
    (Engine.schedule_at e (us 10.0) (fun () ->
         Cpu.submit cpu ~prio:Cpu.prio_intr ~work:(us 5.0) (fun t -> Hashtbl.add finish "intr" t))
      : Engine.handle);
  Engine.run e;
  Alcotest.(check int64) "softintr runs to completion" (us 50.0) (Hashtbl.find finish "si");
  Alcotest.(check int64) "interrupt delayed until then" (us 55.0) (Hashtbl.find finish "intr")

let test_cpu_busy_accounting () =
  let e = Engine.create () in
  let cpu = Cpu.create e in
  Cpu.submit cpu ~prio:Cpu.prio_user ~work:(us 40.0) (fun _ -> ());
  ignore
    (Engine.schedule_at e (us 10.0) (fun () ->
         Cpu.submit cpu ~prio:Cpu.prio_intr ~work:(us 5.0) (fun _ -> ()))
      : Engine.handle);
  Engine.run e;
  Alcotest.(check int64) "total busy" (us 45.0) (Cpu.busy_ns cpu);
  Alcotest.(check int64) "user busy" (us 40.0) (Cpu.busy_ns_at cpu Cpu.prio_user);
  Alcotest.(check int64) "intr busy" (us 5.0) (Cpu.busy_ns_at cpu Cpu.prio_intr);
  Alcotest.(check bool) "idle at end" true (Cpu.is_idle cpu)

let test_cpu_idle_resume_hooks () =
  let e = Engine.create () in
  let cpu = Cpu.create e in
  let events = ref [] in
  Cpu.set_idle_hook cpu (fun t -> events := ("idle", t) :: !events);
  Cpu.set_resume_hook cpu (fun t -> events := ("resume", t) :: !events);
  ignore
    (Engine.schedule_at e (us 5.0) (fun () ->
         Cpu.submit cpu ~prio:Cpu.prio_user ~work:(us 10.0) (fun _ -> ()))
      : Engine.handle);
  Engine.run e;
  Alcotest.(check (list (pair string int64))) "resume then idle"
    [ ("resume", us 5.0); ("idle", us 15.0) ]
    (List.rev !events)

let test_cpu_preempted_callback_once () =
  let e = Engine.create () in
  let cpu = Cpu.create e in
  let calls = ref 0 in
  Cpu.submit cpu ~prio:Cpu.prio_user ~work:(us 100.0) (fun _ -> incr calls);
  (* Three interrupts during the quantum. *)
  List.iter
    (fun t ->
      ignore
        (Engine.schedule_at e (us t) (fun () ->
             Cpu.submit cpu ~prio:Cpu.prio_intr ~work:(us 2.0) (fun _ -> ()))
          : Engine.handle))
    [ 10.0; 40.0; 70.0 ];
  Engine.run e;
  Alcotest.(check int) "completion fires exactly once" 1 !calls;
  Alcotest.(check int64) "clock includes all work" (us 106.0) (Engine.now e)

let test_cpu_invalid_args () =
  let e = Engine.create () in
  let cpu = Cpu.create e in
  Alcotest.check_raises "bad priority" (Invalid_argument "Cpu.submit: bad priority") (fun () ->
      Cpu.submit cpu ~prio:99 ~work:1L (fun _ -> ()));
  Alcotest.check_raises "negative work" (Invalid_argument "Cpu.submit: negative work") (fun () ->
      Cpu.submit cpu ~prio:0 ~work:(-1L) (fun _ -> ()))

(* ------------------------------------------------------------------ *)
(* Interrupts *)

let test_interrupt_costs_charged () =
  let e, m = fresh () in
  let ln = Machine.interrupt_line m ~name:"dev" ~source:Trigger.Dev_intr ~handler:(fun _ -> ()) () in
  ignore (Machine.raise_irq m ln ~handler_work_us:2.0 () : bool);
  Engine.run e;
  (* P-II profile at neutral locality: 1.95 + 2.50 + 2.0 handler. *)
  Alcotest.(check int64) "cost = overhead + handler" (us 6.45) (Cpu.busy_ns (Machine.cpu m));
  Alcotest.(check int) "delivered" 1 (Interrupt.delivered ln);
  Alcotest.(check int) "trigger fired" 1 (Machine.trigger_count m Trigger.Dev_intr)

let test_interrupt_latch_limit () =
  let e, m = fresh () in
  let ln =
    Machine.interrupt_line m ~name:"dev" ~source:Trigger.Dev_intr ~latch_depth:2
      ~handler:(fun _ -> ())
      ()
  in
  (* Block the CPU so raised interrupts stay in flight. *)
  Cpu.submit (Machine.cpu m) ~prio:Cpu.prio_intr ~work:(us 50.0) (fun _ -> ());
  let r1 = Machine.raise_irq m ln () in
  let r2 = Machine.raise_irq m ln () in
  let r3 = Machine.raise_irq m ln () in
  Alcotest.(check (list bool)) "third is lost" [ true; true; false ] [ r1; r2; r3 ];
  Engine.run e;
  Alcotest.(check int) "raised" 3 (Interrupt.raised ln);
  Alcotest.(check int) "lost" 1 (Interrupt.lost ln);
  Alcotest.(check int) "delivered" 2 (Interrupt.delivered ln)

let test_interrupt_pollution_scales_with_locality () =
  let run locality =
    let e, m = fresh () in
    Machine.set_locality m locality;
    let ln = Machine.interrupt_line m ~name:"d" ~source:Trigger.Dev_intr ~handler:(fun _ -> ()) () in
    ignore (Machine.raise_irq m ln () : bool);
    Engine.run e;
    Cpu.busy_ns (Machine.cpu m)
  in
  let neutral = run Cache.neutral and flash = run Cache.flash in
  Alcotest.(check bool) "flash pays more per interrupt" true Time_ns.(flash > neutral)

let test_spl_windows_defer_and_lose () =
  let e, m = fresh () in
  let ln =
    Machine.interrupt_line m ~name:"pit" ~source:Trigger.Clock_tick ~latch_depth:1
      ~spl_blockable:true
      ~handler:(fun _ -> ())
      ()
  in
  (* One long disabled window covering t in [gap, gap+duration). *)
  Machine.start_spl_sections m ~rate_per_sec:1.0 ~duration_us:(Dist.Constant 100.0) ~seed:1 ();
  (* The first window starts at an exponential gap; find it by raising
     every 10 us for 3 s and checking some ticks were lost. *)
  let raised = ref 0 in
  let rec tick () =
    if !raised < 300_000 then begin
      incr raised;
      ignore (Machine.raise_irq m ln () : bool);
      ignore (Engine.schedule_after e (us 10.0) tick : Engine.handle)
    end
  in
  tick ();
  Engine.run_until e (Time_ns.of_sec 3.0);
  Alcotest.(check bool) "some ticks lost in windows" true (Interrupt.lost ln > 0);
  Alcotest.(check bool) "most ticks delivered" true
    (Interrupt.delivered ln > 9 * Interrupt.raised ln / 10)

let test_cache_batch_cost () =
  let l = { Cache.sensitivity = 1.0; warm_fraction = 0.5 } in
  Alcotest.(check (float 1e-9)) "empty batch" 0.0 (Cache.batch_cost l ~per_packet_us:10.0 ~packets:0);
  Alcotest.(check (float 1e-9)) "single" 10.0 (Cache.batch_cost l ~per_packet_us:10.0 ~packets:1);
  Alcotest.(check (float 1e-9)) "warm follow-ons" 25.0 (Cache.batch_cost l ~per_packet_us:10.0 ~packets:4)

let test_costs_calibration () =
  Alcotest.(check (float 1e-9)) "P-II total 4.45us" 4.45
    (Costs.intr_total_us Costs.pentium_ii_300 ~locality:1.0);
  Alcotest.(check (float 1e-9)) "P-III total 4.36us" 4.36
    (Costs.intr_total_us Costs.pentium_iii_500 ~locality:1.0);
  Alcotest.(check (float 1e-9)) "Alpha total 8.64us" 8.64
    (Costs.intr_total_us Costs.alpha_21164_500 ~locality:1.0);
  Alcotest.(check (float 1e-9)) "scaling to 500MHz" 0.6 (Costs.scale_us Costs.pentium_iii_500 1.0)

(* ------------------------------------------------------------------ *)
(* Machine trigger dispatch and kernel scripts *)

let test_trigger_observers_and_counts () =
  let _, m = fresh () in
  let seen = ref [] in
  Machine.add_observer m (fun k _ -> seen := k :: !seen);
  Machine.fire_trigger m Trigger.Syscall;
  Machine.fire_trigger m Trigger.Trap;
  Machine.fire_trigger m Trigger.Syscall;
  Alcotest.(check int) "syscall count" 2 (Machine.trigger_count m Trigger.Syscall);
  Alcotest.(check int) "trap count" 1 (Machine.trigger_count m Trigger.Trap);
  Alcotest.(check int) "total" 3 (Machine.trigger_total m);
  Alcotest.(check int) "observer saw all" 3 (List.length !seen)

let test_check_hook_runs_at_triggers () =
  let e, m = fresh () in
  let checks = ref 0 in
  Machine.set_check_hook m (Some (fun _kind _now -> incr checks));
  Alcotest.(check bool) "attached" true (Machine.check_hook_attached m);
  Kernel.syscall m ~work_us:3.0 (fun _ -> ());
  Engine.run e;
  Alcotest.(check int) "hook ran" 1 !checks;
  Machine.set_check_hook m None;
  Kernel.syscall m ~work_us:3.0 (fun _ -> ());
  Engine.run e;
  Alcotest.(check int) "hook detached" 1 !checks

let test_kernel_entry_costs () =
  let e, m = fresh () in
  Kernel.syscall m ~work_us:5.0 (fun _ -> ());
  Engine.run e;
  (* syscall entry 1.10 + 5.0 body (300 MHz profile, scale 1.0) *)
  Alcotest.(check int64) "syscall cost" (us 6.1) (Cpu.busy_ns (Machine.cpu m));
  Alcotest.(check int) "syscall trigger" 1 (Machine.trigger_count m Trigger.Syscall)

let test_kernel_script_order () =
  let e, m = fresh () in
  let steps =
    [
      Kernel.step_user m ~work_us:10.0;
      Kernel.step_syscall ~work_us:2.0 m;
      Kernel.step_ip_output m;
      Kernel.step_tcp_timer m;
    ]
  in
  let done_at = ref Time_ns.zero in
  Kernel.run_script m steps (fun t -> done_at := t);
  Engine.run e;
  Alcotest.(check bool) "script completed" true Time_ns.(!done_at > Time_ns.zero);
  Alcotest.(check int) "ip-output trigger" 1 (Machine.trigger_count m Trigger.Ip_output);
  Alcotest.(check int) "tcpip trigger" 1 (Machine.trigger_count m Trigger.Tcpip_other);
  Alcotest.(check int) "syscall trigger" 1 (Machine.trigger_count m Trigger.Syscall)

let test_kernel_scaling_with_profile () =
  let e = Engine.create () in
  let m = Machine.create ~profile:Costs.pentium_iii_500 e in
  Kernel.user m ~work_us:100.0 (fun _ -> ());
  Engine.run e;
  (* 100 us of 300 MHz work takes 60 us at 500 MHz. *)
  Alcotest.(check int64) "user work rescaled" (us 60.0) (Cpu.busy_ns (Machine.cpu m))

let test_periodic_clock_ticks () =
  let e, m = fresh () in
  Machine.start_interrupt_clock m;
  Alcotest.(check bool) "running" true (Machine.interrupt_clock_running m);
  Machine.start_interrupt_clock m;  (* idempotent *)
  Engine.run_until e (Time_ns.of_ms 10.5);
  let ticks = Machine.trigger_count m Trigger.Clock_tick in
  Alcotest.(check bool) (Printf.sprintf "~10 ticks in 10.5ms (got %d)" ticks) true
    (ticks >= 9 && ticks <= 11)

let test_extra_timer_frequency () =
  let e, m = fresh () in
  let ln = Machine.add_periodic_timer m ~hz:100_000.0 (fun _ -> ()) in
  Engine.run_until e (Time_ns.of_ms 10.0);
  let delivered = Interrupt.delivered ln in
  Alcotest.(check bool) (Printf.sprintf "~1000 ticks in 10ms (got %d)" delivered) true
    (delivered >= 990 && delivered <= 1001)

let test_idle_poll_generates_triggers () =
  let e, m = fresh () in
  Machine.set_idle_poll m (Some (us 2.0));
  Engine.run_until e (Time_ns.of_ms 1.0);
  let idles = Machine.trigger_count m Trigger.Idle in
  Alcotest.(check bool) (Printf.sprintf "~500 idle polls (got %d)" idles) true
    (idles >= 450 && idles <= 510)

let test_idle_deadline_fires_exactly () =
  let e, m = fresh () in
  let deadline = us 123.0 in
  let armed = ref (Some deadline) in
  let fired_at = ref None in
  Machine.set_check_hook m
    (Some
       (fun _kind now ->
         match !armed with
         | Some d when Time_ns.(now >= d) ->
           armed := None;
           fired_at := Some now
         | _ -> ()));
  Machine.set_idle_deadline_fn m (Some (fun () -> !armed));
  Engine.run_until e (Time_ns.of_ms 1.0);
  Alcotest.(check (option int64)) "fires exactly at deadline while idle" (Some deadline) !fired_at

(* ------------------------------------------------------------------ *)
(* Multi-CPU (§5.2/§5.3) *)

let test_smp_parallel_execution () =
  let e = Engine.create () in
  let m = Machine.create ~cpus:2 e in
  let done_at = Hashtbl.create 2 in
  Machine.submit_quantum m ~cpu:0 ~prio:Cpu.prio_user ~work_us:100.0 ~trigger:None
    (fun t -> Hashtbl.add done_at "a" t);
  Machine.submit_quantum m ~cpu:1 ~prio:Cpu.prio_user ~work_us:100.0 ~trigger:None
    (fun t -> Hashtbl.add done_at "b" t);
  Engine.run e;
  Alcotest.(check int64) "a at 100us" (us 100.0) (Hashtbl.find done_at "a");
  Alcotest.(check int64) "b in parallel" (us 100.0) (Hashtbl.find done_at "b");
  Alcotest.(check int64) "busy sums both" (us 200.0) (Machine.total_busy_ns m);
  Alcotest.(check int) "cpu count" 2 (Machine.cpu_count m)

let test_smp_single_checker_polls () =
  (* Two idle CPUs must not double the idle-poll trigger rate. *)
  let rate cpus =
    let e = Engine.create () in
    let m = Machine.create ~cpus e in
    Machine.set_idle_poll m (Some (us 2.0));
    Engine.run_until e (Time_ns.of_ms 1.0);
    Machine.trigger_count m Trigger.Idle
  in
  let one = rate 1 and two = rate 2 in
  Alcotest.(check bool)
    (Printf.sprintf "same poll rate with 2 cpus (%d vs %d)" one two)
    true
    (abs (one - two) <= 2)

let test_smp_checker_handoff () =
  let e = Engine.create () in
  let m = Machine.create ~cpus:2 e in
  Machine.set_idle_poll m (Some (us 2.0));
  Alcotest.(check (option int)) "cpu0 checks first" (Some 0) (Machine.checking_cpu m);
  (* Busy work on CPU 0: the checker role must move to CPU 1. *)
  Machine.submit_quantum m ~cpu:0 ~prio:Cpu.prio_user ~work_us:500.0 ~trigger:None
    (fun _ -> ());
  Alcotest.(check (option int)) "handoff to cpu1" (Some 1) (Machine.checking_cpu m);
  Engine.run_until e (us 600.0);
  Alcotest.(check bool) "cpu0 idle again" true (Machine.any_cpu_idle m);
  Alcotest.(check bool) "a checker exists" true (Machine.checking_cpu m <> None);
  (* Polls continued throughout. *)
  Alcotest.(check bool) "polls continued" true (Machine.trigger_count m Trigger.Idle > 250)

let test_smp_no_checker_when_all_busy () =
  let e = Engine.create () in
  let m = Machine.create ~cpus:2 e in
  Machine.set_idle_poll m (Some (us 2.0));
  for cpu = 0 to 1 do
    Machine.submit_quantum m ~cpu ~prio:Cpu.prio_user ~work_us:300.0 ~trigger:None
      (fun _ -> ())
  done;
  Alcotest.(check (option int)) "nobody checks" None (Machine.checking_cpu m);
  Alcotest.(check bool) "no cpu idle" false (Machine.any_cpu_idle m);
  Engine.run_until e (us 400.0);
  Alcotest.(check bool) "checker back after work" true (Machine.checking_cpu m <> None)

let test_smp_interrupt_affinity () =
  let e = Engine.create () in
  let m = Machine.create ~cpus:2 e in
  let ln =
    Machine.interrupt_line m ~name:"dev1" ~source:Trigger.Dev_intr ~cpu:1
      ~handler:(fun _ -> ())
      ()
  in
  ignore (Machine.raise_irq m ln () : bool);
  Engine.run e;
  Alcotest.(check int64) "cpu0 untouched" 0L (Cpu.busy_ns (Machine.nth_cpu m 0));
  Alcotest.(check bool) "cpu1 paid" true Time_ns.(Cpu.busy_ns (Machine.nth_cpu m 1) > 0L)

let test_smp_invalid_args () =
  let e = Engine.create () in
  Alcotest.check_raises "zero cpus" (Invalid_argument "Machine.create: need at least one cpu")
    (fun () -> ignore (Machine.create ~cpus:0 e));
  let m = Machine.create ~cpus:2 e in
  Alcotest.check_raises "bad cpu index" (Invalid_argument "Machine.nth_cpu: bad index")
    (fun () -> ignore (Machine.nth_cpu m 2));
  Alcotest.check_raises "bad submit cpu" (Invalid_argument "Machine.submit_quantum: bad cpu")
    (fun () ->
      Machine.submit_quantum m ~cpu:5 ~prio:0 ~work_us:1.0 ~trigger:None (fun _ -> ()))

(* Property: the CPU conserves work -- whatever mix of priorities and
   arrival times, total busy time equals total submitted work, every
   callback fires exactly once, and the clock ends past the last
   completion. *)
let test_cpu_work_conservation =
  QCheck.Test.make ~name:"cpu conserves work" ~count:200
    QCheck.(
      list_of_size Gen.(int_range 1 40)
        (triple (int_range 0 4) (int_range 0 200) (int_range 0 500)))
    (fun jobs ->
      let e = Engine.create () in
      let cpu = Cpu.create e in
      let completions = ref 0 in
      let total = ref 0L in
      List.iter
        (fun (prio, work_us, at_us) ->
          let work = Time_ns.of_us (float_of_int work_us) in
          total := Int64.add !total work;
          ignore
            (Engine.schedule_at e
               (Time_ns.of_us (float_of_int at_us))
               (fun () -> Cpu.submit cpu ~prio ~work (fun _ -> incr completions))
              : Engine.handle))
        jobs;
      Engine.run e;
      !completions = List.length jobs
      && Int64.equal (Cpu.busy_ns cpu) !total
      && Cpu.is_idle cpu)

(* Reference model: the list-and-queue scheduler [Cpu] used before its
   task pool, kept here only as the oracle for the property below.
   Preempted quanta go on a per-priority LIFO list that runs before
   that priority's FIFO queue. *)
module Ref_cpu = struct
  type task = { prio : int; mutable remaining : Time_ns.span; cb : Time_ns.t -> unit }
  type running = { task : task; started : Time_ns.t; handle : Engine.handle }

  type t = {
    engine : Engine.t;
    fronts : task list ref array;
    queues : task Queue.t array;
    mutable current : running option;
    busy_by_prio : Time_ns.span array;
    mutable idle_hook : Time_ns.t -> unit;
    mutable resume_hook : Time_ns.t -> unit;
    mutable depth : int;
  }

  let create engine =
    {
      engine;
      fronts = Array.init Cpu.prio_count (fun _ -> ref []);
      queues = Array.init Cpu.prio_count (fun _ -> Queue.create ());
      current = None;
      busy_by_prio = Array.make Cpu.prio_count 0L;
      idle_hook = ignore;
      resume_hook = ignore;
      depth = 0;
    }

  let is_idle t = t.current = None && t.depth = 0
  let preemptible prio = prio >= Cpu.prio_kernel

  let take_next t =
    let rec scan prio =
      if prio >= Cpu.prio_count then None
      else
        match !(t.fronts.(prio)) with
        | task :: rest ->
          t.fronts.(prio) := rest;
          Some task
        | [] ->
          if Queue.is_empty t.queues.(prio) then scan (prio + 1)
          else Some (Queue.pop t.queues.(prio))
    in
    scan 0

  let charge t task span =
    t.busy_by_prio.(task.prio) <- Time_ns.(t.busy_by_prio.(task.prio) + span)

  let rec dispatch t =
    match take_next t with
    | None ->
      t.current <- None;
      t.idle_hook (Engine.now t.engine)
    | Some task ->
      t.depth <- t.depth - 1;
      let started = Engine.now t.engine in
      let handle = Engine.schedule_after t.engine task.remaining (fun () -> complete t task) in
      t.current <- Some { task; started; handle }

  and complete t task =
    charge t task task.remaining;
    task.remaining <- 0L;
    t.current <- None;
    task.cb (Engine.now t.engine);
    if t.current = None then dispatch t

  let preempt t r =
    Engine.cancel t.engine r.handle;
    let elapsed = Time_ns.(Engine.now t.engine - r.started) in
    charge t r.task elapsed;
    r.task.remaining <- Time_ns.(r.task.remaining - elapsed);
    t.fronts.(r.task.prio) := r.task :: !(t.fronts.(r.task.prio));
    t.depth <- t.depth + 1;
    t.current <- None

  let submit t ~prio ~work cb =
    let was_idle = is_idle t in
    Queue.add { prio; remaining = work; cb } t.queues.(prio);
    t.depth <- t.depth + 1;
    if was_idle then t.resume_hook (Engine.now t.engine);
    match t.current with
    | None -> dispatch t
    | Some r when preemptible r.task.prio && prio < r.task.prio ->
      preempt t r;
      dispatch t
    | Some _ -> ()
end

(* What either scheduler shows the outside world, in order. *)
type sched_obs =
  | Arrived of int * int  (* job tag, queue depth after the submit *)
  | Done of int * Time_ns.t * int  (* job tag, completion time, depth *)
  | Idle_at of Time_ns.t
  | Resume_at of Time_ns.t

type sched_ops = {
  s_submit : prio:int -> work:Time_ns.span -> (Time_ns.t -> unit) -> unit;
  s_depth : unit -> int;
  s_busy_at : int -> Time_ns.span;
  s_idle : unit -> bool;
}

(* Jobs: (prio, work, arrival, follow-up).  Times sit on a 5 us grid
   so arrivals coincide with completions; work may be zero; a job's
   follow-up is submitted from inside its completion callback and
   itself submits one more quantum, at the original priority. *)
let run_sched_jobs make jobs =
  let e = Engine.create () in
  let log = ref [] in
  let note o = log := o :: !log in
  let s =
    make e ~on_idle:(fun now -> note (Idle_at now)) ~on_resume:(fun now -> note (Resume_at now))
  in
  let us5 k = Time_ns.of_us (5.0 *. float_of_int k) in
  let rec submit tag prio work_k chain =
    s.s_submit ~prio ~work:(us5 work_k) (fun now ->
        note (Done (tag, now, s.s_depth ()));
        match chain with
        | [] -> ()
        | (p, w) :: rest -> submit (tag + 1000) p w rest);
    note (Arrived (tag, s.s_depth ()))
  in
  List.iteri
    (fun i (prio, work_k, at_k, follow) ->
      let chain = match follow with None -> [] | Some (p, w) -> [ (p, w); (prio, w) ] in
      ignore
        (Engine.schedule_at e (us5 at_k) (fun () -> submit i prio work_k chain) : Engine.handle))
    jobs;
  Engine.run e;
  (List.rev !log, List.init Cpu.prio_count s.s_busy_at, s.s_idle ())

let real_sched e ~on_idle ~on_resume =
  let c = Cpu.create e in
  Cpu.set_idle_hook c on_idle;
  Cpu.set_resume_hook c on_resume;
  {
    s_submit = (fun ~prio ~work cb -> Cpu.submit c ~prio ~work cb);
    s_depth = (fun () -> Cpu.queue_depth c);
    s_busy_at = Cpu.busy_ns_at c;
    s_idle = (fun () -> Cpu.is_idle c);
  }

let ref_sched e ~on_idle ~on_resume =
  let c = Ref_cpu.create e in
  c.Ref_cpu.idle_hook <- on_idle;
  c.Ref_cpu.resume_hook <- on_resume;
  {
    s_submit = Ref_cpu.submit c;
    s_depth = (fun () -> c.Ref_cpu.depth);
    s_busy_at = (fun p -> c.Ref_cpu.busy_by_prio.(p));
    s_idle = (fun () -> Ref_cpu.is_idle c);
  }

let test_cpu_matches_reference_model =
  let work = QCheck.map (fun k -> max 0 k) (QCheck.int_range (-4) 30) in
  QCheck.Test.make ~name:"cpu matches the list-based reference scheduler" ~count:300
    QCheck.(
      list_of_size Gen.(int_range 1 40)
        (quad (int_range 0 4) work (int_range 0 60) (option (pair (int_range 0 4) work))))
    (fun jobs -> run_sched_jobs real_sched jobs = run_sched_jobs ref_sched jobs)

(* ------------------------------------------------------------------ *)
(* Allocation bounds of the quantum path.  In native code
   [Gc.minor_words] counts every allocated word exactly, so these
   figures are deterministic.  Spans and callbacks are built before
   measuring and the first rounds (pool and engine-slot growth) are not
   measured, so the loops allocate only what the code under test does.
   The engine boxes its clock each time it advances; [advance_words]
   measures that share so the bounds below pin the CPU's own. *)

let minor_words_during f =
  let before = Gc.minor_words () in
  f ();
  Gc.minor_words () -. before

(* Words per clock advance of a bare engine: [n] chained events, each
   [step] after the last. *)
let advance_words () =
  let e = Engine.create () in
  let step = us 10.0 and n = ref 0 in
  let rec tick () =
    incr n;
    if !n < 2_000 then ignore (Engine.schedule_after e step tick : Engine.handle)
  in
  tick ();
  Engine.run_until e (us 5_000.0);
  let n0 = !n in
  let words = minor_words_during (fun () -> Engine.run e) in
  words /. float_of_int (!n - n0)

(* A chain of quanta of at most 10.5 us, each submitted from the last
   one's completion; returns words per quantum over a stretch in the
   middle of the chain, clear of its start-up and of its final idle
   transition. *)
let chain_words e submit =
  let n = ref 0 in
  let rec again (_ : Time_ns.t) =
    incr n;
    if !n < 4_000 then submit again
  in
  let from = us 5_000.0 and until = us 25_000.0 in
  again Time_ns.zero;
  Engine.run_until e from;
  let n0 = !n in
  let words = minor_words_during (fun () -> Engine.run_until e until) in
  Alcotest.(check bool) "chain still running" true (!n < 4_000);
  words /. float_of_int (!n - n0)

let test_cpu_quantum_alloc () =
  let per_advance = advance_words () in
  let e = Engine.create () in
  let cpu = Cpu.create e in
  let work = us 10.0 in
  let per_quantum =
    chain_words e (fun again -> Cpu.submit cpu ~prio:Cpu.prio_user ~work again)
  in
  Alcotest.(check (float 1e-9)) "submit -> completion adds nothing to the engine's clock box"
    per_advance per_quantum

(* Each round: a user quantum of 10 us; 4 us in, an interrupt quantum of
   2 us preempts it; the user quantum resumes and completes at 12 us.
   Three clock advances per round, and the one box the preemption makes
   for the remaining 6 us: the engine takes the resumed remainder as a
   boxed span. *)
let test_cpu_preempt_alloc () =
  let per_advance = advance_words () in
  let e = Engine.create () in
  let cpu = Cpu.create e in
  let user_work = us 10.0 and intr_work = us 2.0 and arrive = us 4.0 in
  let rounds = ref 0 and limit = 4_000 in
  let nop (_ : Time_ns.t) = () in
  let interrupt () = Cpu.submit cpu ~prio:Cpu.prio_intr ~work:intr_work nop in
  let rec user (_ : Time_ns.t) =
    incr rounds;
    if !rounds < limit then begin
      Cpu.submit cpu ~prio:Cpu.prio_user ~work:user_work user;
      ignore (Engine.schedule_after e arrive interrupt : Engine.handle)
    end
  in
  user Time_ns.zero;
  Engine.run_until e (us (12.0 *. float_of_int (limit / 2)));
  let r0 = !rounds in
  let words = minor_words_during (fun () -> Engine.run e) in
  let per_round = words /. float_of_int (!rounds - r0) in
  Alcotest.(check int) "every round ran" limit !rounds;
  Alcotest.(check (float 1e-9)) "preempt -> resume -> completion: only the remainder box"
    ((3.0 *. per_advance) +. 3.0) per_round;
  Alcotest.(check int64) "user busy" (Int64.mul (Int64.of_int (limit - 1)) user_work)
    (Cpu.busy_ns_at cpu Cpu.prio_user)

let test_submit_quantum_alloc () =
  let per_advance = advance_words () in
  List.iter
    (fun (label, trigger) ->
      let e, m = fresh () in
      Machine.set_check_hook m (Some (fun _ _ -> ()));
      let per_quantum =
        chain_words e (fun again ->
            Machine.submit_quantum m ~prio:Cpu.prio_kernel ~work_us:9.9 ~trigger again)
      in
      Alcotest.(check (float 1e-9))
        (label ^ ": the work span box is the only allocation")
        (per_advance +. 3.0) per_quantum)
    [ ("no trigger", None); ("syscall trigger", Some Trigger.Syscall) ]

(* A script's cost is one cursor, whatever its length: per step only the
   quantum's span box remains.  Zero-work steps keep the clock still. *)
let test_script_cursor_alloc () =
  let script_words run n =
    let e, m = fresh () in
    let steps = List.init n (fun _ -> Kernel.step_user m ~work_us:0.0) in
    let go = run m steps in
    let k (_ : Time_ns.t) = () in
    go k;
    Engine.run e;
    minor_words_during (fun () ->
        go k;
        Engine.run e)
  in
  List.iter
    (fun (name, run) ->
      let w4 = script_words run 4 and w64 = script_words run 64 in
      Alcotest.(check (float 1e-9))
        (name ^ ": 4- and 64-step scripts differ by 60 span boxes")
        (w4 +. (60.0 *. 3.0)) w64)
    [
      ("Kernel.run_script", Kernel.run_script);
      ( "Exec.run",
        fun m steps ->
          let items = List.map Exec.quantum steps in
          Exec.run m items );
    ]

(* Property: engine events fire exactly once, in (time, insertion) order,
   and cancelled events never fire. *)
let test_engine_event_order_property =
  QCheck.Test.make ~name:"engine fires in order, cancels hold" ~count:200
    QCheck.(list_of_size Gen.(int_range 1 60) (pair (int_range 0 1000) bool))
    (fun specs ->
      let e = Engine.create () in
      let fired = ref [] in
      List.iteri
        (fun i (at_us, cancel) ->
          let h =
            Engine.schedule_at e
              (Time_ns.of_us (float_of_int at_us))
              (fun () -> fired := (at_us, i) :: !fired)
          in
          if cancel then Engine.cancel e h)
        specs;
      Engine.run e;
      let fired = List.rev !fired in
      let expected =
        specs
        |> List.mapi (fun i (at, c) -> (at, i, c))
        |> List.filter (fun (_, _, c) -> not c)
        |> List.map (fun (at, i, _) -> (at, i))
        |> List.sort compare
      in
      fired = expected)

let () =
  Alcotest.run "machine"
    [
      ( "cpu",
        [
          Alcotest.test_case "priority order" `Quick test_cpu_runs_in_priority_order;
          Alcotest.test_case "interrupt preempts user" `Quick test_cpu_intr_preempts_user;
          Alcotest.test_case "softintr not preempted" `Quick test_cpu_intr_does_not_preempt_softintr;
          Alcotest.test_case "busy accounting" `Quick test_cpu_busy_accounting;
          Alcotest.test_case "idle/resume hooks" `Quick test_cpu_idle_resume_hooks;
          Alcotest.test_case "preempted callback fires once" `Quick test_cpu_preempted_callback_once;
          Alcotest.test_case "invalid args" `Quick test_cpu_invalid_args;
          QCheck_alcotest.to_alcotest test_cpu_work_conservation;
          QCheck_alcotest.to_alcotest test_cpu_matches_reference_model;
          QCheck_alcotest.to_alcotest test_engine_event_order_property;
        ] );
      ( "interrupts",
        [
          Alcotest.test_case "costs charged" `Quick test_interrupt_costs_charged;
          Alcotest.test_case "latch limit" `Quick test_interrupt_latch_limit;
          Alcotest.test_case "pollution scales with locality" `Quick
            test_interrupt_pollution_scales_with_locality;
          Alcotest.test_case "spl windows defer and lose" `Quick test_spl_windows_defer_and_lose;
          Alcotest.test_case "batch cost" `Quick test_cache_batch_cost;
          Alcotest.test_case "cost calibration" `Quick test_costs_calibration;
        ] );
      ( "machine",
        [
          Alcotest.test_case "observers and counts" `Quick test_trigger_observers_and_counts;
          Alcotest.test_case "check hook" `Quick test_check_hook_runs_at_triggers;
          Alcotest.test_case "kernel entry costs" `Quick test_kernel_entry_costs;
          Alcotest.test_case "script order" `Quick test_kernel_script_order;
          Alcotest.test_case "profile scaling" `Quick test_kernel_scaling_with_profile;
          Alcotest.test_case "periodic clock" `Quick test_periodic_clock_ticks;
          Alcotest.test_case "extra timer frequency" `Quick test_extra_timer_frequency;
          Alcotest.test_case "idle poll triggers" `Quick test_idle_poll_generates_triggers;
          Alcotest.test_case "idle deadline poke" `Quick test_idle_deadline_fires_exactly;
        ] );
      ( "smp",
        [
          Alcotest.test_case "parallel execution" `Quick test_smp_parallel_execution;
          Alcotest.test_case "single checker polls" `Quick test_smp_single_checker_polls;
          Alcotest.test_case "checker handoff" `Quick test_smp_checker_handoff;
          Alcotest.test_case "no checker when all busy" `Quick test_smp_no_checker_when_all_busy;
          Alcotest.test_case "interrupt affinity" `Quick test_smp_interrupt_affinity;
          Alcotest.test_case "invalid args" `Quick test_smp_invalid_args;
        ] );
      ( "alloc",
        [
          Alcotest.test_case "cpu submit -> completion" `Quick test_cpu_quantum_alloc;
          Alcotest.test_case "cpu preempt -> resume" `Quick test_cpu_preempt_alloc;
          Alcotest.test_case "machine submit_quantum" `Quick test_submit_quantum_alloc;
          Alcotest.test_case "script cursors" `Quick test_script_cursor_alloc;
        ] );
    ]
