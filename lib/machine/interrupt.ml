(* Process-wide interrupt accounting (per-interrupt cost is the quantity
   the paper's overhead tables revolve around). *)
let m_raised = Metrics.dcounter Metrics.default "interrupt.raised"
let m_lost = Metrics.dcounter Metrics.default "interrupt.lost"
let m_delivered = Metrics.dcounter Metrics.default "interrupt.delivered"

type line = {
  name : string;
  source : Trigger.kind;
  latch_depth : int;
  spl_blockable : bool;
  cpu : int;
  handler : Time_ns.t -> unit;
  mutable in_flight : int;  (* delivered-but-unfinished, at most latch_depth *)
  (* The in-flight deliveries' charged work, oldest at [head]: a line's
     deliveries complete in order (one CPU, one non-preemptible
     priority), so each completion pops its own. *)
  works : Time_ns.span array;
  mutable head : int;
  mutable deferred : bool;  (* a tick is waiting for the spl window to end *)
  mutable raised : int;
  mutable lost : int;
  mutable delivered : int;
  (* The last delivery's charged work and what it was computed from: a
     line raised with the same handler work under the same locality
     reuses the span. *)
  mutable last_us : float;
  mutable last_overhead : Time_ns.span;
  mutable last_work : Time_ns.span;
  mutable complete : Time_ns.t -> unit;  (* built once, in [line] *)
  (* Interned once per line: the paper's per-interrupt cost decomposition
     (save/restore + cache/TLB pollution + handler body, Tables 2-4). *)
  a_save : Profile.attr;
  a_pollution : Profile.attr;
  a_handler : Profile.attr;
}

type t = {
  engine : Engine.t;
  cpus : Cpu.t array;
  profile : Costs.profile;
  on_trigger : Trigger.kind -> Time_ns.t -> unit;
  mutable locality : Cache.locality;
  (* Per-delivery overhead under [locality] and its save/restore share,
     recomputed by [set_locality]. *)
  mutable overhead : Time_ns.span;
  mutable save : Time_ns.span;
  mutable spl_until : Time_ns.t;  (* end of the current disabled window *)
  mutable spl_deferred : (line * float) list;  (* with handler work, us *)
}

let set_locality t l =
  t.locality <- l;
  t.overhead <- Time_ns.of_us (Costs.intr_total_us t.profile ~locality:l.Cache.sensitivity);
  t.save <- Time_ns.min (Time_ns.of_us t.profile.Costs.intr_save_restore_us) t.overhead

let create ~engine ~cpus ~profile ~on_trigger () =
  let t =
    {
      engine;
      cpus;
      profile;
      on_trigger;
      locality = Cache.neutral;
      overhead = 0L;
      save = 0L;
      spl_until = Time_ns.zero;
      spl_deferred = [];
    }
  in
  set_locality t Cache.neutral;
  t

(* A delivery's completion: the line's one closure. *)
let[@hot] complete t ln now =
  let work = Array.unsafe_get ln.works ln.head in
  ln.head <- (if ln.head + 1 = ln.latch_depth then 0 else ln.head + 1);
  ln.in_flight <- ln.in_flight - 1;
  ln.delivered <- ln.delivered + 1;
  Metrics.dincr m_delivered;
  Trace.irq ~at:now ~line:ln.name ~cpu:ln.cpu ~dur:work;
  ln.handler now;
  t.on_trigger ln.source now

let line t ~name ~source ?(latch_depth = 2) ?(spl_blockable = false) ?(cpu = 0) ~handler () =
  if latch_depth < 1 then invalid_arg "Interrupt.line: latch_depth must be >= 1";
  if cpu < 0 || cpu >= Array.length t.cpus then invalid_arg "Interrupt.line: bad cpu";
  let ln =
    {
      name;
      source;
      latch_depth;
      spl_blockable;
      cpu;
      handler;
      in_flight = 0;
      works = Array.make latch_depth 0L;
      head = 0;
      deferred = false;
      raised = 0;
      lost = 0;
      delivered = 0;
      last_us = nan;
      last_overhead = 0L;
      last_work = 0L;
      complete = ignore;
      a_save = Profile.intern [ "interrupt"; name; "save_restore" ];
      a_pollution = Profile.intern [ "interrupt"; name; "pollution" ];
      a_handler = Profile.intern [ "interrupt"; name; "handler" ];
    }
  in
  ln.complete <- (fun now -> complete t ln now);
  ln

(* Split the delivery into save/restore, pollution refill and handler
   body.  The pollution share is [overhead - save] so the parts sum
   exactly to the charged overhead regardless of float rounding.
   ALLOC002: profiling only; [deliver] calls it just while a profiler
   is installed. *)
let split_attr t ln =
  Some
    (Profile.seq
       [ (ln.a_save, t.save); (ln.a_pollution, Time_ns.(t.overhead - t.save)) ]
       ~tail:ln.a_handler)
[@@lint.allow "ALLOC002"]

(* The charged work: the overhead plus the handler's own work.  A miss
   (new handler work or locality) boxes the span once for the line. *)
let work_of t ln handler_work_us =
  if Float.equal handler_work_us ln.last_us && ln.last_overhead == t.overhead then ln.last_work
  else begin
    let handler_work = Time_ns.of_us (Float.max 0.0 handler_work_us) in
    let work = Time_ns.(t.overhead + Time_ns.max handler_work 0L) in
    ln.last_us <- handler_work_us;
    ln.last_overhead <- t.overhead;
    ln.last_work <- work;
    work
  end

let[@hot] deliver t ln handler_work_us =
  let work = work_of t ln handler_work_us in
  let tail = ln.head + ln.in_flight in
  Array.unsafe_set ln.works (if tail >= ln.latch_depth then tail - ln.latch_depth else tail) work;
  ln.in_flight <- ln.in_flight + 1;
  let attr = if Profile.enabled () then split_attr t ln else None in
  Cpu.submit t.cpus.(ln.cpu) ?attr ~prio:Cpu.prio_intr ~work ln.complete

let lose ln ~at =
  ln.lost <- ln.lost + 1;
  Metrics.dincr m_lost;
  Trace.irq_lost ~at ~line:ln.name

let[@hot] raise_irq t ln ~handler_work_us =
  ln.raised <- ln.raised + 1;
  Metrics.dincr m_raised;
  let now = Engine.now t.engine in
  Trace.irq_raised ~at:now ~line:ln.name;
  if ln.spl_blockable && Time_ns.(now < t.spl_until) then begin
    (* Interrupts disabled: latch one tick; further ticks are gone. *)
    if ln.deferred then begin
      lose ln ~at:now;
      false
    end
    else begin
      ln.deferred <- true;
      (* ALLOC002: at most one deferred tick per line and spl window. *)
      t.spl_deferred <- ((ln, handler_work_us) :: t.spl_deferred [@lint.allow "ALLOC002"]);
      true
    end
  end
  else if ln.in_flight >= ln.latch_depth then begin
    lose ln ~at:now;
    false
  end
  else begin
    deliver t ln handler_work_us;
    true
  end

let flush_spl t =
  let pending = List.rev t.spl_deferred in
  t.spl_deferred <- [];
  List.iter
    (fun (ln, work) ->
      ln.deferred <- false;
      if ln.in_flight >= ln.latch_depth then lose ln ~at:(Engine.now t.engine)
      else deliver t ln work)
    pending

let start_spl_sections t ~rng ?(rate_per_sec = 1_300.0)
    ?(duration_us = Dist.Uniform (40.0, 180.0)) () =
  let gap_dist = Dist.Exponential (1e6 /. rate_per_sec) in
  let rec next_window () =
    let gap = Dist.span gap_dist rng in
    ignore
      (Engine.schedule_after t.engine gap (fun () ->
           let d = Dist.span duration_us rng in
           let now = Engine.now t.engine in
           t.spl_until <- Time_ns.(now + d);
           ignore
             (Engine.schedule_after t.engine d (fun () ->
                  flush_spl t;
                  next_window ())
               : Engine.handle))
        : Engine.handle)
  in
  next_window ()

let raised ln = ln.raised
let lost ln = ln.lost
let delivered ln = ln.delivered
