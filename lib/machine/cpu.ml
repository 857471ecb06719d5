let prio_intr = 0
let prio_softintr = 1
let prio_kernel = 2
let prio_user = 3
let prio_background = 4
let prio_count = 5

(* Work classes for delay attribution: priorities double as classes, plus
   one extra for soft-timer handler execution, which runs at softintr
   priority but must be distinguishable in the trace ("handler of another
   timer" is its own cause in the why-late breakdown). *)
let klass_timer = 5
let klass_count = 6

let klass_name = function
  | 0 -> "intr"
  | 1 -> "softintr"
  | 2 -> "kernel"
  | 3 -> "user"
  | 4 -> "background"
  | 5 -> "timer"
  | _ -> "other"

(* Priorities 0 and 1 model interrupt handlers and spl-protected
   software-interrupt processing: once running they are never preempted. *)
let preemptible prio = prio >= prio_kernel

(* Fallback attributions for quanta whose submitter did not tag them:
   unattributed work still lands in the tree, keeping the conservation
   invariant (attributed total = busy_ns) independent of coverage.
   Individual immutable bindings, not an array: the RACE rules treat a
   toplevel array literal as cross-domain shared state. *)
let ua_intr = Profile.intern [ "unattributed"; "intr" ]
let ua_softintr = Profile.intern [ "unattributed"; "softintr" ]
let ua_kernel = Profile.intern [ "unattributed"; "kernel" ]
let ua_user = Profile.intern [ "unattributed"; "user" ]
let ua_background = Profile.intern [ "unattributed"; "background" ]

let default_attr prio =
  match prio with
  | 0 -> ua_intr
  | 1 -> ua_softintr
  | 2 -> ua_kernel
  | 3 -> ua_user
  | _ -> ua_background

type task = {
  prio : int;
  klass : int;  (* work class for Trace.Cpu_run; defaults to [prio] *)
  attr : Profile.attr;
  mutable remaining : Time_ns.span;
  cb : Time_ns.t -> unit;
}

type running = {
  task : task;
  started : Time_ns.t;
  handle : Engine.handle;
}

type t = {
  engine : Engine.t;
  cpu_id : int;
  fronts : task list ref array;  (* resumed quanta, run before the queue *)
  queues : task Queue.t array;
  mutable current : running option;
  mutable busy : int;  (* ns; immediate, boxed only by [busy_ns] *)
  busy_by_prio : int array;
  mutable idle_hook : Time_ns.t -> unit;
  mutable resume_hook : Time_ns.t -> unit;
  mutable depth : int;
}

let create ?(id = 0) engine =
  {
    engine;
    cpu_id = id;
    fronts = Array.init prio_count (fun _ -> ref []);
    queues = Array.init prio_count (fun _ -> Queue.create ());
    current = None;
    busy = 0;
    busy_by_prio = Array.make prio_count 0;
    idle_hook = (fun _ -> ());
    resume_hook = (fun _ -> ());
    depth = 0;
  }

let id t = t.cpu_id

let is_idle t = t.current = None && t.depth = 0
let busy_ns t = Int64.of_int t.busy
let busy_ns_at t prio = Int64.of_int t.busy_by_prio.(prio)
let set_idle_hook t f = t.idle_hook <- f
let set_resume_hook t f = t.resume_hook <- f
let queue_depth t = t.depth

let take_next t =
  let rec scan prio =
    if prio >= prio_count then None
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

(* The single point through which all busy time flows — attribution
   here is what makes the Profile conservation invariant structural, and
   emitting [Cpu_run] here is what makes the why-late busy coverage
   complete: every charged interval [now - span, now] reaches the trace
   exactly once, tagged with its work class. *)
let charge t task span =
  let ns = Int64.to_int span in
  t.busy <- t.busy + ns;
  t.busy_by_prio.(task.prio) <- t.busy_by_prio.(task.prio) + ns;
  Profile.charge task.attr ~cpu:t.cpu_id span;
  if Time_ns.(span > 0L) then
    Trace.cpu_run ~at:(Engine.now t.engine) ~cpu:t.cpu_id ~klass:task.klass ~dur:span

let rec dispatch t =
  match take_next t with
  | None ->
    t.current <- None;
    let now = Engine.now t.engine in
    Trace.cpu_idle ~at:now ~cpu:t.cpu_id;
    t.idle_hook now
  | Some task ->
    t.depth <- t.depth - 1;
    let started = Engine.now t.engine in
    let handle =
      Engine.schedule_after t.engine task.remaining (fun () -> complete t task)
    in
    t.current <- Some { task; started; handle }

and complete t task =
  charge t task task.remaining;
  task.remaining <- 0L;
  t.current <- None;
  task.cb (Engine.now t.engine);
  (* The callback may have submitted work and triggered a dispatch; only
     dispatch here if the CPU is still unoccupied. *)
  if t.current = None then dispatch t

let preempt t r =
  Engine.cancel t.engine r.handle;
  let now = Engine.now t.engine in
  let elapsed = Time_ns.(now - r.started) in
  charge t r.task elapsed;
  r.task.remaining <- Time_ns.(r.task.remaining - elapsed);
  t.fronts.(r.task.prio) := r.task :: !(t.fronts.(r.task.prio));
  t.depth <- t.depth + 1;
  t.current <- None

let submit t ?attr ?klass ~prio ~work cb =
  if prio < 0 || prio >= prio_count then invalid_arg "Cpu.submit: bad priority";
  if Time_ns.(work < 0L) then invalid_arg "Cpu.submit: negative work";
  let was_idle = is_idle t in
  let attr = match attr with Some a -> a | None -> default_attr prio in
  let klass = match klass with Some k -> k | None -> prio in
  let task = { prio; klass; attr; remaining = work; cb } in
  Queue.add task t.queues.(prio);
  t.depth <- t.depth + 1;
  if was_idle then begin
    let now = Engine.now t.engine in
    Trace.cpu_busy ~at:now ~cpu:t.cpu_id;
    t.resume_hook now
  end;
  match t.current with
  | None -> dispatch t
  | Some r when preemptible r.task.prio && prio < r.task.prio -> begin
    preempt t r;
    dispatch t
  end
  | Some _ -> ()
