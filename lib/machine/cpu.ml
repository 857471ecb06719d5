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

(* Quanta live in a per-CPU pool of mutable task records addressed by
   index, grown by doubling and recycled through a free list, so a
   steady stream of quanta allocates nothing here.  [next] links a task
   into its priority's run queue while it waits, and into the free list
   while its slot is unused.

   [work] is the remaining work as a boxed span: until a preemption
   shortens it, it is the caller's own [~work] value, which dispatch
   hands to the engine as is.  Keeping it as an immediate int instead
   would re-box it at every dispatch, since the engine takes boxed
   spans; only a preemption that consumed some work allocates a new
   one. *)
type task = {
  mutable prio : int;
  mutable klass : int;  (* work class for Trace.Cpu_run; defaults to [prio] *)
  mutable attr : Profile.attr;
  mutable work : Time_ns.span;
  mutable cb : Time_ns.t -> unit;
  mutable trigger : Trigger.kind option;  (* reported through [trigger_hook] before [cb] *)
  mutable next : int;  (* run-queue successor or free-list link; -1 ends either *)
}

type t = {
  engine : Engine.t;
  cpu_id : int;
  mutable pool : task array;
  mutable free : int;  (* head of the free list, -1 when the pool is full *)
  (* One intrusive deque per priority over pool indices: a preempted
     task is pushed at the front, a new one at the back, so a queue
     runs its most recently preempted task first and then the rest in
     FIFO order. *)
  head : int array;
  tail : int array;
  (* The running task: [cur] is its pool index (-1 when none), started
     at [started] ns, completing through the engine event [handle]. *)
  mutable cur : int;
  mutable started : int;
  mutable handle : Engine.handle;
  (* The action of every completion event this CPU schedules.  At most
     one of them is live at a time (a preemption cancels it), so one
     closure per CPU, built in [create], serves them all. *)
  mutable on_complete : unit -> unit;
  mutable busy : int;  (* ns; immediate, boxed only by [busy_ns] *)
  busy_by_prio : int array;
  mutable idle_hook : Time_ns.t -> unit;
  mutable resume_hook : Time_ns.t -> unit;
  mutable trigger_hook : Trigger.kind -> unit;
  mutable depth : int;
}

let no_cb (_ : Time_ns.t) = ()
(* ALLOC002: pool growth (see [grow_pool]). *)
let blank next =
  ({ prio = 0; klass = 0; attr = ua_intr; work = 0L; cb = no_cb; trigger = None; next }
  [@lint.allow "ALLOC002"])

(* Double the pool and thread the new slots onto the (empty) free list,
   lowest index first.  The only allocation on the submit path, and
   amortised O(1): a pool only grows to the CPU's peak backlog. *)
let grow_pool t =
  let cap = Array.length t.pool in
  let ncap = if cap = 0 then 8 else 2 * cap in
  let pool = Array.make ncap (blank (-1)) in
  Array.blit t.pool 0 pool 0 cap;
  for i = cap to ncap - 1 do
    pool.(i) <- blank (if i + 1 < ncap then i + 1 else -1)
  done;
  t.pool <- pool;
  t.free <- cap

let id t = t.cpu_id

let is_idle t = t.cur < 0 && t.depth = 0
let busy_ns t = Int64.of_int t.busy
let busy_ns_at t prio = Int64.of_int t.busy_by_prio.(prio)
let set_idle_hook t f = t.idle_hook <- f
let set_resume_hook t f = t.resume_hook <- f
let set_trigger_hook t f = t.trigger_hook <- f
let queue_depth t = t.depth

let push_back t prio i =
  (Array.unsafe_get t.pool i).next <- -1;
  let last = t.tail.(prio) in
  if last < 0 then t.head.(prio) <- i else (Array.unsafe_get t.pool last).next <- i;
  t.tail.(prio) <- i

let push_front t prio i =
  let first = t.head.(prio) in
  (Array.unsafe_get t.pool i).next <- first;
  if first < 0 then t.tail.(prio) <- i;
  t.head.(prio) <- i

(* Pop the front of the most urgent non-empty queue at or below
   [prio]; -1 when all are empty. *)
let rec take_next t prio =
  if prio >= prio_count then -1
  else
    let first = t.head.(prio) in
    if first < 0 then take_next t (prio + 1)
    else begin
      let next = (Array.unsafe_get t.pool first).next in
      t.head.(prio) <- next;
      if next < 0 then t.tail.(prio) <- -1;
      first
    end

(* The single point through which all busy time flows — attribution
   here is what makes the Profile conservation invariant structural, and
   emitting [Cpu_run] here is what makes the why-late busy coverage
   complete: every charged interval [now - span, now] reaches the trace
   exactly once, tagged with its work class.  [account] keeps the int
   totals; [observe] hands the same [ns] (boxed as [span]) to the
   profiler and the trace. *)
let account t task ns =
  t.busy <- t.busy + ns;
  t.busy_by_prio.(task.prio) <- t.busy_by_prio.(task.prio) + ns

let observe t task ns span =
  Profile.charge task.attr ~cpu:t.cpu_id span;
  if ns > 0 then
    Trace.cpu_run ~at:(Engine.now t.engine) ~cpu:t.cpu_id ~klass:task.klass ~dur:span

let[@hot] dispatch t =
  let i = take_next t 0 in
  let now = Engine.now t.engine in
  if i < 0 then begin
    Trace.cpu_idle ~at:now ~cpu:t.cpu_id;
    t.idle_hook now
  end
  else begin
    t.depth <- t.depth - 1;
    t.cur <- i;
    t.started <- Int64.to_int now;
    t.handle <- Engine.schedule_after t.engine (Array.unsafe_get t.pool i).work t.on_complete
  end

(* The slot is recycled before the trigger hook and [cb] run, and both
   are read out first: either may submit work that reuses it. *)
let[@hot] complete t =
  let i = t.cur in
  let task = Array.unsafe_get t.pool i in
  let span = task.work in
  let ns = Int64.to_int span in
  account t task ns;
  observe t task ns span;
  t.cur <- -1;
  let cb = task.cb and trigger = task.trigger in
  task.next <- t.free;
  t.free <- i;
  (match trigger with None -> () | Some kind -> t.trigger_hook kind);
  cb (Engine.now t.engine);
  (* The callback may have submitted work and triggered a dispatch; only
     dispatch here if the CPU is still unoccupied. *)
  if t.cur < 0 then dispatch t

let create ?(id = 0) engine =
  let t =
    {
      engine;
      cpu_id = id;
      pool = [||];
      free = -1;
      head = Array.make prio_count (-1);
      tail = Array.make prio_count (-1);
      cur = -1;
      started = 0;
      (* A placeholder from a private engine: [handle] is only read
         while [cur >= 0], after a dispatch has stored a real one. *)
      handle = Engine.schedule_after (Engine.create ()) 0L ignore;
      on_complete = ignore;
      busy = 0;
      busy_by_prio = Array.make prio_count 0;
      idle_hook = no_cb;
      resume_hook = no_cb;
      trigger_hook = ignore;
      depth = 0;
    }
  in
  t.on_complete <- (fun () -> complete t);
  t

let[@hot] preempt t =
  Engine.cancel t.engine t.handle;
  let i = t.cur in
  let task = Array.unsafe_get t.pool i in
  let elapsed = Int64.to_int (Engine.now t.engine) - t.started in
  account t task elapsed;
  (* ALLOC003: the profiler and the trace take boxed spans; the box is
     made only when one of them is listening. *)
  if Profile.enabled () || Trace.armed () then
    observe t task elapsed (Int64.of_int elapsed [@lint.allow "ALLOC003"]);
  (* ALLOC003: the engine takes the resumed remainder as a boxed span;
     one box per preemption that consumed work. *)
  if elapsed > 0 then
    task.work <- (Int64.of_int (Int64.to_int task.work - elapsed) [@lint.allow "ALLOC003"]);
  push_front t task.prio i;
  t.depth <- t.depth + 1;
  t.cur <- -1

let[@hot] submit t ?attr ?klass ?trigger ~prio ~work cb =
  if prio < 0 || prio >= prio_count then invalid_arg "Cpu.submit: bad priority";
  if Time_ns.(work < 0L) then invalid_arg "Cpu.submit: negative work";
  let was_idle = is_idle t in
  if t.free < 0 then grow_pool t;
  let i = t.free in
  let task = Array.unsafe_get t.pool i in
  t.free <- task.next;
  task.prio <- prio;
  task.klass <- (match klass with Some k -> k | None -> prio);
  task.attr <- (match attr with Some a -> a | None -> default_attr prio);
  task.work <- work;
  task.cb <- cb;
  task.trigger <- trigger;
  push_back t prio i;
  t.depth <- t.depth + 1;
  if was_idle then begin
    let now = Engine.now t.engine in
    Trace.cpu_busy ~at:now ~cpu:t.cpu_id;
    t.resume_hook now
  end;
  if t.cur < 0 then dispatch t
  else begin
    let running = (Array.unsafe_get t.pool t.cur).prio in
    if preemptible running && prio < running then begin
      preempt t;
      dispatch t
    end
  end
