(** Single simulated CPU with prioritised, partially-preemptible work.

    All computation in the simulated machine — interrupt handlers,
    software-interrupt protocol processing, system-call bodies and user
    code — is expressed as {e quanta}: a duration plus a completion
    callback.  The CPU executes the highest-priority quantum available.

    Priorities (smaller = more urgent) mirror the BSD execution levels
    the paper discusses:

    - {!prio_intr} (0): hardware interrupt handlers.  Never preempted —
      interrupts are disabled while one runs.
    - {!prio_softintr} (1): BSD software interrupts (TCP/IP input
      processing).  Not preempted either: this stands in for the
      spl-protected critical sections that delay — and can lose —
      periodic timer interrupts in FreeBSD (paper §5.7).
    - {!prio_kernel} (2): system-call and trap bodies.  Preemptible.
    - {!prio_user} (3): user-mode computation.  Preemptible.

    When a more urgent quantum arrives while a preemptible one runs, the
    running quantum is suspended with its remaining work and resumed
    afterwards; its completion callback fires once, at true completion.
    Arrival during a non-preemptible quantum waits for that quantum to
    finish — this bounded delay is exactly the trigger-state latency and
    interrupt-latency mechanism of the paper. *)

type t

val prio_intr : int
val prio_softintr : int
val prio_kernel : int
val prio_user : int

val prio_background : int
(** Below user: CPU-bound processes whose scheduler priority has decayed
    (the paper's compute-bound background process, §5.3). *)

val prio_count : int

val klass_timer : int
(** Work class for soft-timer handler execution: runs at
    {!prio_softintr} but is tagged separately in {!Trace.Cpu_run} so the
    why-late breakdown can attribute gap time to "handler of another
    timer" (see [Delay_audit]). *)

val klass_count : int
(** Number of work classes: the five priorities (class = priority for
    untagged quanta) plus {!klass_timer}. *)

val klass_name : int -> string
(** ["intr"], ["softintr"], ["kernel"], ["user"], ["background"],
    ["timer"]; ["other"] for anything out of range. *)

val create : ?id:int -> Engine.t -> t
(** [id] (default 0) labels this CPU's busy/idle transitions in traces
    ({!Trace.Cpu_busy}/{!Trace.Cpu_idle}); {!Machine.create} numbers its
    CPUs 0..n-1. *)

val id : t -> int

val submit :
  t ->
  ?attr:Profile.attr ->
  ?klass:int ->
  ?trigger:Trigger.kind ->
  prio:int ->
  work:Time_ns.span ->
  (Time_ns.t -> unit) ->
  unit
(** [submit t ~prio ~work cb] enqueues a quantum; [cb] runs when its
    cumulative execution reaches [work], receiving the completion time.
    With [trigger], the CPU passes the kind to the {!set_trigger_hook}
    hook at completion, just before [cb] (the quantum ends in that
    trigger state).
    Zero-work quanta complete as soon as they are dispatched.  [attr]
    names the quantum's cycle-attribution category (defaults to
    {!default_attr} for its priority); all of the quantum's execution
    time — including partial charges under preemption — is attributed
    to it.  [klass] (default: the priority itself) is the work class
    stamped on the quantum's {!Trace.Cpu_run} records; pass
    {!klass_timer} for soft-timer handler execution.
    A steady stream of quanta allocates nothing here: tasks live in a
    per-CPU pool that grows to the peak backlog, and only a preemption
    that consumed work boxes the remainder.
    @raise Invalid_argument for out-of-range priority or negative work. *)

val default_attr : int -> Profile.attr
(** Fallback attribution ([unattributed;<prio-name>]) used for quanta
    submitted without [?attr]. *)

val is_idle : t -> bool
(** No quantum running and none queued. *)

val busy_ns : t -> Time_ns.span
(** Cumulative execution time, over all priorities. *)

val busy_ns_at : t -> int -> Time_ns.span
(** Cumulative execution time of quanta submitted at one priority. *)

val set_idle_hook : t -> (Time_ns.t -> unit) -> unit
(** Called at every transition to idle (after the last completion
    callback has run and found nothing to dispatch). *)

val set_resume_hook : t -> (Time_ns.t -> unit) -> unit
(** Called at every transition out of idle. *)

val set_trigger_hook : t -> (Trigger.kind -> unit) -> unit
(** Called with the [trigger] of every quantum submitted with one, at
    its completion and before its callback.  {!Machine.create} installs
    its trigger-state dispatch here. *)

val queue_depth : t -> int
(** Quanta queued but not running (diagnostics). *)
