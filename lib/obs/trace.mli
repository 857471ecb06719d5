(** Bounded event tracing for the simulator.

    A [Trace.t] is a fixed-capacity ring buffer of timestamped, typed
    simulation events.  Subsystems emit events through the module-level
    emitters below; when no trace is installed ({!install} has not been
    called, or {!uninstall} ran) every emitter is a single load and
    branch — no allocation, no work — so instrumentation can stay in
    hot paths permanently.

    Exactly one trace can be installed {e per domain}: the installed
    sink (and tap) live in domain-local storage, so a freshly spawned
    domain starts untraced and parallel experiment workers
    (lib/parallel) never write into a ring installed by the parent —
    each captures into a private ring that the runner {!absorb}s in
    deterministic job order.  Once a buffer is full the oldest records
    are overwritten and counted in {!dropped}.

    Consumers read records back with {!iter}/{!to_list} (oldest first)
    or export them with {!Trace_export}. *)

(** What happened.  Each constructor mirrors one instrumentation point
    in the simulator; see DESIGN.md ("Observability") for the full
    schema and how each maps onto Chrome [trace_event] records. *)
type event =
  | Trigger of string  (** a trigger state was reached (kind name) *)
  | Soft_sched of { id : int; due : Time_ns.t }
      (** soft event [id] scheduled; a re-arm emits cancel + sched with
          the id kept, so [id] names the timer across its whole life *)
  | Soft_fire of { id : int; due : Time_ns.t; delay : Time_ns.span }
      (** soft event fired [delay] after its due time *)
  | Soft_cancel of { id : int; due : Time_ns.t }
      (** pending soft event cancelled *)
  | Soft_check of { src : string; scanned : int; fired : int }
      (** a facility check from trigger state [src] found work: the due
          batch held [scanned] pending entries, [fired] were dispatched
          (the rest were withheld by the check budget).  Emitted after
          the batch's [Soft_fire]s, only when [scanned > 0]. *)
  | Cpu_run of { cpu : int; klass : int; dur : Time_ns.span }
      (** CPU executed one work quantum: start at [at - dur], end at
          [at]; [klass] is the {!Cpu} work class (see [Cpu.klass_name]) *)
  | Irq of { line : string; cpu : int; dur : Time_ns.span }
      (** interrupt dispatch completed: entry at [at - dur], exit at [at] *)
  | Irq_raised of { line : string }  (** device asserted the line *)
  | Irq_lost of { line : string }  (** tick lost (latch full / spl) *)
  | Cpu_busy of { cpu : int }  (** CPU left the idle loop *)
  | Cpu_idle of { cpu : int }  (** CPU entered the idle loop *)
  | Pkt_enqueue of { nic : string; qlen : int }  (** packet into rx ring *)
  | Pkt_tx of { nic : string }  (** packet fully serialised onto the wire *)
  | Pkt_rx of { nic : string; batch : int }  (** rx batch handed to the stack *)
  | Pkt_drop of { nic : string }  (** rx ring overflow *)
  | Poll of { found : int }  (** soft-timer network poll, batch size *)
  | Rbc_send  (** rate-based clocking transmitted a packet *)
  | Mark of string  (** free-form annotation *)

type record = { at : Time_ns.t; ev : event }

type t

val create : ?capacity:int -> unit -> t
(** A fresh, empty trace.  [capacity] defaults to 65536 records.
    @raise Invalid_argument if [capacity <= 0]. *)

val install : t -> unit
(** Make [t] the sink of every emitter until {!uninstall} (or another
    [install]) replaces it. *)

val uninstall : unit -> unit
(** Disable tracing: emitters return to their single-branch no-op. *)

val installed : unit -> t option

val enabled : unit -> bool
(** Whether a ring buffer is installed. *)

val set_tap : (at:Time_ns.t -> event -> unit) option -> unit
(** Install (or, with [None], remove) a synchronous tap.  The tap is
    called with every emitted event — whether or not a ring buffer is
    installed — before the event is recorded.  At most one tap exists at
    a time; the runtime invariant sanitizer ({!Sanitizer} in lib/check)
    is the intended consumer.  Taps must not emit trace events. *)

val tap_installed : unit -> bool

val armed : unit -> bool
(** Whether any consumer (ring or tap) is installed: exactly when the
    emitters record anything.  Lets a caller skip building an emitter's
    arguments (a boxed span, say) on the disabled path. *)

val capacity : t -> int

val length : t -> int
(** Records currently held ([<= capacity]). *)

val dropped : t -> int
(** Records overwritten because the buffer was full. *)

val total : t -> int
(** Records ever emitted into [t]: [length t + dropped t]. *)

val clear : t -> unit

val iter : t -> (record -> unit) -> unit
(** Oldest first. *)

val to_list : t -> record list
(** Oldest first. *)

(** {2 Emitters}

    Each is a no-op unless a trace is installed.  [at] is the current
    simulation time. *)

val emit : at:Time_ns.t -> event -> unit
val trigger : at:Time_ns.t -> string -> unit
val soft_sched : at:Time_ns.t -> id:int -> due:Time_ns.t -> unit
val soft_fire : at:Time_ns.t -> id:int -> due:Time_ns.t -> unit
val soft_cancel : at:Time_ns.t -> id:int -> due:Time_ns.t -> unit
val soft_check : at:Time_ns.t -> src:string -> scanned:int -> fired:int -> unit
val cpu_run : at:Time_ns.t -> cpu:int -> klass:int -> dur:Time_ns.span -> unit
val irq : at:Time_ns.t -> line:string -> cpu:int -> dur:Time_ns.span -> unit
val irq_raised : at:Time_ns.t -> line:string -> unit
val irq_lost : at:Time_ns.t -> line:string -> unit
val cpu_busy : at:Time_ns.t -> cpu:int -> unit
val cpu_idle : at:Time_ns.t -> cpu:int -> unit
val pkt_enqueue : at:Time_ns.t -> nic:string -> qlen:int -> unit
val pkt_tx : at:Time_ns.t -> nic:string -> unit
val pkt_rx : at:Time_ns.t -> nic:string -> batch:int -> unit
val pkt_drop : at:Time_ns.t -> nic:string -> unit
val poll : at:Time_ns.t -> found:int -> unit
val rbc_send : at:Time_ns.t -> unit
val mark : at:Time_ns.t -> string -> unit

val sim_start_mark : string
(** The [Mark] payload that declares "a fresh simulation begins here".
    Emitted by [Machine.create] and [Session.run_transfer]; consumers
    tracking causality (the sanitizer) reset their clock on it.  Any
    code that builds a fresh {!Engine} outside those paths should emit
    it too. *)

val sim_start : at:Time_ns.t -> unit
(** [mark ~at sim_start_mark]. *)

val absorb : t -> unit
(** [absorb src] replays every record of [src], oldest first, into the
    calling domain's installed consumers (tap and ring) via {!emit},
    then adds [dropped src] to the installed ring's drop count.  Used
    by the parallel runner to merge per-worker rings in job order; the
    merged ring's contents, {!dropped} and {!total} are identical to
    what a single sequential run would have produced. *)
