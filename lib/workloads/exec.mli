(** Kernel scripts with interleaved actions, in pooled buffers.

    Workload models describe a process's activity as a script: CPU
    quanta (a {!Kernel.step} template and the work of this quantum),
    each ending in its step's trigger state, and zero-duration actions
    (packet transmissions, bookkeeping) that run when the script
    reaches them.  Slots execute strictly in order; between quanta,
    interrupts and higher-priority work interleave via the CPU's
    scheduler.

    A script is built straight into a buffer taken from its owner's
    {!pool} and goes back to the pool when it has run, so the steady
    state allocates no script structure: the buffer keeps each slot's
    template, its work in an unboxed float array and its action operand,
    and runs on one cursor closure built with the buffer.  An action is
    the pool's one [act] function applied to a small integer tag and an
    operand, not a closure per action.  Pools grow on demand only. *)

type 'a pool
(** The buffers of one owner, whose actions take operands of type ['a]. *)

type 'a script
(** A buffer being built, or running. *)

val pool : Machine.t -> act:(int -> 'a -> unit) -> 'a pool
(** [pool m ~act] runs its scripts' quanta on [m]; an action slot pushed
    with [push_act s tag op] runs [act tag op]. *)

val script : 'a pool -> 'a script
(** An empty buffer from the pool (a fresh one when all are busy). *)

val push : 'a script -> Kernel.step -> unit
(** Append a quantum of the step's own [work_us]. *)

val push_us : 'a script -> Kernel.step -> float -> unit
(** [push_us s tpl work_us] appends a quantum of [tpl] (priority,
    trigger, attribution) running for [work_us]. *)

val push_body : 'a script -> Kernel.step -> float -> unit
(** [push_body s tpl body_us] appends a quantum of [tpl] whose work is
    the template's entry cost plus [body_us] scaled to the machine's
    clock: the [work_us] that {!Kernel.step_syscall} or
    {!Kernel.step_user} with [~work_us:body_us] would build. *)

val push_act : 'a script -> int -> 'a -> unit
(** [push_act s tag op] appends an action: the pool's [act tag op], run
    at zero simulated duration when the script reaches it.
    @raise Invalid_argument if [tag < 0]. *)

val run : 'a script -> unit
(** Start the script: leading actions run now, each quantum is
    submitted when the previous one completes.  The buffer returns to
    its pool after the last slot, and must not be touched after [run]. *)
