(* Category paths for the kernel's attribution tree, interned once.
   Entry costs are split from bodies with Profile.seq so the profiler
   can show kernel-crossing overhead separately (paper Table 2). *)
let a_syscall_entry = Profile.intern [ "kernel"; "syscall"; "entry" ]
let a_syscall_body = Profile.intern [ "kernel"; "syscall"; "body" ]
let a_trap_entry = Profile.intern [ "kernel"; "trap"; "entry" ]
let a_trap_body = Profile.intern [ "kernel"; "trap"; "body" ]
let a_user = Profile.intern [ "user" ]
let a_ip_output = Profile.intern [ "kernel"; "ip_output" ]
let a_tcp_timer = Profile.intern [ "softintr"; "tcp_timer" ]
let a_ctx_switch = Profile.intern [ "kernel"; "ctx_switch" ]

type step = {
  prio : int;
  work_us : float;
  trigger : Trigger.kind option;
  attr : Profile.attr;  (* category of the step's body *)
  entry_us : float;  (* leading slice attributed to [entry_attr] *)
  entry_attr : Profile.attr;
}

(* A Profile.seq consumes its parts statefully, so it must be built
   fresh for every submitted quantum — steps are reusable values. *)
let step_attr s =
  if Profile.enabled () then
    Some
      (if s.entry_us > 0.0 then
         Profile.seq [ (s.entry_attr, Time_ns.of_us s.entry_us) ] ~tail:s.attr
       else s.attr)
  else None

let attr_of ~entry_us ~entry_attr ~attr =
  if Profile.enabled () && entry_us > 0.0 then
    Some (Profile.seq [ (entry_attr, Time_ns.of_us entry_us) ] ~tail:attr)
  else if Profile.enabled () then Some attr
  else None

let scaled m us = Costs.scale_us (Machine.profile m) us

let syscall m ~work_us cb =
  let entry = (Machine.profile m).Costs.syscall_entry_us in
  Machine.submit_quantum m
    ?attr:(attr_of ~entry_us:entry ~entry_attr:a_syscall_entry ~attr:a_syscall_body)
    ~prio:Cpu.prio_kernel
    ~work_us:(entry +. scaled m work_us)
    ~trigger:(Some Trigger.Syscall) cb

let trap m ~work_us cb =
  let entry = (Machine.profile m).Costs.trap_entry_us in
  Machine.submit_quantum m
    ?attr:(attr_of ~entry_us:entry ~entry_attr:a_trap_entry ~attr:a_trap_body)
    ~prio:Cpu.prio_kernel
    ~work_us:(entry +. scaled m work_us)
    ~trigger:(Some Trigger.Trap) cb

let user m ~work_us cb =
  Machine.submit_quantum m
    ?attr:(attr_of ~entry_us:0.0 ~entry_attr:a_user ~attr:a_user)
    ~prio:Cpu.prio_user ~work_us:(scaled m work_us) ~trigger:None cb

let softintr m ~source ~work_us cb =
  let attr =
    if Profile.enabled () then
      Some (Profile.intern [ "softintr"; Trigger.name source ])
    else None
  in
  Machine.submit_quantum m ?attr ~prio:Cpu.prio_softintr ~work_us:(scaled m work_us)
    ~trigger:(Some source) cb

let context_switch m cb =
  Machine.submit_quantum m
    ?attr:(attr_of ~entry_us:0.0 ~entry_attr:a_ctx_switch ~attr:a_ctx_switch)
    ~prio:Cpu.prio_kernel
    ~work_us:(Machine.profile m).Costs.context_switch_us ~trigger:None cb

let step_syscall ?(work_us = 4.0) m =
  let entry = (Machine.profile m).Costs.syscall_entry_us in
  {
    prio = Cpu.prio_kernel;
    work_us = entry +. scaled m work_us;
    trigger = Some Trigger.Syscall;
    attr = a_syscall_body;
    entry_us = entry;
    entry_attr = a_syscall_entry;
  }

let step_trap ?(work_us = 12.0) m =
  let entry = (Machine.profile m).Costs.trap_entry_us in
  {
    prio = Cpu.prio_kernel;
    work_us = entry +. scaled m work_us;
    trigger = Some Trigger.Trap;
    attr = a_trap_body;
    entry_us = entry;
    entry_attr = a_trap_entry;
  }

let step_user m ~work_us =
  {
    prio = Cpu.prio_user;
    work_us = scaled m work_us;
    trigger = None;
    attr = a_user;
    entry_us = 0.0;
    entry_attr = a_user;
  }

let step_ip_output ?(work_us = 7.0) m =
  {
    prio = Cpu.prio_kernel;
    work_us = scaled m work_us;
    trigger = Some Trigger.Ip_output;
    attr = a_ip_output;
    entry_us = 0.0;
    entry_attr = a_ip_output;
  }

let step_tcp_timer ?(work_us = 1.5) m =
  {
    prio = Cpu.prio_softintr;
    work_us = scaled m work_us;
    trigger = Some Trigger.Tcpip_other;
    attr = a_tcp_timer;
    entry_us = 0.0;
    entry_attr = a_tcp_timer;
  }

let step_ctx_switch m =
  {
    prio = Cpu.prio_kernel;
    work_us = (Machine.profile m).Costs.context_switch_us;
    trigger = None;
    attr = a_ctx_switch;
    entry_us = 0.0;
    entry_attr = a_ctx_switch;
  }

(* One cursor per script, as in [Exec.run]: [next] continues every
   step, so a script builds one closure and one ref whatever its
   length. *)
let run_script m steps k =
  let rest = ref steps in
  let rec next (_ : Time_ns.t) =
    match !rest with
    | [] -> k (Engine.now (Machine.engine m))
    | s :: tl ->
      rest := tl;
      Machine.submit_quantum m ?attr:(step_attr s) ~prio:s.prio ~work_us:s.work_us
        ~trigger:s.trigger next
  in
  next Time_ns.zero
