type server_kind = Apache | Flash

type http_mode = Http | Persistent of int

type net_mode = Interrupts | Soft_polling of float

type pacing = No_pacing | Soft_pacing | Hw_pacing of Time_ns.span

type config = {
  kind : server_kind;
  http : http_mode;
  net : net_mode;
  pacing : pacing;
  profile : Costs.profile;
  connections : int;
  nic_count : int;
  seed : int;
  extra_timer_hz : float option;
  attach_facility : bool;
  background_compute : bool;
  locality_override : Cache.locality option;
}

let default_config =
  {
    kind = Apache;
    http = Http;
    net = Interrupts;
    pacing = No_pacing;
    profile = Costs.pentium_ii_300;
    connections = 16;
    nic_count = 3;
    seed = 7;
    extra_timer_hz = None;
    attach_facility = false;
    background_compute = false;
    locality_override = None;
  }

(* ------------------------------------------------------------------ *)
(* Packet metadata on the simulated LAN.                               *)

type wkind =
  | Syn
  | Synack
  | Handshake_ack
  | Get
  | Ack_small  (** server's ACK of a GET / other bare ACK to client *)
  | Data of int  (** i-th data segment of the current response *)
  | Data_ack
  | Fin  (** client closes *)
  | Fin_ack  (** server's FIN+ACK back *)
  | Last_ack

type wmeta = { conn : int; wkind : wkind }

(* Each connection's metadata values are built once (they are
   immutable, so every packet of that kind shares one): the fixed kinds
   first, then one per data segment. *)
let fixed_kinds = [ Syn; Synack; Handshake_ack; Get; Ack_small; Data_ack; Fin; Fin_ack; Last_ack ]
let n_fixed = List.length fixed_kinds

let meta_slot = function
  | Syn -> 0
  | Synack -> 1
  | Handshake_ack -> 2
  | Get -> 3
  | Ack_small -> 4
  | Data_ack -> 5
  | Fin -> 6
  | Fin_ack -> 7
  | Last_ack -> 8
  | Data i -> n_fixed + i

let conn_metas conn ~data_packets =
  let metas = Array.make (n_fixed + data_packets) { conn; wkind = Syn } in
  List.iter
    (fun wkind -> metas.(meta_slot wkind) <- { conn; wkind })
    (fixed_kinds @ List.init data_packets (fun i -> Data i));
  metas

(* ------------------------------------------------------------------ *)
(* The request anatomy: every duration in microseconds at 300 MHz      *)
(* (Kernel steps rescale them to the machine's profile).               *)

type anatomy = {
  locality : Cache.locality;
  rx_process_us : float;  (** per-packet input protocol processing *)
  p_tcpip_trigger : float;
      (** probability an input-processing quantum ends in one of the
          network subsystem's additional trigger states (§5.2) *)
  setup_syscalls : int;
  setup_syscall_body : Dist.t;
  setup_user_segments : int;
  setup_user : Dist.t;
  setup_kernel_extra_us : float;  (** socket/PCB allocation etc. *)
  setup_traps : float;  (** expected page faults at connection setup *)
  pre_syscalls : int;
  pre_syscall_body : Dist.t;
  pre_user_segments : int;
  pre_user : Dist.t;
  data_packets : int;
  copy_per_packet_us : float;  (** socket copy + checksum *)
  writev_every : int;  (** a write(2) syscall per this many packets *)
  post_syscalls : int;
  post_syscall_body : Dist.t;
  post_user_segments : int;
  post_user : Dist.t;
  request_ctx_switches : int;
  window_updates : int;  (** bare ACK/window-update packets per request *)
  teardown_syscalls : int;
  teardown_syscall_body : Dist.t;
  teardown_user_us : float;
}

let lognormal ~median ~sigma = Dist.Lognormal { mu = log median; sigma }

let apache_anatomy =
  {
    locality = Cache.apache;
    rx_process_us = 13.0;
    p_tcpip_trigger = 0.20;
    setup_syscalls = 5;
    setup_syscall_body = Dist.Erlang { k = 2; mean = 7.0 };
    setup_user_segments = 2;
    setup_user =
      Dist.Mixture
        [ (0.7, lognormal ~median:55.0 ~sigma:0.5); (0.3, Dist.Uniform (88.0, 138.0)) ];
    setup_kernel_extra_us = 130.0;
    setup_traps = 1.0;
    pre_syscalls = 6;
    pre_syscall_body = Dist.Erlang { k = 2; mean = 7.5 };
    pre_user_segments = 6;
    pre_user =
      Dist.Mixture
        [
          (0.30, Dist.Uniform (0.5, 3.0));  (* back-to-back syscalls *)
          (0.57, lognormal ~median:46.0 ~sigma:0.5);
          (0.13, Dist.Uniform (88.0, 138.0));
        ];
    data_packets = 5;
    copy_per_packet_us = 19.0;
    writev_every = 3;
    post_syscalls = 4;
    post_syscall_body = Dist.Erlang { k = 2; mean = 7.5 };
    post_user_segments = 3;
    post_user =
      Dist.Mixture
        [
          (0.30, Dist.Uniform (0.5, 3.0));  (* back-to-back syscalls *)
          (0.57, lognormal ~median:46.0 ~sigma:0.5);
          (0.13, Dist.Uniform (88.0, 138.0));
        ];
    request_ctx_switches = 2;
    window_updates = 2;
    teardown_syscalls = 2;
    teardown_syscall_body = Dist.Erlang { k = 2; mean = 5.0 };
    teardown_user_us = 25.0;
  }

let flash_anatomy =
  {
    locality = Cache.flash;
    rx_process_us = 10.0;
    p_tcpip_trigger = 0.20;
    setup_syscalls = 7;
    setup_syscall_body = Dist.Erlang { k = 2; mean = 7.0 };
    setup_user_segments = 2;
    setup_user =
      Dist.Mixture
        [ (0.85, lognormal ~median:62.0 ~sigma:0.35); (0.15, Dist.Uniform (95.0, 130.0)) ];
    setup_kernel_extra_us = 120.0;
    setup_traps = 0.15;
    pre_syscalls = 2;
    pre_syscall_body = Dist.Erlang { k = 2; mean = 5.0 };
    pre_user_segments = 1;
    pre_user =
      Dist.Mixture
        [ (0.9, lognormal ~median:12.0 ~sigma:0.5); (0.1, Dist.Uniform (85.0, 115.0)) ];
    data_packets = 5;
    copy_per_packet_us = 6.0;
    writev_every = 5;
    post_syscalls = 1;
    post_syscall_body = Dist.Erlang { k = 2; mean = 5.0 };
    post_user_segments = 0;
    post_user = Dist.Constant 0.0;
    request_ctx_switches = 0;
    window_updates = 1;
    teardown_syscalls = 3;
    teardown_syscall_body = Dist.Erlang { k = 2; mean = 6.0 };
    teardown_user_us = 40.0;
  }

let anatomy_of = function Apache -> apache_anatomy | Flash -> flash_anatomy

(* Client-side latencies (not CPU-scaled: they belong to the LAN and the
   client machines, which are never the bottleneck). *)
let wire_latency = Time_ns.of_us 30.0
let client_turnaround = Time_ns.of_us 50.0
let client_think = Time_ns.of_us 80.0
let client_restart = Time_ns.of_us 120.0

(* ------------------------------------------------------------------ *)

type conn_client_state = {
  mutable data_got : int;
  mutable reqs_left : int;
}

(* The step templates of the server's scripts, built once per machine.
   [syscall] and [user] carry a drawn body ({!Exec.push_body}); the rest
   run for their own [work_us]. *)
type steps = {
  syscall : Kernel.step;
  user : Kernel.step;
  trap : Kernel.step;
  ctx_switch : Kernel.step;
  ip_output : Kernel.step;
  ip_output_in_handler : Kernel.step;
  conn_setup : Kernel.step;
  socket_copy : Kernel.step;
  pcb_alloc : Kernel.step;
  teardown_user : Kernel.step;
  rx : Kernel.step array;  (* [rx_step ~first ~tcpip] *)
}

type t = {
  cfg : config;
  anatomy : anatomy;
  engine : Engine.t;
  machine : Machine.t;
  facility : Softtimer.t option;
  mutable poller : Net_poll.t option;
  rng : Prng.t;
  nics : wmeta Nic.t array;
  clients : conn_client_state array;
  metas : wmeta array array;  (* [metas.(conn).(meta_slot wkind)] *)
  steps : steps;
  scripts : wmeta Packet.t Exec.pool;
  draw_tpl : Kernel.step array;  (* drawn bodies awaiting their slot *)
  draw_us : Float.Array.t;
  mutable completed : int;
  mutable measuring : bool;
  mutable measured : int;
  mutable measure_span : Time_ns.span;
  (* pacing *)
  pace_queue : wmeta Packet.t Queue.t;
  pace_touch_us : float;  (* handler cost of each soft pacing event *)
  mutable pace_handler : Time_ns.t -> unit;  (* built once, in [create] *)
  mutable pace_in_train : bool;
  mutable pace_last : Time_ns.t;
  mutable pace_sends : int;
  pace_intervals : Stats.Sample.t;
  mutable hw_pacer : Hw_pacer.t option;
  mutable started : bool;
}

let config t = t.cfg
let engine t = t.engine
let machine t = t.machine
let facility t = t.facility
let poller t = t.poller
let completed_requests t = t.completed
let pacing_intervals t = t.pace_intervals
let pacer_sends t = t.pace_sends

let rx_interrupts t =
  Array.fold_left (fun acc nic -> acc + Interrupt.delivered (Nic.rx_line nic)) 0 t.nics

let rx_packets t = Array.fold_left (fun acc nic -> acc + Nic.rx_packets nic) 0 t.nics
let rx_batches t = Array.fold_left (fun acc nic -> acc + Nic.rx_batches nic) 0 t.nics

let small_packet t conn wkind =
  Packet.create ~size_bytes:64
    ~meta:t.metas.(conn).(meta_slot wkind)
    ~born:(Engine.now t.engine)

let data_packet t conn i =
  Packet.create ~size_bytes:1500
    ~meta:t.metas.(conn).(n_fixed + i)
    ~born:(Engine.now t.engine)

let nic_of t conn = t.nics.(conn mod Array.length t.nics)

(* Client -> server, after the client's turnaround and the wire. *)
let client_send t conn ~after wkind =
  let nic = nic_of t conn in
  ignore
    (Engine.schedule_after t.engine
       Time_ns.(after + wire_latency)
       (fun () -> Nic.deliver nic (small_packet t conn wkind))
      : Engine.handle)

(* ------------------------------------------------------------------ *)
(* Server-side scripts.                                                *)

(* Attribution categories for this workload's inline submissions. *)
let a_kernel_work = Profile.intern [ "kernel"; "work" ]
let a_socket_copy = Profile.intern [ "kernel"; "socket_copy" ]
let a_conn_setup = Profile.intern [ "kernel"; "conn_setup" ]
let a_ip_output_handler = Profile.intern [ "kernel"; "ip_output"; "in_handler" ]
let a_rx_cold = Profile.intern [ "softintr"; "rx_process"; "cold" ]
let a_rx_warm = Profile.intern [ "softintr"; "rx_process"; "warm" ]
let a_tcp_sweep = Profile.intern [ "softintr"; "tcp_timer"; "sweep" ]
let a_background = Profile.intern [ "user"; "background" ]
let a_poll_status = Profile.intern [ "softtimer"; "net_poll"; "status_read" ]
let a_pace_touch = Profile.intern [ "softtimer"; "rbc"; "handler_touch" ]

let step_kernel_work ?(attr = a_kernel_work) m ~work_us =
  {
    Kernel.prio = Cpu.prio_kernel;
    work_us = Costs.scale_us (Machine.profile m) work_us;
    trigger = None;
    attr;
    entry_us = 0.0;
    entry_attr = attr;
  }

(* Input protocol processing of one received packet: the first of a
   batch pays the full per-packet cost, the rest run warm (aggregation
   benefit, §5.9).  In interrupt mode the batch is processed from a
   software interrupt: its dispatch and the cold-cache protocol
   processing cost extra compared with polled processing, which runs in
   an already-locality-shifted trigger state (the paper's §4.2
   argument). *)
let rx_steps cfg a =
  let intr_mode = match cfg.net with Interrupts -> true | Soft_polling _ -> false in
  let softintr_surcharge =
    if intr_mode then 2.5 +. (2.0 *. a.locality.Cache.sensitivity) else 0.0
  in
  let rx ~first ~tcpip =
    let attr = if first then a_rx_cold else a_rx_warm in
    {
      Kernel.prio = Cpu.prio_softintr;
      work_us =
        (if first then a.rx_process_us +. softintr_surcharge
         else a.rx_process_us *. a.locality.Cache.warm_fraction);
      trigger = (if tcpip then Some Trigger.Tcpip_other else None);
      attr;
      entry_us = 0.0;
      entry_attr = attr;
    }
  in
  [| rx ~first:false ~tcpip:false; rx ~first:false ~tcpip:true;
     rx ~first:true ~tcpip:false; rx ~first:true ~tcpip:true |]

let rx_step t ~first ~tcpip =
  t.steps.rx.((if first then 2 else 0) + if tcpip then 1 else 0)

let make_steps cfg a m =
  {
    syscall = Kernel.step_syscall ~work_us:0.0 m;
    user = Kernel.step_user m ~work_us:0.0;
    trap = Kernel.step_trap m;
    ctx_switch = Kernel.step_ctx_switch m;
    ip_output = Kernel.step_ip_output m;
    (* Transmission performed from inside a timer handler: the IP
       output work is charged, but it happens within the handler's
       context rather than ending in a fresh trigger state of its own. *)
    ip_output_in_handler =
      {
        Kernel.prio = Cpu.prio_kernel;
        work_us = Costs.scale_us (Machine.profile m) 7.0;
        trigger = None;
        attr = a_ip_output_handler;
        entry_us = 0.0;
        entry_attr = a_ip_output_handler;
      };
    conn_setup = step_kernel_work ~attr:a_conn_setup m ~work_us:a.setup_kernel_extra_us;
    socket_copy = step_kernel_work ~attr:a_socket_copy m ~work_us:a.copy_per_packet_us;
    pcb_alloc = step_kernel_work m ~work_us:14.0;
    teardown_user = Kernel.step_user m ~work_us:a.teardown_user_us;
    rx = rx_steps cfg a;
  }

(* Action tags of the server's scripts; every operand is a packet. *)
let act_transmit = 0  (* onto its connection's wire *)
let act_pace = 1  (* into the pacer's queue *)
let act_dispatch = 2  (* server-side handling of a received packet *)

(* Transmit one packet: the IP output loop's work and trigger state,
   then the wire. *)
let[@hot] push_tx t s pkt =
  Exec.push s t.steps.ip_output;
  Exec.push_act s act_transmit pkt

let[@hot] push_syscalls t s n body =
  for _ = 1 to n do
    Exec.push_body s t.steps.syscall (Dist.draw body t.rng)
  done

(* The drawn bodies of the interleaving x1 y1 x2 y2 ... (leftovers
   appended), stored from [at] in slot order.  Every [ys] body is drawn
   before the first [xs] body: the generator order every recorded
   result depends on. *)
let[@hot] draw_interleaved t ~at xtpl nx xd ytpl ny yd =
  let m = Int.min nx ny in
  for k = 0 to ny - 1 do
    let j = if k < m then at + (2 * k) + 1 else at + (2 * m) + (k - m) in
    t.draw_tpl.(j) <- ytpl;
    Float.Array.set t.draw_us j (Dist.draw yd t.rng)
  done;
  for k = 0 to nx - 1 do
    let j = if k < m then at + (2 * k) else at + (2 * m) + (k - m) in
    t.draw_tpl.(j) <- xtpl;
    Float.Array.set t.draw_us j (Dist.draw xd t.rng)
  done

let[@hot] push_drawn t s ~at n =
  for j = at to at + n - 1 do
    Exec.push_body s t.draw_tpl.(j) (Float.Array.get t.draw_us j)
  done

let pace_record t now =
  if t.pace_in_train then
    (* [Time_ns.to_us (now - pace_last)], with the arithmetic kept
       unboxed. *)
    Stats.Sample.add t.pace_intervals (Int64.to_float (Int64.sub now t.pace_last) /. 1e3)
  [@lint.allow "ALLOC003"];
  t.pace_last <- now;
  t.pace_sends <- t.pace_sends + 1

(* One paced transmission: pop a pending packet, account the interval,
   transmit from the handler's context.  Returns false when nothing is
   pending. *)
let[@hot] pace_send t now =
  if Queue.is_empty t.pace_queue then begin
    t.pace_in_train <- false;
    false
  end
  else begin
    let pkt = Queue.take t.pace_queue in
    pace_record t now;
    t.pace_in_train <- not (Queue.is_empty t.pace_queue);
    let s = Exec.script t.scripts in
    Exec.push s t.steps.ip_output_in_handler;
    Exec.push_act s act_transmit pkt;
    Exec.run s;
    true
  end

(* The write phase: a write(2) per [writev_every] packets, the socket
   copy, and the packet itself, inline or deferred through the pacer.
   Its syscall bodies are the last draws of a request.  An inline data
   packet goes onto the wire just before, not after, the IP output
   quantum that charges its work: the order the simulation has always
   had, kept so every result stays byte-identical. *)
let[@hot] push_write_phase t s conn =
  let a = t.anatomy in
  for i = 0 to a.data_packets - 1 do
    if i mod a.writev_every = 0 then
      Exec.push_body s t.steps.syscall (Dist.draw a.pre_syscall_body t.rng);
    Exec.push s t.steps.socket_copy;
    match t.cfg.pacing with
    | No_pacing ->
      Exec.push_act s act_transmit (data_packet t conn i);
      Exec.push s t.steps.ip_output
    | Soft_pacing | Hw_pacing _ -> Exec.push_act s act_pace (data_packet t conn i)
  done

(* The application-level handling of one GET: a context switch in,
   the pre-write syscalls and user segments, the write phase, window
   updates around the post-write segments, the rest of the context
   switches.  Draw order: pre syscalls, pre users, post users, post
   syscalls, then the write phase. *)
let[@hot] push_request t s conn =
  let a = t.anatomy in
  let npre = a.pre_user_segments + a.pre_syscalls in
  draw_interleaved t ~at:0 t.steps.user a.pre_user_segments a.pre_user t.steps.syscall
    a.pre_syscalls a.pre_syscall_body;
  draw_interleaved t ~at:npre t.steps.syscall a.post_syscalls a.post_syscall_body
    t.steps.user a.post_user_segments a.post_user;
  if a.request_ctx_switches >= 1 then Exec.push s t.steps.ctx_switch;
  push_drawn t s ~at:0 npre;
  push_write_phase t s conn;
  if a.window_updates >= 1 then push_tx t s (small_packet t conn Ack_small);
  push_drawn t s ~at:npre (a.post_syscalls + a.post_user_segments);
  if a.window_updates >= 2 then push_tx t s (small_packet t conn Ack_small);
  for _ = 2 to a.request_ctx_switches do
    Exec.push s t.steps.ctx_switch
  done

(* Connection setup once the application accepts.  Draw order: the
   page-fault coin, the syscall bodies, the user segments. *)
let[@hot] push_setup t s =
  let a = t.anatomy in
  let trap = Prng.chance t.rng a.setup_traps in
  (match t.cfg.kind with Apache -> Exec.push s t.steps.ctx_switch | Flash -> ());
  draw_interleaved t ~at:0 t.steps.user a.setup_user_segments a.setup_user t.steps.syscall
    a.setup_syscalls a.setup_syscall_body;
  push_drawn t s ~at:0 (a.setup_user_segments + a.setup_syscalls);
  Exec.push s t.steps.conn_setup;
  if trap then Exec.push s t.steps.trap

let[@hot] push_teardown t s conn =
  let a = t.anatomy in
  push_tx t s (small_packet t conn Ack_small);
  push_syscalls t s a.teardown_syscalls a.teardown_syscall_body;
  Exec.push s t.steps.teardown_user;
  push_tx t s (small_packet t conn Fin_ack)

(* ------------------------------------------------------------------ *)
(* Client behaviour (runs on the client machines: pure engine events). *)

let on_response_complete t conn =
  t.completed <- t.completed + 1;
  if t.measuring then t.measured <- t.measured + 1;
  let st = t.clients.(conn) in
  if st.reqs_left > 0 then begin
    st.reqs_left <- st.reqs_left - 1;
    st.data_got <- 0;
    client_send t conn ~after:client_think Get
  end
  else client_send t conn ~after:client_turnaround Fin

let rec client_handle t now pkt =
  ignore now;
  let conn = pkt.Packet.meta.conn in
  let st = t.clients.(conn) in
  match pkt.Packet.meta.wkind with
  | Synack ->
    client_send t conn ~after:client_turnaround Handshake_ack;
    client_send t conn ~after:Time_ns.(client_turnaround + Time_ns.of_us 8.0) Get
  | Data i ->
    ignore i;
    st.data_got <- st.data_got + 1;
    if st.data_got mod 2 = 0 || st.data_got = t.anatomy.data_packets then
      client_send t conn ~after:client_turnaround Data_ack;
    if st.data_got = t.anatomy.data_packets then on_response_complete t conn
  | Ack_small -> ()
  | Fin_ack ->
    client_send t conn ~after:client_turnaround Last_ack;
    (* Connection over: this client starts a fresh one. *)
    ignore
      (Engine.schedule_after t.engine client_restart (fun () -> start_connection t conn)
        : Engine.handle)
  | Syn | Handshake_ack | Get | Data_ack | Fin | Last_ack ->
    (* Server-bound kinds never reach the client. *)
    ()

and start_connection t conn =
  let st = t.clients.(conn) in
  st.data_got <- 0;
  st.reqs_left <- (match t.cfg.http with Http -> 0 | Persistent n -> max 0 (n - 1));
  client_send t conn ~after:Time_ns.zero Syn

(* ------------------------------------------------------------------ *)
(* Server-side packet dispatch (after input protocol processing).      *)

let[@hot] server_dispatch t pkt =
  let conn = pkt.Packet.meta.conn in
  match pkt.Packet.meta.wkind with
  | Syn ->
    (* PCB allocation + SYN-ACK transmission. *)
    let s = Exec.script t.scripts in
    Exec.push s t.steps.pcb_alloc;
    push_tx t s (small_packet t conn Synack);
    Exec.run s
  | Handshake_ack ->
    (* Completes the handshake; connection setup work happens when the
       server application accepts. *)
    let s = Exec.script t.scripts in
    push_setup t s;
    Exec.run s
  | Get ->
    (* TCP ACKs the request, then the application handles it. *)
    let s = Exec.script t.scripts in
    push_tx t s (small_packet t conn Ack_small);
    push_request t s conn;
    Exec.run s
  | Data_ack -> ()
  | Fin ->
    let s = Exec.script t.scripts in
    push_teardown t s conn;
    Exec.run s
  | Last_ack -> ()
  | Synack | Ack_small | Data _ | Fin_ack ->
    (* Client-bound kinds never reach the server. *)
    ()

(* The scripts' actions. *)
let server_act t tag pkt =
  if tag = act_transmit then Nic.transmit (nic_of t pkt.Packet.meta.conn) pkt
  else if tag = act_pace then Queue.add pkt t.pace_queue
  else server_dispatch t pkt

(* Input protocol processing of one received batch, each packet's
   quantum followed by its dispatch; a quantum ends in one of the
   network subsystem's additional trigger states with probability
   [p_tcpip_trigger] (§5.2). *)
let[@hot] rec push_rx t s ~first batch =
  match batch with
  | [] -> ()
  | pkt :: tl ->
    let tcpip = Prng.chance t.rng t.anatomy.p_tcpip_trigger in
    Exec.push s (rx_step t ~first ~tcpip);
    Exec.push_act s act_dispatch pkt;
    push_rx t s ~first:false tl

let[@hot] on_rx_batch t _now batch =
  let s = Exec.script t.scripts in
  push_rx t s ~first:true batch;
  Exec.run s

let nop (_ : Time_ns.t) = ()
let pace_touch_attr = Some a_pace_touch

(* Soft pacing: a soft-timer event at every trigger state; transmit one
   packet whenever the handler runs and a packet is pending (the
   paper's rate-clocking overhead experiment).  Each invocation touches
   the pacing and TCP state, whose cache footprint costs more on a
   locality-sensitive server - the residual 2-6% overhead of the
   paper's Table 3.  The handler re-arms itself: [pace_handler] is this
   function's one closure. *)
let[@hot] on_pace t st now =
  Machine.submit_quantum t.machine ?attr:pace_touch_attr ~prio:Cpu.prio_intr
    ~work_us:t.pace_touch_us ~trigger:None nop;
  ignore (pace_send t now : bool);
  ignore (Softtimer.schedule_soft_event st ~ticks:0L t.pace_handler : Softtimer.handle)

(* ------------------------------------------------------------------ *)

let start_tcp_timer_sweeps t =
  let period = Time_ns.of_ms 200.0 in
  let rec sweep () =
    for _ = 1 to t.cfg.connections do
      Machine.submit_quantum t.machine ~attr:a_tcp_sweep ~prio:Cpu.prio_softintr
        ~work_us:1.5
        ~trigger:(Some Trigger.Tcpip_other)
        (fun _ -> ())
    done;
    ignore (Engine.schedule_after t.engine period sweep : Engine.handle)
  in
  ignore (Engine.schedule_after t.engine period sweep : Engine.handle)

let start_background_compute t =
  (* An endless CPU hog at background priority: big syscall-free quanta. *)
  let rec churn _now =
    Machine.submit_quantum t.machine ~attr:a_background ~prio:Cpu.prio_background
      ~work_us:400.0 ~trigger:None churn
  in
  churn Time_ns.zero

let create cfg =
  let engine = Engine.create () in
  let machine = Machine.create ~profile:cfg.profile engine in
  let anatomy = anatomy_of cfg.kind in
  let anatomy =
    match cfg.locality_override with
    | None -> anatomy
    | Some locality -> { anatomy with locality }
  in
  Machine.set_locality machine anatomy.locality;
  let needs_facility =
    cfg.attach_facility
    || (match cfg.net with Soft_polling _ -> true | Interrupts -> false)
    || (match cfg.pacing with Soft_pacing -> true | No_pacing | Hw_pacing _ -> false)
  in
  let facility = if needs_facility then Some (Softtimer.attach machine) else None in
  if not needs_facility then Machine.start_interrupt_clock machine;
  (* FreeBSD's spl-protected critical sections: they defer (and can
     lose) periodic-timer ticks, Â§5.7. *)
  Machine.start_spl_sections machine ~seed:(cfg.seed + 101) ();
  (match cfg.extra_timer_hz with
  | Some hz -> ignore (Machine.add_periodic_timer machine ~hz (fun _ -> ()) : Interrupt.line)
  | None -> ());
  let t_ref = ref None in
  let the_t () = match !t_ref with Some t -> t | None -> assert false in
  let nics =
    Array.init cfg.nic_count (fun i ->
        Nic.create machine
          ~name:(Printf.sprintf "fxp%d" i)
          ~bandwidth_bps:100e6 ~wire_latency
          ~tx_deliver:(fun now pkt -> client_handle (the_t ()) now pkt)
          ~on_rx_batch:(fun now batch -> on_rx_batch (the_t ()) now batch)
          ~tx_intr_coalesce:8 ~rx_intr_delay:(Time_ns.of_us 25.0) ())
  in
  (* Scratch for the drawn bodies of one interleaved phase pair. *)
  let max_drawn =
    max
      (anatomy.setup_user_segments + anatomy.setup_syscalls)
      (anatomy.pre_user_segments + anatomy.pre_syscalls + anatomy.post_syscalls
     + anatomy.post_user_segments)
  in
  let steps = make_steps cfg anatomy machine in
  let t =
    {
      cfg;
      anatomy;
      engine;
      machine;
      facility;
      poller = None;
      rng = Prng.create ~seed:cfg.seed;
      nics;
      clients =
        Array.init cfg.connections (fun _ -> { data_got = 0; reqs_left = 0 });
      metas =
        Array.init cfg.connections (fun conn ->
            conn_metas conn ~data_packets:anatomy.data_packets);
      steps;
      scripts = Exec.pool machine ~act:(fun tag pkt -> server_act (the_t ()) tag pkt);
      draw_tpl = Array.make max_drawn steps.syscall;
      draw_us = Float.Array.make max_drawn 0.0;
      completed = 0;
      measuring = false;
      measured = 0;
      measure_span = 0L;
      pace_queue = Queue.create ();
      pace_touch_us = 0.5 *. anatomy.locality.Cache.sensitivity;
      pace_handler = nop;
      pace_in_train = false;
      pace_last = Time_ns.zero;
      pace_sends = 0;
      pace_intervals = Stats.Sample.create ();
      hw_pacer = None;
      started = false;
    }
  in
  t_ref := Some t;
  (* Network polling. *)
  (match (cfg.net, facility) with
  | Soft_polling quota, Some st ->
    Array.iter (fun nic -> Nic.set_mode nic Nic.Polled) nics;
    (* Reading the interfaces' status registers costs a little even
       when nothing is found. *)
    let status_attr = Some a_poll_status in
    let status_us = 0.4 *. float_of_int (Array.length nics) in
    let poll _now =
      Machine.submit_quantum machine ?attr:status_attr ~prio:Cpu.prio_intr ~work_us:status_us
        ~trigger:None nop;
      Array.fold_left (fun acc nic -> acc + Nic.poll nic) 0 nics
    in
    t.poller <- Some (Net_poll.create st ~quota ~poll ())
  | Soft_polling _, None -> assert false
  | Interrupts, _ -> ());
  (* Pacing of data transmissions. *)
  (match (cfg.pacing, facility) with
  | Soft_pacing, Some st ->
    t.pace_handler <- (fun now -> on_pace t st now);
    ignore (Softtimer.schedule_soft_event st ~ticks:0L t.pace_handler : Softtimer.handle)
  | Soft_pacing, None -> assert false
  | Hw_pacing interval, _ ->
    let pacer =
      Hw_pacer.create machine ~interval ~send:(fun now -> pace_send t now) ()
    in
    t.hw_pacer <- Some pacer
  | No_pacing, _ -> ());
  t

let requests_per_sec t =
  if Time_ns.(t.measure_span <= 0L) then nan
  else float_of_int t.measured /. Time_ns.to_sec t.measure_span

let run t ~warmup ~measure =
  if t.started then invalid_arg "Webserver.run: already run";
  t.started <- true;
  start_tcp_timer_sweeps t;
  if t.cfg.background_compute then start_background_compute t;
  (match t.poller with Some p -> Net_poll.start p | None -> ());
  (match t.hw_pacer with Some p -> Hw_pacer.start p | None -> ());
  (* Stagger connection starts to avoid a synchronised thundering herd. *)
  Array.iteri
    (fun conn _ ->
      ignore
        (Engine.schedule_after t.engine
           (Time_ns.mul (Time_ns.of_us 37.0) conn)
           (fun () -> start_connection t conn)
          : Engine.handle))
    t.clients;
  Engine.run_until t.engine warmup;
  t.measuring <- true;
  t.measured <- 0;
  t.measure_span <- measure;
  Engine.run_until t.engine Time_ns.(warmup + measure);
  t.measuring <- false
