let request_interarrival = Dist.Exponential 3_600.0  (* us: ~280 req/s *)
let disk_latency = Dist.Uniform (2_000.0, 8_000.0)  (* us *)
let nfsd_syscall_body = Dist.Erlang { k = 2; mean = 8.0 }

(* Block-layer work between trigger states; rarely a long directory or
   metadata scan. *)
let kernel_segment =
  Dist.Mixture
    [
      (0.65, Dist.Uniform (15.0, 90.0));
      (0.315, Dist.Uniform (120.0, 360.0));
      (0.035, Dist.Uniform (400.0, 880.0));
    ]

let a_nfsd_segment = Profile.intern [ "kernel"; "nfsd_segment" ]

let start machine ~seed =
  Machine.start_interrupt_clock machine;
  Machine.set_idle_poll machine (Some (Time_ns.of_us (Machine.profile machine).Costs.idle_loop_us));
  let rng = Prng.create ~seed in
  let engine = Machine.engine machine in
  let rx_line =
    Machine.interrupt_line machine ~name:"nfs-rx" ~source:Trigger.Ip_intr
      ~handler:(fun _ -> ())
      ()
  in
  let disk_line =
    Machine.interrupt_line machine ~name:"nfs-disk" ~source:Trigger.Dev_intr
      ~handler:(fun _ -> ())
      ()
  in
  let syscall = Kernel.step_syscall ~work_us:0.0 machine in
  let segment =
    {
      Kernel.prio = Cpu.prio_kernel;
      work_us = 0.0;
      trigger = None;
      attr = a_nfsd_segment;
      entry_us = 0.0;
      entry_attr = a_nfsd_segment;
    }
  in
  let ip_output = Kernel.step_ip_output machine in
  (* The request script's one action: wait for the disk, then take its
     interrupt, hand the reply back and send it. *)
  let scripts = ref None in
  let disk_wait () =
    let wait = Dist.span disk_latency rng in
    ignore
      (Engine.schedule_after engine wait (fun () ->
           ignore (Machine.raise_irq machine disk_line ~handler_work_us:5.0 () : bool);
           match !scripts with
           | Some p ->
             let s = Exec.script p in
             Exec.push s ip_output;
             Exec.push_body s syscall (Dist.draw nfsd_syscall_body rng);
             Exec.run s
           | None -> assert false)
        : Engine.handle)
  in
  let pool = Exec.pool machine ~act:(fun _ () -> disk_wait ()) in
  scripts := Some pool;
  let serve_request () =
    ignore (Machine.raise_irq machine rx_line ~handler_work_us:4.0 () : bool);
    (* Drawn last slot first: the generator order every recorded
       result depends on. *)
    let body3 = Dist.draw nfsd_syscall_body rng in
    let segment_us = Dist.draw kernel_segment rng in
    let body1 = Dist.draw nfsd_syscall_body rng in
    let s = Exec.script pool in
    Exec.push_body s syscall body1;
    Exec.push_us s segment segment_us;
    Exec.push_body s syscall body3;
    Exec.push_act s 0 ();
    Exec.run s
  in
  let rec arrivals () =
    let gap = Dist.span request_interarrival rng in
    ignore
      (Engine.schedule_after engine gap (fun () ->
           serve_request ();
           arrivals ())
        : Engine.handle)
  in
  arrivals ()
