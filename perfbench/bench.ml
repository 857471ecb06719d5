(* The repository benchmark: host cost of the simulator, end to end and
   layer by layer.

     bench.exe --workload web-pace|web-poll|pacer-1m --seed N
               --seconds S --trace 0|1 [--size full|tiny] [--out DIR]

   One process, one domain.  After set-up the benchmark drives the
   simulator closed-loop in fixed simulated slices (10 ms of simulated
   time on the web workloads, one 10 us tick on the pacer) and times
   each slice with a monotonic ns clock.  [--trace 0] reports the
   end-to-end metrics from an untraced run; [--trace 1] reports the
   per-layer metrics from a traced run plus layer probes.  The last
   line of stdout is one JSON object; every line before it starts with
   "# ".  The exit code is 1 when a correctness check failed and 2 on a
   usage error.  README.md explains the workloads and the metrics. *)

let clock = Probes.clock

type size = Full | Tiny

(* ------------------------------------------------------------------ *)
(* Layer counts: Metrics.default counters, exact and always on.        *)

let counter_names =
  [
    "machine.triggers";
    "softtimer.checks";
    "softtimer.fired";
    "softtimer.scheduled";
    "softtimer.cancelled";
    "interrupt.raised";
    "interrupt.delivered";
    "interrupt.lost";
    "nic.rx_packets";
    "nic.tx_packets";
    "nic.rx_batches";
    "nic.rx_dropped";
    "net_poll.polls";
    "net_poll.packets";
    "rate_clock.sends";
  ]

let counters = List.map (fun n -> (n, Metrics.dcounter Metrics.default n)) counter_names
let read_counters () = List.map (fun (n, c) -> (n, Metrics.dcounter_value c)) counters
let diff_counters c1 c0 = List.map2 (fun (n, a) (_, b) -> (n, a - b)) c1 c0

let digest_of outputs =
  Digest.to_hex
    (Digest.string
       (String.concat ";" (List.map (fun (n, v) -> Printf.sprintf "%s=%d" n v) outputs)))

(* Recorded values above [bound] (at least one when the exact maximum
   is above it), from the histogram's bucket CDF. *)
let count_above h bound =
  if Hdr.count h = 0 || Hdr.max h <= bound then 0
  else
    let below =
      List.fold_left (fun acc (edge, frac) -> if edge <= bound then frac else acc) 0.0
        (Hdr.cdf_points h)
    in
    max 1 (int_of_float (Float.round ((1.0 -. below) *. float_of_int (Hdr.count h))))

(* ------------------------------------------------------------------ *)
(* Traced run: a counting tap and per-step spans.                      *)

(* Step classes: the layer whose trace events a step emitted; when a
   step emitted several, the highest class wins. *)
let cls_none = 0
let cls_cpu = 1
let cls_pkt = 2
let cls_irq = 3
let cls_soft = 4
let cls_fleet = 5
let cls_names = [| "none"; "cpu"; "pkt"; "irq"; "soft"; "fleet" |]

let tap_events = ref 0
let tap_class = ref cls_none

let tap ~at:_ (ev : Trace.event) =
  incr tap_events;
  let c =
    match ev with
    | Soft_fire _ | Soft_check _ -> cls_soft
    | Irq _ -> cls_irq
    | Pkt_enqueue _ | Pkt_tx _ | Pkt_rx _ | Pkt_drop _ -> cls_pkt
    | Cpu_run _ -> cls_cpu
    | _ -> cls_none
  in
  if c > !tap_class then tap_class := c

(* Spans stay in memory (the first [cap]; the rest only feed the
   aggregates) and are written out when the benchmark ends.  A span's
   parent is its slice. *)
module Spans = struct
  let cap = 1 lsl 17

  type t = {
    origin : int;
    slice : int array;
    start : int array;
    dur : int array;
    cls : int array;
    mutable n : int;
    mutable steps : int;
    all : Hdr.t;
    by_cls : Hdr.t array;
    mutable engine_pending : int;  (* summed over steps *)
    mutable store_pending : int;
  }

  let create () =
    {
      origin = clock ();
      slice = Array.make cap 0;
      start = Array.make cap 0;
      dur = Array.make cap 0;
      cls = Array.make cap 0;
      n = 0;
      steps = 0;
      all = Hdr.create ~lowest:1.0 ();
      by_cls = Array.init (Array.length cls_names) (fun _ -> Hdr.create ~lowest:1.0 ());
      engine_pending = 0;
      store_pending = 0;
    }

  let add t ~slice ~start ~dur ~cls ~engine_pending ~store_pending =
    if t.n < cap then begin
      t.slice.(t.n) <- slice;
      t.start.(t.n) <- start - t.origin;
      t.dur.(t.n) <- dur;
      t.cls.(t.n) <- cls;
      t.n <- t.n + 1
    end;
    t.steps <- t.steps + 1;
    Hdr.record t.all (float_of_int dur);
    Hdr.record t.by_cls.(cls) (float_of_int dur);
    t.engine_pending <- t.engine_pending + engine_pending;
    t.store_pending <- t.store_pending + store_pending

  let write t path =
    let oc = open_out path in
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () ->
        output_string oc "slice,start_ns,dur_ns,class\n";
        for i = 0 to t.n - 1 do
          Printf.fprintf oc "%d,%d,%d,%s\n" t.slice.(i) t.start.(i) t.dur.(i) cls_names.(t.cls.(i))
        done)
end

(* ------------------------------------------------------------------ *)
(* Workloads.                                                          *)

type workload = {
  slice_sim_s : float;  (* simulated seconds advanced per slice *)
  slice : unit -> unit;
  traced_slice : Spans.t -> int -> unit;
  ops : unit -> int;  (* completed requests (web) or sends (pacer) *)
  outputs : unit -> (string * int) list;  (* simulated outputs for the digest *)
  violations : unit -> (string * int) list;  (* correctness rule -> count *)
  pool_words_per_flow : unit -> float;  (* the fleet's flow state; 0 on the web *)
}

let web_slice = Time_ns.of_ms 10.0

let web_config ~poll ~seed =
  {
    Webserver.default_config with
    Webserver.kind = Webserver.Flash;
    http = (if poll then Webserver.Persistent 10 else Webserver.Http);
    net = (if poll then Webserver.Soft_polling 15.0 else Webserver.Interrupts);
    pacing = (if poll then Webserver.No_pacing else Webserver.Soft_pacing);
    connections = 48;
    nic_count = 3;
    seed;
  }

let fire_delay =
  Metrics.dhistogram_hdr (Metrics.dhistogram Metrics.default "softtimer.fire_delay_us")

let web ~poll ~seed ~size () =
  let warmup = match size with Full -> Time_ns.of_sec 0.3 | Tiny -> Time_ns.of_ms 50.0 in
  let w = Webserver.create (web_config ~poll ~seed) in
  Webserver.run w ~warmup ~measure:0L;
  let e = Webserver.engine w in
  let limit = ref (Engine.now e) in
  let facility_pending () =
    match Webserver.facility w with Some st -> Softtimer.pending st | None -> 0
  in
  (* Figure 1: a soft event fires before its due time plus the backup
     interrupt period; the bound allows two periods, as the runtime
     sanitizer does, because spl sections defer and can lose a tick. *)
  let bound_us =
    2.0 *. 1e6 /. (Machine.profile (Webserver.machine w)).Costs.interrupt_clock_hz
  in
  let slice () =
    limit := Time_ns.(!limit + web_slice);
    Engine.run_until e !limit
  in
  (* One [Engine.step] per span.  A no-op sentinel event at the slice's
     end stops the stepping; it runs no model code, so the simulated
     outputs equal those of [Engine.run_until]. *)
  let traced_slice spans k =
    limit := Time_ns.(!limit + web_slice);
    let fin = ref false in
    ignore (Engine.schedule_at e !limit (fun () -> fin := true) : Engine.handle);
    let go = ref true in
    while !go do
      tap_class := cls_none;
      let t0 = clock () in
      ignore (Engine.step e : bool);
      let t1 = clock () in
      if !fin then go := false
      else
        Spans.add spans ~slice:k ~start:t0 ~dur:(t1 - t0) ~cls:!tap_class
          ~engine_pending:(Engine.pending e) ~store_pending:(facility_pending ())
    done
  in
  {
    slice_sim_s = Time_ns.to_sec web_slice;
    slice;
    traced_slice;
    ops = (fun () -> Webserver.completed_requests w);
    outputs =
      (fun () ->
        [
          ("requests", Webserver.completed_requests w);
          ("sim_now_ns", Int64.to_int (Engine.now e));
          ("pacer_sends", Webserver.pacer_sends w);
          ("rx_interrupts", Webserver.rx_interrupts w);
          ("rx_packets", Webserver.rx_packets w);
          ("rx_batches", Webserver.rx_batches w);
        ]);
    violations = (fun () -> [ ("fire_later_than_backup", count_above fire_delay bound_us) ]);
    pool_words_per_flow = (fun () -> 0.0);
  }

(* pacer-1m: the fleet shape of bench/pacer_bench.ml — 32 rate classes,
   a 10 us tick, starts staggered over 101 ticks, warm-up of one full
   rate horizon (256 ticks) — on the pacing wheel. *)
let tick_us = 10.0
let tick = Time_ns.of_us tick_us
let classes = 32
let class_target_us k = 103.0 +. (63.0 *. float_of_int k)
let pacer_flows = function Full -> 1_000_000 | Tiny -> 10_000
let pacer_warm = 256

(* Statistics sampling as in pacer_bench: one send in [stat_every]
   feeds the interval and delay histograms. *)
let stat_every = 1024

let pacer_classes ~seed ~flows =
  let rng = Prng.create ~seed:(seed + (31 * flows)) in
  Array.init flows (fun _ -> Prng.int rng classes)

module Fleet = Paced_sender.Fleet (Pacing_wheel)

let pacer ~seed ~size () =
  let flows = pacer_flows size in
  let delays = Hdr.create ~lowest:0.01 () in
  (* The fleet's output is the stream of (flow, segment) transmissions;
     the digest folds it in order. *)
  let stream = ref 0 in
  let fleet =
    Fleet.create ~stat_every ~intervals:(Hdr.create ~lowest:0.01 ()) ~delays ~tick
      ~transmit:(fun fid c ->
        stream := ((!stream * 31) + (fid * 1_000_003) + c.Packet.Pool.meta) land max_int)
      ()
  in
  Array.iteri
    (fun fid k ->
      ignore
        (Fleet.add fleet ~total_segments:max_int
           ~target_interval:(Time_ns.of_us (class_target_us k))
           ~min_interval:(Time_ns.of_us 12.0)
          : int);
      Fleet.start fleet fid ~now:(Time_ns.mul tick (fid mod 101)))
    (pacer_classes ~seed ~flows);
  let s = ref 0 in
  let slice () =
    incr s;
    ignore (Fleet.check fleet ~now:(Time_ns.mul tick !s) ~limit:max_int : Fire_outcome.t)
  in
  for _ = 1 to pacer_warm do
    slice ()
  done;
  let traced_slice spans k =
    tap_class := cls_fleet;
    let t0 = clock () in
    slice ();
    let t1 = clock () in
    Spans.add spans ~slice:k ~start:t0 ~dur:(t1 - t0) ~cls:cls_fleet ~engine_pending:0
      ~store_pending:(Fleet.store_pending fleet)
  in
  {
    slice_sim_s = tick_us *. 1e-6;
    slice;
    traced_slice;
    ops = (fun () -> Fleet.sends fleet);
    outputs =
      (fun () ->
        [
          ("sends", Fleet.sends fleet);
          ("catch_ups", Fleet.catch_ups fleet);
          ("active", Fleet.active fleet);
          ("store_pending", Fleet.store_pending fleet);
          ("stream", !stream);
        ]);
    (* The pacing wheel rounds deadlines up to the tick and the fleet
       is checked every tick, so no send is more than one tick late. *)
    violations = (fun () -> [ ("send_later_than_tick", count_above delays tick_us) ]);
    pool_words_per_flow =
      (fun () -> float_of_int (Fleet.pool_words fleet) /. float_of_int flows);
  }

(* ------------------------------------------------------------------ *)
(* Metric tables.  Names and units match BENCHMARK.json.               *)

let end_to_end =
  [
    ("setup_s", "s");
    ("sim_speed", "sim_s/s");
    ("slice_ms_p50", "ms");
    ("slice_ms_p90", "ms");
    ("alloc_words_per_op", "words/op");
    ("peak_heap_mb", "MB");
    ("ok_frac", "fraction");
  ]

let per_layer =
  [
    ("slice_ms_p99", "ms");
    ("engine.events_per_op", "count/op");
    ("engine.step_ns_p50", "ns");
    ("engine.step_ns_p99", "ns");
    ("engine.pending_mean", "count");
    ("eventq.hold_ns", "ns");
    ("machine.triggers_per_op", "count/op");
    ("interrupt.delivered_per_op", "count/op");
    ("interrupt.lost_per_op", "count/op");
    ("machine.cpu_step_ns", "ns");
    ("machine.irq_step_ns", "ns");
    ("softtimer.checks_per_op", "count/op");
    ("softtimer.fired_per_op", "count/op");
    ("softtimer.fire_ratio", "ratio");
    ("softtimer.check_ns", "ns");
    ("softtimer.fire_ns", "ns");
    ("softtimer.step_ns", "ns");
    ("net_poll.polls_per_op", "count/op");
    ("net_poll.packets_per_poll", "count");
    ("nic.rx_packets_per_op", "count/op");
    ("nic.tx_packets_per_op", "count/op");
    ("nic.rx_batches_per_op", "count/op");
    ("nic.rx_dropped_per_op", "count/op");
    ("nic.pkt_step_ns", "ns");
    ("store.hold_ns", "ns");
    ("store.rearm_ns", "ns");
    ("store.cancel_ns", "ns");
    ("store.fire_resched_ns", "ns");
    ("store.words_per_timer", "words");
    ("rate_clock.sends_per_tick", "count/tick");
    ("fleet.overhead_ns_per_send", "ns");
    ("fleet.pool_words_per_flow", "words");
    ("trace.emit_off_ns", "ns");
    ("trace.emit_tap_ns", "ns");
    ("trace.events_per_op", "count/op");
    ("hdr.record_ns", "ns");
    ("obs.tap_overhead_pct", "%");
    ("gc.minor_words_per_op", "words/op");
    ("gc.minor_collections_per_op", "count/op");
    ("gc.promoted_words_per_op", "words/op");
    ("gc.major_collections", "count");
    ("model.explained_pct", "%");
  ]

let json_number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let print_result ~correct ~attempted ~failed table values =
  let metric (name, unit) =
    let v = Option.value (List.assoc_opt name values) ~default:0.0 in
    Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number v) unit
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n" correct
    attempted failed
    (String.concat ", " (List.map metric table))

(* ------------------------------------------------------------------ *)
(* Runs.                                                               *)

(* Slices in the deterministic window at the start of the timed
   section: the digest, the layer counts and the GC deltas are taken
   over exactly these, so they repeat for a seed whatever the host's
   speed.  The run always completes the window, even past --seconds.
   The pacer's window is longer because its allocation comes in lumps
   (the wheel's bucket vectors grow now and then). *)
let window_slices ~pacer = function
  | Full -> if pacer then 600 else 200
  | Tiny -> 50

type window = {
  w_ops : int;
  w_counts : (string * int) list;
  w_gc0 : Gc.stat;
  w_gc1 : Gc.stat;
  w_minor_words : float;
      (* [Gc.minor_words]: exact, where the quick_stat field only
         advances at minor collections *)
  w_digest : string;
}

let per_op n ops = float_of_int n /. float_of_int (max 1 ops)

(* Advance [window] slices untraced and take the window's figures. *)
let run_window wl ~window ~time =
  let c0 = read_counters () and ops0 = wl.ops () in
  let g0 = Gc.quick_stat () in
  let m0 = Gc.minor_words () in
  for _ = 1 to window do
    let t0 = clock () in
    wl.slice ();
    time (clock () - t0)
  done;
  let m1 = Gc.minor_words () in
  let g1 = Gc.quick_stat () in
  let counts = diff_counters (read_counters ()) c0 in
  let w_ops = wl.ops () - ops0 in
  {
    w_ops;
    w_counts = counts;
    w_gc0 = g0;
    w_gc1 = g1;
    w_minor_words = m1 -. m0;
    w_digest = digest_of (wl.outputs () @ counts);
  }

(* Words the window allocated: the minor heap plus what went straight
   to the major heap (promoted words are counted once, as minor). *)
let alloc_words w =
  let g0 = w.w_gc0 and g1 = w.w_gc1 in
  w.w_minor_words +. (g1.Gc.major_words -. g0.Gc.major_words)
  -. (g1.Gc.promoted_words -. g0.Gc.promoted_words)

let quantile (sorted : float array) q =
  let n = Array.length sorted in
  sorted.(max 0 (min (n - 1) (int_of_float (Float.ceil (q *. float_of_int n)) - 1)))

let report_window w =
  Printf.printf "# digest %s\n" w.w_digest;
  Printf.printf "# window ops=%d %s\n" w.w_ops
    (String.concat " " (List.map (fun (n, v) -> Printf.sprintf "%s=%d" n v) w.w_counts))

let violations_of wl ~ops =
  let vs = wl.violations () in
  let vs = if ops = 0 then ("no_progress", 1) :: vs else vs in
  List.iter (fun (rule, n) -> if n > 0 then Printf.printf "# violation %s: %d\n" rule n) vs;
  List.fold_left (fun acc (_, n) -> acc + n) 0 vs

(* Slice times in host ns, in a flat float array so recording one
   allocates nothing inside the window. *)
module Samples = struct
  type t = { mutable ns : float array; mutable n : int }

  let create () = { ns = Array.make 65536 0.0; n = 0 }

  let add t ns =
    if t.n = Array.length t.ns then t.ns <- Array.append t.ns (Array.make t.n 0.0);
    t.ns.(t.n) <- float_of_int ns;
    t.n <- t.n + 1

  let sorted t =
    let a = Array.sub t.ns 0 t.n in
    Array.sort Float.compare a;
    a
end

let run_end_to_end ~make ~pacer ~size ~seconds =
  let host = Hostref.create () in
  (* Set up several times and report the median; every set-up must
     leave the simulation in the same state. *)
  let setups = match (size, pacer) with Tiny, _ -> 2 | Full, true -> 3 | Full, false -> 5 in
  let setup_ns = Array.make setups 0.0 in
  let kept = ref None and first_digest = ref None and mismatches = ref 0 in
  for i = 0 to setups - 1 do
    kept := None;
    Gc.compact ();
    Hostref.measure host;
    let c0 = read_counters () in
    let t0 = clock () in
    let wl = make () in
    setup_ns.(i) <- float_of_int (clock () - t0);
    let d = digest_of (wl.outputs () @ diff_counters (read_counters ()) c0) in
    (match !first_digest with
    | None -> first_digest := Some d
    | Some d0 -> if d <> d0 then incr mismatches);
    kept := Some wl
  done;
  let wl = Option.get !kept in
  kept := None;
  Gc.compact ();
  let samples = Samples.create () in
  let t_start = clock () in
  let ops0 = wl.ops () in
  let w = run_window wl ~window:(window_slices ~pacer size) ~time:(Samples.add samples) in
  let deadline = t_start + int_of_float (seconds *. 1e9) in
  while clock () < deadline do
    (* The slice after a reference measurement runs on caches the loop
       disturbed: it is simulated but left out of the statistics. *)
    let disturbed = Hostref.tick host in
    let t0 = clock () in
    wl.slice ();
    let dt = clock () - t0 in
    if not disturbed then Samples.add samples dt
  done;
  let ops = wl.ops () - ops0 in
  report_window w;
  if !mismatches > 0 then Printf.printf "# violation setup_digest_mismatch: %d\n" !mismatches;
  let failed = violations_of wl ~ops:w.w_ops + !mismatches in
  let n = samples.Samples.n in
  let sorted = Samples.sorted samples in
  let raw_speed = float_of_int n *. wl.slice_sim_s /. (Array.fold_left ( +. ) 0.0 sorted /. 1e9) in
  let raw_setup_s = Probes.median setup_ns /. 1e9 in
  let ms q = quantile sorted q /. 1e6 in
  let f = Hostref.factor host in
  Printf.printf "# slices %d (p90 has %d beyond it), ops %d, setups %d\n" n
    (n - int_of_float (Float.ceil (0.9 *. float_of_int n)))
    ops setups;
  Printf.printf
    "# host reference loop median %.3f ms (nominal %.3f); raw host figures: setup_s %.6g \
     sim_speed %.6g slice_ms_p50 %.6g slice_ms_p90 %.6g\n"
    (Hostref.median_ns host /. 1e6)
    (float_of_int Hostref.nominal_ns /. 1e6)
    raw_setup_s raw_speed (ms 0.5) (ms 0.9);
  let attempted = max 1 ops in
  let values =
    [
      ("setup_s", raw_setup_s *. f);
      ("sim_speed", raw_speed /. f);
      ("slice_ms_p50", ms 0.5 *. f);
      ("slice_ms_p90", ms 0.9 *. f);
      ("alloc_words_per_op", alloc_words w /. float_of_int (max 1 w.w_ops));
      (* At the window's end, after a fixed amount of simulated work:
         the web server keeps every pacing interval, so a later
         high-water mark would grow with the host's speed. *)
      ("peak_heap_mb", float_of_int w.w_gc1.Gc.top_heap_words *. 8.0 /. 1e6);
      ("ok_frac", 1.0 -. (float_of_int failed /. float_of_int attempted));
    ]
  in
  print_result ~correct:(failed = 0) ~attempted ~failed end_to_end values;
  failed

(* Per-layer figures observed in the traced run, kept after the
   workload itself is dropped so the probes run on a quiet heap. *)
type traced = {
  t_window : window;
  t_failed : int;
  t_ops : int;
  t_pool_words_per_flow : float;
  steps : int;
  traced_ops : int;
  traced_ns : int;  (* host ns over the traced slices *)
  untraced_ops : int;
  untraced_ns : int;
  untraced_slices : int;
  untraced_p99_ms : float;
  traced_slices : int;
  events : int;
  engine_pending_mean : float;
  store_pending_mean : float;
  step_p50 : float;
  step_p99 : float;
  cls_p50 : float array;
}

let run_traced ~make ~pacer ~size ~seconds ~spans_path =
  let t_start = clock () in
  let wl = make () in
  let window = window_slices ~pacer size in
  let ops0 = wl.ops () in
  let w = run_window wl ~window ~time:ignore in
  (* Alternate untraced and traced slices, so host-speed drift hits
     both sides of the tap-overhead comparison alike. *)
  let spans = Spans.create () in
  let deadline = t_start + int_of_float (seconds *. 1e9) in
  let tr_ops = ref 0 and tr_ns = ref 0 and un_ops = ref 0 and un_ns = ref 0 in
  let tr_slices = ref 0 and un_slices = ref 0 in
  let un_samples = Samples.create () in
  let k = ref 0 in
  tap_events := 0;
  while clock () < deadline || !tr_slices = 0 do
    let o0 = wl.ops () in
    if !k land 1 = 0 then begin
      let t0 = clock () in
      wl.slice ();
      let dt = clock () - t0 in
      Samples.add un_samples dt;
      un_ns := !un_ns + dt;
      un_ops := !un_ops + (wl.ops () - o0);
      incr un_slices
    end
    else begin
      Trace.set_tap (Some tap);
      let t0 = clock () in
      wl.traced_slice spans !k;
      tr_ns := !tr_ns + (clock () - t0);
      Trace.set_tap None;
      tr_ops := !tr_ops + (wl.ops () - o0);
      incr tr_slices
    end;
    incr k
  done;
  let ops = wl.ops () - ops0 in
  report_window w;
  let failed = violations_of wl ~ops:w.w_ops in
  (match spans_path with
  | Some path -> (
    try
      Spans.write spans path;
      Printf.printf "# spans %d of %d written to %s\n" spans.Spans.n spans.Spans.steps path
    with Sys_error e -> Printf.printf "# spans not written: %s\n" e)
  | None -> ());
  let q h p = if Hdr.count h = 0 then 0.0 else Hdr.quantile h p in
  let steps = spans.Spans.steps in
  {
    t_window = w;
    t_failed = failed;
    t_ops = ops;
    t_pool_words_per_flow = wl.pool_words_per_flow ();
    steps;
    traced_ops = !tr_ops;
    traced_ns = !tr_ns;
    untraced_ops = !un_ops;
    untraced_ns = !un_ns;
    untraced_slices = !un_slices;
    untraced_p99_ms =
      quantile (Samples.sorted un_samples) 0.99 /. 1e6;
    traced_slices = !tr_slices;
    events = !tap_events;
    engine_pending_mean = per_op spans.Spans.engine_pending steps;
    store_pending_mean = per_op spans.Spans.store_pending steps;
    step_p50 = q spans.Spans.all 0.5;
    step_p99 = q spans.Spans.all 0.99;
    cls_p50 = Array.map (fun h -> q h 0.5) spans.Spans.by_cls;
  }

let report_traced ~pacer ~seed ~size t =
  let w = t.t_window in
  let count name = List.assoc name w.w_counts in
  let c name = per_op (count name) w.w_ops in
  let pend = int_of_float (Float.round t.store_pending_mean) in
  (* Probes, at the pending sizes the traced run observed. *)
  let hold_ns, (check_ns, fire_ns), store =
    if pacer then begin
      let flows = pacer_flows size in
      let cls = pacer_classes ~seed ~flows in
      let tick_ns = Int64.to_int tick in
      let store =
        Probes.store_ns
          (module Pacing_wheel)
          ~pending:pend ~tick
          ~start:(fun i -> tick_ns * (i mod 101))
          ~interval:(fun i -> int_of_float (class_target_us cls.(i) *. 1e3))
          ~warm:pacer_warm
      in
      (0.0, (0.0, 0.0), store)
    end
    else begin
      let hold =
        Probes.eventq_hold_ns ~pending:(int_of_float (Float.round t.engine_pending_mean))
      in
      let st = Probes.softtimer_ns ~pending:pend in
      let tick_ns = Int64.to_int tick in
      let store =
        Probes.store_ns (Timer_store.wheel ()) ~pending:pend ~tick
          ~start:(fun _ -> tick_ns)
          ~interval:(fun _ -> tick_ns)
          ~warm:16
      in
      (hold, st, store)
    end
  in
  let emit_off = Probes.trace_emit_ns ~tap:None in
  let emit_tap = Probes.trace_emit_ns ~tap:(Some tap) in
  let hdr_ns = Probes.hdr_record_ns () in
  let events_per_op = per_op t.steps t.traced_ops in
  let trace_events_per_op = per_op t.events t.traced_ops in
  let untraced_ns_per_op = float_of_int t.untraced_ns /. float_of_int (max 1 t.untraced_ops) in
  let predicted =
    if pacer then store.Probes.fire_resched +. (3.0 /. float_of_int stat_every *. hdr_ns)
    else
      (events_per_op *. hold_ns)
      +. (c "softtimer.checks" *. check_ns)
      +. (c "softtimer.fired" *. fire_ns)
      +. (trace_events_per_op *. emit_off)
  in
  let g0 = w.w_gc0 and g1 = w.w_gc1 in
  let un_slice = float_of_int t.untraced_ns /. float_of_int (max 1 t.untraced_slices) in
  let tr_slice = float_of_int t.traced_ns /. float_of_int (max 1 t.traced_slices) in
  Printf.printf "# traced slices %d (%d steps), untraced slices %d, ops %d\n" t.traced_slices
    t.steps t.untraced_slices t.t_ops;
  let values =
    [
      ("slice_ms_p99", t.untraced_p99_ms);
      ("engine.events_per_op", if pacer then 0.0 else events_per_op);
      ("engine.step_ns_p50", if pacer then 0.0 else t.step_p50);
      ("engine.step_ns_p99", if pacer then 0.0 else t.step_p99);
      ("engine.pending_mean", t.engine_pending_mean);
      ("eventq.hold_ns", hold_ns);
      ("machine.triggers_per_op", c "machine.triggers");
      ("interrupt.delivered_per_op", c "interrupt.delivered");
      ("interrupt.lost_per_op", c "interrupt.lost");
      ("machine.cpu_step_ns", t.cls_p50.(cls_cpu));
      ("machine.irq_step_ns", t.cls_p50.(cls_irq));
      ("softtimer.checks_per_op", c "softtimer.checks");
      ("softtimer.fired_per_op", c "softtimer.fired");
      ("softtimer.fire_ratio", per_op (count "softtimer.fired") (count "softtimer.checks"));
      ("softtimer.check_ns", check_ns);
      ("softtimer.fire_ns", fire_ns);
      ("softtimer.step_ns", t.cls_p50.(cls_soft));
      ("net_poll.polls_per_op", c "net_poll.polls");
      ("net_poll.packets_per_poll", per_op (count "net_poll.packets") (count "net_poll.polls"));
      ("nic.rx_packets_per_op", c "nic.rx_packets");
      ("nic.tx_packets_per_op", c "nic.tx_packets");
      ("nic.rx_batches_per_op", c "nic.rx_batches");
      ("nic.rx_dropped_per_op", c "nic.rx_dropped");
      ("nic.pkt_step_ns", t.cls_p50.(cls_pkt));
      ("store.hold_ns", store.Probes.hold);
      ("store.rearm_ns", store.Probes.rearm);
      ("store.cancel_ns", store.Probes.cancel);
      ("store.fire_resched_ns", store.Probes.fire_resched);
      ("store.words_per_timer", store.Probes.words_per_timer);
      ( "rate_clock.sends_per_tick",
        if pacer then per_op w.w_ops (window_slices ~pacer size) else 0.0 );
      ( "fleet.overhead_ns_per_send",
        if pacer then Float.max 0.0 (untraced_ns_per_op -. store.Probes.fire_resched) else 0.0 );
      ("fleet.pool_words_per_flow", t.t_pool_words_per_flow);
      ("trace.emit_off_ns", emit_off);
      ("trace.emit_tap_ns", emit_tap);
      ("trace.events_per_op", trace_events_per_op);
      ("hdr.record_ns", hdr_ns);
      ("obs.tap_overhead_pct", ((tr_slice /. un_slice) -. 1.0) *. 100.0);
      ("gc.minor_words_per_op", w.w_minor_words /. float_of_int (max 1 w.w_ops));
      ( "gc.minor_collections_per_op",
        per_op (g1.Gc.minor_collections - g0.Gc.minor_collections) w.w_ops );
      ( "gc.promoted_words_per_op",
        (g1.Gc.promoted_words -. g0.Gc.promoted_words) /. float_of_int (max 1 w.w_ops) );
      ("gc.major_collections", float_of_int (g1.Gc.major_collections - g0.Gc.major_collections));
      ("model.explained_pct", 100.0 *. predicted /. untraced_ns_per_op);
    ]
  in
  print_result ~correct:(t.t_failed = 0) ~attempted:(max 1 t.t_ops) ~failed:t.t_failed per_layer
    values;
  t.t_failed

(* ------------------------------------------------------------------ *)

let usage () =
  prerr_endline
    "usage: bench.exe --workload web-pace|web-poll|pacer-1m --seed N --seconds S --trace 0|1 \
     [--size full|tiny] [--out DIR]";
  exit 2

let () =
  let workload = ref None and seed = ref None and seconds = ref None and trace = ref None in
  let size = ref Full and out = ref None in
  let rec parse = function
    | [] -> ()
    | "--workload" :: v :: rest ->
      workload := Some v;
      parse rest
    | "--seed" :: v :: rest ->
      seed := int_of_string_opt v;
      if !seed = None then usage ();
      parse rest
    | "--seconds" :: v :: rest ->
      (match float_of_string_opt v with Some s when s > 0.0 -> seconds := Some s | _ -> usage ());
      parse rest
    | "--trace" :: v :: rest ->
      (match v with "0" -> trace := Some false | "1" -> trace := Some true | _ -> usage ());
      parse rest
    | "--size" :: v :: rest ->
      (match v with "full" -> size := Full | "tiny" -> size := Tiny | _ -> usage ());
      parse rest
    | "--out" :: v :: rest ->
      out := Some v;
      parse rest
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  match (!workload, !seed, !seconds, !trace) with
  | Some name, Some seed, Some seconds, Some trace ->
    let size = !size in
    let pacer, make =
      match name with
      | "web-pace" -> (false, web ~poll:false ~seed ~size)
      | "web-poll" -> (false, web ~poll:true ~seed ~size)
      | "pacer-1m" -> (true, pacer ~seed ~size)
      | _ -> usage ()
    in
    Printf.printf "# workload %s seed %d seconds %g trace %b\n%!" name seed seconds trace;
    let failed =
      if trace then begin
        let spans_path =
          Option.map
            (fun dir -> Filename.concat dir (Printf.sprintf "spans-%s-seed%d.csv" name seed))
            !out
        in
        let t = run_traced ~make ~pacer ~size ~seconds ~spans_path in
        Gc.compact ();
        report_traced ~pacer ~seed ~size t
      end
      else run_end_to_end ~make ~pacer ~size ~seconds
    in
    exit (if failed = 0 then 0 else 1)
  | _ -> usage ()
