(* Command-line front end: run any of the paper's experiments by id. *)

let experiments =
  [
    ("fig1", "Figure 1: soft-timer firing-window bounds", Exp_fig1.run);
    ("fig2-3", "Figures 2/3: hardware-timer base overhead", Exp_hw_overhead.run);
    ("soft-base", "Section 5.2: soft-timer base overhead", Exp_soft_base.run);
    ("table1", "Table 1 / Figure 4: trigger-interval distributions", Exp_trigger_dist.run);
    ("fig5", "Figure 5: windowed trigger-interval medians", Exp_trigger_windows.run);
    ("table2", "Table 2 / Figure 6: trigger sources", Exp_trigger_sources.run);
    ("table3", "Table 3: rate-based clocking overhead", Exp_rbc_overhead.run);
    ("table4-5", "Tables 4/5: rate-clocked transmission process", Exp_rbc_process.run);
    ("table6-7", "Tables 6/7: WAN transfer performance", Exp_rbc_wan.run);
    ("table8", "Table 8: network polling throughput", Exp_polling.run);
    ( "livelock",
      "Extension: receiver livelock (interrupts vs MR hybrid vs soft polling)",
      Exp_livelock.run );
    ( "sensitivity",
      "Extension: sensitivity of the headline results to the cost model",
      Exp_sensitivity.run );
    ( "pacer-scale",
      "Extension: million-flow rate-based clocking across timer stores",
      Exp_pacer_scale.run );
  ]

let unknown_experiment id =
  `Error
    ( false,
      Printf.sprintf "unknown experiment %S; known: %s" id
        (String.concat ", " (List.map (fun (n, _, _) -> n) experiments)) )

(* Run [f] with the runtime invariant sanitizer armed (when requested):
   it taps every trace event, checks causality / soft-timer firing
   bounds / wheel residency / counter monotonicity, and its report is
   printed after the run.  Violations turn into a nonzero exit. *)
let with_sanitizer enabled f =
  if not enabled then f ()
  else begin
    let s = Sanitizer.create () in
    Sanitizer.install s;
    let result =
      try f ()
      with e ->
        Sanitizer.uninstall s;
        raise e
    in
    Sanitizer.uninstall s;
    print_newline ();
    print_string (Sanitizer.report s);
    match result with
    | `Ok () when not (Sanitizer.ok s) ->
      `Error
        ( false,
          Printf.sprintf "sanitizer: %d invariant violation(s)" (Sanitizer.violation_count s)
        )
    | other -> other
  end

let run_one cfg sanitize id =
  match List.find_opt (fun (name, _, _) -> name = id) experiments with
  | Some (_, _, f) ->
    with_sanitizer sanitize (fun () ->
        print_string (f cfg);
        `Ok ())
  | None -> unknown_experiment id

let run_all cfg sanitize =
  with_sanitizer sanitize (fun () ->
      (* Independent deterministic sims: fan out, print in list order.
         (With --sanitize the tap forces sequential execution inside
         map_sim; output is identical either way.) *)
      Runner.map_sim (fun (_, _, f) -> f cfg) experiments
      |> List.iter (fun out ->
             print_string out;
             print_newline ());
      `Ok ())

(* Replay-diff harness: run one experiment twice from the same seed and
   compare the emitted table byte-for-byte and the trace digests (an
   order-sensitive hash of every event).  Any divergence means some
   hidden state — wall clock, global Random, hash order — leaked into
   the run, which is exactly what the determinism contract forbids. *)
let run_verify cfg buf jobs id =
  match List.find_opt (fun (name, _, _) -> name = id) experiments with
  | None -> unknown_experiment id
  | Some _ when buf <= 0 -> `Error (false, "--buf must be positive")
  | Some (_, _, f) ->
    let once ~jobs =
      Runner.set_default_jobs jobs;
      let tr = Trace.create ~capacity:buf () in
      Metrics.reset Metrics.default;
      Trace.install tr;
      let out = f cfg in
      Trace.uninstall ();
      (out, Trace_digest.digest tr, Trace.total tr)
    in
    (* Run 1 is always sequential; run 2 uses the requested job count,
       so `--jobs 4` directly proves a parallel run is bit-identical
       to the sequential reference, not merely self-consistent. *)
    let o1, d1, n1 = once ~jobs:1 in
    let o2, d2, n2 = once ~jobs in
    Printf.printf "verify-determinism %s (seed %d%s)\n" id cfg.Exp_config.seed
      (if cfg.Exp_config.quick then ", quick" else "");
    Printf.printf "  run 1 (jobs 1): trace digest %s (%d events)\n" (Trace_digest.hex d1) n1;
    Printf.printf "  run 2 (jobs %s): trace digest %s (%d events)\n"
      (if jobs = 0 then "auto" else string_of_int jobs)
      (Trace_digest.hex d2) n2;
    let tables_eq = String.equal o1 o2 in
    let traces_eq = Int64.equal d1 d2 && n1 = n2 in
    Printf.printf "  tables: %s\n" (if tables_eq then "identical" else "DIFFER");
    Printf.printf "  traces: %s\n" (if traces_eq then "identical" else "DIFFER");
    if tables_eq && traces_eq then begin
      Printf.printf "  PASS: two same-seed runs are bit-for-bit identical\n";
      `Ok ()
    end
    else begin
      if not tables_eq then begin
        let l1 = String.split_on_char '\n' o1 and l2 = String.split_on_char '\n' o2 in
        let rec first_diff i = function
          | a :: ra, b :: rb -> if String.equal a b then first_diff (i + 1) (ra, rb) else Some (i, a, b)
          | a :: _, [] -> Some (i, a, "<missing>")
          | [], b :: _ -> Some (i, "<missing>", b)
          | [], [] -> None
        in
        match first_diff 1 (l1, l2) with
        | Some (i, a, b) ->
          Printf.printf "  first differing table line (%d):\n    run 1: %s\n    run 2: %s\n" i
            a b
        | None -> ()
      end;
      `Error (false, "verify-determinism: same-seed runs differ — determinism broken")
    end

(* Run one experiment with the tracing/metrics layer armed, then export
   the ring buffer as Chrome trace_event JSON (or CSV).  JSON exports
   also carry async span events (timer and packet lifecycles recovered
   from the ring) and, with --window, per-window counter tracks. *)
let run_trace cfg id out csv buf metrics window_us max_windows =
  match List.find_opt (fun (name, _, _) -> name = id) experiments with
  | None ->
    `Error
      ( false,
        Printf.sprintf "unknown experiment %S; known: %s" id
          (String.concat ", " (List.map (fun (n, _, _) -> n) experiments)) )
  | Some _ when buf <= 0 -> `Error (false, "--buf must be positive")
  | Some _ when window_us < 0.0 -> `Error (false, "--window must be non-negative")
  | Some _ when window_us > 0.0 && Trace.tap_installed () ->
    (* Both the sanitizer and the time-series collector need the single
       synchronous trace tap. *)
    `Error (false, "--window cannot be combined with --sanitize (both need the trace tap)")
  | Some _ when (try close_out (open_out out); false with Sys_error _ -> true) ->
    (* Fail on an unwritable --out before spending time simulating. *)
    `Error (false, Printf.sprintf "cannot write trace output %S" out)
  | Some (_, _, f) ->
    let tr = Trace.create ~capacity:buf () in
    Metrics.reset Metrics.default;
    let series =
      if window_us > 0.0 then
        Some (Timeseries.create ~window:(Time_ns.of_us window_us) ~max_windows ())
      else None
    in
    Trace.install tr;
    (match series with Some ts -> Trace.set_tap (Some (Timeseries.on_event ts)) | None -> ());
    let output =
      try f cfg
      with e ->
        if Option.is_some series then Trace.set_tap None;
        Trace.uninstall ();
        raise e
    in
    (match series with
    | Some ts ->
      Trace.set_tap None;
      Timeseries.close ts
    | None -> ());
    Trace.uninstall ();
    print_string output;
    let as_csv = csv || Filename.check_suffix out ".csv" in
    if as_csv then Trace_export.write_csv tr out
    else
      Trace_export.write_chrome_json ?series ~spans:(Span.collect tr) tr out;
    Printf.printf "\ntrace: %d events captured (%d overwritten) -> %s (%s)\n" (Trace.length tr)
      (Trace.dropped tr) out
      (if as_csv then "csv" else "chrome trace_event json; open in chrome://tracing or Perfetto");
    if Trace.dropped tr > 0 then
      Printf.printf
        "WARNING: trace ring overflowed; the %d oldest events were dropped — the export is \
         truncated (raise --buf to capture everything)\n"
        (Trace.dropped tr);
    if metrics then begin
      print_newline ();
      print_string (Metrics.dump Metrics.default)
    end;
    `Ok ()

(* Run one experiment with the cycle-attribution profiler installed and
   print (or export) the attribution report: the tree, the per-interrupt
   cost split (save/restore vs pollution vs handler) and the per-trigger
   dispatch breakdown.  --flame switches to collapsed-stack flamegraph
   lines instead (inferno / flamegraph.pl / speedscope). *)
let run_profile cfg id out flame metrics =
  match List.find_opt (fun (name, _, _) -> name = id) experiments with
  | None -> unknown_experiment id
  | Some _
    when match out with
         | None -> false
         | Some f -> ( try close_out (open_out f); false with Sys_error _ -> true) ->
    `Error (false, Printf.sprintf "cannot write profile output %S" (Option.get out))
  | Some (_, _, f) ->
    let p = Profile.create () in
    Metrics.reset Metrics.default;
    Profile.install p;
    let output =
      try f cfg
      with e ->
        Profile.uninstall ();
        raise e
    in
    Profile.uninstall ();
    print_string output;
    print_newline ();
    Printf.printf "profile %s (seed %d%s)\n\n" id cfg.Exp_config.seed
      (if cfg.Exp_config.quick then ", quick" else "");
    let body = if flame then Profile.to_collapsed p else Profile.report p in
    (match out with
    | None -> print_string body
    | Some file ->
      let oc = open_out file in
      Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc body);
      Printf.printf "profile: %s -> %s\n"
        (if flame then "collapsed-stack flamegraph" else "attribution report")
        file;
      if flame then print_string (Profile.to_table p));
    if metrics then begin
      print_newline ();
      print_string (Metrics.dump Metrics.default)
    end;
    `Ok ()

(* --- stats: windowed time-series + span + metrics report ------------ *)

let jfloat v = if Float.is_nan v then "null" else Printf.sprintf "%.6g" v

let jstring s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let hdr_json h =
  Printf.sprintf "{\"count\":%d,\"mean\":%s,\"p50\":%s,\"p99\":%s,\"max\":%s}"
    (Hdr.count h) (jfloat (Hdr.mean h))
    (jfloat (Hdr.quantile h 0.5))
    (jfloat (Hdr.quantile h 0.99))
    (jfloat (Hdr.max h))

let metrics_json m =
  let parts = ref [] in
  Metrics.iter m (fun name v ->
      let rendered =
        match v with
        | Metrics.Counter c -> string_of_int c
        | Metrics.Probe g -> jfloat g
        | Metrics.Histogram h -> hdr_json h
      in
      parts := Printf.sprintf "%s:%s" (jstring name) rendered :: !parts);
  "{" ^ String.concat "," (List.rev !parts) ^ "}"

let spans_json sp =
  Printf.sprintf
    "{\"timers\":{\"total\":%d,\"fired\":%d,\"cancelled\":%d,\"open\":%d,\"latency_us\":%s},\"packets\":{\"total\":%d,\"delivered\":%d,\"open\":%d,\"latency_us\":%s}}"
    (Span.timers_total sp) (Span.timers_fired sp) (Span.timers_cancelled sp)
    (Span.timers_open sp)
    (hdr_json (Span.timer_latency sp))
    (Span.packets_total sp) (Span.packets_delivered sp) (Span.packets_open sp)
    (hdr_json (Span.packet_latency sp))

let stats_json cfg id window_us ts sp da =
  Printf.sprintf
    "{\"schema\":\"softtimers-stats/1\",\"experiment\":%s,\"seed\":%d,\"quick\":%b,\"window_us\":%s,\"events\":%d,\"epochs\":%d,\"windows_dropped\":%d,\"windows\":%s,\"spans\":%s,\"whylate\":%s,\"metrics\":%s}"
    (jstring id) cfg.Exp_config.seed cfg.Exp_config.quick (jfloat window_us)
    (Timeseries.event_count ts) (Timeseries.epochs ts) (Timeseries.evicted_windows ts)
    (Timeseries.to_json ts) (spans_json sp) (Delay_audit.to_json da)
    (metrics_json Metrics.default)

let stats_human cfg id window_us ts sp da =
  let b = Buffer.create 2048 in
  let addf fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  addf "stats %s (seed %d%s, window %g us)\n" id cfg.Exp_config.seed
    (if cfg.Exp_config.quick then ", quick" else "")
    window_us;
  let windows = Timeseries.snapshots ts in
  addf "  events: %d across %d window(s), %d epoch(s)" (Timeseries.event_count ts)
    (List.length windows) (Timeseries.epochs ts);
  if Timeseries.evicted_windows ts > 0 then
    addf " (%d oldest windows evicted)" (Timeseries.evicted_windows ts);
  addf "\n";
  let d = Timeseries.overall_delay ts in
  if Hdr.count d > 0 then
    addf "  fire delay us: n=%d p50=%.3f p99=%.3f max=%.3f\n" (Hdr.count d)
      (Hdr.quantile d 0.5) (Hdr.quantile d 0.99) (Hdr.max d);
  addf "  timer spans: %d scheduled, %d fired, %d cancelled, %d open\n" (Span.timers_total sp)
    (Span.timers_fired sp) (Span.timers_cancelled sp) (Span.timers_open sp);
  addf "  packet spans: %d enqueued, %d delivered, %d open\n" (Span.packets_total sp)
    (Span.packets_delivered sp) (Span.packets_open sp);
  let pl = Span.packet_latency sp in
  if Hdr.count pl > 0 then
    addf "  packet latency us: n=%d p50=%.3f p99=%.3f max=%.3f\n" (Hdr.count pl)
      (Hdr.quantile pl 0.5) (Hdr.quantile pl 0.99) (Hdr.max pl);
  (* Fire-delay attribution summary; `why-late` has the full report. *)
  addf "  late fires: %d of %d" (Delay_audit.late da) (Delay_audit.fired da);
  if Delay_audit.pending_at_exit da > 0 then
    addf " (%d pending at exit)" (Delay_audit.pending_at_exit da);
  let total = Delay_audit.total_late_ns da in
  if Int64.compare total 0L > 0 then begin
    let top = ref 0 in
    for k = 1 to Delay_audit.nseg - 1 do
      if Time_ns.(Delay_audit.cause_ns da k > Delay_audit.cause_ns da !top) then top := k
    done;
    addf "; dominant cause %s (%.1f%% of %.3f ms late)"
      (Delay_audit.seg_label !top)
      (100.0 *. Int64.to_float (Delay_audit.cause_ns da !top) /. Int64.to_float total)
      (Int64.to_float total /. 1e6)
  end;
  addf "\n";
  addf "\n%s" (Metrics.dump Metrics.default);
  Buffer.contents b

(* Run one experiment with the windowed time-series collector tapping
   the event stream, reconstruct spans from the ring afterwards, and
   report: JSON (machine), Prometheus exposition, per-window CSV, or a
   human summary.  The experiment's own table is suppressed — the
   report is the output, so it can be byte-compared across --jobs
   values and piped into tooling. *)
let run_stats cfg id window_us max_windows fmt out buf =
  match List.find_opt (fun (name, _, _) -> name = id) experiments with
  | None -> unknown_experiment id
  | Some _ when buf <= 0 -> `Error (false, "--buf must be positive")
  | Some _ when window_us <= 0.0 -> `Error (false, "--window must be positive")
  | Some _ when max_windows <= 0 -> `Error (false, "--max-windows must be positive")
  | Some _ when Trace.tap_installed () ->
    `Error (false, "stats needs the trace tap, which is already occupied")
  | Some _
    when match out with
         | None -> false
         | Some f -> ( try close_out (open_out f); false with Sys_error _ -> true) ->
    `Error (false, Printf.sprintf "cannot write stats output %S" (Option.get out))
  | Some (_, _, f) ->
    let tr = Trace.create ~capacity:buf () in
    Metrics.reset Metrics.default;
    let ts = Timeseries.create ~window:(Time_ns.of_us window_us) ~max_windows () in
    Trace.install tr;
    Trace.set_tap (Some (Timeseries.on_event ts));
    let table =
      try f cfg
      with e ->
        Trace.set_tap None;
        Trace.uninstall ();
        raise e
    in
    Trace.set_tap None;
    Trace.uninstall ();
    Timeseries.close ts;
    ignore (table : string);
    let sp = Span.collect tr in
    let da = Delay_audit.collect tr in
    let body =
      match fmt with
      | `Json -> stats_json cfg id window_us ts sp da
      | `Prom -> Metrics.to_prometheus Metrics.default ^ Delay_audit.to_prometheus da
      | `Csv -> Timeseries.to_csv ts
      | `Human -> stats_human cfg id window_us ts sp da
    in
    (match out with
    | None -> print_string body
    | Some file ->
      let oc = open_out file in
      Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc body);
      Printf.printf "stats: %s report -> %s\n"
        (match fmt with `Json -> "json" | `Prom -> "prometheus" | `Csv -> "csv" | `Human -> "text")
        file);
    `Ok ()

(* --- why-late: fire-delay attribution forensics --------------------- *)

(* Run one experiment with the ring armed, then replay the trace
   through {!Delay_audit}: every fired timer's delay is partitioned
   into trigger-gap (sub-attributed to the CPU activity that held off
   the checks), check-skipped (budget withheld it) and batch-queueing
   segments, with a conservation check per fire.  Reports aggregate
   cause tables, the per-ending-trigger cross-tab (paper §4.1) and the
   worst-N exemplars with full causal chains. *)
let run_whylate cfg id worst fmt out buf budget =
  match List.find_opt (fun (name, _, _) -> name = id) experiments with
  | None -> unknown_experiment id
  | Some _ when buf <= 0 -> `Error (false, "--buf must be positive")
  | Some _ when worst < 0 -> `Error (false, "--worst must be non-negative")
  | Some _ when (match budget with Some b -> b < 1 | None -> false) ->
    `Error (false, "--check-budget must be at least 1")
  | Some _
    when match out with
         | None -> false
         | Some f -> ( try close_out (open_out f); false with Sys_error _ -> true) ->
    `Error (false, Printf.sprintf "cannot write why-late output %S" (Option.get out))
  | Some (_, _, f) ->
    (match budget with Some b -> Softtimer.set_default_check_budget b | None -> ());
    let restore_budget () = Softtimer.set_default_check_budget max_int in
    Fun.protect ~finally:restore_budget (fun () ->
        let tr = Trace.create ~capacity:buf () in
        Metrics.reset Metrics.default;
        Trace.install tr;
        let table =
          try f cfg
          with e ->
            Trace.uninstall ();
            raise e
        in
        Trace.uninstall ();
        ignore (table : string);
        let da = Delay_audit.collect ~worst tr in
        let body =
          match fmt with
          | `Json -> Delay_audit.to_json da
          | `Prom -> Delay_audit.to_prometheus da
          | `Human ->
            Printf.sprintf "why-late %s (seed %d%s%s)\n%s" id cfg.Exp_config.seed
              (if cfg.Exp_config.quick then ", quick" else "")
              (match budget with
              | Some b -> Printf.sprintf ", check budget %d" b
              | None -> "")
              (Delay_audit.to_text da)
        in
        (match out with
        | None -> print_string body
        | Some file ->
          let oc = open_out file in
          Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc body);
          Printf.printf "why-late: %s report -> %s\n"
            (match fmt with `Json -> "json" | `Prom -> "prometheus" | `Human -> "text")
            file);
        if Trace.dropped tr > 0 then
          Printf.eprintf
            "WARNING: trace ring overflowed (%d events dropped); attribution is computed \
             from a truncated stream (raise --buf)\n"
            (Trace.dropped tr);
        if Delay_audit.violations da > 0 then
          `Error
            ( false,
              Printf.sprintf "why-late: %d conservation violation(s) — attribution bug"
                (Delay_audit.violations da) )
        else `Ok ())

(* --- mem: memory observatory ---------------------------------------- *)

(* Arm the memory observatory around [f]: register the observatory's
   own self-census and take GC samples at the run boundaries.  Nothing
   here emits a trace event or touches Metrics.default, so stdout,
   digests and tables are byte-identical with or without it. *)
let observe_mem f =
  Memstats.reset_census ();
  Memstats.reset_samples ();
  (* The observatory accounts for itself: the interned category
     registry is retained heap like any store's. *)
  Memstats.register ~path:[ "obs"; "profile-registry" ] Profile.registry_words;
  Memstats.sample ~label:"start";
  Fun.protect ~finally:(fun () -> Memstats.sample ~label:"end") f

(* --mem: the memory report goes to stderr after the run. *)
let with_mem enabled f =
  if not enabled then f ()
  else begin
    let r = observe_mem f in
    prerr_newline ();
    prerr_string (Memstats.report ());
    r
  end

(* Run one experiment under the observatory and print the memory report
   instead of the experiment's table (mirroring `stats`): the
   per-subsystem live-word tree, the retention table with its
   conservation verdict, GC samples and counters.  pacer-scale runs
   through its census entry point, which registers every fleet as a
   live source — `mem pacer-scale` is the per-store words/flow report
   at 10^3..10^6. *)
let run_mem cfg id fmt out =
  match List.find_opt (fun (name, _, _) -> name = id) experiments with
  | None -> unknown_experiment id
  | Some _
    when match out with
         | None -> false
         | Some f -> ( try close_out (open_out f); false with Sys_error _ -> true) ->
    `Error (false, Printf.sprintf "cannot write mem output %S" (Option.get out))
  | Some (_, _, f) ->
    observe_mem (fun () ->
        if id = "pacer-scale" then
          ignore (Exp_pacer_scale.run_census cfg : Exp_pacer_scale.cell list)
        else ignore (f cfg : string));
    let body =
      match fmt with
      | `Json ->
        Printf.sprintf
          "{\"schema\":\"softtimers-mem/2\",\"experiment\":%s,\"seed\":%d,\"quick\":%b,\
           \"memstats\":%s}"
          (jstring id) cfg.Exp_config.seed cfg.Exp_config.quick (Memstats.to_json ())
      | `Prom -> Memstats.to_prometheus ()
      | `Human ->
        Printf.sprintf "mem %s (seed %d%s)\n\n%s" id cfg.Exp_config.seed
          (if cfg.Exp_config.quick then ", quick" else "")
          (Memstats.report ())
    in
    (match out with
    | None -> print_string body
    | Some file ->
      let oc = open_out file in
      Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc body);
      Printf.printf "mem: %s report -> %s\n"
        (match fmt with `Json -> "json" | `Prom -> "prometheus" | `Human -> "text")
        file);
    let ok = Memstats.conservation_ok () in
    (* Drop the census (and with it the fleets the providers keep alive). *)
    Memstats.reset_census ();
    if ok then `Ok ()
    else
      `Error
        ( false,
          "mem: conservation violated — attributed live words exceed GC live words \
           (double-counted or stale census provider)" )

open Cmdliner

let quick =
  let doc = "Short runs (noisier, ~10x faster)." in
  Arg.(value & flag & info [ "quick"; "q" ] ~doc)

let seed =
  let doc = "Simulation seed (runs are deterministic per seed)." in
  Arg.(value & opt int 7 & info [ "seed"; "s" ] ~doc ~docv:"SEED")

let jobs =
  let doc =
    "Number of worker domains for parallelizable work (independent experiment cells). \
     1 = sequential, 0 = one per core.  Results, tables and trace digests are identical \
     at every value; only wall-clock time changes."
  in
  Arg.(value & opt int 1 & info [ "jobs"; "j" ] ~doc ~docv:"N")

let sanitize =
  let doc =
    "Arm the runtime invariant sanitizer: every trace event is checked for causality, \
     soft-timer firing bounds, timing-wheel residency and counter monotonicity; a report \
     is printed after the run and violations exit nonzero."
  in
  Arg.(value & flag & info [ "sanitize" ] ~doc)

let mem_flag =
  let doc =
    "Arm the memory observatory for the run: the live-word census and GC samples, \
     reported to stderr after the run.  stdout, tables and trace digests are byte-identical with or \
     without this flag."
  in
  Arg.(value & flag & info [ "mem" ] ~doc)

let store_arg =
  let doc =
    Printf.sprintf
      "Timer store backing the soft-timer facility for this run: one of %s.  Every \
       experiment produces the same tables and trace digests under every exact store \
       (only internal bookkeeping differs); the approximate pacing-wheel rounds \
       deadlines up to the tick, so firing times — and hence digests — legitimately \
       shift under it.  See the arena bench for the performance comparison."
      (String.concat ", " Store_registry.names)
  in
  Arg.(value & opt (some string) None & info [ "store" ] ~doc ~docv:"NAME")

(* Install the requested store process-wide for the duration of [k]:
   every [Softtimer.attach] inside the run picks it up. *)
let with_store name k =
  match name with
  | None -> k ()
  | Some n -> (
    match Store_registry.find n with
    | None ->
      `Error
        ( false,
          Printf.sprintf "unknown timer store %s (available: %s)" n
            (String.concat ", " Store_registry.names) )
    | Some s ->
      Softtimer.set_default_store (Some s);
      Fun.protect ~finally:(fun () -> Softtimer.set_default_store None) k)

let id =
  let doc = "Experiment id, or 'all'." in
  Arg.(value & pos 0 string "all" & info [] ~doc ~docv:"EXPERIMENT")

let cfg_of quick seed = { Exp_config.quick; seed }

let trace_cmd =
  let doc = "Run one experiment with tracing enabled and export the event trace" in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Arms the simulator-wide tracing layer (lib/obs), runs the given experiment, and \
         writes the captured events to $(b,--out).  The default format is Chrome \
         trace_event JSON, loadable in chrome://tracing or https://ui.perfetto.dev; pass \
         $(b,--csv) (or an .csv output path) for one event per line instead.";
    ]
  in
  let exp_id =
    let doc = "Experiment id to trace (one id, not 'all')." in
    Arg.(required & pos 0 (some string) None & info [] ~doc ~docv:"EXPERIMENT")
  in
  let out =
    let doc = "Output file for the exported trace." in
    Arg.(value & opt string "trace.json" & info [ "out"; "o" ] ~doc ~docv:"FILE")
  in
  let csv =
    let doc = "Export CSV instead of Chrome trace_event JSON." in
    Arg.(value & flag & info [ "csv" ] ~doc)
  in
  let buf =
    let doc = "Trace ring-buffer capacity in events; the oldest events are overwritten \
               once it fills." in
    Arg.(value & opt int 1_048_576 & info [ "buf" ] ~doc ~docv:"EVENTS")
  in
  let metrics =
    let doc = "Also dump the metrics registry after the run." in
    Arg.(value & flag & info [ "metrics" ] ~doc)
  in
  let window =
    let doc =
      "Also aggregate the event stream into windows of this many microseconds of simulated \
       time and merge the result into the JSON export as Chrome counter tracks.  0 \
       disables the time series."
    in
    Arg.(value & opt float 0.0 & info [ "window" ] ~doc ~docv:"US")
  in
  let max_windows =
    let doc = "Retain at most this many closed windows (oldest evicted first)." in
    Arg.(value & opt int 4096 & info [ "max-windows" ] ~doc ~docv:"N")
  in
  let term =
    Term.(
      ret
        (const (fun quick seed jobs store id out csv buf metrics window max_windows sanitize ->
             Runner.set_default_jobs jobs;
             with_store store (fun () ->
                 with_sanitizer sanitize (fun () ->
                     run_trace (cfg_of quick seed) id out csv buf metrics window max_windows)))
        $ quick $ seed $ jobs $ store_arg $ exp_id $ out $ csv $ buf $ metrics $ window
        $ max_windows $ sanitize))
  in
  Cmd.v (Cmd.info "trace" ~doc ~man) term

let stats_cmd =
  let doc = "Run one experiment and report windowed time-series, span and metrics statistics" in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Taps the simulator's event stream, aggregates it into fixed windows of simulated \
         time (counters, gauges and a constant-memory latency histogram per window), \
         reconstructs per-entity spans (soft timers schedule->fire/cancel, packets \
         enqueue->rx) from the trace ring, and prints a report instead of the experiment's \
         table.  The report contains no wall-clock data and the tap forces sequential \
         execution, so the bytes are identical at every $(b,--jobs) value.";
      `P
        "Formats: $(b,--json) (schema softtimers-stats/1: windows, spans and the metrics \
         registry), $(b,--prom) (Prometheus text exposition of the metrics registry), \
         $(b,--csv) (one row per window), or a human summary by default.";
    ]
  in
  let exp_id =
    let doc = "Experiment id (one id, not 'all')." in
    Arg.(required & pos 0 (some string) None & info [] ~doc ~docv:"EXPERIMENT")
  in
  let window =
    let doc = "Aggregation window in microseconds of simulated time." in
    Arg.(value & opt float 1000.0 & info [ "window" ] ~doc ~docv:"US")
  in
  let max_windows =
    let doc = "Retain at most this many closed windows (oldest evicted first)." in
    Arg.(value & opt int 4096 & info [ "max-windows" ] ~doc ~docv:"N")
  in
  let json =
    let doc = "Emit the full JSON report (schema softtimers-stats/1)." in
    Arg.(value & flag & info [ "json" ] ~doc)
  in
  let prom =
    let doc = "Emit the metrics registry as Prometheus text exposition." in
    Arg.(value & flag & info [ "prom" ] ~doc)
  in
  let csv =
    let doc = "Emit the window table as CSV." in
    Arg.(value & flag & info [ "csv" ] ~doc)
  in
  let out =
    let doc = "Write the report to this file instead of stdout." in
    Arg.(value & opt (some string) None & info [ "out"; "o" ] ~doc ~docv:"FILE")
  in
  let buf =
    let doc = "Trace ring-buffer capacity in events (spans are recovered from the ring)." in
    Arg.(value & opt int 1_048_576 & info [ "buf" ] ~doc ~docv:"EVENTS")
  in
  let term =
    Term.(
      ret
        (const (fun quick seed jobs store id window max_windows json prom csv out buf ->
             Runner.set_default_jobs jobs;
             with_store store (fun () ->
                 match (json, prom, csv) with
                 | true, false, false ->
                   run_stats (cfg_of quick seed) id window max_windows `Json out buf
                 | false, true, false ->
                   run_stats (cfg_of quick seed) id window max_windows `Prom out buf
                 | false, false, true ->
                   run_stats (cfg_of quick seed) id window max_windows `Csv out buf
                 | false, false, false ->
                   run_stats (cfg_of quick seed) id window max_windows `Human out buf
                 | _ -> `Error (false, "--json, --prom and --csv are mutually exclusive")))
        $ quick $ seed $ jobs $ store_arg $ exp_id $ window $ max_windows $ json $ prom $ csv
        $ out $ buf))
  in
  Cmd.v (Cmd.info "stats" ~doc ~man) term

let whylate_cmd =
  let doc = "Explain every late soft-timer fire: exact, conservation-checked delay attribution" in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Runs the given experiment with tracing armed, then partitions every fired timer's \
         delay (fire time minus due time) into an exact breakdown: $(b,trigger-gap) — no \
         trigger state was reached since the deadline, sub-attributed to what CPU 0 was \
         doing (interrupt handler, softintr/protocol work, syscall body, user or background \
         compute, another timer's handler, or idle-before-wakeup); $(b,check-skipped) — a \
         check reached the store but the per-check dispatch budget withheld this timer; and \
         $(b,batch-queueing).  Segments provably sum to the delay for every fire \
         (violations exit nonzero).";
      `P
        "The report shows the aggregate per-cause table with histograms, the \
         per-ending-trigger-state cross-tab (which trigger finally dispatched each late \
         timer — the paper's §4.1 question), and the worst-$(b,--worst) exemplars with \
         their causal chains.  $(b,--check-budget N) caps dispatches per check to make \
         budget-induced lateness observable.";
    ]
  in
  let exp_id =
    let doc = "Experiment id to audit (one id, not 'all')." in
    Arg.(required & pos 0 (some string) None & info [] ~doc ~docv:"EXPERIMENT")
  in
  let worst =
    let doc = "Number of worst-late exemplar timers to show." in
    Arg.(value & opt int 10 & info [ "worst" ] ~doc ~docv:"N")
  in
  let json =
    let doc = "Emit the JSON report (schema softtimers-whylate/1)." in
    Arg.(value & flag & info [ "json" ] ~doc)
  in
  let prom =
    let doc = "Emit the attribution as Prometheus text exposition." in
    Arg.(value & flag & info [ "prom" ] ~doc)
  in
  let out =
    let doc = "Write the report to this file instead of stdout." in
    Arg.(value & opt (some string) None & info [ "out"; "o" ] ~doc ~docv:"FILE")
  in
  let buf =
    let doc = "Trace ring-buffer capacity in events (attribution replays the ring)." in
    Arg.(value & opt int 1_048_576 & info [ "buf" ] ~doc ~docv:"EVENTS")
  in
  let check_budget =
    let doc =
      "Cap soft-timer dispatches per trigger check at N for this run (default unlimited); \
       withheld timers show up as check-skipped delay."
    in
    Arg.(value & opt (some int) None & info [ "check-budget" ] ~doc ~docv:"N")
  in
  let term =
    Term.(
      ret
        (const (fun quick seed jobs store id worst json prom out buf check_budget ->
             Runner.set_default_jobs jobs;
             with_store store (fun () ->
                 match (json, prom) with
                 | true, false ->
                   run_whylate (cfg_of quick seed) id worst `Json out buf check_budget
                 | false, true ->
                   run_whylate (cfg_of quick seed) id worst `Prom out buf check_budget
                 | false, false ->
                   run_whylate (cfg_of quick seed) id worst `Human out buf check_budget
                 | true, true -> `Error (false, "--json and --prom are mutually exclusive")))
        $ quick $ seed $ jobs $ store_arg $ exp_id $ worst $ json $ prom $ out $ buf
        $ check_budget))
  in
  Cmd.v (Cmd.info "why-late" ~doc ~man) term

let profile_cmd =
  let doc = "Run one experiment with the cycle-attribution profiler and report who spent what" in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Installs the cycle-attribution profiler (lib/obs Profile), runs the given \
         experiment and prints three reports: the hierarchical attribution tree (every \
         charged CPU cycle by category), the per-interrupt cost split (save/restore vs. \
         cache/TLB pollution vs. handler body — the decomposition behind the paper's \
         Tables 2-4), and the per-trigger-state soft-timer dispatch breakdown with \
         latencies (paper Table 1).  $(b,--flame) exports collapsed-stack lines for \
         inferno, flamegraph.pl or speedscope instead.";
    ]
  in
  let exp_id =
    let doc = "Experiment id to profile (one id, not 'all')." in
    Arg.(required & pos 0 (some string) None & info [] ~doc ~docv:"EXPERIMENT")
  in
  let out =
    let doc = "Write the report (or, with --flame, the collapsed stacks) to this file." in
    Arg.(value & opt (some string) None & info [ "out"; "o" ] ~doc ~docv:"FILE")
  in
  let flame =
    let doc = "Emit collapsed-stack flamegraph lines (cpuN;category;... <ns>) instead of \
               the text report." in
    Arg.(value & flag & info [ "flame" ] ~doc)
  in
  let metrics =
    let doc = "Also dump the metrics registry after the run." in
    Arg.(value & flag & info [ "metrics" ] ~doc)
  in
  let term =
    Term.(
      ret
        (const (fun quick seed jobs store id out flame metrics sanitize ->
             Runner.set_default_jobs jobs;
             with_store store (fun () ->
                 with_sanitizer sanitize (fun () ->
                     run_profile (cfg_of quick seed) id out flame metrics)))
        $ quick $ seed $ jobs $ store_arg $ exp_id $ out $ flame $ metrics $ sanitize))
  in
  Cmd.v (Cmd.info "profile" ~doc ~man) term

let mem_cmd =
  let doc = "Run one experiment under the memory observatory and report where the words live" in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Arms the memory observatory (lib/obs Memstats), runs the given experiment, and \
         prints the memory report instead of the experiment's table: the per-subsystem \
         live-word tree and retention table over the census of registered word \
         providers, the GC sample track and the GC counter registry.  The retention \
         numbers come from each subsystem's analytic $(b,words) accounting \
         (cross-checked against Obj.reachable_words in the test suite), attributed to \
         the same interned category tree the cycle profiler uses.";
      `P
        "$(b,mem pacer-scale) registers every fleet of the sweep as a live census \
         source, making it the per-store memory-gap report: store and pool words per \
         flow at 10^3..10^6 flows.  Conservation (attributed live words <= GC live \
         words) is checked on every run; violations exit nonzero.";
      `P
        "The observatory emits no trace events and never touches the default metrics \
         registry, so determinism digests, tables and stats reports are byte-identical \
         whether or not it is armed.";
    ]
  in
  let exp_id =
    let doc = "Experiment id to observe (one id, not 'all')." in
    Arg.(required & pos 0 (some string) None & info [] ~doc ~docv:"EXPERIMENT")
  in
  let json =
    let doc = "Emit the JSON report (schema softtimers-mem/2)." in
    Arg.(value & flag & info [ "json" ] ~doc)
  in
  let prom =
    let doc = "Emit the observatory's GC registry as Prometheus text exposition." in
    Arg.(value & flag & info [ "prom" ] ~doc)
  in
  let out =
    let doc = "Write the report to this file instead of stdout." in
    Arg.(value & opt (some string) None & info [ "out"; "o" ] ~doc ~docv:"FILE")
  in
  let term =
    Term.(
      ret
        (const (fun quick seed jobs store id json prom out ->
             Runner.set_default_jobs jobs;
             with_store store (fun () ->
                 match (json, prom) with
                 | true, false -> run_mem (cfg_of quick seed) id `Json out
                 | false, true -> run_mem (cfg_of quick seed) id `Prom out
                 | false, false -> run_mem (cfg_of quick seed) id `Human out
                 | true, true -> `Error (false, "--json and --prom are mutually exclusive")))
        $ quick $ seed $ jobs $ store_arg $ exp_id $ json $ prom $ out))
  in
  Cmd.v (Cmd.info "mem" ~doc ~man) term

let verify_cmd =
  let doc = "Replay-diff: run an experiment twice with the same seed and diff the results" in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Runs the given experiment twice with identical configuration, capturing the full \
         event trace of each run, then compares the emitted table byte-for-byte and the \
         trace digests (an order-sensitive FNV-1a over every event).  Exits nonzero on any \
         divergence: two same-seed runs of a correct simulation are bit-for-bit identical.  \
         Run 1 is always sequential; with --jobs N the second run fans parallelizable work \
         across N domains, so a pass also proves parallel execution changes nothing.";
    ]
  in
  let exp_id =
    let doc = "Experiment id to verify (one id, not 'all')." in
    Arg.(required & pos 0 (some string) None & info [] ~doc ~docv:"EXPERIMENT")
  in
  let buf =
    let doc = "Trace ring-buffer capacity in events for each run." in
    Arg.(value & opt int 1_048_576 & info [ "buf" ] ~doc ~docv:"EVENTS")
  in
  let term =
    Term.(
      ret
        (const (fun quick seed jobs store buf id ->
             with_store store (fun () -> run_verify (cfg_of quick seed) buf jobs id))
        $ quick $ seed $ jobs $ store_arg $ buf $ exp_id))
  in
  Cmd.v (Cmd.info "verify-determinism" ~doc ~man) term

let doc = "Reproduce the experiments of 'Soft Timers' (Aron & Druschel, SOSP'99)"

let man =
  [
    `S Manpage.s_description;
    `P
      "Each experiment regenerates one table or figure of the paper on the simulated \
       testbed and prints measured values next to the paper's.  The $(b,trace) \
       subcommand additionally exports a Chrome trace_event JSON of everything the \
       simulator did.";
    `S "EXPERIMENTS";
  ]
  @ List.map (fun (n, d, _) -> `P (Printf.sprintf "$(b,%s): %s" n d)) experiments

let default =
  Term.(
    ret
      (const (fun quick seed jobs store sanitize mem id ->
           Runner.set_default_jobs jobs;
           let cfg = cfg_of quick seed in
           with_store store (fun () ->
               with_mem mem (fun () ->
                   if id = "all" then run_all cfg sanitize else run_one cfg sanitize id)))
      $ quick $ seed $ jobs $ store_arg $ sanitize $ mem_flag $ id))

let group_cmd =
  Cmd.group ~default
    (Cmd.info "softtimers-cli" ~version:"1.0.0" ~doc ~man)
    [ trace_cmd; profile_cmd; verify_cmd; stats_cmd; whylate_cmd; mem_cmd ]

(* [Cmd.group ~default] rejects any first positional that is not a
   subcommand name, which would break the documented
   `softtimers-cli table3` form; route experiment-id invocations to a
   plain command instead, and everything else (no positional, flags
   only, `trace ...`) through the group. *)
let plain_cmd = Cmd.v (Cmd.info "softtimers-cli" ~version:"1.0.0" ~doc ~man) default

let () =
  let argv = Sys.argv in
  (* Find the first true positional.  Separated-value flags consume the
     following argv slot, so `--seed 9 table3` must skip the "9" — and a
     seed value must never be mistaken for a subcommand name. *)
  let value_flags =
    [
      "--seed"; "-s"; "--out"; "-o"; "--buf"; "--jobs"; "-j"; "--window"; "--max-windows";
      "--store"; "--worst"; "--check-budget";
    ]
  in
  let first_positional =
    let rec go i =
      if i >= Array.length argv then None
      else if List.mem argv.(i) value_flags then go (i + 2)
      else if String.length argv.(i) > 0 && argv.(i).[0] = '-' then go (i + 1)
      else Some argv.(i)
    in
    go 1
  in
  let is_subcommand =
    match first_positional with
    | Some ("trace" | "profile" | "verify-determinism" | "stats" | "why-late" | "mem") -> true
    | Some _ -> false
    | None -> false
  in
  let cmd = if is_subcommand || first_positional = None then group_cmd else plain_cmd in
  exit (Cmd.eval cmd)
