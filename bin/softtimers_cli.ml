(* Command-line front end: run any of the paper's experiments by id,
   plainly or under one of the observability views. *)

let ( let* ) = Result.bind

(* --- the one run path ------------------------------------------------ *)

(* Validation: every check runs before anything is armed or simulated,
   and a failure is a one-line usage error. *)
let fail_if cond msg = if cond then Error msg else Ok ()
let positive flag n = fail_if (n <= 0) (flag ^ " must be positive")

(* Fail on an unwritable --out before spending time simulating. *)
let writable what = function
  | None -> Ok ()
  | Some file -> (
    try
      close_out (open_out file);
      Ok ()
    with Sys_error _ -> Error (Printf.sprintf "cannot write %s output %S" what file))

(* Run [f cfg] with the requested observers armed: the default metrics
   registry is reset, then the trace ring, the time-series tap, the
   cycle profiler and the per-check dispatch budget are installed as
   given.  All of them are removed again on every exit path. *)
let observed ?ring ?series ?profile ?budget f cfg =
  Metrics.reset Metrics.default;
  Option.iter Softtimer.set_default_check_budget budget;
  Option.iter Trace.install ring;
  Option.iter (fun ts -> Trace.set_tap (Some (Timeseries.on_event ts))) series;
  Option.iter Profile.install profile;
  Fun.protect
    ~finally:(fun () ->
      if Option.is_some profile then Profile.uninstall ();
      Option.iter
        (fun ts ->
          Trace.set_tap None;
          Timeseries.close ts)
        series;
      if Option.is_some ring then Trace.uninstall ();
      if Option.is_some budget then Softtimer.set_default_check_budget max_int)
    (fun () -> f cfg)

(* Run [run] with the runtime invariant sanitizer armed (when requested):
   it taps every trace event, checks causality / soft-timer firing
   bounds / wheel residency / counter monotonicity, and its report is
   printed after the run.  Violations turn into a nonzero exit. *)
let with_sanitizer enabled run =
  if not enabled then run ()
  else begin
    let s = Sanitizer.create () in
    Sanitizer.install s;
    let result = Fun.protect ~finally:(fun () -> Sanitizer.uninstall s) run in
    print_newline ();
    print_string (Sanitizer.report s);
    match result with
    | Ok () when not (Sanitizer.ok s) ->
      Error (Printf.sprintf "sanitizer: %d invariant violation(s)" (Sanitizer.violation_count s))
    | other -> other
  end

(* Print a report, or write it to --out and say so on stdout. *)
let write_report cmd what out body =
  match out with
  | None -> print_string body
  | Some file ->
    let oc = open_out file in
    Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc body);
    Printf.printf "%s: %s -> %s\n" cmd what file

let report_kind = function
  | `Json -> "json report"
  | `Prom -> "prometheus report"
  | `Csv -> "csv report"
  | `Human -> "text report"

let run_label (cfg : Exp_config.t) =
  Printf.sprintf "seed %d%s" cfg.seed (if cfg.quick then ", quick" else "")

let print_metrics () =
  print_newline ();
  print_string (Metrics.dump Metrics.default)

(* The options every command shares. *)
type common = { cfg : Exp_config.t; jobs : int; store : (module Timer_store.S) option }

(* Every command goes through here: validate the shared options, then
   the command's own ([prepare] returns the run, or a usage error), then
   run it with --jobs and --store applied and the sanitizer armed when
   asked. *)
let exec ?(sanitize = false) common prepare =
  let result =
    let* c = common in
    let* run = prepare c in
    Runner.set_default_jobs c.jobs;
    (* Every [Softtimer.attach] inside the run picks the store up. *)
    Softtimer.set_default_store c.store;
    Fun.protect
      ~finally:(fun () -> Softtimer.set_default_store None)
      (fun () -> with_sanitizer sanitize run)
  in
  match result with Ok () -> `Ok () | Error msg -> `Error (false, msg)

(* --- plain runs ------------------------------------------------------ *)

let run_all cfg () =
  (* Independent deterministic sims: fan out, print in list order.
     (With --sanitize the tap forces sequential execution inside
     map_sim; output is identical either way.) *)
  Runner.map_sim (fun (_, _, f) -> f cfg) Exp_registry.all
  |> List.iter (fun out ->
         print_string out;
         print_newline ());
  Ok ()

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

let prepare_default ~mem id { cfg; _ } =
  let* run =
    if id = "all" then Ok (run_all cfg)
    else
      let* f = Exp_registry.find id in
      Ok
        (fun () ->
          print_string (f cfg);
          Ok ())
  in
  Ok (fun () -> with_mem mem run)

(* --- verify-determinism ---------------------------------------------- *)

(* Replay-diff harness: run one experiment twice from the same seed and
   compare the emitted table byte-for-byte and the trace digests (an
   order-sensitive hash of every event).  Any divergence means some
   hidden state — wall clock, global Random, hash order — leaked into
   the run, which is exactly what the determinism contract forbids. *)
let prepare_verify ~buf id { cfg; jobs; _ } =
  let* f = Exp_registry.find id in
  let* () = positive "--buf" buf in
  Ok
    (fun () ->
      let once ~jobs =
        Runner.set_default_jobs jobs;
        let tr = Trace.create ~capacity:buf () in
        let out = observed ~ring:tr f cfg in
        (out, Trace_digest.digest tr, Trace.total tr)
      in
      (* Run 1 is always sequential; run 2 uses the requested job count,
         so `--jobs 4` directly proves a parallel run is bit-identical
         to the sequential reference, not merely self-consistent. *)
      let o1, d1, n1 = once ~jobs:1 in
      let o2, d2, n2 = once ~jobs in
      Printf.printf "verify-determinism %s (%s)\n" id (run_label cfg);
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
        Ok ()
      end
      else begin
        if not tables_eq then begin
          let l1 = String.split_on_char '\n' o1 and l2 = String.split_on_char '\n' o2 in
          let rec first_diff i = function
            | a :: ra, b :: rb ->
              if String.equal a b then first_diff (i + 1) (ra, rb) else Some (i, a, b)
            | a :: _, [] -> Some (i, a, "<missing>")
            | [], b :: _ -> Some (i, "<missing>", b)
            | [], [] -> None
          in
          match first_diff 1 (l1, l2) with
          | Some (i, a, b) ->
            Printf.printf "  first differing table line (%d):\n    run 1: %s\n    run 2: %s\n"
              i a b
          | None -> ()
        end;
        Error "verify-determinism: same-seed runs differ — determinism broken"
      end)

(* --- trace ----------------------------------------------------------- *)

(* Run one experiment with the tracing/metrics layer armed, then export
   the ring buffer as Chrome trace_event JSON (or CSV).  JSON exports
   also carry async span events (timer and packet lifecycles recovered
   from the ring) and, with --window, per-window counter tracks. *)
let prepare_trace ~out ~csv ~buf ~metrics ~window_us ~max_windows ~sanitize id { cfg; _ } =
  let* f = Exp_registry.find id in
  let* () = positive "--buf" buf in
  let* () = fail_if (window_us < 0.0) "--window must be non-negative" in
  let* () = positive "--max-windows" max_windows in
  (* Both the sanitizer and the time-series collector need the single
     synchronous trace tap. *)
  let* () =
    fail_if (window_us > 0.0 && sanitize)
      "--window cannot be combined with --sanitize (both need the trace tap)"
  in
  let* () = writable "trace" (Some out) in
  Ok
    (fun () ->
      let tr = Trace.create ~capacity:buf () in
      let series =
        if window_us > 0.0 then
          Some (Timeseries.create ~window:(Time_ns.of_us window_us) ~max_windows ())
        else None
      in
      print_string (observed ~ring:tr ?series f cfg);
      let as_csv = csv || Filename.check_suffix out ".csv" in
      if as_csv then Trace_export.write_csv tr out
      else Trace_export.write_chrome_json ?series ~spans:(Span.collect tr) tr out;
      Printf.printf "\ntrace: %d events captured (%d overwritten) -> %s (%s)\n" (Trace.length tr)
        (Trace.dropped tr) out
        (if as_csv then "csv" else "chrome trace_event json; open in chrome://tracing or Perfetto");
      if Trace.dropped tr > 0 then
        Printf.printf
          "WARNING: trace ring overflowed; the %d oldest events were dropped — the export is \
           truncated (raise --buf to capture everything)\n"
          (Trace.dropped tr);
      if metrics then print_metrics ();
      Ok ())

(* --- profile --------------------------------------------------------- *)

(* Run one experiment with the cycle-attribution profiler installed and
   print (or export) the attribution report: the tree, the per-interrupt
   cost split (save/restore vs pollution vs handler) and the per-trigger
   dispatch breakdown.  --flame switches to collapsed-stack flamegraph
   lines instead (inferno / flamegraph.pl / speedscope). *)
let prepare_profile ~out ~flame ~metrics id { cfg; _ } =
  let* f = Exp_registry.find id in
  let* () = writable "profile" out in
  Ok
    (fun () ->
      let p = Profile.create () in
      print_string (observed ~profile:p f cfg);
      print_newline ();
      Printf.printf "profile %s (%s)\n\n" id (run_label cfg);
      if flame then begin
        write_report "profile" "collapsed-stack flamegraph" out (Profile.to_collapsed p);
        if Option.is_some out then print_string (Profile.to_table p)
      end
      else write_report "profile" "attribution report" out (Profile.report p);
      if metrics then print_metrics ();
      Ok ())

(* --- stats: windowed time-series + span + metrics report ------------ *)

let hdr_json h =
  Json.obj
    [
      ("count", string_of_int (Hdr.count h));
      ("mean", Json.num (Hdr.mean h));
      ("p50", Json.num (Hdr.quantile h 0.5));
      ("p99", Json.num (Hdr.quantile h 0.99));
      ("max", Json.num (Hdr.max h));
    ]

let metrics_json m =
  let parts = ref [] in
  Metrics.iter m (fun name v ->
      let rendered =
        match v with
        | Metrics.Counter c -> string_of_int c
        | Metrics.Probe g -> Json.num g
        | Metrics.Histogram h -> hdr_json h
      in
      parts := (name, rendered) :: !parts);
  Json.obj (List.rev !parts)

let spans_json sp =
  let i = string_of_int in
  Json.obj
    [
      ( "timers",
        Json.obj
          [
            ("total", i (Span.timers_total sp));
            ("fired", i (Span.timers_fired sp));
            ("cancelled", i (Span.timers_cancelled sp));
            ("open", i (Span.timers_open sp));
            ("latency_us", hdr_json (Span.timer_latency sp));
          ] );
      ( "packets",
        Json.obj
          [
            ("total", i (Span.packets_total sp));
            ("delivered", i (Span.packets_delivered sp));
            ("open", i (Span.packets_open sp));
            ("latency_us", hdr_json (Span.packet_latency sp));
          ] );
    ]

let stats_json (cfg : Exp_config.t) id window_us ts sp da =
  Json.obj
    [
      ("schema", Json.str "softtimers-stats/1");
      ("experiment", Json.str id);
      ("seed", string_of_int cfg.seed);
      ("quick", string_of_bool cfg.quick);
      ("window_us", Json.num window_us);
      ("events", string_of_int (Timeseries.event_count ts));
      ("epochs", string_of_int (Timeseries.epochs ts));
      ("windows_dropped", string_of_int (Timeseries.evicted_windows ts));
      ("windows", Timeseries.to_json ts);
      ("spans", spans_json sp);
      ("whylate", Delay_audit.to_json da);
      ("metrics", metrics_json Metrics.default);
    ]

let stats_human cfg id window_us ts sp da =
  let b = Buffer.create 2048 in
  let addf fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  addf "stats %s (%s, window %g us)\n" id (run_label cfg) window_us;
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
let prepare_stats ~window_us ~max_windows ~fmt ~out ~buf id { cfg; _ } =
  let* f = Exp_registry.find id in
  let* () = positive "--buf" buf in
  let* () = fail_if (window_us <= 0.0) "--window must be positive" in
  let* () = positive "--max-windows" max_windows in
  let* () = writable "stats" out in
  Ok
    (fun () ->
      let tr = Trace.create ~capacity:buf () in
      let ts = Timeseries.create ~window:(Time_ns.of_us window_us) ~max_windows () in
      ignore (observed ~ring:tr ~series:ts f cfg : string);
      let sp = Span.collect tr in
      let da = Delay_audit.collect tr in
      write_report "stats" (report_kind fmt) out
        (match fmt with
        | `Json -> stats_json cfg id window_us ts sp da
        | `Prom -> Metrics.to_prometheus Metrics.default ^ Delay_audit.to_prometheus da
        | `Csv -> Timeseries.to_csv ts
        | `Human -> stats_human cfg id window_us ts sp da);
      Ok ())

(* --- why-late: fire-delay attribution forensics --------------------- *)

(* Run one experiment with the ring armed, then replay the trace
   through {!Delay_audit}: every fired timer's delay is partitioned
   into trigger-gap (sub-attributed to the CPU activity that held off
   the checks), check-skipped (budget withheld it) and batch-queueing
   segments, with a conservation check per fire.  Reports aggregate
   cause tables, the per-ending-trigger cross-tab (paper §4.1) and the
   worst-N exemplars with full causal chains. *)
let prepare_whylate ~worst ~fmt ~out ~buf ~budget id { cfg; _ } =
  let* f = Exp_registry.find id in
  let* () = positive "--buf" buf in
  let* () = fail_if (worst < 0) "--worst must be non-negative" in
  let* () =
    fail_if
      (Option.fold ~none:false ~some:(fun b -> b < 1) budget)
      "--check-budget must be at least 1"
  in
  let* () = writable "why-late" out in
  Ok
    (fun () ->
      let tr = Trace.create ~capacity:buf () in
      ignore (observed ~ring:tr ?budget f cfg : string);
      let da = Delay_audit.collect ~worst tr in
      write_report "why-late" (report_kind fmt) out
        (match fmt with
        | `Json -> Delay_audit.to_json da
        | `Prom -> Delay_audit.to_prometheus da
        | `Human ->
          Printf.sprintf "why-late %s (%s%s)\n%s" id (run_label cfg)
            (Option.fold ~none:"" ~some:(Printf.sprintf ", check budget %d") budget)
            (Delay_audit.to_text da));
      if Trace.dropped tr > 0 then
        Printf.eprintf
          "WARNING: trace ring overflowed (%d events dropped); attribution is computed from a \
           truncated stream (raise --buf)\n"
          (Trace.dropped tr);
      if Delay_audit.violations da > 0 then
        Error
          (Printf.sprintf "why-late: %d conservation violation(s) — attribution bug"
             (Delay_audit.violations da))
      else Ok ())

(* --- mem: memory observatory ---------------------------------------- *)

(* Run one experiment under the observatory and print the memory report
   instead of the experiment's table (mirroring `stats`): the
   per-subsystem live-word tree, the retention table with its
   conservation verdict, GC samples and counters.  pacer-scale runs
   through its census entry point, which registers every fleet as a
   live source — `mem pacer-scale` is the per-store words/flow report
   at 10^3..10^6. *)
let prepare_mem ~fmt ~out id { cfg; _ } =
  let* f = Exp_registry.find id in
  let* () = writable "mem" out in
  Ok
    (fun () ->
      observe_mem (fun () ->
          if id = "pacer-scale" then
            ignore (Exp_pacer_scale.run_census cfg : Exp_pacer_scale.cell list)
          else ignore (f cfg : string));
      write_report "mem" (report_kind fmt) out
        (match fmt with
        | `Json ->
          Json.obj
            [
              ("schema", Json.str "softtimers-mem/2");
              ("experiment", Json.str id);
              ("seed", string_of_int cfg.seed);
              ("quick", string_of_bool cfg.quick);
              ("memstats", Memstats.to_json ());
            ]
        | `Prom -> Memstats.to_prometheus ()
        | `Human -> Printf.sprintf "mem %s (%s)\n\n%s" id (run_label cfg) (Memstats.report ()));
      let ok = Memstats.conservation_ok () in
      (* Drop the census (and with it the fleets the providers keep alive). *)
      Memstats.reset_census ();
      if ok then Ok ()
      else
        Error
          "mem: conservation violated — attributed live words exceed GC live words \
           (double-counted or stale census provider)")

(* --- command line ---------------------------------------------------- *)

open Cmdliner

let common =
  let quick =
    let doc = "Short runs (noisier, ~10x faster)." in
    Arg.(value & flag & info [ "quick"; "q" ] ~doc)
  in
  let seed =
    let doc = "Simulation seed (runs are deterministic per seed)." in
    Arg.(value & opt int 7 & info [ "seed"; "s" ] ~doc ~docv:"SEED")
  in
  let jobs =
    let doc =
      "Number of worker domains for parallelizable work (independent experiment cells). \
       1 = sequential, 0 = one per core.  Results, tables and trace digests are identical \
       at every value; only wall-clock time changes."
    in
    Arg.(value & opt int 1 & info [ "jobs"; "j" ] ~doc ~docv:"N")
  in
  let store =
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
  in
  let make quick seed jobs store =
    let* () = fail_if (jobs < 0) "--jobs must be non-negative (0 = one per core)" in
    let* store =
      match store with
      | None -> Ok None
      | Some n -> (
        match Store_registry.find n with
        | Some s -> Ok (Some s)
        | None ->
          Error
            (Printf.sprintf "unknown timer store %s (available: %s)" n
               (String.concat ", " Store_registry.names)))
    in
    Ok { cfg = { Exp_config.quick; seed }; jobs; store }
  in
  Term.(const make $ quick $ seed $ jobs $ store)

let sanitize =
  let doc =
    "Arm the runtime invariant sanitizer: every trace event is checked for causality, \
     soft-timer firing bounds, timing-wheel residency and counter monotonicity; a report \
     is printed after the run and violations exit nonzero."
  in
  Arg.(value & flag & info [ "sanitize" ] ~doc)

let exp_id verb =
  let doc = Printf.sprintf "Experiment id to %s (one id, not 'all')." verb in
  Arg.(required & pos 0 (some string) None & info [] ~doc ~docv:"EXPERIMENT")

let buf ~doc = Arg.(value & opt int 1_048_576 & info [ "buf" ] ~doc ~docv:"EVENTS")

let out_file ~doc =
  Arg.(value & opt (some string) None & info [ "out"; "o" ] ~doc ~docv:"FILE")

let report_out = out_file ~doc:"Write the report to this file instead of stdout."

let metrics =
  let doc = "Also dump the metrics registry after the run." in
  Arg.(value & flag & info [ "metrics" ] ~doc)

let max_windows =
  let doc = "Retain at most this many closed windows (oldest evicted first)." in
  Arg.(value & opt int 4096 & info [ "max-windows" ] ~doc ~docv:"N")

(* One report-format flag of a [vflag] group (the human report is the
   default); cmdliner rejects two of them together. *)
let format_flag tag name doc = (tag, Arg.info [ name ] ~doc)

let command name ~doc ~man term =
  Cmd.v (Cmd.info name ~doc ~man:(`S Manpage.s_description :: man)) Term.(ret term)

let trace_cmd =
  let out =
    let doc = "Output file for the exported trace." in
    Arg.(value & opt string "trace.json" & info [ "out"; "o" ] ~doc ~docv:"FILE")
  in
  let csv =
    let doc = "Export CSV instead of Chrome trace_event JSON." in
    Arg.(value & flag & info [ "csv" ] ~doc)
  in
  let window =
    let doc =
      "Also aggregate the event stream into windows of this many microseconds of simulated \
       time and merge the result into the JSON export as Chrome counter tracks.  0 \
       disables the time series."
    in
    Arg.(value & opt float 0.0 & info [ "window" ] ~doc ~docv:"US")
  in
  let run common id out csv buf metrics window_us max_windows sanitize =
    exec ~sanitize common
      (prepare_trace ~out ~csv ~buf ~metrics ~window_us ~max_windows ~sanitize id)
  in
  command "trace" ~doc:"Run one experiment with tracing enabled and export the event trace"
    ~man:
      [
        `P
          "Arms the simulator-wide tracing layer (lib/obs), runs the given experiment, and \
           writes the captured events to $(b,--out).  The default format is Chrome \
           trace_event JSON, loadable in chrome://tracing or https://ui.perfetto.dev; pass \
           $(b,--csv) (or an .csv output path) for one event per line instead.";
      ]
    Term.(
      const run $ common $ exp_id "trace" $ out $ csv
      $ buf
          ~doc:
            "Trace ring-buffer capacity in events; the oldest events are overwritten once it \
             fills."
      $ metrics $ window $ max_windows $ sanitize)

let stats_cmd =
  let window =
    let doc = "Aggregation window in microseconds of simulated time." in
    Arg.(value & opt float 1000.0 & info [ "window" ] ~doc ~docv:"US")
  in
  let fmt =
    Arg.(
      value
      & vflag `Human
          [
            format_flag `Json "json" "Emit the full JSON report (schema softtimers-stats/1).";
            format_flag `Prom "prom" "Emit the metrics registry as Prometheus text exposition.";
            format_flag `Csv "csv" "Emit the window table as CSV.";
          ])
  in
  let run common id window_us max_windows fmt out buf =
    exec common (prepare_stats ~window_us ~max_windows ~fmt ~out ~buf id)
  in
  command "stats"
    ~doc:"Run one experiment and report windowed time-series, span and metrics statistics"
    ~man:
      [
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
    Term.(
      const run $ common $ exp_id "report on" $ window $ max_windows $ fmt $ report_out
      $ buf ~doc:"Trace ring-buffer capacity in events (spans are recovered from the ring).")

let whylate_cmd =
  let worst =
    let doc = "Number of worst-late exemplar timers to show." in
    Arg.(value & opt int 10 & info [ "worst" ] ~doc ~docv:"N")
  in
  let fmt =
    Arg.(
      value
      & vflag `Human
          [
            format_flag `Json "json" "Emit the JSON report (schema softtimers-whylate/1).";
            format_flag `Prom "prom" "Emit the attribution as Prometheus text exposition.";
          ])
  in
  let check_budget =
    let doc =
      "Cap soft-timer dispatches per trigger check at N for this run (default unlimited); \
       withheld timers show up as check-skipped delay."
    in
    Arg.(value & opt (some int) None & info [ "check-budget" ] ~doc ~docv:"N")
  in
  let run common id worst fmt out buf budget =
    exec common (prepare_whylate ~worst ~fmt ~out ~buf ~budget id)
  in
  command "why-late"
    ~doc:"Explain every late soft-timer fire: exact, conservation-checked delay attribution"
    ~man:
      [
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
    Term.(
      const run $ common $ exp_id "audit" $ worst $ fmt $ report_out
      $ buf ~doc:"Trace ring-buffer capacity in events (attribution replays the ring)."
      $ check_budget)

let profile_cmd =
  let flame =
    let doc =
      "Emit collapsed-stack flamegraph lines (cpuN;category;... <ns>) instead of the text \
       report."
    in
    Arg.(value & flag & info [ "flame" ] ~doc)
  in
  let run common id out flame metrics sanitize =
    exec ~sanitize common (prepare_profile ~out ~flame ~metrics id)
  in
  command "profile"
    ~doc:"Run one experiment with the cycle-attribution profiler and report who spent what"
    ~man:
      [
        `P
          "Installs the cycle-attribution profiler (lib/obs Profile), runs the given \
           experiment and prints three reports: the hierarchical attribution tree (every \
           charged CPU cycle by category), the per-interrupt cost split (save/restore vs. \
           cache/TLB pollution vs. handler body — the decomposition behind the paper's \
           Tables 2-4), and the per-trigger-state soft-timer dispatch breakdown with \
           latencies (paper Table 1).  $(b,--flame) exports collapsed-stack lines for \
           inferno, flamegraph.pl or speedscope instead.";
      ]
    Term.(
      const run $ common $ exp_id "profile"
      $ out_file ~doc:"Write the report (or, with --flame, the collapsed stacks) to this file."
      $ flame $ metrics $ sanitize)

let mem_cmd =
  let fmt =
    Arg.(
      value
      & vflag `Human
          [
            format_flag `Json "json" "Emit the JSON report (schema softtimers-mem/2).";
            format_flag `Prom "prom"
              "Emit the observatory's GC registry as Prometheus text exposition.";
          ])
  in
  let run common id fmt out = exec common (prepare_mem ~fmt ~out id) in
  command "mem"
    ~doc:"Run one experiment under the memory observatory and report where the words live"
    ~man:
      [
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
    Term.(const run $ common $ exp_id "observe" $ fmt $ report_out)

let verify_cmd =
  let run common buf id = exec common (prepare_verify ~buf id) in
  command "verify-determinism"
    ~doc:"Replay-diff: run an experiment twice with the same seed and diff the results"
    ~man:
      [
        `P
          "Runs the given experiment twice with identical configuration, capturing the full \
           event trace of each run, then compares the emitted table byte-for-byte and the \
           trace digests (an order-sensitive FNV-1a over every event).  Exits nonzero on any \
           divergence: two same-seed runs of a correct simulation are bit-for-bit identical.  \
           Run 1 is always sequential; with --jobs N the second run fans parallelizable work \
           across N domains, so a pass also proves parallel execution changes nothing.";
      ]
    Term.(
      const run $ common
      $ buf ~doc:"Trace ring-buffer capacity in events for each run."
      $ exp_id "verify")

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
  @ List.map (fun (n, d, _) -> `P (Printf.sprintf "$(b,%s): %s" n d)) Exp_registry.all

let default =
  let mem =
    let doc =
      "Arm the memory observatory for the run: the live-word census and GC samples, \
       reported to stderr after the run.  stdout, tables and trace digests are \
       byte-identical with or without this flag."
    in
    Arg.(value & flag & info [ "mem" ] ~doc)
  in
  let id =
    let doc = "Experiment id, or 'all'." in
    Arg.(value & pos 0 string "all" & info [] ~doc ~docv:"EXPERIMENT")
  in
  let run common sanitize mem id = exec ~sanitize common (prepare_default ~mem id) in
  Term.(ret (const run $ common $ sanitize $ mem $ id))

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
