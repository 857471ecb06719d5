type id = string
type doc = string

let all =
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

let find id =
  match List.find_opt (fun (name, _, _) -> name = id) all with
  | Some (_, _, run) -> Ok run
  | None ->
    Error
      (Printf.sprintf "unknown experiment %S; known: %s" id
         (String.concat ", " (List.map (fun (name, _, _) -> name) all)))
