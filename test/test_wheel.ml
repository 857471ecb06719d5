(* Tests for the hashed timing wheel, including a property-based
   equivalence check against a sorted-list reference implementation. *)

let us = Time_ns.of_us

let collect_fired wheel ~now =
  let fired = ref [] in
  let o = Timing_wheel.fire_due wheel ~now ~limit:max_int (fun due v -> fired := (due, v) :: !fired) in
  (Fire_outcome.fired o, List.rev !fired)

let test_basic_fire () =
  let w = Timing_wheel.create ~tick:(us 10.0) () in
  Alcotest.(check int) "empty" 0 (Timing_wheel.pending w);
  Alcotest.(check (option int64)) "no deadline" None (Timing_wheel.next_deadline w);
  ignore (Timing_wheel.schedule w ~at:(us 25.0) "a" : string Timing_wheel.handle);
  ignore (Timing_wheel.schedule w ~at:(us 55.0) "b" : string Timing_wheel.handle);
  Alcotest.(check int) "pending 2" 2 (Timing_wheel.pending w);
  Alcotest.(check (option int64)) "earliest" (Some (us 25.0)) (Timing_wheel.next_deadline w);
  let n, fired = collect_fired w ~now:(us 30.0) in
  Alcotest.(check int) "one fired" 1 n;
  Alcotest.(check (list string)) "a fired" [ "a" ] (List.map snd fired);
  Alcotest.(check (option int64)) "next is b" (Some (us 55.0)) (Timing_wheel.next_deadline w);
  let n, fired = collect_fired w ~now:(us 100.0) in
  Alcotest.(check int) "b fired" 1 n;
  Alcotest.(check (list string)) "b" [ "b" ] (List.map snd fired);
  Alcotest.(check int) "drained" 0 (Timing_wheel.pending w)

let test_fire_order_and_ties () =
  let w = Timing_wheel.create ~tick:(us 10.0) () in
  ignore (Timing_wheel.schedule w ~at:(us 40.0) "second" : string Timing_wheel.handle);
  ignore (Timing_wheel.schedule w ~at:(us 20.0) "first" : string Timing_wheel.handle);
  ignore (Timing_wheel.schedule w ~at:(us 40.0) "third" : string Timing_wheel.handle);
  let _, fired = collect_fired w ~now:(us 50.0) in
  Alcotest.(check (list string)) "deadline then insertion order" [ "first"; "second"; "third" ]
    (List.map snd fired)

let test_cancel () =
  let w = Timing_wheel.create ~tick:(us 10.0) () in
  let h = Timing_wheel.schedule w ~at:(us 20.0) "x" in
  ignore (Timing_wheel.schedule w ~at:(us 30.0) "y" : string Timing_wheel.handle);
  Timing_wheel.cancel w h;
  Alcotest.(check int) "pending after cancel" 1 (Timing_wheel.pending w);
  Alcotest.(check (option int64)) "min recomputed" (Some (us 30.0)) (Timing_wheel.next_deadline w);
  Timing_wheel.cancel w h;  (* double cancel: no-op *)
  Alcotest.(check int) "still 1" 1 (Timing_wheel.pending w);
  let _, fired = collect_fired w ~now:(us 100.0) in
  Alcotest.(check (list string)) "only y fires" [ "y" ] (List.map snd fired)

let test_far_future_rotations () =
  (* An entry many rotations ahead must not fire early. *)
  let w = Timing_wheel.create_sized ~slots:8 ~tick:(us 10.0) () in
  ignore (Timing_wheel.schedule w ~at:(us 25.0) "near" : string Timing_wheel.handle);
  (* 8 slots x 10 us = one rotation is 80 us; 1000 us is 12 rotations out
     and hashes to the same region of the wheel. *)
  ignore (Timing_wheel.schedule w ~at:(us 1_005.0) "far" : string Timing_wheel.handle);
  let _, fired = collect_fired w ~now:(us 100.0) in
  Alcotest.(check (list string)) "only near fires" [ "near" ] (List.map snd fired);
  let _, fired = collect_fired w ~now:(us 2_000.0) in
  Alcotest.(check (list string)) "far fires later" [ "far" ] (List.map snd fired)

let test_overdue_schedule_fires () =
  let w = Timing_wheel.create ~tick:(us 10.0) () in
  ignore (collect_fired w ~now:(us 500.0));
  (* Deadline in the past relative to the sweep horizon. *)
  ignore (Timing_wheel.schedule w ~at:(us 100.0) "late" : string Timing_wheel.handle);
  let _, fired = collect_fired w ~now:(us 500.0) in
  Alcotest.(check (list string)) "overdue entry still fires" [ "late" ] (List.map snd fired)

let test_schedule_during_fire () =
  let w = Timing_wheel.create ~tick:(us 10.0) () in
  ignore (Timing_wheel.schedule w ~at:(us 20.0) "a" : string Timing_wheel.handle);
  let rescheduled = ref false in
  let n =
    Timing_wheel.fire_due w ~now:(us 30.0) ~limit:max_int (fun _ _ ->
        if not !rescheduled then begin
          rescheduled := true;
          ignore (Timing_wheel.schedule w ~at:(us 25.0) "b" : string Timing_wheel.handle)
        end)
  in
  Alcotest.(check int) "one fired this round" 1 (Fire_outcome.fired n);
  Alcotest.(check int) "b pending" 1 (Timing_wheel.pending w);
  let n2, fired = collect_fired w ~now:(us 30.0) in
  Alcotest.(check int) "b fires next round" 1 n2;
  Alcotest.(check (list string)) "b" [ "b" ] (List.map snd fired)

let test_iter_pending () =
  let w = Timing_wheel.create ~tick:(us 10.0) () in
  ignore (Timing_wheel.schedule w ~at:(us 10.0) 1 : int Timing_wheel.handle);
  let h = Timing_wheel.schedule w ~at:(us 20.0) 2 in
  ignore (Timing_wheel.schedule w ~at:(us 30.0) 3 : int Timing_wheel.handle);
  Timing_wheel.cancel w h;
  let seen = ref [] in
  Timing_wheel.iter_pending w (fun _ v -> seen := v :: !seen);
  Alcotest.(check (list int)) "pending values" [ 1; 3 ] (List.sort compare !seen)

let test_invalid_args () =
  Alcotest.check_raises "tick<=0" (Invalid_argument "Timing_wheel.create: tick must be positive")
    (fun () -> ignore (Timing_wheel.create ~tick:0L () : unit Timing_wheel.t));
  Alcotest.check_raises "slots<=0" (Invalid_argument "Timing_wheel.create: slots must be positive")
    (fun () -> ignore (Timing_wheel.create_sized ~slots:0 ~tick:1L () : unit Timing_wheel.t))

(* Regression (cancel-leak): cancelled entries are reclaimed lazily when
   their slot is swept, so a schedule/cancel churn loop far ahead of the
   sweep horizon — a rate clock retiming its one outstanding event, say
   — used to grow bucket lists without bound.  With compaction the
   resident count (pending + not-yet-reclaimed cancelled) stays bounded
   by the compaction threshold no matter how many entries churn. *)
let test_cancel_churn_bounded () =
  let slots = 64 in
  let w = Timing_wheel.create_sized ~slots ~tick:(us 10.0) () in
  (* A long-lived entry keeps the wheel non-empty throughout. *)
  ignore (Timing_wheel.schedule w ~at:(us 1e9) "keeper" : string Timing_wheel.handle);
  let worst = ref 0 in
  for i = 1 to 50_000 do
    let h = Timing_wheel.schedule w ~at:(us (100_000.0 +. float_of_int i)) "churn" in
    Timing_wheel.cancel w h;
    if Timing_wheel.resident w > !worst then worst := Timing_wheel.resident w
  done;
  Alcotest.(check bool)
    (Printf.sprintf "resident bounded (worst %d)" !worst)
    true
    (!worst <= (2 * slots) + 2);
  Alcotest.(check int) "only the keeper is pending" 1 (Timing_wheel.pending w);
  Alcotest.(check (option int64)) "min survives compaction" (Some (us 1e9))
    (Timing_wheel.next_deadline w);
  let _, fired = collect_fired w ~now:(us 2e9) in
  Alcotest.(check (list string)) "keeper fires" [ "keeper" ] (List.map snd fired)

(* Property: against a sorted-list oracle, under a random schedule of
   operations (schedule / cancel / advance), fire_due produces exactly
   the same (deadline, id) multiset in the same deadline order, and
   next_deadline always agrees. *)

type op = Schedule of int | Cancel of int | Advance of int

let op_gen =
  QCheck.Gen.(
    frequency
      [
        (5, map (fun d -> Schedule d) (int_range 0 2_000));
        (2, map (fun i -> Cancel i) (int_range 0 50));
        (3, map (fun d -> Advance d) (int_range 1 500));
      ])

let ops_arbitrary =
  QCheck.make
    ~print:(fun ops ->
      String.concat ";"
        (List.map
           (function
             | Schedule d -> Printf.sprintf "S%d" d
             | Cancel i -> Printf.sprintf "C%d" i
             | Advance d -> Printf.sprintf "A%d" d)
           ops))
    QCheck.Gen.(list_size (int_range 1 120) op_gen)

let test_oracle_equivalence =
  QCheck.Test.make ~name:"wheel = sorted-list oracle" ~count:300 ops_arbitrary (fun ops ->
      let w = Timing_wheel.create_sized ~slots:16 ~tick:(us 10.0) () in
      (* Oracle: (deadline, id, cancelled ref) list. *)
      let oracle : (Time_ns.t * int * bool ref) list ref = ref [] in
      let handles : (int * int Timing_wheel.handle * bool ref) list ref = ref [] in
      let now = ref Time_ns.zero in
      let next_id = ref 0 in
      let ok = ref true in
      List.iter
        (fun op ->
          match op with
          | Schedule offset_us ->
            let at = Time_ns.(!now + us (float_of_int offset_us)) in
            let id = !next_id in
            incr next_id;
            let h = Timing_wheel.schedule w ~at id in
            let alive = ref true in
            oracle := (at, id, alive) :: !oracle;
            handles := (id, h, alive) :: !handles
          | Cancel idx -> begin
            match List.nth_opt !handles (idx mod max 1 (List.length !handles)) with
            | Some (_, h, alive) when !handles <> [] ->
              Timing_wheel.cancel w h;
              alive := false
            | _ -> ()
          end
          | Advance d ->
            now := Time_ns.(!now + us (float_of_int d));
            let fired = ref [] in
            ignore
              (Timing_wheel.fire_due w ~now:!now ~limit:max_int (fun due v -> fired := (due, v) :: !fired)
                : Fire_outcome.t);
            let fired = List.rev !fired in
            let expected =
              !oracle
              |> List.filter (fun (at, _, alive) -> !alive && Time_ns.(at <= !now))
              |> List.map (fun (at, id, _) -> (at, id))
              |> List.sort (fun (a, i) (b, j) ->
                     let c = Time_ns.compare a b in
                     if c <> 0 then c else compare i j)
            in
            oracle :=
              List.filter (fun (at, _, alive) -> (not !alive) || Time_ns.(at > !now)) !oracle;
            (* Fired entries are spent: drop them from the oracle; also
               mark them dead so later cancels are no-ops. *)
            List.iter
              (fun (_, id) ->
                match List.find_opt (fun (i, _, _) -> i = id) !handles with
                | Some (_, _, alive) -> alive := false
                | None -> ())
              expected;
            if fired <> expected then ok := false)
        ops;
      (* Final consistency of pending count and next_deadline. *)
      let live = List.filter (fun (_, _, alive) -> !alive) !oracle in
      let expected_min =
        List.fold_left
          (fun acc (at, _, _) ->
            match acc with None -> Some at | Some m -> Some (Time_ns.min m at))
          None live
      in
      !ok
      && Timing_wheel.pending w = List.length live
      && Timing_wheel.next_deadline w = expected_min)


(* Property: [next_deadline] equals the true minimum pending deadline
   after EVERY operation (the oracle test above only checks it at the
   end), including the lazy min-cache invalidation paths exercised by
   cancel-of-minimum and by firing. *)
let test_next_deadline_always_min =
  QCheck.Test.make ~name:"next_deadline = true min after every op" ~count:300 ops_arbitrary
    (fun ops ->
      let w = Timing_wheel.create_sized ~slots:16 ~tick:(us 10.0) () in
      let entries : (Time_ns.t * int Timing_wheel.handle * bool ref) list ref = ref [] in
      let now = ref Time_ns.zero in
      let ok = ref true in
      let check_min () =
        let expected =
          List.fold_left
            (fun acc (at, _, alive) ->
              if not !alive then acc
              else match acc with None -> Some at | Some m -> Some (Time_ns.min m at))
            None !entries
        in
        if Timing_wheel.next_deadline w <> expected then ok := false
      in
      List.iter
        (fun op ->
          (match op with
          | Schedule offset_us ->
            let at = Time_ns.(!now + us (float_of_int offset_us)) in
            let h = Timing_wheel.schedule w ~at 0 in
            entries := (at, h, ref true) :: !entries
          | Cancel idx -> begin
            match List.nth_opt !entries (idx mod max 1 (List.length !entries)) with
            | Some (_, h, alive) when !entries <> [] ->
              Timing_wheel.cancel w h;
              alive := false
            | _ -> ()
          end
          | Advance d ->
            now := Time_ns.(!now + us (float_of_int d));
            ignore (Timing_wheel.fire_due w ~now:!now ~limit:max_int (fun _ _ -> ()) : Fire_outcome.t);
            List.iter
              (fun (at, _, alive) -> if !alive && Time_ns.(at <= !now) then alive := false)
              !entries);
          check_min ())
        ops;
      !ok)

(* ------------------------------------------------------------------ *)
(* Allocation and work bounds of the soft-timer fast path.  In native
   code [Gc.minor_words] counts every allocated word exactly, so these
   bounds are deterministic.  Deadlines are boxed before measuring: the
   loops allocate only what the store does. *)

let minor_words_during f =
  let before = Gc.minor_words () in
  f ();
  Gc.minor_words () -. before

let ignore_fire (_ : Time_ns.t) (_ : int) = ()

(* Schedule one timer, then fire it, [n] times over; the first [warm]
   cycles grow the slab and the batch buffer and are not measured. *)
let cycle_words ~schedule ~fire =
  let warm = 64 and n = 10_000 in
  let ats = Array.init (warm + n) (fun i -> us (10.0 *. float_of_int (i + 1))) in
  for i = 0 to warm - 1 do
    schedule ats.(i);
    fire ats.(i)
  done;
  (n, minor_words_during (fun () ->
       for i = warm to warm + n - 1 do
         schedule ats.(i);
         fire ats.(i)
       done))

let test_steady_cycle_alloc () =
  let w = Timing_wheel.create ~tick:(us 10.0) () in
  ignore (Timing_wheel.schedule w ~at:(us 1e9) 0 : int Timing_wheel.handle);
  let n, words =
    cycle_words
      ~schedule:(fun at -> ignore (Timing_wheel.schedule w ~at 1 : int Timing_wheel.handle))
      ~fire:(fun now ->
        ignore (Timing_wheel.fire_due w ~now ~limit:max_int ignore_fire : Fire_outcome.t))
  in
  Alcotest.(check (float 0.0)) (Printf.sprintf "wheel: %d cycles allocate nothing" n) 0.0 words;
  (* Through a store instance, a schedule costs the ticket block: a
     header and two fields. *)
  let inst : int Timer_store.inst = Timer_store.instantiate (Timer_store.wheel ()) ~tick:(us 10.0) () in
  let n, words =
    cycle_words
      ~schedule:(fun at -> ignore (inst.Timer_store.i_schedule ~at 1 : Timer_store.ticket))
      ~fire:(fun now ->
        ignore (inst.Timer_store.i_fire_due ~now ~limit:max_int ignore_fire : Fire_outcome.t))
  in
  Alcotest.(check (float 0.0))
    (Printf.sprintf "instance: %d cycles allocate one ticket each" n)
    (3.0 *. float_of_int n) words

(* The trigger-state check that finds nothing due: the earliest deadline
   is memoised, so neither the query nor the empty fire_due allocates. *)
let test_nothing_due_alloc () =
  let inst : int Timer_store.inst = Timer_store.instantiate (Timer_store.wheel ()) ~tick:(us 10.0) () in
  ignore (inst.Timer_store.i_schedule ~at:(us 500.0) 1 : Timer_store.ticket);
  ignore (inst.Timer_store.i_schedule ~at:(us 900.0) 2 : Timer_store.ticket);
  let nows = Array.init 256 (fun i -> us (float_of_int i)) in
  let check now =
    match inst.Timer_store.i_next_deadline () with
    | Some d when Time_ns.(d <= now) -> Alcotest.fail "nothing is due"
    | Some _ | None ->
      ignore (inst.Timer_store.i_fire_due ~now ~limit:max_int ignore_fire : Fire_outcome.t)
  in
  check Time_ns.zero;
  let words = minor_words_during (fun () -> Array.iter check nows) in
  Alcotest.(check (float 0.0)) "256 empty checks allocate nothing" 0.0 words;
  Alcotest.(check int) "both still pending" 2 (inst.Timer_store.i_pending ())

(* Soft timers call fire_due only when something is due, so the wheel
   sees long idle stretches between fires.  The due sweep starts at the
   earliest entry's slot and both sweeps skip empty slots: a fire after
   k idle ticks walks O(occupied slots), whatever k. *)
let test_sweep_visits_occupied_slots () =
  List.iter
    (fun k ->
      let w = Timing_wheel.create ~tick:(us 10.0) () in
      ignore (Timing_wheel.schedule w ~at:(us 5.0) 0 : int Timing_wheel.handle);
      let far = us ((10.0 *. float_of_int k) +. 5.0) in
      List.iter
        (fun j ->
          ignore
            (Timing_wheel.schedule w ~at:Time_ns.(far + us (10.0 *. float_of_int j)) j
              : int Timing_wheel.handle))
        [ 1; 2; 3 ];
      ignore (collect_fired w ~now:(us 5.0));
      let v0 = Timing_wheel.slot_visits w in
      let n, _ = collect_fired w ~now:Time_ns.(far + us 30.0) in
      Alcotest.(check int) (Printf.sprintf "k=%d: three fire" k) 3 n;
      let visits = Timing_wheel.slot_visits w - v0 in
      (* Each of the two sweeps (minimum, due batch) walks at most the
         three occupied slots; a tick-by-tick sweep would walk k. *)
      Alcotest.(check bool)
        (Printf.sprintf "k=%d: %d slot visits <= 2 x occupied" k visits)
        true (visits <= 6))
    [ 10; 100; 400; 5_000 ]

(* Re-arm moves the entry in place: no corpse, the handle survives. *)
let test_rearm_in_place () =
  let w = Timing_wheel.create_sized ~slots:8 ~tick:(us 10.0) () in
  let h = Timing_wheel.schedule w ~at:(us 20.0) "x" in
  for i = 1 to 1_000 do
    Alcotest.(check bool) "rearm ok" true (Timing_wheel.rearm w h ~at:(us (20.0 +. float_of_int i)))
  done;
  Alcotest.(check int) "resident = pending = 1" 1 (Timing_wheel.resident w);
  Alcotest.(check int64) "deadline moved" (us 1_020.0) (Timing_wheel.handle_deadline w h);
  let _, fired = collect_fired w ~now:(us 2_000.0) in
  Alcotest.(check (list string)) "fires once" [ "x" ] (List.map snd fired);
  Alcotest.(check bool) "handle spent" false (Timing_wheel.handle_pending w h)

let () =
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "timing_wheel"
    [
      ( "unit",
        [
          Alcotest.test_case "basic scheduling and firing" `Quick test_basic_fire;
          Alcotest.test_case "fire order and ties" `Quick test_fire_order_and_ties;
          Alcotest.test_case "cancel" `Quick test_cancel;
          Alcotest.test_case "far-future rotations" `Quick test_far_future_rotations;
          Alcotest.test_case "overdue schedule fires" `Quick test_overdue_schedule_fires;
          Alcotest.test_case "schedule during fire" `Quick test_schedule_during_fire;
          Alcotest.test_case "iter_pending" `Quick test_iter_pending;
          Alcotest.test_case "invalid args" `Quick test_invalid_args;
          Alcotest.test_case "cancel churn stays bounded" `Quick test_cancel_churn_bounded;
          Alcotest.test_case "rearm in place" `Quick test_rearm_in_place;
        ] );
      ( "fast-path",
        [
          Alcotest.test_case "steady cycle allocation" `Quick test_steady_cycle_alloc;
          Alcotest.test_case "nothing-due check allocation" `Quick test_nothing_due_alloc;
          Alcotest.test_case "sweep visits occupied slots" `Quick test_sweep_visits_occupied_slots;
        ] );
      ("property", [ qc test_oracle_equivalence; qc test_next_deadline_always_min ]);
    ]
