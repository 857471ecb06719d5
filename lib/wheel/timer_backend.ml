module type S = sig
  type 'a t

  type handle

  val name : string

  val create : tick:Time_ns.span -> unit -> 'a t
  val schedule : 'a t -> at:Time_ns.t -> 'a -> handle
  val cancel : 'a t -> handle -> unit
  val pending : 'a t -> int
  val resident : 'a t -> int
  val next_deadline : 'a t -> Time_ns.t option
  val words : 'a t -> int

  val fire_due :
    'a t -> now:Time_ns.t -> limit:int -> (Time_ns.t -> 'a -> unit) -> Fire_outcome.t
end

(* Analytic [words] accounting convention (64-bit): a record of [n]
   fields costs [n + 1] words (header included), a cons cell 3, a boxed
   int64 3.  Each backend counts its own records, handles, backing
   arrays and boxed deadlines, but not the payload values it borrows
   from the caller.  An entry's [deadline] and its handle's [cdeadline]
   are the same boxed int64, so the box is counted once. *)

(* Residency bound shared by the flag-cancelling backends below: once
   corpses (cancelled entries not yet physically removed) reach both
   this floor and the live count, one O(resident) compaction pass sheds
   them all, so [resident t < 2 * max (pending t) compact_floor] holds
   after every operation and the amortized cost per cancel is O(1). *)
let compact_floor = 64

(* Shared bookkeeping for flag-cancelled entries. *)
type centry_state = Pending | Cancelled | Fired

type chandle = { mutable cstate : centry_state; cdeadline : Time_ns.t }

(* Dispatch a collected due batch in (deadline, seq) order.  Every
   backend's [fire_due] is two-phase: first the due set is extracted
   from the structure (a snapshot — entries scheduled by callbacks
   during the call are never part of it), then each entry's state is
   re-checked immediately before its callback runs, so a callback that
   cancels a later same-batch entry suppresses its dispatch.  [on_skip]
   fires for each suppressed entry so the caller can settle its corpse
   accounting (the entry was counted cancelled while already extracted
   from the structure).  At most [limit] callbacks run; [on_requeue]
   receives each still-pending entry beyond the budget so the caller
   can put it back with deadline and sequence number preserved.
   Recheck-drops do not consume the budget.  The tuple carries the
   caller's own entry as its last component (for requeue); [value_of]
   projects the callback payload out of it. *)
let fire_sorted ~limit ~on_skip ~on_requeue entries value_of f =
  let due =
    List.sort
      (fun (d1, s1, _, _) (d2, s2, _, _) ->
        let c = Time_ns.compare d1 d2 in
        if c <> 0 then c else compare s1 s2)
      entries
  in
  let scanned = List.length due in
  let fired = ref 0 in
  List.iter
    (fun (d, _, h, e) ->
      if h.cstate = Pending then
        if !fired < limit then begin
          h.cstate <- Fired;
          incr fired;
          f d (value_of e)
        end
        else on_requeue e
      else on_skip ())
    due;
  Fire_outcome.pack ~scanned ~fired:!fired

module Sorted_list : S = struct
  let name = "sorted-list"

  type 'a entry = { deadline : Time_ns.t; seq : int; value : 'a; h : chandle }

  type 'a t = {
    mutable entries : 'a entry list;  (* ascending (deadline, seq) *)
    mutable count : int;
    mutable cancelled : int;  (* corpses still resident in [entries] *)
    mutable next_seq : int;
  }

  let create ~tick () =
    ignore tick;
    { entries = []; count = 0; cancelled = 0; next_seq = 0 }

  type handle = chandle

  (* Cancelled entries used to stay resident until [skip_dead] reached
     their deadline: a churn loop cancelling far-future timers grew the
     list without bound (the same cancel-leak class fixed in the wheel
     in PR 1).  One O(resident) filter once corpses dominate keeps
     residency O(live). *)
  let compact t =
    t.entries <- List.filter (fun e -> e.h.cstate = Pending) t.entries;
    t.cancelled <- 0

  let maybe_compact t =
    if t.cancelled >= compact_floor && t.cancelled >= t.count then compact t

  let drop_corpse t = if t.cancelled > 0 then t.cancelled <- t.cancelled - 1

  (* Sorted insert by (deadline, seq) — shared by [schedule] and the
     budget-requeue path in [fire_due], which re-inserts an extracted
     entry with its original sequence number (callbacks may have
     scheduled younger entries with equal deadlines meanwhile, so a
     plain prepend would break the tie order). *)
  let insert_entry t e =
    let rec insert = function
      | [] -> [ e ]
      | x :: rest ->
        if
          Time_ns.compare x.deadline e.deadline > 0
          || (Time_ns.(x.deadline = e.deadline) && x.seq > e.seq)
        then e :: x :: rest
        else x :: insert rest
    in
    t.entries <- insert t.entries

  let schedule t ~at value =
    let h = { cstate = Pending; cdeadline = at } in
    let e = { deadline = at; seq = t.next_seq; value; h } in
    t.next_seq <- t.next_seq + 1;
    t.count <- t.count + 1;
    insert_entry t e;
    h

  let cancel t h =
    if h.cstate = Pending then begin
      h.cstate <- Cancelled;
      t.count <- t.count - 1;
      t.cancelled <- t.cancelled + 1;
      maybe_compact t
    end

  let pending t = t.count
  let resident t = t.count + t.cancelled

  (* Record (5) + cons (3) + entry (5) + chandle (3) + int64 box (3). *)
  let words t = 5 + (14 * resident t)

  let rec skip_dead t =
    match t.entries with
    | e :: rest when e.h.cstate <> Pending ->
      t.entries <- rest;
      drop_corpse t;
      skip_dead t
    | _ -> ()

  let next_deadline t =
    skip_dead t;
    match t.entries with [] -> None | e :: _ -> Some e.deadline

  let fire_due t ~now ~limit f =
    (* Collect the due snapshot first; callbacks run only afterwards,
       so entries they schedule wait for the next call. *)
    let rec collect acc =
      match t.entries with
      | e :: rest when e.h.cstate <> Pending ->
        t.entries <- rest;
        drop_corpse t;
        collect acc
      | e :: rest when Time_ns.(e.deadline <= now) ->
        t.entries <- rest;
        collect (e :: acc)
      | _ -> List.rev acc
    in
    let batch = collect [] in
    let scanned = List.length batch in
    let fired = ref 0 in
    List.iter
      (fun e ->
        (* Re-check: an earlier callback in this batch may have
           cancelled this entry after it left the list. *)
        if e.h.cstate = Pending then
          if !fired < limit then begin
            e.h.cstate <- Fired;
            t.count <- t.count - 1;
            incr fired;
            f e.deadline e.value
          end
          else insert_entry t e
        else drop_corpse t)
      batch;
    Fire_outcome.pack ~scanned ~fired:!fired
end

module Binary_heap : S = struct
  let name = "binary-heap"

  type 'a entry = { deadline : Time_ns.t; seq : int; value : 'a; h : chandle }

  type 'a t = {
    heap : 'a entry Heap.t;
    mutable count : int;
    mutable cancelled : int;  (* corpses still resident in [heap] *)
    mutable next_seq : int;
  }

  type handle = chandle

  let cmp a b =
    let c = Time_ns.compare a.deadline b.deadline in
    if c <> 0 then c else compare a.seq b.seq

  let create ~tick () =
    ignore tick;
    { heap = Heap.create ~cmp; count = 0; cancelled = 0; next_seq = 0 }

  (* Same cancel-leak as the sorted list: a corpse deep in the heap
     stays until its deadline surfaces.  Filter + Floyd heapify once
     corpses reach both the floor and the live count. *)
  let compact t =
    Heap.filter_in_place t.heap (fun e -> e.h.cstate = Pending);
    t.cancelled <- 0

  let maybe_compact t =
    if t.cancelled >= compact_floor && t.cancelled >= t.count then compact t

  let drop_corpse t = if t.cancelled > 0 then t.cancelled <- t.cancelled - 1

  let schedule t ~at value =
    let h = { cstate = Pending; cdeadline = at } in
    Heap.push t.heap { deadline = at; seq = t.next_seq; value; h };
    t.next_seq <- t.next_seq + 1;
    t.count <- t.count + 1;
    h

  let cancel t h =
    if h.cstate = Pending then begin
      h.cstate <- Cancelled;
      t.count <- t.count - 1;
      t.cancelled <- t.cancelled + 1;
      maybe_compact t
    end

  let pending t = t.count
  let resident t = t.count + t.cancelled

  (* Record (5) + Heap.t (4) + backing array (capacity + 1) + per
     resident: entry (5) + chandle (3) + int64 box (3). *)
  let words t = 5 + 4 + (Heap.capacity t.heap + 1) + (11 * resident t)

  let rec skip_dead t =
    match Heap.peek t.heap with
    | Some e when e.h.cstate <> Pending ->
      ignore (Heap.pop t.heap : 'a entry option);
      drop_corpse t;
      skip_dead t
    | _ -> ()

  let next_deadline t =
    skip_dead t;
    match Heap.peek t.heap with None -> None | Some e -> Some e.deadline

  let fire_due t ~now ~limit f =
    let rec collect acc =
      skip_dead t;
      match Heap.peek t.heap with
      | Some e when Time_ns.(e.deadline <= now) ->
        ignore (Heap.pop t.heap : 'a entry option);
        collect (e :: acc)
      | _ -> List.rev acc
    in
    let batch = collect [] in
    let scanned = List.length batch in
    let fired = ref 0 in
    List.iter
      (fun e ->
        if e.h.cstate = Pending then
          if !fired < limit then begin
            e.h.cstate <- Fired;
            t.count <- t.count - 1;
            incr fired;
            f e.deadline e.value
          end
          else
            (* Back into the heap with (deadline, seq) intact: the next
               call pops the remainder in the same order. *)
            Heap.push t.heap e
        else drop_corpse t)
      batch;
    Fire_outcome.pack ~scanned ~fired:!fired
end

module Hier : S = struct
  let name = "hierarchical-wheel"

  let levels = 4
  let slots = 64  (* per level; level i tick = tick * 64^i *)

  type 'a entry = { deadline : Time_ns.t; seq : int; value : 'a; h : chandle }

  type 'a t = {
    tick : Time_ns.span;
    wheels : 'a entry list array array;  (* [level].[slot] *)
    mutable overflow : 'a entry list;  (* beyond 64^4 ticks *)
    mutable last_tick : int64;
    mutable count : int;
    mutable cancelled : int;  (* corpses still resident in the wheels *)
    mutable next_seq : int;
    mutable cached_min : Time_ns.t;
    mutable min_valid : bool;
  }

  type handle = chandle

  let create ~tick () =
    if Time_ns.(tick <= 0L) then invalid_arg "Timer_backend.Hier.create: tick must be positive";
    {
      tick;
      wheels = Array.init levels (fun _ -> Array.make slots []);
      overflow = [];
      last_tick = 0L;
      count = 0;
      cancelled = 0;
      next_seq = 0;
      cached_min = Time_ns.zero;
      min_valid = true;
    }

  let tick_of t at = Int64.div at t.tick

  let span_of_level lvl =
    (* 64^(lvl+1) ticks, as int64 *)
    let rec pow acc n = if n = 0 then acc else pow (Int64.mul acc 64L) (n - 1) in
    pow 1L (lvl + 1)

  let drop_corpse t = if t.cancelled > 0 then t.cancelled <- t.cancelled - 1

  let place t e =
    let dt = Int64.max (tick_of t e.deadline) t.last_tick in
    let delta = Int64.sub dt t.last_tick in
    let rec find lvl =
      if lvl >= levels then None
      else if Int64.compare delta (span_of_level lvl) < 0 then Some lvl
      else find (lvl + 1)
    in
    match find 0 with
    | None -> t.overflow <- e :: t.overflow
    | Some lvl ->
      let level_tick = Int64.div (span_of_level lvl) 64L in
      let idx = Int64.to_int (Int64.rem (Int64.div dt level_tick) (Int64.of_int slots)) in
      t.wheels.(lvl).(idx) <- e :: t.wheels.(lvl).(idx)

  (* The same cancel-leak as the list and heap, only spread across the
     level arrays: a corpse in a far slot stays until its slot cascades.
     One pass over every slot (O(levels*slots + resident)) sheds all of
     them. *)
  let compact t =
    for lvl = 0 to levels - 1 do
      for i = 0 to slots - 1 do
        t.wheels.(lvl).(i) <- List.filter (fun e -> e.h.cstate = Pending) t.wheels.(lvl).(i)
      done
    done;
    t.overflow <- List.filter (fun e -> e.h.cstate = Pending) t.overflow;
    t.cancelled <- 0

  let maybe_compact t =
    if t.cancelled >= compact_floor && t.cancelled >= t.count then compact t

  let schedule t ~at value =
    let h = { cstate = Pending; cdeadline = at } in
    let e = { deadline = at; seq = t.next_seq; value; h } in
    t.next_seq <- t.next_seq + 1;
    place t e;
    if t.min_valid then
      if t.count = 0 then t.cached_min <- at else t.cached_min <- Time_ns.min t.cached_min at;
    t.count <- t.count + 1;
    h

  let cancel t h =
    if h.cstate = Pending then begin
      h.cstate <- Cancelled;
      t.count <- t.count - 1;
      t.cancelled <- t.cancelled + 1;
      if t.min_valid && t.count > 0 && Time_ns.(h.cdeadline <= t.cached_min) then
        t.min_valid <- false;
      maybe_compact t
    end

  let pending t = t.count
  let resident t = t.count + t.cancelled

  (* Record (10) + level array (levels + 1) + per-level slot arrays
     (levels * (slots + 1)) + three boxed int64 fields (9) + per
     resident: cons (3) + entry (5) + chandle (3) + int64 box (3). *)
  let words t =
    10 + (levels + 1) + (levels * (slots + 1)) + 9 + (14 * resident t)

  (* Within one level, slots in time order cover disjoint, increasing
     deadline ranges, so the level's minimum lives in its first
     non-empty slot; the global minimum is the least over the levels'
     minima (plus the rarely-populated overflow list). *)
  let sweep_min t =
    let best = ref None in
    let consider e =
      if e.h.cstate = Pending then
        match !best with
        | None -> best := Some e.deadline
        | Some m -> if Time_ns.(e.deadline < m) then best := Some e.deadline
    in
    for lvl = 0 to levels - 1 do
      let level_tick = Int64.div (span_of_level lvl) 64L in
      let cur = Int64.div t.last_tick level_tick in
      let exception Level_done in
      try
        for i = 0 to slots - 1 do
          let idx =
            Int64.to_int (Int64.rem (Int64.add cur (Int64.of_int i)) (Int64.of_int slots))
          in
          let slot = t.wheels.(lvl).(idx) in
          if List.exists (fun e -> e.h.cstate = Pending) slot then begin
            List.iter consider slot;
            raise Level_done
          end
        done
      with Level_done -> ()
    done;
    List.iter consider t.overflow;
    !best

  let next_deadline t =
    if t.count = 0 then None
    else if t.min_valid then Some t.cached_min
    else begin
      match sweep_min t with
      | Some m ->
        t.cached_min <- m;
        t.min_valid <- true;
        Some m
      | None -> None
    end

  (* Advance one level-0 tick: cascade coarser levels first (at a level
     boundary they refill the fine slots of the rotation beginning now,
     including this very tick's slot), then drain the tick's fine slot.
     Entries whose exact deadline lies later within the tick stay. *)
  let advance_one t ~now due =
    let tk = Int64.add t.last_tick 1L in
    t.last_tick <- tk;
    let rec cascade lvl =
      if lvl < levels then begin
        let level_tick = Int64.div (span_of_level lvl) 64L in
        if Int64.rem tk level_tick = 0L then begin
          let idx = Int64.to_int (Int64.rem (Int64.div tk level_tick) (Int64.of_int slots)) in
          let entries = t.wheels.(lvl).(idx) in
          t.wheels.(lvl).(idx) <- [];
          List.iter
            (fun e ->
              if e.h.cstate = Pending then begin
                if Time_ns.(e.deadline <= now) then due := e :: !due else place t e
              end
              else drop_corpse t)
            entries;
          cascade (lvl + 1)
        end
      end
    in
    cascade 1;
    if Int64.rem tk (span_of_level (levels - 1)) = 0L then begin
      let ofl = t.overflow in
      t.overflow <- [];
      List.iter (fun e -> if e.h.cstate = Pending then place t e else drop_corpse t) ofl
    end;
    let idx0 = Int64.to_int (Int64.rem tk 64L) in
    let keep =
      List.filter
        (fun e ->
          match e.h.cstate with
          | Pending ->
            if Time_ns.(e.deadline <= now) then begin
              due := e :: !due;
              false
            end
            else true
          | Cancelled | Fired ->
            drop_corpse t;
            false)
        t.wheels.(0).(idx0)
    in
    t.wheels.(0).(idx0) <- keep

  (* Jump the horizon to [target] without visiting every level-0 tick.
     Valid only when no pending entry is due at or before
     [target * tick]: level-0 entries then sit at slot ticks >= target,
     so only the coarser levels' crossed cascade boundaries (at most 64
     per level) need processing; their entries re-place relative to the
     new horizon. *)
  let fast_forward t target_tick =
    if Int64.compare target_tick t.last_tick > 0 then begin
      let old = t.last_tick in
      t.last_tick <- target_tick;
      for lvl = 1 to levels - 1 do
        let level_tick = Int64.div (span_of_level lvl) 64L in
        let first_idx = Int64.add (Int64.div old level_tick) 1L in
        let last_idx = Int64.div target_tick level_tick in
        let first_idx =
          (* More than a full rotation crossed: every slot cascades once. *)
          if Int64.compare (Int64.sub last_idx first_idx) 64L >= 0 then
            Int64.sub last_idx 63L
          else first_idx
        in
        let i = ref first_idx in
        while Int64.compare !i last_idx <= 0 do
          let idx = Int64.to_int (Int64.rem !i (Int64.of_int slots)) in
          let entries = t.wheels.(lvl).(idx) in
          t.wheels.(lvl).(idx) <- [];
          List.iter (fun e -> if e.h.cstate = Pending then place t e else drop_corpse t) entries;
          i := Int64.add !i 1L
        done
      done;
      if
        Int64.compare
          (Int64.div old (span_of_level (levels - 1)))
          (Int64.div target_tick (span_of_level (levels - 1)))
        <> 0
      then begin
        let ofl = t.overflow in
        t.overflow <- [];
        List.iter (fun e -> if e.h.cstate = Pending then place t e else drop_corpse t) ofl
      end
    end

  let fire_due t ~now ~limit f =
    let now_tick = tick_of t now in
    if t.count = 0 then begin
      t.last_tick <- Int64.max t.last_tick now_tick;
      Fire_outcome.pack ~scanned:0 ~fired:0
    end
    else begin
      let due = ref [] in
      let collect_current_slot () =
        let idx0 = Int64.to_int (Int64.rem t.last_tick 64L) in
        let here, later =
          List.partition
            (fun e -> e.h.cstate = Pending && Time_ns.(e.deadline <= now))
            t.wheels.(0).(idx0)
        in
        t.wheels.(0).(idx0) <- later;
        if here <> [] then begin
          due := here @ !due;
          t.min_valid <- false
        end
      in
      (* Hop from deadline to deadline: fast-forward across the quiet
         stretch before each one, then advance tick-by-tick only through
         its immediate neighbourhood.  Terminates because every
         iteration either removes a pending entry into [due] or exhausts
         the due region. *)
      let rec hop () =
        match next_deadline t with
        | None -> t.last_tick <- Int64.max t.last_tick now_tick
        | Some m when Time_ns.(m > now) ->
          (* Nothing (further) due: skip ahead boundary-wise. *)
          fast_forward t now_tick
        | Some m ->
          let m_tick = Int64.min now_tick (tick_of t m) in
          if Int64.compare (Int64.sub m_tick 1L) t.last_tick > 0 then
            fast_forward t (Int64.sub m_tick 1L);
          collect_current_slot ();
          let stop = Int64.min now_tick (Int64.add m_tick 1L) in
          while Int64.compare t.last_tick stop < 0 do
            advance_one t ~now due
          done;
          collect_current_slot ();
          t.min_valid <- false;
          hop ()
      in
      hop ();
      collect_current_slot ();
      let entries = List.map (fun e -> (e.deadline, e.seq, e.h, e)) !due in
      let outcome =
        fire_sorted ~limit
          ~on_skip:(fun () -> drop_corpse t)
          ~on_requeue:(fun e -> place t e)  (* [place] clamps to the advanced horizon *)
          entries
          (fun e -> e.value)
          f
      in
      let n = Fire_outcome.fired outcome in
      t.count <- t.count - n;
      if n > 0 then t.min_valid <- false;
      outcome
    end
end

module With_metrics (B : S) : S = struct
  type 'a t = 'a B.t

  type handle = B.handle

  let name = B.name

  let m_sched = Metrics.dcounter Metrics.default ("backend." ^ name ^ ".scheduled")
  let m_cancel = Metrics.dcounter Metrics.default ("backend." ^ name ^ ".cancelled")
  let m_fired = Metrics.dcounter Metrics.default ("backend." ^ name ^ ".fired")

  let create = B.create

  let schedule t ~at v =
    Metrics.dincr m_sched;
    B.schedule t ~at v

  let cancel t h =
    Metrics.dincr m_cancel;
    B.cancel t h

  let pending = B.pending
  let resident = B.resident
  let next_deadline = B.next_deadline
  let words = B.words

  let fire_due t ~now ~limit f =
    let outcome = B.fire_due t ~now ~limit f in
    Metrics.dincr ~by:(Fire_outcome.fired outcome) m_fired;
    outcome
end

let all : (module S) list =
  [ (module Sorted_list); (module Binary_heap); (module Hier) ]
