(* The hashed timing wheel as a native [Timer_store.S] (it matches the
   signature structurally; [Timer_store.wheel] hands it out as is).

   Entries live in a generation-stamped slab: parallel int arrays for
   deadline, tie position, generation, location and the intrusive
   per-slot links, one value array, and one array holding the caller's
   boxed deadline — the box [schedule] was given is the box [fire_due]
   and [handle_deadline] hand back, so neither re-boxes.  All wheel
   arithmetic runs on the immediate-int deadlines.  A handle is an
   immediate int, [(generation lsl idx_bits) lor idx]; the generation
   is bumped whenever the entry is freed, so a stale handle never
   validates.  The slab grows on demand (doubling) and is never
   pre-sized.

   Cancel unlinks at once and re-arm relinks in place with a fresh tie
   position, so the wheel holds no corpses: [resident = pending].

   Each slot is an intrusive doubly-linked list, and an occupancy
   bitmap (32 slots per word, the Eiffel / Pacing_wheel scan) lets the
   two sweeps — collecting a due batch and recomputing the earliest
   deadline — visit only occupied slots.  The due sweep starts at the
   cached minimum's slot, so a fire after a long idle stretch costs
   O(occupied slots swept), not O(ticks since the previous fire).

   [fire_due] collects the due batch into a reusable int buffer and
   heap-sorts it in place by (deadline, tie).  With the earliest
   deadline memoised as an option over the caller's box, the steady
   schedule / check / fire / reschedule cycle allocates nothing. *)

let name = "wheel"
let default_slots = 512

(* 25 index bits allow 33M concurrent timers; the remaining 37 bits of
   generation outlast any run. *)
let idx_bits = 25
let idx_mask = (1 lsl idx_bits) - 1

(* Location codes: a slot index in [0, slots), or one of these. *)
let loc_free = -1
let loc_batch = -2  (* extracted into the running fire_due batch *)

type 'a handle = int

type 'a t = {
  slots_n : int;
  tick_span : Time_ns.span;
  tick_i : int;  (* ns per slot *)
  heads : int array;  (* slot -> first entry, -1 when empty *)
  occ : int array;  (* occupancy bitmap, 32 slots per word *)
  mutable cap : int;
  mutable dl : int array;  (* deadline, ns *)
  mutable tie : int array;  (* tie position: fresh on schedule and re-arm *)
  mutable gen : int array;
  mutable loc : int array;
  mutable nxt : int array;  (* slot-list successor; freelist link when free *)
  mutable prv : int array;
  mutable vals : 'a array;  (* length 0 until the first schedule *)
  mutable ats : Time_ns.t array;  (* the caller's deadline box *)
  mutable free : int;  (* freelist head, -1 when empty *)
  mutable batch : int array;  (* reusable fire_due buffer of entry indices *)
  mutable count : int;
  mutable next_seq : int;
  mutable last_tick : int;  (* tick up to which slots were swept *)
  mutable min_idx : int;  (* earliest in-slot entry, when [min_ok] *)
  mutable min_ok : bool;
  mutable min_opt : Time_ns.t option;  (* memo of [Some ats.(min_idx)] *)
  mutable visits : int;  (* slot lists walked by the sweeps *)
}

let create_sized ~slots ~tick () =
  if Time_ns.(tick <= 0L) then invalid_arg "Timing_wheel.create: tick must be positive";
  if slots <= 0 then invalid_arg "Timing_wheel.create: slots must be positive";
  {
    slots_n = slots;
    tick_span = tick;
    tick_i = Int64.to_int tick;
    heads = Array.make slots (-1);
    occ = Array.make ((slots + 31) lsr 5) 0;
    cap = 0;
    dl = [||];
    tie = [||];
    gen = [||];
    loc = [||];
    nxt = [||];
    prv = [||];
    vals = [||];
    ats = [||];
    free = -1;
    batch = [||];
    count = 0;
    next_seq = 0;
    last_tick = 0;
    min_idx = -1;
    min_ok = false;
    min_opt = None;
    visits = 0;
  }

let create ~tick () = create_sized ~slots:default_slots ~tick ()

let slots t = t.slots_n
let tick t = t.tick_span
let pending t = t.count
let resident t = t.count
let slot_visits t = t.visits

(* ---- occupancy bitmap --------------------------------------------- *)

let set_bit occ s = occ.(s lsr 5) <- occ.(s lsr 5) lor (1 lsl (s land 31))
let clear_bit occ s = occ.(s lsr 5) <- occ.(s lsr 5) land lnot (1 lsl (s land 31))

(* Index of the lowest set bit of a nonzero 32-bit word. *)
let lsb w =
  let x = ref (w land -w) in
  let n = ref 0 in
  if !x land 0xFFFF = 0 then begin
    n := 16;
    x := !x lsr 16
  end;
  if !x land 0xFF = 0 then begin
    n := !n + 8;
    x := !x lsr 8
  end;
  if !x land 0xF = 0 then begin
    n := !n + 4;
    x := !x lsr 4
  end;
  if !x land 0x3 = 0 then begin
    n := !n + 2;
    x := !x lsr 2
  end;
  if !x land 0x1 = 0 then incr n;
  !n

(* First occupied slot at or after [from], without wrapping; [slots_n]
   when there is none. *)
let next_occupied t from =
  let res = ref t.slots_n in
  let iw = ref (from lsr 5) in
  let first = t.occ.(!iw) land (-1 lsl (from land 31)) in
  if first <> 0 then res := (!iw lsl 5) + lsb first
  else begin
    incr iw;
    let nw = Array.length t.occ in
    while !res = t.slots_n && !iw < nw do
      let w = t.occ.(!iw) in
      if w <> 0 then res := (!iw lsl 5) + lsb w;
      incr iw
    done
  end;
  !res

(* Both sweeps walk up to [span] consecutive ticks, the first of them in
   slot [s0].  Offset of the first occupied slot at offset [off] or
   later, or [span] when there is none before it. *)
let next_visit t ~s0 ~off ~span =
  let n = t.slots_n in
  let off = ref off and res = ref span in
  while !off < span do
    let s = if s0 + !off >= n then s0 + !off - n else s0 + !off in
    let occ = next_occupied t s in
    if occ >= n then off := !off + (n - s)
    else begin
      let o = !off + (occ - s) in
      if o < span then res := o;
      off := span
    end
  done;
  !res

let slot_at t ~s0 ~off = if s0 + off >= t.slots_n then s0 + off - t.slots_n else s0 + off

(* ---- slab ---------------------------------------------------------- *)

let grow_ints a cap ncap fill =
  let b = Array.make ncap fill in
  Array.blit a 0 b 0 cap;
  b

(* Doubling growth; the new indices join the freelist lowest first.
   [v] fills the new value cells (it is about to occupy one of them). *)
let grow t v =
  let cap = t.cap in
  let ncap = if cap = 0 then 16 else cap * 2 in
  if ncap - 1 > idx_mask then invalid_arg "Timing_wheel: too many concurrent timers";
  t.dl <- grow_ints t.dl cap ncap 0;
  t.tie <- grow_ints t.tie cap ncap 0;
  t.gen <- grow_ints t.gen cap ncap 0;
  t.loc <- grow_ints t.loc cap ncap loc_free;
  t.nxt <- grow_ints t.nxt cap ncap (-1);
  t.prv <- grow_ints t.prv cap ncap (-1);
  let vals = Array.make ncap v in
  Array.blit t.vals 0 vals 0 cap;
  t.vals <- vals;
  let ats = Array.make ncap Time_ns.zero in
  Array.blit t.ats 0 ats 0 cap;
  t.ats <- ats;
  for i = cap to ncap - 2 do
    t.nxt.(i) <- i + 1
  done;
  t.nxt.(ncap - 1) <- t.free;
  t.free <- cap;
  t.cap <- ncap

let alloc t v =
  if t.free < 0 then grow t v;
  let i = t.free in
  t.free <- t.nxt.(i);
  t.vals.(i) <- v;
  i

(* The value stays in its cell until reuse (bounded by the slab's peak
   occupancy, as in Engine); the deadline box is dropped at once. *)
let release t i =
  t.gen.(i) <- t.gen.(i) + 1;
  t.loc.(i) <- loc_free;
  t.ats.(i) <- Time_ns.zero;
  t.nxt.(i) <- t.free;
  t.free <- i

let valid t h =
  let i = h land idx_mask in
  i < t.cap && t.gen.(i) = h lsr idx_bits && t.loc.(i) <> loc_free

(* ---- slot lists ---------------------------------------------------- *)

(* Deadlines before the sweep horizon land in the horizon's slot, so
   the next sweep finds them; the exact deadline is kept. *)
let link t i =
  let tk = t.dl.(i) / t.tick_i in
  let tk = if tk < t.last_tick then t.last_tick else tk in
  let s = tk mod t.slots_n in
  let h = t.heads.(s) in
  t.nxt.(i) <- h;
  t.prv.(i) <- -1;
  if h >= 0 then t.prv.(h) <- i else set_bit t.occ s;
  t.heads.(s) <- i;
  t.loc.(i) <- s

let unlink t i =
  let s = t.loc.(i) in
  let p = t.prv.(i) and n = t.nxt.(i) in
  if p >= 0 then t.nxt.(p) <- n else t.heads.(s) <- n;
  if n >= 0 then t.prv.(n) <- p;
  if t.heads.(s) < 0 then clear_bit t.occ s

(* ---- earliest deadline ---------------------------------------------- *)

let e_sweep = Profile.intern [ "wheel"; "sweep_min_scan" ]

(* Recompute the earliest in-slot deadline: walk occupied slots in time
   order from the sweep horizon.  An entry due within the slot being
   visited beats everything in later slots, so the walk usually stops
   at the first occupied slot; a full pass is the worst case.  Entries
   of a running fire_due batch are not in any slot and not considered
   (when nothing else is pending, [min_ok] stays false). *)
let find_min t =
  Profile.event e_sweep;
  let n = t.slots_n in
  let s0 = t.last_tick mod n in
  let best = ref (-1) in
  let best_dl = ref max_int in
  let off = ref (next_visit t ~s0 ~off:0 ~span:n) in
  while !off < n do
    t.visits <- t.visits + 1;
    let i = ref t.heads.(slot_at t ~s0 ~off:!off) in
    while !i >= 0 do
      let d = t.dl.(!i) in
      if d < !best_dl then begin
        best := !i;
        best_dl := d
      end;
      i := t.nxt.(!i)
    done;
    let slot_end = (t.last_tick + !off + 1) * t.tick_i in
    off := if !best_dl < slot_end then n else next_visit t ~s0 ~off:(!off + 1) ~span:n
  done;
  if !best >= 0 then begin
    t.min_idx <- !best;
    t.min_ok <- true
  end

(* A newly linked entry [i] can only lower the minimum. *)
let note_linked t i =
  if t.count = 0 then begin
    t.min_idx <- i;
    t.min_ok <- true
  end
  else if t.min_ok && t.dl.(i) < t.dl.(t.min_idx) then t.min_idx <- i

(* The option cell is the signature's return type: one is built per
   change of the earliest entry, and every check in between returns the
   memo. *)
let[@hot] next_deadline t =
  if t.count = 0 then None
  else begin
    if not t.min_ok then find_min t;
    if not t.min_ok then None
    else begin
      let b = t.ats.(t.min_idx) in
      match t.min_opt with
      | Some c when c == b -> t.min_opt
      | Some _ | None ->
        let o = (Some b [@lint.allow "ALLOC002"]) in
        t.min_opt <- o;
        o
    end
  end

(* ---- schedule / cancel / re-arm ----------------------------------- *)

let insert t ~at ~at_i v =
  let i = alloc t v in
  t.dl.(i) <- at_i;
  t.ats.(i) <- at;
  t.tie.(i) <- t.next_seq;
  t.next_seq <- t.next_seq + 1;
  link t i;
  note_linked t i;
  t.count <- t.count + 1;
  (t.gen.(i) lsl idx_bits) lor i

let[@hot] schedule t ~at v = insert t ~at ~at_i:(Int64.to_int at) v

(* The wheel hands the caller's box back on fire, so an int deadline is
   boxed once here. *)
let schedule_i t ~at_i v = insert t ~at:(Int64.of_int at_i) ~at_i v

let cancel t h =
  if valid t h then begin
    let i = h land idx_mask in
    if t.loc.(i) >= 0 then unlink t i;
    release t i;
    t.count <- t.count - 1;
    if t.min_ok && t.min_idx = i then t.min_ok <- false
  end

(* In place: new deadline and a fresh tie position under the same
   handle.  An entry of the running batch is relinked, which takes it
   out of the batch. *)
let[@hot] rearm t h ~at =
  if not (valid t h) then false
  else begin
    let i = h land idx_mask in
    if t.loc.(i) >= 0 then unlink t i;
    let old = t.dl.(i) in
    let d = Int64.to_int at in
    t.dl.(i) <- d;
    t.ats.(i) <- at;
    t.tie.(i) <- t.next_seq;
    t.next_seq <- t.next_seq + 1;
    link t i;
    if t.min_ok then begin
      if t.min_idx = i then (if d > old then t.min_ok <- false)
      else if d < t.dl.(t.min_idx) then t.min_idx <- i
    end;
    true
  end

let handle_pending t h = valid t h
let handle_deadline t h = if valid t h then t.ats.(h land idx_mask) else Time_ns.zero

(* ---- fire ---------------------------------------------------------- *)

let push_batch t n i =
  if n = Array.length t.batch then
    t.batch <- grow_ints t.batch n (if n = 0 then 16 else 2 * n) 0;
  t.batch.(n) <- i

(* Sweep [span] consecutive ticks from [start_tick], visiting occupied
   slots only, and move every entry due at [now_i] into the batch.
   Returns the batch size. *)
let collect t ~now_i ~start_tick ~span =
  let s0 = start_tick mod t.slots_n in
  let nb = ref 0 in
  let off = ref (next_visit t ~s0 ~off:0 ~span) in
  while !off < span do
    t.visits <- t.visits + 1;
    let i = ref t.heads.(slot_at t ~s0 ~off:!off) in
    while !i >= 0 do
      let e = !i in
      i := t.nxt.(e);
      if t.dl.(e) <= now_i then begin
        unlink t e;
        t.loc.(e) <- loc_batch;
        push_batch t !nb e;
        incr nb
      end
    done;
    off := next_visit t ~s0 ~off:(!off + 1) ~span
  done;
  !nb

(* Batch order: (deadline, tie), by an in-place heap sort over entry
   indices. *)
let before t a b =
  let da = t.dl.(a) and db = t.dl.(b) in
  da < db || (da = db && t.tie.(a) < t.tie.(b))

let rec sift_down t b i n =
  let l = (2 * i) + 1 in
  if l < n then begin
    let r = l + 1 in
    let c = if r < n && before t b.(l) b.(r) then r else l in
    if before t b.(i) b.(c) then begin
      let x = b.(i) in
      b.(i) <- b.(c);
      b.(c) <- x;
      sift_down t b c n
    end
  end

let sort_batch t n =
  let b = t.batch in
  for i = (n / 2) - 1 downto 0 do
    sift_down t b i n
  done;
  for last = n - 1 downto 1 do
    let x = b.(0) in
    b.(0) <- b.(last);
    b.(last) <- x;
    sift_down t b 0 last
  done

let[@hot] fire_due t ?prefetch:_ ~now ~limit f =
  let now_i = Int64.to_int now in
  let now_tick = now_i / t.tick_i in
  if t.count > 0 && not t.min_ok then find_min t;
  if t.count = 0 || (not t.min_ok) || t.dl.(t.min_idx) > now_i then begin
    (* Nothing due: no slot before [now_tick] holds a due entry, so the
       sweep horizon may jump ahead in O(1). *)
    if now_tick > t.last_tick then t.last_tick <- now_tick;
    Fire_outcome.pack ~scanned:0 ~fired:0
  end
  else begin
    let min_tick = t.dl.(t.min_idx) / t.tick_i in
    let start_tick = if min_tick > t.last_tick then min_tick else t.last_tick in
    let ticks = now_tick - start_tick + 1 in
    let nb = collect t ~now_i ~start_tick ~span:(if ticks < t.slots_n then ticks else t.slots_n) in
    if now_tick > t.last_tick then t.last_tick <- now_tick;
    t.min_ok <- false;
    sort_batch t nb;
    let fired = ref 0 in
    for k = 0 to nb - 1 do
      let e = t.batch.(k) in
      (* Re-check before dispatch: an earlier callback may have
         cancelled this entry (freed) or re-armed it (relinked). *)
      if t.loc.(e) = loc_batch then
        if !fired < limit then begin
          let at = t.ats.(e) and v = t.vals.(e) in
          release t e;
          t.count <- t.count - 1;
          incr fired;
          f at v
        end
        else begin
          (* Budget exhausted: back into the horizon slot with deadline
             and tie position intact, so the next call dispatches the
             remainder in the same order. *)
          link t e;
          if t.min_ok && t.dl.(e) < t.dl.(t.min_idx) then t.min_idx <- e
        end
    done;
    Fire_outcome.pack ~scanned:nb ~fired:!fired
  end

(* ---- introspection ------------------------------------------------- *)

(* Analytic heap footprint, 64-bit words: the record (24 with header)
   and its boxed tick (3), the slot heads and bitmap, eight slab arrays
   of [cap] cells, the batch buffer, one boxed deadline (3) per pending
   entry and the memoised option (2). *)
let words t =
  let arr n = if n = 0 then 0 else n + 1 in
  27
  + arr t.slots_n
  + arr (Array.length t.occ)
  + (8 * arr t.cap)
  + arr (Array.length t.batch)
  + (3 * t.count)
  + match t.min_opt with Some _ -> 2 | None -> 0

let iter_pending t f =
  for i = 0 to t.cap - 1 do
    if t.loc.(i) <> loc_free then f t.ats.(i) t.vals.(i)
  done
