(* A slot is a quantum of [steps.(i)] ([tags.(i) < 0]) or an action
   ([tags.(i) >= 0]: the pool's [act] on that tag and [ops.(i)]).  A
   quantum runs for its template's own [work_us] ([own_work]) or for
   [work.(i)] us ([slot_work]). *)
let own_work = -1
let slot_work = -2

type 'a pool = {
  machine : Machine.t;
  act : int -> 'a -> unit;
  scale : float;  (* Costs.scale_us's factor for the machine's profile *)
  mutable free : 'a script array;  (* stack of idle buffers *)
  mutable nfree : int;
}

and 'a script = {
  pool : 'a pool;
  mutable steps : Kernel.step array;
  mutable work : Float.Array.t;
  mutable tags : int array;
  mutable ops : 'a array;  (* empty until the first action *)
  mutable len : int;
  mutable pos : int;
  mutable next : Time_ns.t -> unit;  (* the cursor, built once *)
}

let pool machine ~act =
  {
    machine;
    act;
    scale = Costs.scale_us (Machine.profile machine) 1.0;
    free = [||];
    nfree = 0;
  }

let release s =
  let p = s.pool in
  if p.nfree = Array.length p.free then begin
    let grown = Array.make (Int.max 4 (2 * p.nfree)) s in
    Array.blit p.free 0 grown 0 p.nfree;
    p.free <- grown
  end;
  Array.unsafe_set p.free p.nfree s;
  p.nfree <- p.nfree + 1

let[@inline] submit s st work_us =
  Machine.submit_quantum s.pool.machine ?attr:(Kernel.step_attr st) ~prio:st.Kernel.prio
    ~work_us ~trigger:st.Kernel.trigger s.next

(* The cursor: every quantum of the script continues here, so a script
   of any length runs on its buffer's one [next] closure.  The buffer
   goes back to the pool when the cursor passes its last slot. *)
let[@hot] rec advance s =
  if s.pos >= s.len then release s
  else begin
    let i = s.pos in
    s.pos <- i + 1;
    let tag = Array.unsafe_get s.tags i in
    if tag >= 0 then begin
      s.pool.act tag (Array.unsafe_get s.ops i);
      advance s
    end
    else begin
      let st = Array.unsafe_get s.steps i in
      (* [submit_quantum] takes its work as a float argument: the
         template's box is passed as it is, a slot's work is boxed. *)
      if tag = own_work then submit s st st.Kernel.work_us
      else submit s st (Float.Array.unsafe_get s.work i)
    end
  end

(* ALLOC001/2: a pool miss builds a buffer and its cursor closure; pools
   grow on demand only, so the steady path never gets here. *)
let fresh p =
  let s =
    {
      pool = p;
      steps = [||];
      work = Float.Array.make 8 0.0;
      tags = Array.make 8 own_work;
      ops = [||];
      len = 0;
      pos = 0;
      next = ignore;
    }
  in
  s.next <- (fun _ -> advance s);
  s
[@@lint.allow "ALLOC001"] [@@lint.allow "ALLOC002"]

let[@hot] script p =
  if p.nfree = 0 then fresh p
  else begin
    p.nfree <- p.nfree - 1;
    let s = Array.unsafe_get p.free p.nfree in
    s.len <- 0;
    s.pos <- 0;
    s
  end

(* Double every slot array.  [steps] and [ops] start empty and are
   made at their first write, with the written value as the filler. *)
let double a = if Array.length a = 0 then a else Array.append a a

let grow s =
  let n = Array.length s.tags in
  let tags = Array.make (2 * n) own_work in
  Array.blit s.tags 0 tags 0 n;
  s.tags <- tags;
  let work = Float.Array.make (2 * n) 0.0 in
  Float.Array.blit s.work 0 work 0 n;
  s.work <- work;
  s.steps <- double s.steps;
  s.ops <- double s.ops

let[@hot][@inline] slot s =
  if s.len = Array.length s.tags then grow s;
  let i = s.len in
  s.len <- i + 1;
  i

let[@hot][@inline] push_step s tpl tag =
  let i = slot s in
  if Array.length s.steps = 0 then s.steps <- Array.make (Array.length s.tags) tpl;
  Array.unsafe_set s.steps i tpl;
  Array.unsafe_set s.tags i tag;
  i

let[@hot] push s tpl = ignore (push_step s tpl own_work : int)

let[@hot][@inline] push_us s tpl work_us =
  Float.Array.unsafe_set s.work (push_step s tpl slot_work) work_us

(* The step's entry cost plus its body scaled to the machine's clock,
   term for term as [Kernel.step_syscall] and [Kernel.step_user] build
   [work_us]; the factor is [Costs.scale_us]'s, taken once. *)
let[@hot] push_body s tpl body_us =
  let scaled = body_us *. s.pool.scale in
  let entry = tpl.Kernel.entry_us in
  push_us s tpl (if entry > 0.0 then entry +. scaled else scaled)

let[@hot] push_act s tag op =
  if tag < 0 then invalid_arg "Exec.push_act: negative tag";
  let i = slot s in
  if Array.length s.ops = 0 then s.ops <- Array.make (Array.length s.tags) op;
  Array.unsafe_set s.ops i op;
  Array.unsafe_set s.tags i tag

let[@hot] run s = advance s
