type item =
  | Quantum of Kernel.step
  | Emit of (Time_ns.t -> unit)

(* One cursor per script: [next] is the continuation of every quantum
   in it, advancing [rest] instead of closing over it, so a script of
   any length builds one closure and one ref. *)
let run m items k =
  let rest = ref items in
  let rec next (_ : Time_ns.t) =
    match !rest with
    | [] -> k (Engine.now (Machine.engine m))
    | Quantum s :: tl ->
      rest := tl;
      Machine.submit_quantum m ?attr:(Kernel.step_attr s) ~prio:s.Kernel.prio
        ~work_us:s.Kernel.work_us ~trigger:s.Kernel.trigger next
    | Emit f :: tl ->
      rest := tl;
      let now = Engine.now (Machine.engine m) in
      f now;
      next now
  in
  next Time_ns.zero

let quantum s = Quantum s
let emit f = Emit f
