type event =
  | Trigger of string
  | Soft_sched of { id : int; due : Time_ns.t }
  | Soft_fire of { id : int; due : Time_ns.t; delay : Time_ns.span }
  | Soft_cancel of { id : int; due : Time_ns.t }
  | Soft_check of { src : string; scanned : int; fired : int }
  | Cpu_run of { cpu : int; klass : int; dur : Time_ns.span }
  | Irq of { line : string; cpu : int; dur : Time_ns.span }
  | Irq_raised of { line : string }
  | Irq_lost of { line : string }
  | Cpu_busy of { cpu : int }
  | Cpu_idle of { cpu : int }
  | Pkt_enqueue of { nic : string; qlen : int }
  | Pkt_tx of { nic : string }
  | Pkt_rx of { nic : string; batch : int }
  | Pkt_drop of { nic : string }
  | Poll of { found : int }
  | Rbc_send
  | Mark of string

type record = { at : Time_ns.t; ev : event }

type t = {
  buf : record array;  (* ring; slot [head] is the oldest record *)
  mutable head : int;
  mutable len : int;
  mutable dropped : int;
}

let dummy = { at = Time_ns.zero; ev = Mark "" }

let create ?(capacity = 65536) () =
  if capacity <= 0 then invalid_arg "Trace.create: capacity must be positive";
  { buf = Array.make capacity dummy; head = 0; len = 0; dropped = 0 }

(* The installed consumers: the ring-buffer sink and a synchronous tap
   (the runtime sanitizer, lib/check), which sees every emitted event
   whether or not a ring is installed.  They share one domain-local
   record whose [armed] flag caches "either is present", so the
   disabled path of every emitter is one DLS load and one branch.  A
   freshly spawned domain starts with neither, so parallel experiment
   workers (lib/parallel) never write into a ring installed by the main
   domain — each worker captures into its own ring, which the runner
   then {!absorb}s into the parent's in deterministic job order. *)
type consumers = {
  mutable sink : t option;
  mutable tap : (at:Time_ns.t -> event -> unit) option;
  mutable armed : bool;
}

let consumers : consumers Domain.DLS.key =
  Domain.DLS.new_key (fun () -> { sink = None; tap = None; armed = false })

let set_consumers ~sink ~tap =
  let c = Domain.DLS.get consumers in
  c.sink <- sink;
  c.tap <- tap;
  c.armed <- Option.is_some sink || Option.is_some tap

let install t = set_consumers ~sink:(Some t) ~tap:(Domain.DLS.get consumers).tap
let uninstall () = set_consumers ~sink:None ~tap:(Domain.DLS.get consumers).tap
let installed () = (Domain.DLS.get consumers).sink
let enabled () = Option.is_some (installed ())
let set_tap f = set_consumers ~sink:(installed ()) ~tap:f
let tap_installed () = Option.is_some (Domain.DLS.get consumers).tap
let[@inline] armed () = (Domain.DLS.get consumers).armed

let capacity t = Array.length t.buf
let length t = t.len
let dropped t = t.dropped
let total t = t.len + t.dropped

let clear t =
  t.head <- 0;
  t.len <- 0;
  t.dropped <- 0

(* Ring overflow is easy to miss (the trace still looks complete); the
   metric makes it visible in every metrics dump, and the exporters add
   a warning banner keyed off [dropped t]. *)
let m_dropped = Metrics.dcounter Metrics.default "trace.dropped"

let push t r =
  let cap = Array.length t.buf in
  if t.len = cap then begin
    (* Full: overwrite the oldest record. *)
    t.buf.(t.head) <- r;
    t.head <- (t.head + 1) mod cap;
    t.dropped <- t.dropped + 1;
    Metrics.dincr m_dropped
  end
  else begin
    t.buf.((t.head + t.len) mod cap) <- r;
    t.len <- t.len + 1
  end

let iter t f =
  let cap = Array.length t.buf in
  for i = 0 to t.len - 1 do
    f t.buf.((t.head + i) mod cap)
  done

let to_list t =
  let acc = ref [] in
  iter t (fun r -> acc := r :: !acc);
  List.rev !acc

(* Emitters.  Each one checks {!armed} before constructing the record,
   so a disabled trace costs one load and a branch.  ALLOC002 on [emit]
   and the CPU emitters, which the machine's [@hot] roots reach:
   records are built only while [armed]. *)
let emit ~at ev =
  let c = Domain.DLS.get consumers in
  (match c.tap with None -> () | Some f -> f ~at ev);
  match c.sink with None -> () | Some t -> push t { at; ev }
[@@lint.allow "ALLOC002"]

let trigger ~at kind = if armed () then emit ~at (Trigger kind)
let soft_sched ~at ~id ~due = if armed () then emit ~at (Soft_sched { id; due })

let soft_fire ~at ~id ~due =
  if armed () then emit ~at (Soft_fire { id; due; delay = Time_ns.(at - due) })

let soft_cancel ~at ~id ~due = if armed () then emit ~at (Soft_cancel { id; due })

let soft_check ~at ~src ~scanned ~fired =
  if armed () then emit ~at (Soft_check { src; scanned; fired })

let cpu_run ~at ~cpu ~klass ~dur =
  if armed () then emit ~at (Cpu_run { cpu; klass; dur })
[@@lint.allow "ALLOC002"]
let irq ~at ~line ~cpu ~dur = if armed () then emit ~at (Irq { line; cpu; dur })
let irq_raised ~at ~line = if armed () then emit ~at (Irq_raised { line })
let irq_lost ~at ~line = if armed () then emit ~at (Irq_lost { line })
let cpu_busy ~at ~cpu = if armed () then emit ~at (Cpu_busy { cpu }) [@@lint.allow "ALLOC002"]
let cpu_idle ~at ~cpu = if armed () then emit ~at (Cpu_idle { cpu }) [@@lint.allow "ALLOC002"]
let pkt_enqueue ~at ~nic ~qlen = if armed () then emit ~at (Pkt_enqueue { nic; qlen })
let pkt_tx ~at ~nic = if armed () then emit ~at (Pkt_tx { nic })
let pkt_rx ~at ~nic ~batch = if armed () then emit ~at (Pkt_rx { nic; batch })
let pkt_drop ~at ~nic = if armed () then emit ~at (Pkt_drop { nic })
let poll ~at ~found = if armed () then emit ~at (Poll { found })
let rbc_send ~at = if armed () then emit ~at Rbc_send
let mark ~at s = if armed () then emit ~at (Mark s)

let sim_start_mark = "sim.start"
let sim_start ~at = mark ~at sim_start_mark

(* Replay a worker ring into this domain's consumers, oldest first,
   through [emit] so the tap and the installed ring both see the
   records; then account the worker's own overflow so [dropped]/
   [total] — and the digest that folds them — match what one shared
   sequential ring would have reported. *)
let absorb src =
  iter src (fun r -> emit ~at:r.at r.ev);
  let d = dropped src in
  if d > 0 then
    match installed () with
    | None -> ()
    | Some dst -> dst.dropped <- dst.dropped + d
