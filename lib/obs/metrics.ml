(* The two Hashtbl iterations below never let bucket order reach any
   output: [reset] zeroes instruments regardless of visit order, and
   [iter] folds the names out only to sort them before reading. *)
[@@@lint.allow "DET004"]

(* Instruments are dense integer handles into per-domain value arrays
   (below); the registry only remembers the id, so the handle binding
   itself carries no mutable state and the RACE rules have nothing to
   flag at registration sites. *)
type dcounter = int
type dhistogram = int

type instrument =
  | I_probe of (unit -> float)
  | I_dcounter of int
  | I_dhdr of int

type t = { tbl : (string, instrument) Hashtbl.t }

let create () = { tbl = Hashtbl.create 64 }

(* ------------------------------------------------------------------ *)
(* Domain-local value storage.  Ids are allocated process-wide (module
   initialisation runs before any domain spawns, so the id space is
   fixed by the time workers exist); each domain keeps a private array
   pair, and the parallel runner merges worker contexts back into the
   parent in deterministic job order via [Local].

   Every context is sized to the id space whenever it is created or
   installed, and a registration grows the calling domain's context, so
   [dincr] and [drecord] index without a bounds-growth branch and never
   reach an allocation from the hot paths that record.                 *)

let next_dcounter = Atomic.make 0
let next_dhdr = Atomic.make 0

type local = { mutable lc : int array; mutable lh : Hdr.t array }

let ensure_lc l n =
  if Array.length l.lc < n then begin
    let a = Array.make (let m = n * 2 in if m < 64 then 64 else m) 0 in
    Array.blit l.lc 0 a 0 (Array.length l.lc);
    l.lc <- a
  end

let ensure_lh l n =
  if Array.length l.lh < n then begin
    let old = l.lh in
    let len = Array.length old in
    let a =
      Array.init
        (let m = n * 2 in if m < 8 then 8 else m)
        (fun i -> if i < len then old.(i) else Hdr.create ())
    in
    l.lh <- a
  end

(* Cover every id registered so far. *)
let cover l =
  ensure_lc l (Atomic.get next_dcounter);
  ensure_lh l (Atomic.get next_dhdr);
  l

let fresh_local () = cover { lc = [||]; lh = [||] }
let local_key : local Domain.DLS.key = Domain.DLS.new_key fresh_local

let dincr ?(by = 1) (id : dcounter) =
  let l = Domain.DLS.get local_key in
  l.lc.(id) <- l.lc.(id) + by

let dcounter_value (id : dcounter) =
  let l = Domain.DLS.get local_key in
  if id < Array.length l.lc then l.lc.(id) else 0

let drecord (id : dhistogram) v = Hdr.record (Domain.DLS.get local_key).lh.(id) v

let dhistogram_hdr (id : dhistogram) =
  let l = Domain.DLS.get local_key in
  ensure_lh l (id + 1);
  l.lh.(id)

module Local = struct
  type ctx = local

  let swap ctx =
    let prev = Domain.DLS.get local_key in
    Domain.DLS.set local_key (cover ctx);
    prev

  let swap_fresh () = swap (fresh_local ())

  let absorb (ctx : ctx) =
    let l = Domain.DLS.get local_key in
    ensure_lc l (Array.length ctx.lc);
    Array.iteri (fun i v -> if v <> 0 then l.lc.(i) <- l.lc.(i) + v) ctx.lc;
    ensure_lh l (Array.length ctx.lh);
    Array.iteri
      (fun i h -> if Hdr.count h > 0 then l.lh.(i) <- Hdr.merge l.lh.(i) h)
      ctx.lh
end

(* RACE002: the process-wide registry all library instruments hang off.
   The table itself is only extended during module init and sequential
   setup (instrument interning and probe registration), never from
   parallel jobs.  Counter and histogram values do not live in it: they
   sit in each domain's [local] context above, so workers never share
   one. *)
let default = create () [@@lint.allow "RACE002"]

let kind_name = function
  | I_probe _ -> "probe"
  | I_dcounter _ -> "counter"
  | I_dhdr _ -> "histogram"

let wrong_kind name want got =
  invalid_arg
    (Printf.sprintf "Metrics: %S is a %s, not a %s" name (kind_name got) want)

let probe t name f =
  match Hashtbl.find_opt t.tbl name with
  | Some (I_probe _) | None -> Hashtbl.replace t.tbl name (I_probe f)
  | Some other -> wrong_kind name "probe" other

let dcounter t name =
  match Hashtbl.find_opt t.tbl name with
  | Some (I_dcounter id) -> id
  | Some other -> wrong_kind name "counter" other
  | None ->
    let id = Atomic.fetch_and_add next_dcounter 1 in
    Hashtbl.replace t.tbl name (I_dcounter id);
    ignore (cover (Domain.DLS.get local_key) : local);
    id

let dhistogram t name =
  match Hashtbl.find_opt t.tbl name with
  | Some (I_dhdr id) -> id
  | Some other -> wrong_kind name "histogram" other
  | None ->
    let id = Atomic.fetch_and_add next_dhdr 1 in
    Hashtbl.replace t.tbl name (I_dhdr id);
    ignore (cover (Domain.DLS.get local_key) : local);
    id

let reset t =
  (* Instruments are held by reference at registration sites, so zero
     them in place.  Probes are kept: they are registered explicitly
     (often at module init or facility attach) and dropping them made
     the second run in one process silently lose its pull-style metrics
     — a re-registration under the same name still replaces. *)
  Hashtbl.iter
    (fun _name i ->
      match i with
      | I_probe _ -> ()
      | I_dcounter id ->
        let l = Domain.DLS.get local_key in
        if id < Array.length l.lc then l.lc.(id) <- 0
      | I_dhdr id ->
        let l = Domain.DLS.get local_key in
        if id < Array.length l.lh then Hdr.clear l.lh.(id))
    t.tbl

type value = Counter of int | Histogram of Hdr.t | Probe of float

let iter t f =
  let names = Hashtbl.fold (fun name _ acc -> name :: acc) t.tbl [] in
  List.iter
    (fun name ->
      match Hashtbl.find t.tbl name with
      | I_probe p -> f name (Probe (p ()))
      | I_dcounter id -> f name (Counter (dcounter_value id))
      | I_dhdr id -> f name (Histogram (dhistogram_hdr id)))
    (List.sort String.compare names)

let dump t =
  let b = Buffer.create 1024 in
  iter t (fun name v ->
      match v with
      | Counter c -> Buffer.add_string b (Printf.sprintf "%-42s %12d\n" name c)
      | Probe p -> Buffer.add_string b (Printf.sprintf "%-42s %12.3f\n" name p)
      | Histogram h ->
        let n = Hdr.count h in
        if n = 0 then Buffer.add_string b (Printf.sprintf "%-42s      (empty)\n" name)
        else
          Buffer.add_string b
            (Printf.sprintf "%-42s n=%d mean=%.3f p50=%.3f p99=%.3f max=%.3f\n" name n
               (Hdr.mean h) (Hdr.quantile h 0.5) (Hdr.quantile h 0.99) (Hdr.max h)));
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Prometheus text exposition (version 0.0.4).                         *)

let prom_name name =
  String.map
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> c
      | _ -> '_')
    name

let prom_float v =
  if Float.is_nan v then "NaN"
  else if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.9g" v

let to_prometheus t =
  let b = Buffer.create 2048 in
  let addf fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  iter t (fun name v ->
      let n = prom_name name in
      match v with
      | Counter c ->
        addf "# TYPE %s counter\n%s %d\n" n n c
      | Probe p -> addf "# TYPE %s gauge\n%s %s\n" n n (prom_float p)
      | Histogram h ->
        addf "# TYPE %s summary\n" n;
        if Hdr.count h > 0 then begin
          List.iter
            (fun q ->
              addf "%s{quantile=\"%s\"} %s\n" n
                (Printf.sprintf "%g" q)
                (prom_float (Hdr.quantile h q)))
            [ 0.5; 0.9; 0.99; 1.0 ]
        end;
        addf "%s_sum %s\n%s_count %d\n" n (prom_float (Hdr.sum h)) n (Hdr.count h));
  Buffer.contents b
