(* The benchmark's clock, latency samples and in-memory span trace.

   Every timestamp is [Monotonic_clock.now] (CLOCK_MONOTONIC, ns). Spans
   are stored column-wise in growable int arrays so that recording one
   allocates nothing on the minor heap beyond the occasional doubling;
   they stay in memory until the run ends and are reduced to per-layer
   metrics there. *)

let now () = Int64.to_int (Monotonic_clock.now ())

(* -- growable int column ------------------------------------------------- *)

type col = { mutable data : int array; mutable len : int }

let col () = { data = Array.make 1024 0; len = 0 }

let push c v =
  if c.len = Array.length c.data then begin
    let d = Array.make (2 * c.len) 0 in
    Array.blit c.data 0 d 0 c.len;
    c.data <- d
  end;
  c.data.(c.len) <- v;
  c.len <- c.len + 1

let sum c =
  let s = ref 0 in
  for i = 0 to c.len - 1 do
    s := !s + c.data.(i)
  done;
  !s

(* Nearest-rank percentile of the samples ([q] in (0, 1]). *)
let percentile c q =
  if c.len = 0 then 0
  else begin
    let a = Array.sub c.data 0 c.len in
    Array.sort Int.compare a;
    let rank = int_of_float (Float.ceil (q *. float_of_int c.len)) in
    a.(max 0 (min (c.len - 1) (rank - 1)))
  end

(* The [q] percentile of each run of [block] consecutive samples (a
   trailing partial block is left out), and their median. A stretch of
   host jitter then moves a few blocks, not the reported value; a change in
   the program moves every block. *)
let block_percentile c q ~block =
  let blocks = c.len / block in
  if blocks = 0 then 0.
  else begin
    let p =
      Array.init blocks (fun b ->
          let data = Array.sub c.data (b * block) block in
          percentile { data; len = block } q)
    in
    Array.sort Int.compare p;
    if blocks mod 2 = 1 then float_of_int p.(blocks / 2)
    else float_of_int (p.((blocks / 2) - 1) + p.(blocks / 2)) /. 2.
  end

(* -- span trace ---------------------------------------------------------- *)

(* Layers a span can name. [Tick] is the root of one tick (the e2e span);
   [Engine] is the harness sink after it; [Enforcer_replay] and
   [Fib_replay] re-run the burst's packets through the data-plane layers
   outside the tick and are excluded from coverage. *)
type layer =
  | Tick
  | Codec
  | Control_in
  | Control_enforcer
  | Control_out
  | Forward
  | Inject
  | Engine
  | Enforcer_replay
  | Fib_replay

let layer_index = function
  | Tick -> 0
  | Codec -> 1
  | Control_in -> 2
  | Control_enforcer -> 3
  | Control_out -> 4
  | Forward -> 5
  | Inject -> 6
  | Engine -> 7
  | Enforcer_replay -> 8
  | Fib_replay -> 9

let all =
  [| Tick; Codec; Control_in; Control_enforcer; Control_out; Forward; Inject;
     Engine; Enforcer_replay; Fib_replay |]

(* Layers whose spans sit inside a tick and together should cover it. *)
let covers = function
  | Codec | Control_in | Control_enforcer | Control_out | Forward | Inject ->
      true
  | Tick | Engine | Enforcer_replay | Fib_replay -> false

type t = {
  layer : col;
  start : col;
  stop : col;
  parent : col;  (** span index of the enclosing tick span, -1 for roots *)
  tick : col;  (** global tick number *)
  units : col;  (** work items the span covered (updates, NLRI, frames) *)
  alloc : col;  (** minor-heap words allocated inside the span *)
}

let create () =
  {
    layer = col ();
    start = col ();
    stop = col ();
    parent = col ();
    tick = col ();
    units = col ();
    alloc = col ();
  }

let count t = t.layer.len

(* [Gc.minor_words] counts this domain's allocation exactly; its float
   result is whole. *)
let words () = int_of_float (Gc.minor_words ())

let record t layer ~parent ~tick ~start ~stop ~units ~alloc =
  let i = count t in
  push t.layer (layer_index layer);
  push t.start start;
  push t.stop stop;
  push t.parent parent;
  push t.tick tick;
  push t.units units;
  push t.alloc alloc;
  i

(* Close span [i], opened by [record] with [stop = start]. *)
let finish t i ~stop ~alloc =
  t.stop.data.(i) <- stop;
  t.alloc.data.(i) <- alloc

(* Run [f] as a span of [layer] under the tick span [parent]; [f] returns
   the number of work units it covered. *)
let span t layer ~parent ~tick f =
  let w0 = words () in
  let t0 = now () in
  let units = f () in
  let t1 = now () in
  let alloc = words () - w0 in
  ignore (record t layer ~parent ~tick ~start:t0 ~stop:t1 ~units ~alloc)

(* Per-layer totals over every span: (ns, units, alloc words, spans). *)
type totals = { ns : int; units : int; alloc : int; spans : int }

let totals t layer =
  let li = layer_index layer in
  let ns = ref 0 and units = ref 0 and alloc = ref 0 and spans = ref 0 in
  for i = 0 to count t - 1 do
    if t.layer.data.(i) = li then begin
      ns := !ns + (t.stop.data.(i) - t.start.data.(i));
      units := !units + t.units.data.(i);
      alloc := !alloc + t.alloc.data.(i);
      incr spans
    end
  done;
  { ns = !ns; units = !units; alloc = !alloc; spans = !spans }

(* Share of tick wall time covered by the tick's in-tick layer spans. *)
let coverage t =
  let tick_ns = ref 0 and covered = ref 0 in
  for i = 0 to count t - 1 do
    let d = t.stop.data.(i) - t.start.data.(i) in
    match t.layer.data.(i) with
    | 0 -> tick_ns := !tick_ns + d
    | li -> if covers all.(li) then covered := !covered + d
  done;
  if !tick_ns = 0 then 0. else float_of_int !covered /. float_of_int !tick_ns
