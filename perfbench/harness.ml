(* The closed loop: set up, warm up, then replay the workload's cycle tick
   by tick — the next tick starts only after the previous one returned and
   its sends reached the sinks — measure, check the outputs, and report.

   End-to-end metrics come from a run with tracing off: each tick is one
   latency sample, timed from the first input handed to the router until
   the last call returns. Delivering the tick's sends to the sinks (the
   engine run) happens after the sample is taken and is not part of it.

   A traced run alternates traced and untraced ticks (a tick's parity
   flips every cycle, so both halves see every tick of the cycle equally
   often); the untraced half is the reference for the tracing overhead. *)

module R = Vbgp.Router

type mode = Seconds of float | Ticks of int

(* Set-up runs in two groups of this many: before the timed window (the
   last of these worlds is the one measured) and, once the measured world
   is no longer used, after it. [setup_s] is the median of both groups.
   Host speed drifts in stretches of seconds, longer than a group takes,
   so a median within one group follows whatever stretch it fell in; the
   median of two groups a window apart lies between them. The count is
   fixed: forced major collections (two per set-up) perturb the OCaml
   runtime's GC pacing for the rest of the run, so a varying count before
   the window would make [heap_peak_mb] vary with it. *)
let setups = 3
(* Latency percentiles are taken per block of this many consecutive ticks
   (so ten samples lie beyond each block's p99) and reported as the median
   over blocks; a run needs at least one block. *)
let block = 1000
let min_coverage = 0.9

type metric = { name : string; value : float; unit_ : string }

type report = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : metric list;
  notes : string list;  (** human-readable lines printed before the JSON *)
}

let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b

(* Tallies over everything handed to the router since the sinks were
   attached (setup load, warm-up and timed ticks). *)
type sent = {
  mutable frames : int;  (** frames and injected packets *)
  mutable rejected : int;
  mutable mismatches : int;
  mutable problems : string list;
}

let mismatch sent fmt =
  Printf.ksprintf
    (fun s ->
      sent.mismatches <- sent.mismatches + 1;
      if List.length sent.problems < 8 then sent.problems <- s :: sent.problems)
    fmt

(* One attribute block per facing group per flush: the distinct blocks the
   neighbor sinks saw this tick are exactly the blocks the wire cache
   encoded, and every other announce message was spliced. *)
let check_blocks sent (w : World.t) ~(before : World.snap) ~announces_before
    n =
  let after = World.snap w.World.router in
  let announces =
    World.sum_sinks w.World.neighbor_sinks (fun b -> b.Sink.announces)
  in
  let misses = after.wc_misses - before.wc_misses in
  let hits = after.wc_hits - before.wc_hits in
  let distinct = Hashtbl.length w.World.blocks in
  if distinct <> misses || announces - announces_before <> misses + hits then
    mismatch sent
      "tick %d: %d distinct attribute blocks and %d announces at the sinks, \
       wire cache encoded %d and spliced %d"
      n distinct (announces - announces_before) misses hits

let median a =
  let a = Array.copy a in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* A digest of every generated input of the cycle: different seeds must
   give different inputs. *)
let input_digest (wl : Workload.t) =
  let h = ref (Digest.string "") in
  let add s = h := Digest.string (!h ^ Digest.string s) in
  Array.iter
    (fun (k : Workload.tick) ->
      Array.iter (fun (_, b) -> add b) k.Workload.wire;
      Array.iter
        (fun (e, u) -> add (e ^ Bgp.Codec.encode (Bgp.Msg.Update u)))
        k.Workload.exp_updates;
      Array.iter
        (fun (_, (f : Netcore.Eth.t)) -> add f.payload)
        k.Workload.frames;
      Array.iter
        (fun (_, p) -> add (Netcore.Ipv4_packet.encode p))
        k.Workload.injects)
    wl.Workload.cycle;
  Digest.to_hex !h

(* One set-up: building the router, establishing sessions, loading the
   background table, generating and encoding every input, the untimed
   warm-up tick and a full major GC. Whatever the previous set-up left is
   collected before the clock starts. Returns the wall seconds, the
   workload, and the experiment updates the warm-up tick refused. *)
let time_setup setup =
  Gc.full_major ();
  let t0 = Spans.now () in
  let wl = setup () in
  let rejected = ref 0 in
  Workload.run wl wl.Workload.cycle.(0) ~rejected;
  World.deliver wl.Workload.world;
  Gc.full_major ();
  (float_of_int (Spans.now () - t0) /. 1e9, wl, !rejected)

let run ~(setup : unit -> Workload.t) ~mode ~trace =
  let sent =
    { frames = 0; rejected = 0; mismatches = 0; problems = [] }
  in
  let hand_in (k : Workload.tick) =
    sent.frames <- sent.frames + Array.length k.frames + Array.length k.injects
  in
  let setups_before = Array.make setups 0. in
  let wl = ref None in
  for i = 0 to setups - 1 do
    wl := None;
    let s, w, rejected = time_setup setup in
    setups_before.(i) <- s;
    sent.frames <- 0;
    hand_in w.Workload.cycle.(0);
    sent.rejected <- rejected;
    wl := Some w
  done;
  let wl = Option.get !wl in
  let w = wl.Workload.world in
  let cycle = wl.Workload.cycle in
  let len = Array.length cycle in
  let spans = Spans.create () in
  let latency = Spans.col () in
  let untraced_ops = ref 0 and traced_ops = ref 0 and traced_ns = ref 0 in
  let ops = ref 0 and wire_items = ref 0 and nlri_in = ref 0 in
  let flush_ticks = ref 0 and pending_max = ref 0 in
  let last_live = ref cycle.(0).Workload.live in
  let rejected = ref 0 in
  let out_bytes () =
    World.sum_sinks w.World.neighbor_sinks (fun b -> b.Sink.bytes)
    + World.sum_sinks w.World.experiment_sinks (fun b -> b.Sink.bytes)
  in
  let snap_window () = (World.snap ~arena:true w.World.router, out_bytes ()) in
  let start, bytes0 = snap_window () in
  let window_end = ref (start, bytes0) in
  let deadline =
    match mode with
    | Seconds s -> Spans.now () + int_of_float (s *. 1e9)
    | Ticks _ -> max_int
  in
  let continue n =
    match mode with
    | Seconds _ -> Spans.now () < deadline
    | Ticks t -> n <= t
  in
  (* After the window closes, the rest of the cycle runs untimed: every run
     then ends in the same router state, whatever tick the clock stopped
     on. *)
  let n = ref 1 and ticks = ref 0 and timed = ref (continue 1) in
  while !timed || !n mod len <> 0 do
    let timed_tick = !timed in
    if timed_tick then ticks := !n;
    let k = cycle.(!n mod len) in
    let traced =
      timed_tick && trace && ((!n / len) + (!n mod len)) land 1 = 0
    in
    Hashtbl.reset w.World.blocks;
    let before = World.snap w.World.router in
    let announces_before =
      World.sum_sinks w.World.neighbor_sinks (fun b -> b.Sink.announces)
    in
    if traced then begin
      let w0 = Spans.words () in
      let t0 = Spans.now () in
      (* The tick span is opened first so its children can name it. *)
      let parent =
        Spans.record spans Spans.Tick ~parent:(-1) ~tick:!n ~start:t0 ~stop:t0
          ~units:k.Workload.ops ~alloc:0
      in
      Workload.run_traced wl k ~spans ~parent ~tick:!n ~rejected;
      let t1 = Spans.now () in
      Spans.finish spans parent ~stop:t1 ~alloc:(Spans.words () - w0);
      traced_ns := !traced_ns + (t1 - t0);
      traced_ops := !traced_ops + k.Workload.ops;
      pending_max := max !pending_max (Sim.Engine.pending w.World.engine);
      Spans.span spans Spans.Engine ~parent ~tick:!n (fun () ->
          World.deliver w;
          1);
      Workload.replay wl k ~spans ~parent ~tick:!n
    end
    else begin
      let t0 = Spans.now () in
      Workload.run wl k ~rejected;
      let t1 = Spans.now () in
      if timed_tick then begin
        Spans.push latency (t1 - t0);
        untraced_ops := !untraced_ops + k.Workload.ops
      end;
      pending_max := max !pending_max (Sim.Engine.pending w.World.engine);
      World.deliver w
    end;
    hand_in k;
    check_blocks sent w ~before ~announces_before !n;
    last_live := k.Workload.live;
    incr n;
    if timed_tick then begin
      ops := !ops + k.Workload.ops;
      nlri_in := !nlri_in + k.Workload.nlri_in;
      wire_items := !wire_items + Array.length k.Workload.wire;
      if Workload.flushes k then incr flush_ticks;
      timed := continue !n;
      if not !timed then window_end := snap_window ()
    end
  done;
  let heap_peak_mb =
    float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
    /. 1e6
  in
  let final = World.snap w.World.router in
  let stop, bytes1 = !window_end in
  sent.rejected <- sent.rejected + !rejected;
  (* -- output checks ------------------------------------------------------ *)
  let r = w.World.router in
  let routes = R.route_count r in
  if routes <> !last_live then
    mismatch sent "route_count %d, generator expects %d live routes" routes
      !last_live;
  let base = w.World.base in
  let nsum f = World.sum_sinks w.World.neighbor_sinks f in
  let esum f = World.sum_sinks w.World.experiment_sinks f in
  let expect what got f =
    let want = f final - f base in
    if got <> want then
      mismatch sent "%s: sinks saw %d, router counted %d" what got want
  in
  expect "NLRI to neighbors"
    (nsum (fun b -> b.Sink.nlri))
    (fun s -> s.nlri_nbr);
  expect "UPDATEs to neighbors"
    (nsum (fun b -> b.Sink.updates))
    (fun s -> s.upd_nbr);
  expect "UPDATE bytes to neighbors"
    (nsum (fun b -> b.Sink.bytes))
    (fun s -> s.wire_bytes);
  expect "NLRI to experiments"
    (esum (fun b -> b.Sink.nlri))
    (fun s -> s.nlri_exp);
  expect "UPDATEs to experiments"
    (esum (fun b -> b.Sink.updates))
    (fun s -> s.upd_exp);
  let delivered =
    World.sum_sinks w.World.delivered (fun f -> f.Sink.packets)
    + World.sum_sinks w.World.stations (fun f -> f.Sink.packets)
  in
  let drops = final.dropped - base.dropped in
  if delivered + drops <> sent.frames then
    mismatch sent "frames: %d delivered + %d dropped <> %d sent" delivered drops
      sent.frames;
  (* Every wire item is an UPDATE: one the router did not count failed to
     decode. *)
  let decode_errors = !wire_items - (stop.from_nbrs - start.from_nbrs) in
  let window_drops = stop.dropped - start.dropped in
  let failed = decode_errors + sent.rejected + drops + sent.mismatches in
  let rib_bytes_per_route = ratio (R.control_plane_bytes r) routes in
  let digest =
    match mode with Ticks _ -> Some (input_digest wl) | Seconds _ -> None
  in
  (* The measured world is not used past this point, so the second group
     of set-ups never holds two worlds at once. Only [setup_s] needs it. *)
  let setup_s =
    if trace then setups_before
    else
      Array.append setups_before
        (Array.init setups (fun _ ->
             let s, _, _ = time_setup setup in
             s))
  in
  let sample_note =
    Printf.sprintf
      "ticks=%d latency_samples=%d blocks=%d of %d (%d beyond p99 each) \
       setup_samples=%s"
      !ticks latency.Spans.len (latency.Spans.len / block) block (block / 100)
      (String.concat ","
         (Array.to_list (Array.map (Printf.sprintf "%.4f") setup_s)))
  in
  let notes =
    ref
      (sample_note
      :: List.rev_map (fun p -> "check failed: " ^ p) sent.problems)
  in
  let note s = notes := !notes @ [ s ] in
  let correct = ref (failed = 0) in
  let m name value unit_ = { name; value; unit_ } in
  let metrics =
    if not trace then begin
      let timed = match mode with Seconds _ -> true | Ticks _ -> false in
      if timed && latency.Spans.len < block then begin
        correct := false;
        note
          (Printf.sprintf "too few latency samples: %d < %d" latency.Spans.len
             block)
      end;
      let busy_s = float_of_int (Spans.sum latency) /. 1e9 in
      let ms q = Spans.block_percentile latency q ~block /. 1e6 in
      [
        m "setup_s" (median setup_s) "s";
        m "throughput_per_s" (float_of_int !untraced_ops /. busy_s) "1/s";
        m "latency_p50_ms" (ms 0.5) "ms";
        m "latency_p99_ms" (ms 0.99) "ms";
        m "heap_peak_mb" heap_peak_mb "MB";
        m "rib_bytes_per_route" rib_bytes_per_route "B/route";
      ]
    end
    else begin
      let t = Spans.totals spans in
      let codec = t Spans.Codec and cin = t Spans.Control_in in
      let enf = t Spans.Control_enforcer and cout = t Spans.Control_out in
      let fwd = t Spans.Forward and inj = t Spans.Inject in
      let eng = t Spans.Engine in
      let enf_replay = t Spans.Enforcer_replay and fib = t Spans.Fib_replay in
      let per (x : Spans.totals) = ratio x.ns x.units in
      let words (x : Spans.totals) = ratio x.alloc x.units in
      let d f = f stop - f start in
      let nlri_out = d (fun s -> s.nlri_nbr + s.nlri_exp) in
      let updates_out = d (fun s -> s.upd_nbr + s.upd_exp) in
      let coverage = Spans.coverage spans in
      if coverage < min_coverage then begin
        correct := false;
        note
          (Printf.sprintf "trace coverage %.3f < %.2f: a layer is missing"
             coverage min_coverage)
      end;
      let untraced_ns = Spans.sum latency in
      let overhead =
        if !traced_ops = 0 || !untraced_ops = 0 || untraced_ns = 0 then 0.
        else
          (float_of_int !traced_ns /. float_of_int !traced_ops)
          /. (float_of_int untraced_ns /. float_of_int !untraced_ops)
          -. 1.
      in
      let a0 = start.arena and a1 = stop.arena in
      let hit_rate hits misses = ratio hits (hits + misses) in
      [
        m "codec.decode_ns_per_update" (per codec) "ns";
        m "codec.decode_alloc_words_per_update" (words codec) "words";
        m "codec.decode_errors" (float_of_int decode_errors) "count";
        m "attr_arena.hit_rate"
          (hit_rate (a1.hits - a0.hits) (a1.misses - a0.misses))
          "ratio";
        m "attr_arena.contended"
          (float_of_int (a1.contended - a0.contended))
          "count";
        m "control_in.ingest_ns_per_nlri" (per cin) "ns";
        m "control_in.alloc_words_per_nlri" (words cin) "words";
        m "control_in.nlri_in" (ratio !nlri_in !ticks) "1/tick";
        m "control_enforcer.check_ns_per_update" (per enf) "ns";
        m "control_enforcer.rejected" (float_of_int !rejected) "count";
        m "control_out.flush_ns_per_nlri_out" (per cout) "ns";
        m "control_out.alloc_words_per_nlri_out" (words cout) "words";
        m "control_out.updates_out"
          (ratio updates_out !flush_ticks)
          "1/flush";
        m "control_out.nlri_per_update" (ratio nlri_out updates_out) "ratio";
        m "control_out.wire_bytes_per_nlri"
          (ratio (bytes1 - bytes0) nlri_out)
          "B";
        m "control_out.wire_cache_hit_rate"
          (hit_rate (d (fun s -> s.wc_hits)) (d (fun s -> s.wc_misses)))
          "ratio";
        m "control_out.group_computations_per_flush"
          (ratio (d (fun s -> s.computations)) !flush_ticks)
          "count";
        m "data_plane.forward_ns_per_frame" (per fwd) "ns";
        m "data_plane.inject_ns_per_packet" (per inj) "ns";
        m "data_plane.alloc_words_per_frame"
          (ratio (fwd.alloc + inj.alloc) (fwd.units + inj.units))
          "words";
        m "data_plane.flow_hit_rate"
          (hit_rate (d (fun s -> s.flow_hits)) (d (fun s -> s.flow_misses)))
          "ratio";
        m "data_plane.dropped" (float_of_int window_drops) "count";
        m "data_enforcer.check_ns" (per enf_replay) "ns";
        m "fib.lookup_ns" (per fib) "ns";
        m "engine.deliver_ns_per_tick" (ratio eng.ns eng.spans) "ns";
        m "engine.pending_max" (float_of_int !pending_max) "count";
        m "trace.coverage" coverage "ratio";
        m "trace.overhead_frac" overhead "ratio";
      ]
    end
  in
  Option.iter (fun d -> note ("inputs=" ^ d)) digest;
  {
    correct = !correct;
    attempted = max 1 !ops;
    failed;
    metrics;
    notes = !notes;
  }

let json_float v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let print report =
  List.iter print_endline report.notes;
  let metrics =
    List.map
      (fun m ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.name
          (json_float m.value) m.unit_)
      report.metrics
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    report.correct report.attempted report.failed
    (String.concat ", " metrics)
