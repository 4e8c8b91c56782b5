(* A workload is a world plus a cycle of ticks, replayed in order for as
   long as the run lasts. Every input of a tick is generated and encoded
   in setup; running a tick only hands them to the router's public entry
   points, in a fixed order:

   neighbor UPDATEs ([ingest_updates]), experiment UPDATEs
   ([process_experiment_update]), the tick flush ([flush_reexports]),
   experiment frames ([forward_experiment_frame]) and neighbor packets
   ([inject_from_neighbor]).

   [run] is the tick as measured end to end. [run_traced]
   does the same work with a span around each layer's calls, and decodes
   the wire items itself so decode and ingest become separate spans. *)

open Netcore
open Bgp
module R = Vbgp.Router

type tick = {
  wire : (int * string) array;  (** (neighbor id, UPDATE bytes) *)
  payloads : (int * R.ingest_payload) array;  (** [wire] as [Wire] items *)
  exp_updates : (string * Msg.update) array;  (** (experiment, update) *)
  frames : (int * Eth.t) array;  (** (neighbor id, experiment frame) *)
  injects : (int * Ipv4_packet.t) array;  (** (neighbor id, packet) *)
  replay : (string * Ipv4_packet.t * int) array;
      (** [frames] decoded: (sending experiment, packet, neighbor id) *)
  ops : int;  (** operations the tick completes *)
  nlri_in : int;  (** NLRI in [wire] *)
  live : int;  (** routes in the router's RIBs after the tick *)
}

let tick ?(wire = []) ?(exp_updates = [||]) ?(frames = [||]) ?(injects = [||])
    ?(replay = [||]) ~ops ~nlri_in ~live () =
  let wire = Array.of_list wire in
  {
    wire;
    payloads = Array.map (fun (id, b) -> (id, R.Wire b)) wire;
    exp_updates;
    frames;
    injects;
    replay;
    ops;
    nlri_in;
    live;
  }

type t = {
  world : World.t;
  cycle : tick array;
  replay_enforcer : Vbgp.Data_enforcer.t option;
      (** a private copy of the router's data-plane chain, for replay *)
}

let flushes (k : tick) =
  Array.length k.payloads > 0 || Array.length k.exp_updates > 0

(* One tick, as a user sees it. [rejected] counts refused experiment
   updates. *)
let run w (k : tick) ~rejected =
  let r = w.world.World.router in
  if Array.length k.payloads > 0 then R.ingest_updates r k.payloads;
  Array.iter
    (fun (experiment, u) ->
      match R.process_experiment_update r ~experiment u with
      | Ok () -> ()
      | Error _ -> incr rejected)
    k.exp_updates;
  if flushes k then R.flush_reexports r;
  Array.iter
    (fun (neighbor_id, frame) ->
      R.forward_experiment_frame r ~neighbor_id frame)
    k.frames;
  Array.iter
    (fun (neighbor_id, packet) -> R.inject_from_neighbor r ~neighbor_id packet)
    k.injects

(* The same tick with layer spans under the tick span [parent]. Items
   that fail to decode are skipped, as the router does; the harness counts
   them from the router's update counter. *)
let run_traced w (k : tick) ~spans ~parent ~tick:n ~rejected =
  let r = w.world.World.router in
  let c = R.counters r in
  let span layer f = Spans.span spans layer ~parent ~tick:n f in
  if Array.length k.wire > 0 then begin
    let decoded = Array.make (Array.length k.wire) None in
    Array.iteri
      (fun i (id, bytes) ->
        span Spans.Codec (fun () ->
            (match Codec.decode bytes with
            | Ok (Msg.Update u) -> decoded.(i) <- Some (id, R.Update u)
            | Ok _ | Error _ -> ());
            1))
      k.wire;
    let batch =
      Array.of_list (List.filter_map Fun.id (Array.to_list decoded))
    in
    span Spans.Control_in (fun () ->
        R.ingest_updates r batch;
        k.nlri_in)
  end;
  Array.iter
    (fun (experiment, u) ->
      span Spans.Control_enforcer (fun () ->
          (match R.process_experiment_update r ~experiment u with
          | Ok () -> ()
          | Error _ -> incr rejected);
          1))
    k.exp_updates;
  if flushes k then
    span Spans.Control_out (fun () ->
        let before = c.R.nlri_to_neighbors + c.R.nlri_to_experiments in
        R.flush_reexports r;
        c.R.nlri_to_neighbors + c.R.nlri_to_experiments - before);
  if Array.length k.frames > 0 then
    span Spans.Forward (fun () ->
        Array.iter
          (fun (neighbor_id, frame) ->
            R.forward_experiment_frame r ~neighbor_id frame)
          k.frames;
        Array.length k.frames);
  if Array.length k.injects > 0 then
    span Spans.Inject (fun () ->
        Array.iter
          (fun (neighbor_id, packet) ->
            R.inject_from_neighbor r ~neighbor_id packet)
          k.injects;
        Array.length k.injects)

(* Outside the tick: re-run the burst's own packets through a private copy
   of the enforcement chain and through the neighbor FIB lookups. *)
let replay w (k : tick) ~spans ~parent ~tick:n =
  match w.replay_enforcer with
  | None -> ()
  | Some enforcer when Array.length k.replay > 0 ->
      let r = w.world.World.router in
      let now = Sim.Engine.now w.world.World.engine in
      Spans.span spans Spans.Enforcer_replay ~parent ~tick:n (fun () ->
          Array.iter
            (fun (ingress, packet, _) ->
              ignore
                (Vbgp.Data_enforcer.check enforcer ~now
                   ~meta:{ Vbgp.Data_enforcer.ingress }
                   packet))
            k.replay;
          Array.length k.replay);
      let fibs = R.fib_set r in
      Spans.span spans Spans.Fib_replay ~parent ~tick:n (fun () ->
          Array.iter
            (fun (_, (packet : Ipv4_packet.t), nid) ->
              ignore (Rib.Fib.lookup (Rib.Fib.Set.table fibs nid) packet.dst))
            k.replay;
          Array.length k.replay)
  | Some _ -> ()
