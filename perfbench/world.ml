(* One vBGP router with neighbors and experiments, wired for direct
   driving: every session runs over a link of [link_latency], and once it
   is Established a counting sink takes over the remote end. The router's
   own event trace is disabled (production configuration), so the
   benchmark measures the pipeline and not debug formatting. *)

open Netcore
open Bgp
module R = Vbgp.Router

let asn = Asn.of_int
let link_latency = 1e-4

(* Simulated time one tick's sends need to reach their receivers: one link
   or LAN latency (both 1e-4 s), with margin. *)
let deliver_step = 5e-4

(* Router counters the output checks and per-layer metrics take deltas
   of. The arena statistics walk the arena's weak tables, so they are
   read only when asked for. *)
type snap = {
  nlri_nbr : int;
  upd_nbr : int;
  nlri_exp : int;
  upd_exp : int;
  wire_bytes : int;
  wc_hits : int;
  wc_misses : int;
  dropped : int;
  flow_hits : int;
  flow_misses : int;
  from_nbrs : int;
  computations : int;
  arena : Attr_arena.stats;
}

let snap ?(arena = false) router =
  let c = R.counters router in
  let x = R.export_stats router in
  {
    nlri_nbr = c.R.nlri_to_neighbors;
    upd_nbr = c.R.updates_to_neighbors;
    nlri_exp = c.R.nlri_to_experiments;
    upd_exp = c.R.updates_to_experiments;
    wire_bytes = x.R.wire_bytes_out;
    wc_hits = x.R.wire_cache_hits;
    wc_misses = x.R.wire_cache_misses;
    dropped = c.R.packets_dropped;
    flow_hits = c.R.flow_hits;
    flow_misses = c.R.flow_misses;
    from_nbrs = c.R.updates_from_neighbors;
    computations = c.R.reexport_computations;
    arena =
      (if arena then Attr_arena.stats ()
       else { hits = 0; misses = 0; live = 0; locks = 0; contended = 0 });
  }

type t = {
  engine : Sim.Engine.t;
  router : R.t;
  mutable neighbors : (int * Sim.Bgp_wire.pair) list;  (** reversed *)
  mutable experiments : (string * Sim.Bgp_wire.pair) list;  (** reversed *)
  neighbor_sinks : (int, Sink.bgp) Hashtbl.t;
  experiment_sinks : (string, Sink.bgp) Hashtbl.t;
  blocks : Sink.blocks;  (** attribute blocks seen at neighbor sinks *)
  delivered : (int, Sink.frames) Hashtbl.t;  (** per neighbor id *)
  stations : (string, Sink.frames) Hashtbl.t;  (** per experiment *)
  mutable base : snap;  (** counters when the sinks were attached *)
}

let create ~name () =
  let engine = Sim.Engine.create () in
  let trace = Sim.Trace.create () in
  Sim.Trace.set_enabled trace false;
  let global_pool =
    Vbgp.Addr_pool.create
      ~base:(Prefix.of_string_exn "127.127.0.0/16")
      ~mac_pool:0x7f
  in
  let router =
    R.create ~engine ~trace ~name ~asn:(asn 47065)
      ~router_id:(Ipv4.of_string_exn "10.255.0.1")
      ~primary_ip:(Ipv4.of_string_exn "10.255.0.1")
      ~local_pool:(Prefix.of_string_exn "127.65.0.0/16")
      ~global_pool ()
  in
  R.activate router;
  {
    engine;
    router;
    neighbors = [];
    experiments = [];
    neighbor_sinks = Hashtbl.create 128;
    experiment_sinks = Hashtbl.create 8;
    blocks = Hashtbl.create 64;
    delivered = Hashtbl.create 128;
    stations = Hashtbl.create 8;
    base = snap router;
  }

let neighbor_ip i = Ipv4.of_int32 (Int32.of_int (0x64400001 + i))
let neighbor_asn i = asn (100 + i)

(* The [i]-th transit neighbor; its data-plane deliveries are counted. *)
let add_neighbor w i =
  let nip = neighbor_ip i in
  let f = Sink.frames () in
  let id, pair =
    R.add_neighbor w.router ~asn:(neighbor_asn i) ~ip:nip
      ~kind:Vbgp.Neighbor.Transit ~remote_id:nip ~latency:link_latency
      ~deliver:(Sink.to_neighbor f) ()
  in
  Hashtbl.replace w.delivered id f;
  Sim.Bgp_wire.start pair;
  w.neighbors <- (id, pair) :: w.neighbors;
  id

(* An experiment with an unlimited update budget (the §4.7 rate limiter
   must not reject benchmark load) and a counting LAN station. The BGP
   session is started only when [session] is set. *)
let add_experiment w ~name ~exp_asn ~prefix ~mac ~session =
  let caps = Vbgp.Experiment_caps.(default |> with_update_budget max_int) in
  let grant =
    Vbgp.Control_enforcer.grant ~asns:[ exp_asn ] ~prefixes:[ prefix ] ~caps
      name
  in
  let pair =
    R.connect_experiment w.router ~grant ~mac ~latency:link_latency ()
  in
  let f = Sink.frames () in
  Hashtbl.replace w.stations name f;
  Sim.Lan.attach (R.experiment_lan w.router) mac (Sink.station f);
  if session then begin
    Sim.Bgp_wire.start pair;
    w.experiments <- (name, pair) :: w.experiments
  end

(* Bring every started session to Established, then hand each remote end
   to a counting sink. Fails loudly if a session did not come up. *)
let establish w =
  Sim.Engine.run_until w.engine (Sim.Engine.now w.engine +. 1.);
  let up (pair : Sim.Bgp_wire.pair) =
    if not (Session.established pair.Sim.Bgp_wire.passive) then
      failwith "perfbench: a session did not reach Established"
  in
  List.iter
    (fun (id, pair) ->
      up pair;
      let b = Sink.bgp ~add_path:false in
      Hashtbl.replace w.neighbor_sinks id b;
      Sink.attach_bgp ~blocks:w.blocks b pair)
    w.neighbors;
  List.iter
    (fun (name, pair) ->
      up pair;
      let b = Sink.bgp ~add_path:true in
      Hashtbl.replace w.experiment_sinks name b;
      Sink.attach_bgp b pair)
    w.experiments;
  w.base <- snap w.router

(* Harness: run the engine until this tick's sends reach the sinks. *)
let deliver w =
  Sim.Engine.run_until w.engine (Sim.Engine.now w.engine +. deliver_step)

let sum_sinks tbl f = Hashtbl.fold (fun _ b acc -> acc + f b) tbl 0

(* -- wire inputs -------------------------------------------------------- *)

(* A neighbor UPDATE, packed and split at the 4096-byte boundary, as wire
   items for [Router.ingest_updates]. *)
let wire_items id (u : Msg.update) =
  List.map
    (fun piece -> (id, Codec.encode (Msg.Update piece)))
    (Codec.split_update u)

let prefix_nlri = List.map (fun p -> Msg.nlri p)

(* Announce (prefix, key) pairs as one packed UPDATE per key, in
   first-seen key order; [attrs] builds the attribute set of a key. *)
let announce id ~attrs keyed =
  let groups = Hashtbl.create 16 and order = ref [] in
  List.iter
    (fun (p, k) ->
      match Hashtbl.find_opt groups k with
      | Some l -> l := p :: !l
      | None ->
          Hashtbl.replace groups k (ref [ p ]);
          order := k :: !order)
    keyed;
  List.concat_map
    (fun k ->
      wire_items id
        (Msg.update ~attrs:(attrs k)
           ~announced:(prefix_nlri (List.rev !(Hashtbl.find groups k)))
           ()))
    (List.rev !order)

let withdraw id prefixes =
  if prefixes = [] then []
  else wire_items id (Msg.update ~withdrawn:(prefix_nlri prefixes) ())

(* Load a baseline table: ingest each batch, flush, deliver. *)
let load w batches =
  List.iter
    (fun items ->
      R.ingest_updates w.router
        (Array.of_list (List.map (fun (id, b) -> (id, R.Wire b)) items));
      R.flush_reexports w.router;
      deliver w)
    batches
