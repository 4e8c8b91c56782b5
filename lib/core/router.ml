(* The vBGP router facade (paper §3).

   The implementation lives in the plane modules — [Router_state] (the
   shared state record and inspection), [Control_in] (neighbor RIB-in,
   next-hop rewriting, ADD-PATH export), [Control_out] (experiment/mesh
   update processing, variant selection, batched per-neighbor
   re-export), [Data_plane] (experiment-LAN frames, MAC-keyed FIB
   selection, ICMP), [Backbone] (mesh sessions and global-pool
   aliasing, §4.4). This module re-exports the public surface so
   callers keep a single [Router] entry point. *)

open Netcore
open Bgp

(* Re-exported as transparent records so callers can keep pattern
   matching and field access through [Router]. *)
type neighbor_state = Router_state.neighbor_state = {
  info : Neighbor.t;
  rib_in : Rib.Table.t;
  mutable session : Session.t option;
  mutable deliver : Ipv4_packet.t -> unit;
  export_id : int;
  mutable gr : Prefix.t Router_state.gr_hold option;
  flows : Router_state.flow_entry Flow_table.t;
}

type counters = Router_state.counters = {
  mutable updates_from_neighbors : int;
  mutable updates_from_experiments : int;
  mutable updates_from_mesh : int;
  mutable packets_to_neighbors : int;
  mutable packets_to_experiments : int;
  mutable packets_over_backbone : int;
  mutable packets_dropped : int;
  mutable icmp_sent : int;
  mutable reexport_computations : int;
  mutable gr_retentions : int;
  mutable gr_expiries : int;
  mutable updates_to_neighbors : int;
  mutable nlri_to_neighbors : int;
  mutable updates_to_experiments : int;
  mutable nlri_to_experiments : int;
  mutable updates_to_mesh : int;
  mutable nlri_to_mesh : int;
  mutable flow_hits : int;
  mutable flow_misses : int;
  mutable decode_errors : int;
}

type t = Router_state.t

let create = Router_state.create
let activate = Data_plane.activate

(* -- inspection ------------------------------------------------------------- *)

let name = Router_state.name
let asn = Router_state.asn
let experiment_lan = Router_state.experiment_lan
let router_mac = Router_state.router_mac
let counters = Router_state.counters
let trace = Router_state.trace
let control_enforcer = Router_state.control_enforcer
let data_enforcer = Router_state.data_enforcer
let fib_set = Router_state.fib_set
let v6_next_hop = Router_state.v6_next_hop
let control_asn = Router_state.control_asn
let neighbor = Router_state.neighbor
let neighbor_states = Router_state.neighbor_states
let real_neighbors = Router_state.real_neighbors
let export_id = Router_state.export_id
let neighbor_routes = Router_state.neighbor_routes
let adj_out_routes = Router_state.adj_out_routes
let stale_count = Router_state.stale_count
let route_count = Router_state.route_count
let fib_entry_count = Router_state.fib_entry_count
let control_plane_bytes = Router_state.control_plane_bytes
let data_plane_bytes = Router_state.data_plane_bytes
let attribution = Router_state.attribution
let owner_of = Router_state.owner_of
let allocation_owner_of = Router_state.allocation_owner_of

(* -- control plane ---------------------------------------------------------- *)

let process_neighbor_update = Control_in.process_neighbor_update
let process_experiment_update = Control_out.process_experiment_update
let process_mesh_update = Control_out.process_mesh_update
let flush_reexports = Control_out.flush_reexports

type ingest_payload = Control_in.payload =
  | Wire of string
  | Update of Msg.update

let ingest_updates = Control_in.ingest_updates

(* -- parallel export lane ----------------------------------------------------- *)

type export_stats = Export_pool.stats = {
  wire_cache_hits : int;
  wire_cache_misses : int;
  wire_bytes_out : int;
  delta_lists_encoded : int;
  staged_residual : int;
  lane_depth_max : int array;
}

(* Meaningful on every router: the single-lane pool is the sequential
   flush path itself, so the encode-once wire cache is always live. *)
let export_stats t = Export_pool.stats t.Router_state.export_pool

(* -- data plane ------------------------------------------------------------- *)

let inject_from_neighbor = Data_plane.inject_from_neighbor
let forward_experiment_frame = Data_plane.forward_experiment_frame

(* -- lanes ------------------------------------------------------------------- *)

let lanes t = t.Router_state.lanes

let shutdown_domains t = Export_pool.shutdown t.Router_state.export_pool

(* -- wiring ----------------------------------------------------------------- *)

let add_neighbor t ~asn ~ip ~kind ~remote_id ?latency ?deliver () =
  let ((neighbor_id, _) as added) =
    Control_in.add_neighbor t ~asn ~ip ~kind ~remote_id ?latency ?deliver ()
  in
  Control_out.seed_neighbor t ~neighbor_id;
  added

let set_neighbor_deliver = Control_in.set_neighbor_deliver
let attach_backbone = Backbone.attach_backbone

let connect_mesh t other ?latency () =
  Backbone.connect_mesh t other ~on_update:Control_out.process_mesh_update
    ~on_eor:Control_out.process_mesh_eor
    ~on_peer_down:Control_out.process_mesh_down ?latency ()

let connect_experiment = Control_out.connect_experiment
let flush_mesh_peer = Control_out.flush_mesh_peer
