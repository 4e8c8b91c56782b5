(** The vBGP router (paper §3): virtualization of one BGP edge router's
    data and control planes across parallel experiments.

    This is a facade over the plane modules, kept as the single entry
    point for callers:

    - {!Router_state} — the shared state record, constructor, inspection
    - {!Control_in} — neighbor RIB-in, next-hop rewriting, ADD-PATH
      export to experiments and the mesh (§3.2.1, Figure 2a)
    - {!Control_out} — experiment/mesh update processing, enforcement
      (§3.3), variant selection, and the batched dirty-prefix re-export
      queue toward neighbors
    - {!Data_plane} — experiment-LAN frames, MAC-keyed FIB selection
      (§3.2.2), inbound source-MAC rewriting, ICMP
    - {!Backbone} — mesh sessions and global-pool aliasing (§4.4) *)

open Netcore
open Bgp
open Sim

(** Per-neighbor state (the [info] and [rib_in] fields are the public
    surface; the rest is wiring). *)
type neighbor_state = Router_state.neighbor_state = {
  info : Neighbor.t;
  rib_in : Rib.Table.t;
  mutable session : Session.t option;  (** [None] for backbone aliases *)
  mutable deliver : Ipv4_packet.t -> unit;
  export_id : int;  (** platform-global id used in export-control tags *)
  mutable gr : Prefix.t Router_state.gr_hold option;
      (** stale retention across a graceful session drop (RFC 4724) *)
  flows : Router_state.flow_entry Flow_table.t;
      (** the data-plane flow cache over this neighbor's table,
          generation-stamped (see {!Router_state.flow_entry}) *)
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
      (** neighbor-facing attribute-set computations: one per distinct
          variant per flush (update-groups), however many prefixes,
          neighbors or updates the burst touched *)
  mutable gr_retentions : int;
      (** session drops answered with stale retention instead of a drop *)
  mutable gr_expiries : int;
      (** restart windows that expired into the hard-drop path *)
  mutable updates_to_neighbors : int;
      (** UPDATE messages sent to neighbors (after NLRI packing) *)
  mutable nlri_to_neighbors : int;
      (** NLRI carried by those messages; nlri/updates = packing ratio *)
  mutable updates_to_experiments : int;
      (** UPDATE messages sent to experiments (after NLRI packing) *)
  mutable nlri_to_experiments : int;
  mutable updates_to_mesh : int;
      (** UPDATE messages sent over the backbone mesh (after packing) *)
  mutable nlri_to_mesh : int;
  mutable flow_hits : int;
      (** forwarded frames served by a memoized flow-cache decision *)
  mutable flow_misses : int;
      (** forwarded frames resolved through the slow path *)
  mutable decode_errors : int;
      (** undecodable wire items handed to {!ingest_updates} *)
}

type t = Router_state.t

val create :
  engine:Engine.t ->
  ?trace:Trace.t ->
  name:string ->
  asn:Asn.t ->
  router_id:Ipv4.t ->
  primary_ip:Ipv4.t ->
  ?v6_next_hop:Ipv6.t ->
  local_pool:Prefix.t ->
  global_pool:Addr_pool.t ->
  ?control:Control_enforcer.t ->
  ?data:Data_enforcer.t ->
  ?flow_cache:bool ->
  ?ingest_batching:bool ->
  ?lanes:int ->
  ?seed:int ->
  ?gr_restart_time:int ->
  unit ->
  t
(** [local_pool] is this router's virtual next-hop space (127.65/16 in the
    paper); [global_pool] must be the single pool shared by every PoP
    (§4.4). [v6_next_hop] is the next hop placed in MP_REACH_NLRI on
    IPv6 re-export (defaults to PEERING's 2804:269c::1). [flow_cache]
    (default [true]) enables the data plane's per-neighbor flow caches;
    disabling it forces every frame through the slow path (the
    differential tests compare the two). [ingest_batching] (default
    [true]) defers neighbor/mesh-ingest export fan-out to a per-tick
    dirty-queue flush that emits packed multi-NLRI UPDATEs; disabling it
    restores the eager per-prefix export path (again, the reference the
    differential tests compare against). [lanes] (default 1) is the
    worker-lane count of the export lane, a {!Lanes} pool: the
    dirty-prefix flush toward neighbors ({!flush_reexports}) computes
    every Adj-RIB-Out delta on the caller and packs and encodes each
    distinct delta list on one lane ({!Export_pool}). The caller replays
    the lanes' encoded messages, so 1 lane and [n] lanes are
    byte-identical on the wire; 1 runs everything inline and never
    spawns a domain. Ingest and the data plane have one path whatever
    [lanes] is.
    [seed] drives the router's deterministic RNG (reconnect jitter);
    [gr_restart_time] is the graceful-restart window it advertises
    (RFC 4724) — 0 disables graceful restart. *)

val activate : t -> unit
(** Attach the router's own station to the experiment LAN (answers ARP for
    the primary address). Call once after [create]. *)

(** {1 Inspection} *)

val name : t -> string
val asn : t -> Asn.t

val experiment_lan : t -> Lan.t
(** The layer-2 segment experiments share with the router. *)

val router_mac : t -> Mac.t
val counters : t -> counters
val trace : t -> Trace.t
val control_enforcer : t -> Control_enforcer.t
val data_enforcer : t -> Data_enforcer.t
val fib_set : t -> Rib.Fib.Set.t

val v6_next_hop : t -> Ipv6.t
(** The router's IPv6 next hop as announced to neighbors. *)

val control_asn : t -> int
(** The community namespace for export control. *)

val neighbor : t -> int -> neighbor_state option
val neighbor_states : t -> neighbor_state list
val real_neighbors : t -> neighbor_state list

val export_id : t -> neighbor_id:int -> int
(** The neighbor's platform-global export id (for
    {!Export_control.announce_to} tags). *)

val neighbor_routes : t -> neighbor_id:int -> Rib.Route.t list

val adj_out_routes : t -> neighbor_id:int -> (Prefix.t * Attr.set) list
(** The Adj-RIB-Out toward a real neighbor as a sorted association list
    (the chaos convergence checker compares these across runs): what
    every untagged neighbor hears, overlaid with this neighbor's
    exceptions; empty for an alias or an unknown id. *)

val stale_count : t -> neighbor_id:int -> int
(** Prefixes currently held stale for a neighbor (graceful-restart
    retention). *)

val route_count : t -> int
(** Total routes across all per-neighbor RIBs. *)

val fib_entry_count : t -> int

val control_plane_bytes : t -> int
(** Heap bytes of control-plane state (Figure 6a). *)

val data_plane_bytes : t -> int

val attribution : t -> (string * int * int * int) list
(** PlanetFlow-style accountability (paper §3.1): per-experiment
    (name, packets out, bytes out, packets in). *)

val owner_of : t -> Ipv4.t -> string option
(** The local experiment that has {e announced} space covering the
    address. *)

val allocation_owner_of : t -> Ipv4.t -> string option
(** The local experiment whose {e allocation} covers the address (the
    basis for source validation). *)

(** {1 Control-plane entry points}

    Sessions call these; benchmarks drive them directly. *)

val process_neighbor_update : t -> neighbor_id:int -> Msg.update -> unit
(** The full vBGP ingress pipeline: per-neighbor RIB and FIB maintenance,
    next-hop rewriting, ADD-PATH export to experiments, backbone export. *)

val process_experiment_update :
  t -> experiment:string -> Msg.update -> (unit, string list) result
(** An experiment announcement through the enforcement engine; affected
    prefixes are marked dirty and re-exported to the selected neighbors
    at the next flush (scheduled automatically at the current engine
    tick). *)

val process_mesh_update : t -> pop:string -> Msg.update -> unit

(** An item for {!ingest_updates}: raw wire bytes (decoded by the
    ingest step) or an already-decoded update. Non-UPDATE messages are
    ignored; undecodable bytes count in [decode_errors] of {!counters}. *)
type ingest_payload = Control_in.payload =
  | Wire of string
  | Update of Msg.update

val ingest_updates : t -> (int * ingest_payload) array -> unit
(** Ingest a batch of (neighbor id, update) items through the full
    pipeline ({!process_neighbor_update}), in batch order. Raises
    [Invalid_argument] on an unknown neighbor id; the items before it
    have been ingested. *)

type export_stats = Export_pool.stats = {
  wire_cache_hits : int;
      (** announce messages, per neighbor sent to, spliced from an
          already-encoded attribute block (the encode-once wire cache) *)
  wire_cache_misses : int;
      (** distinct (facing set, params) attribute blocks encoded *)
  wire_bytes_out : int;
      (** UPDATE wire bytes handed to established neighbor sessions *)
  delta_lists_encoded : int;
      (** distinct (delta list, params) packed and encoded: one per
          update-group per flush, however many neighbors share it *)
  staged_residual : int;
      (** encoded messages not yet replayed — always 0 after
          {!flush_reexports} returns (checked in the export-par bench) *)
  lane_depth_max : int array;
      (** per-lane neighbor-queue high-water mark (index 0 = coordinator) *)
}

val export_stats : t -> export_stats
(** Live on every router: the single-lane pool {e is} the sequential
    flush path, so the wire cache accumulates regardless of [?lanes]. *)

val flush_reexports : t -> unit
(** Drain the batched-ingest queue (neighbor/mesh routes toward
    experiments and the mesh) and the dirty-prefix re-export queue
    (experiment routes toward neighbors) now. Both run automatically
    once per engine tick after updates; call directly only when driving
    the router without running the engine. *)

(** {1 Data-plane entry points} *)

val inject_from_neighbor : t -> neighbor_id:int -> Ipv4_packet.t -> unit
(** A packet arriving from the Internet via this neighbor, destined to
    experiment space (delivered with the neighbor's virtual MAC as frame
    source). *)

val forward_experiment_frame : t -> neighbor_id:int -> Eth.t -> unit
(** A frame an experiment addressed to a neighbor's virtual MAC (normally
    invoked via the LAN station). *)

val lanes : t -> int
(** The router's export-lane count (1 = the sequential flush). *)

val shutdown_domains : t -> unit
(** Join the export lane's parked worker domains (each live domain
    counts against the OCaml runtime's domain limit, so tests and
    benchmarks churning many [?lanes] routers should release them).
    Idempotent, a no-op on 1-lane routers, and transparent: the next
    multi-lane flush respawns workers with all router state intact. *)

(** {1 Wiring} *)

val add_neighbor :
  t ->
  asn:Asn.t ->
  ip:Ipv4.t ->
  kind:Neighbor.kind ->
  remote_id:Ipv4.t ->
  ?latency:float ->
  ?deliver:(Ipv4_packet.t -> unit) ->
  unit ->
  int * Bgp_wire.pair
(** Register a real BGP neighbor; returns its table id and the session
    pair (the caller drives the remote, active side). Its Adj-RIB-Out
    starts as what it should hear of the experiments' current
    announcements, replayed once its session is established. *)

val set_neighbor_deliver : t -> neighbor_id:int -> (Ipv4_packet.t -> unit) -> unit

val attach_backbone : t -> Lan.t -> unit
(** Join the backbone segment shared by all PoPs: answer ARP for local
    neighbors' (and experiments') global IPs and accept cross-PoP
    traffic. *)

val connect_mesh : t -> t -> ?latency:float -> unit -> Bgp_wire.pair
(** Bring up the backbone BGP mesh session between two PoP routers (both
    directions installed; started internally). *)

val flush_mesh_peer : t -> pop:string -> unit
(** An out-of-band verdict that [pop] is dead (e.g. the health monitor's
    Failed transition): drop everything imported from it now instead of
    waiting out the graceful-restart window, withdrawing its remote
    experiment announcements from our neighbors so traffic re-homes onto
    surviving PoPs. Idempotent; a later mesh resync re-imports. *)

val connect_experiment :
  t ->
  grant:Control_enforcer.grant ->
  mac:Mac.t ->
  ?latency:float ->
  unit ->
  Bgp_wire.pair
(** Provision an experiment: an ADD-PATH session over a VPN-like link plus
    a data-plane identity ([mac] is the experiment's LAN station). The
    caller installs handlers on the active (client) side and starts the
    pair. The full table syncs on Established and on ROUTE-REFRESH. *)
