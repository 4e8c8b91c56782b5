(** The state record shared by the vBGP router's plane modules (§3).

    The router is decomposed along the paper's planes: {!Control_in}
    (neighbor RIB-in and export toward experiments/mesh), {!Control_out}
    (experiment and mesh announcements toward neighbors, with the
    dirty-prefix re-export queue), {!Data_plane} (experiment-LAN frames,
    MAC-keyed forwarding), {!Backbone} (inter-PoP segment, aliasing and
    mesh sessions), and {!Router} as the stable facade. This module owns
    the record those planes share, its constructor, and the inspection
    surface; it implements no plane logic itself. *)

open Netcore
open Bgp
open Sim

(** Graceful-restart retention (RFC 4724 shape): routes from a peer whose
    session dropped gracefully stay installed but are marked stale. A
    re-announcement clears the mark, the peer's End-of-RIB sweeps the
    rest, and restart-window expiry falls back to the hard drop. *)
type 'k gr_hold = {
  stale : ('k, unit) Hashtbl.t;
  mutable cancel_expiry : unit -> unit;
}

val gr_hold_of_keys : 'k list -> 'k gr_hold
val gr_unmark : 'k gr_hold option -> 'k -> unit

type variant = {
  v_path_id : int;  (** experiment-chosen ADD-PATH id (0 when absent) *)
  v_attrs : Attr_arena.handle;
      (** post-enforcement, control communities intact; interned so
          identical announcements share one set and compare in O(1) *)
}

type experiment_state = {
  grant : Control_enforcer.grant;
  exp_session : Session.t;
  exp_mac : Mac.t;
  g_ip : Ipv4.t;
  g_idx : int;
  routes : (Prefix.t, variant list ref) Hashtbl.t;
  routes_v6 : (Prefix_v6.t, variant list ref) Hashtbl.t;
  mutable exp_synced : bool;
  mutable exp_gr : (Prefix.t * int) gr_hold option;
      (** stale (prefix, path id) variants across a graceful drop *)
  mutable exp_gr_v6 : (Prefix_v6.t * int) gr_hold option;
  mutable att_packets_out : int;
  mutable att_bytes_out : int;
  mutable att_packets_in : int;
}

(** The composite per-flow forwarding decision memoized by the data-plane
    flow cache (one cache per neighbor table, keyed by source MAC and the
    packet's addresses). Entries are served only while all three
    generation stamps match their sources — the neighbor FIB's
    destination-cache generation, the enforcement chain's config
    generation, and the owner cache's generation (which also covers
    experiment attachment and ingress attribution). *)
type flow_action =
  | Fblock of Data_enforcer.filter * string
      (** a stateless head filter blocked the flow *)
  | Fforward of Rib.Fib.entry
  | Fnofib  (** no route in the neighbor table: drop *)

type flow_entry = {
  f_action : flow_action;
  f_exp : experiment_state option;  (** sender, for traffic attribution *)
  f_ingress : string;
  f_fib_gen : int;
  f_enf_gen : int;
  f_owner_gen : int;
}

type neighbor_state = {
  info : Neighbor.t;
  rib_in : Rib.Table.t;
  mutable session : Session.t option;  (** [None] for backbone aliases *)
  mutable deliver : Ipv4_packet.t -> unit;
  export_id : int;  (** platform-global id used in export-control tags *)
  mutable gr : Prefix.t gr_hold option;
      (** stale retention across a graceful session drop *)
  flows : flow_entry Flow_table.t;
      (** the data-plane flow cache over this neighbor's table *)
}

type mesh_peer = {
  pop_name : string;
  mesh_session : Session.t;
  mutable mesh_gr : (int * Prefix.t) gr_hold option;
      (** stale (path id, prefix) imports across a graceful mesh drop *)
}

type mesh_import =
  | Ialias of { alias_id : int }
  | Iremote_exp of { prefix : Prefix.t }

type owner =
  | Local_exp of string
  | Remote_exp of { pop : string; via_global : Ipv4.t }

type counters = {
  mutable updates_from_neighbors : int;
  mutable updates_from_experiments : int;
  mutable updates_from_mesh : int;
  mutable packets_to_neighbors : int;
  mutable packets_to_experiments : int;
  mutable packets_over_backbone : int;
  mutable packets_dropped : int;
  mutable icmp_sent : int;
  mutable reexport_computations : int;
      (** neighbor-facing attribute-set computations performed by
          re-export (update-group cache misses) *)
  mutable gr_retentions : int;
      (** session drops answered with stale retention instead of a drop *)
  mutable gr_expiries : int;
      (** restart windows that expired into the hard-drop path *)
  mutable updates_to_neighbors : int;
      (** UPDATE messages sent to neighbors (after NLRI packing) *)
  mutable nlri_to_neighbors : int;
      (** NLRI (announce + withdraw) carried by those messages; the
          ratio nlri/updates is the packing ratio *)
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
      (** undecodable wire items handed to [Control_in.ingest_updates] *)
}

type t = {
  engine : Engine.t;
  trace : Trace.t;
  name : string;
  asn : Asn.t;
  router_id : Ipv4.t;
  primary_ip : Ipv4.t;
  v6_next_hop : Ipv6.t;
  mutable exp_lan : Lan.t;
  router_mac : Mac.t;
  mutable bb : Arp_client.t option;
  local_pool : Addr_pool.t;
  global_pool : Addr_pool.t;
  control : Control_enforcer.t;
  data : Data_enforcer.t;
  fibs : Rib.Fib.Set.t;
  neighbors : (int, neighbor_state) Hashtbl.t;
  mutable next_neighbor_id : int;
  by_vmac : (Mac.t, int) Hashtbl.t;
  by_vip : (Ipv4.t, int) Hashtbl.t;
  by_global_ip : (Ipv4.t, int) Hashtbl.t;
  alias_by_global : (Ipv4.t, int) Hashtbl.t;
  experiments : (string, experiment_state) Hashtbl.t;
  by_exp_mac : (Mac.t, string) Hashtbl.t;
  mutable owner_trie : owner Ptrie.V4.t;
  owner_cache : owner Dcache.t;
  mutable mesh : mesh_peer list;
  mesh_imports : (string * int, mesh_import) Hashtbl.t;
  remote_exp_routes :
    (string * int, Prefix.t * Attr_arena.handle * Ipv4.t) Hashtbl.t;
      (** (origin PoP, path id) -> announced prefix, attributes, and the
          origin's backbone address (the owner fallback when no local
          experiment announces the prefix) *)
  dirty : (Prefix.t, unit) Hashtbl.t;
  dirty_v6 : (Prefix_v6.t, unit) Hashtbl.t;
  mutable reexport_scheduled : bool;
  dirty_in : (int * Prefix.t, unit) Hashtbl.t;
      (** batched-ingest queue: (neighbor id, prefix) pairs whose
          experiment/mesh export is deferred to the next ingest flush *)
  mutable ingest_scheduled : bool;
  ingest_batching : bool;
      (** [false] restores the per-NLRI eager export path (the reference
          the differential tests compare batched ingest against) *)
  counters : counters;
  rng : Random.State.t;
      (** engine-seeded randomness (reconnect jitter); deterministic runs *)
  gr_restart_time : int;
      (** the restart window this router advertises (RFC 4724), seconds *)
  flow_cache_enabled : bool;
      (** serve forwarding decisions from the per-neighbor flow caches *)
  lanes : int;
      (** worker lanes of the export lane ({!Lanes}); 1 = the sequential
          flush (the default) *)
  export_pool : Export_pool.t;
      (** the export lane pool — always present: it holds the
          Adj-RIB-Out (one group table plus per-neighbor overrides), and
          the single-lane pool is the sequential flush path itself
          (encode-once wire cache and stats stay live on every router) *)
}

val mesh_exp_id_base : int

val mesh_path_id : experiment_state -> int -> int
(** The ADD-PATH id carried on the mesh for an experiment variant. *)

val default_v6_next_hop : Ipv6.t

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
(** [lanes] (>= 1) sizes the export lane pool. *)

val name : t -> string
val asn : t -> Asn.t
val experiment_lan : t -> Lan.t
val router_mac : t -> Mac.t
val counters : t -> counters
val trace : t -> Trace.t
val control_enforcer : t -> Control_enforcer.t
val data_enforcer : t -> Data_enforcer.t
val fib_set : t -> Rib.Fib.Set.t
val v6_next_hop : t -> Ipv6.t
val control_asn : t -> int

val log : t -> ('a, Format.formatter, unit, unit) format4 -> 'a

val owner_insert : t -> Prefix.t -> owner -> unit
(** Bind a prefix in the owner trie. All mutation must go through
    [owner_insert]/[owner_remove]: they bump the destination cache's
    generation whenever the trie changes, so [owner_lookup] never serves
    a stale owner. Re-binding a prefix to an equal owner is a no-op and
    keeps stamped flow-cache entries live. *)

val owner_remove : t -> Prefix.t -> unit

val owner_lookup : t -> Ipv4.t -> owner option
(** Longest-prefix match of the owner of an address, through the
    generation-stamped destination cache (the per-packet inbound path). *)

val neighbor : t -> int -> neighbor_state option
val neighbor_states : t -> neighbor_state list
val real_neighbors : t -> neighbor_state list
val experiment : t -> string -> experiment_state option

val send_update_to_neighbor : t -> neighbor_state -> Msg.update -> unit
(** Send an UPDATE to a neighbor's session when established, splitting
    it at the classic 4096-byte boundary ({!Bgp.Codec.split_update}) and
    bumping the [updates_to_neighbors]/[nlri_to_neighbors] counters.
    Silently drops when the session is down (re-sync on reconnect). *)

val send_update_to_experiment : t -> experiment_state -> Msg.update -> unit
(** Same contract toward an experiment session (ADD-PATH-aware split,
    [updates_to_experiments]/[nlri_to_experiments] counters). *)

val send_update_to_mesh : t -> Msg.update -> unit
(** Send to every established mesh session, splitting once and counting
    per receiving session. *)

(** {1 NLRI grouping}

    Accumulates NLRIs per interned attribute set in first-seen order;
    the batched export paths use it to leave one packed multi-NLRI
    UPDATE per shared attribute set. *)

type nlri_groups

val nlri_groups_create : unit -> nlri_groups
val nlri_groups_add : nlri_groups -> Attr_arena.handle -> Msg.nlri -> unit

val nlri_groups_iter :
  nlri_groups -> (Attr_arena.handle -> Msg.nlri list -> unit) -> unit
(** Groups in first-seen order, NLRIs in insertion order. *)

val session_capabilities : ?add_path:bool -> t -> Capability.t list

val reconnect_policy : t -> Session.reconnect_policy
(** The reconnect policy platform-owned sessions use: capped exponential
    backoff with jitter from this router's RNG. *)

(** {1 Inspection} *)

val route_count : t -> int
val fib_entry_count : t -> int
val control_plane_bytes : t -> int
val data_plane_bytes : t -> int
val attribution : t -> (string * int * int * int) list
val owner_of : t -> Ipv4.t -> string option
val allocation_owner_of : t -> Ipv4.t -> string option
val export_id : t -> neighbor_id:int -> int
val neighbor_routes : t -> neighbor_id:int -> Rib.Route.t list

val adj_out_routes : t -> neighbor_id:int -> (Prefix.t * Attr.set) list
(** The Adj-RIB-Out toward a real neighbor as a sorted association list
    (the chaos convergence checker compares these across runs): the
    group table overlaid with its overrides ({!Export_pool.routes});
    empty for an alias or an unknown id. *)

val stale_count : t -> neighbor_id:int -> int
(** Prefixes currently held stale for a neighbor (GR retention). *)
