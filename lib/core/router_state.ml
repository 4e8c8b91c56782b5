(* The state record shared by the vBGP router's plane modules (paper §3).

   The router is split along the paper's planes — [Control_in] (routes
   from neighbors toward experiments), [Control_out] (experiment
   announcements toward neighbors and the mesh), [Data_plane] (frames on
   the experiment LAN), [Backbone] (the inter-PoP segment and mesh
   sessions) — with [Router] as the facade. All of them operate on the
   single [t] defined here; this module owns the record, its
   constructor, and the read-only inspection surface. *)

open Netcore
open Bgp
open Sim

(* -- per-peer state ------------------------------------------------------- *)

(* Graceful-restart retention (RFC 4724 shape): when a session drops for
   a transient reason and both sides negotiated GR, the routes learned
   from the peer stay installed but are marked stale. A re-announcement
   clears the mark; the peer's End-of-RIB sweeps whatever is left; the
   restart timer expiring falls back to the hard drop. *)
type 'k gr_hold = {
  stale : ('k, unit) Hashtbl.t;
  mutable cancel_expiry : unit -> unit;
}

let gr_hold_of_keys keys =
  let stale = Hashtbl.create (max 16 (List.length keys)) in
  List.iter (fun k -> Hashtbl.replace stale k ()) keys;
  { stale; cancel_expiry = ignore }

let gr_unmark hold key =
  match hold with Some h -> Hashtbl.remove h.stale key | None -> ()

type variant = {
  v_path_id : int;  (** experiment-chosen ADD-PATH id (0 when absent) *)
  v_attrs : Attr_arena.handle;
      (** post-enforcement, control communities intact; interned so
          identical announcements share one set and compare in O(1) *)
}

type experiment_state = {
  grant : Control_enforcer.grant;
  exp_session : Session.t;
  exp_mac : Mac.t;  (** experiment's station on the experiment LAN *)
  g_ip : Ipv4.t;  (** global-pool identity for cross-PoP delivery *)
  g_idx : int;
  routes : (Prefix.t, variant list ref) Hashtbl.t;
  routes_v6 : (Prefix_v6.t, variant list ref) Hashtbl.t;
      (** IPv6 announcements (MP-BGP); control plane only *)
  mutable exp_synced : bool;
  mutable exp_gr : (Prefix.t * int) gr_hold option;
      (** stale (prefix, path id) variants across a graceful drop *)
  mutable exp_gr_v6 : (Prefix_v6.t * int) gr_hold option;
  (* PlanetFlow-style attribution (§3.1): per-experiment traffic totals. *)
  mutable att_packets_out : int;
  mutable att_bytes_out : int;
  mutable att_packets_in : int;
}

(* -- the data-plane flow cache -------------------------------------------- *)

(* The composite per-flow forwarding decision memoized by the flow cache
   (one cache per neighbor table, keyed by the frame's source MAC and the
   packet's source and destination addresses). An entry is served only
   while all three generation stamps still match their sources: the
   neighbor FIB's destination-cache generation (route churn), the
   enforcement chain's config generation (filter changes), and the owner
   cache's generation (experiment announcements, withdrawals, and
   attachment — which also covers ingress attribution). A stale stamp
   sends the packet back through the slow path, which re-stores. *)
type flow_action =
  | Fblock of Data_enforcer.filter * string
      (** a stateless head filter blocked the flow; replayed per hit for
          identical counters and trace *)
  | Fforward of Rib.Fib.entry
  | Fnofib  (** no route in the neighbor table: drop *)

type flow_entry = {
  f_action : flow_action;
  f_exp : experiment_state option;  (** sender, for traffic attribution *)
  f_ingress : string;  (** memoized ingress label (avoids per-hit fmt) *)
  f_fib_gen : int;
  f_enf_gen : int;
  f_owner_gen : int;
}

type neighbor_state = {
  info : Neighbor.t;
  rib_in : Rib.Table.t;
  mutable session : Session.t option;  (** None for backbone aliases *)
  mutable deliver : Ipv4_packet.t -> unit;
      (** hand an outbound packet to the (real) neighbor *)
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
      (** a remote neighbor's route; the alias carries its traffic *)
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
          re-export: one per distinct variant per flush (the
          update-group cache), however many prefixes, neighbors or
          updates the burst touched *)
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
      (** forwarded frames resolved through the slow path (cache cold,
          stamped out, or the flow is uncacheable) *)
  mutable decode_errors : int;
      (** undecodable wire items handed to [Control_in.ingest_updates] *)
}

type t = {
  engine : Engine.t;
  trace : Trace.t;
  name : string;  (** PoP name, e.g. "amsterdam01" *)
  asn : Asn.t;  (** the platform (mux) ASN prepended on neighbor export *)
  router_id : Ipv4.t;
  primary_ip : Ipv4.t;  (** sources ICMP errors (paper §5) *)
  v6_next_hop : Ipv6.t;
      (** the router's IPv6 next hop as seen by neighbors (PEERING's /32) *)
  mutable exp_lan : Lan.t;
  router_mac : Mac.t;
  mutable bb : Arp_client.t option;  (** backbone segment attachment *)
  local_pool : Addr_pool.t;
  global_pool : Addr_pool.t;  (** shared across all PoPs *)
  control : Control_enforcer.t;
  data : Data_enforcer.t;
  fibs : Rib.Fib.Set.t;
  neighbors : (int, neighbor_state) Hashtbl.t;
  mutable next_neighbor_id : int;
  by_vmac : (Mac.t, int) Hashtbl.t;
  by_vip : (Ipv4.t, int) Hashtbl.t;
  by_global_ip : (Ipv4.t, int) Hashtbl.t;  (** local neighbors only *)
  alias_by_global : (Ipv4.t, int) Hashtbl.t;  (** remote neighbors *)
  experiments : (string, experiment_state) Hashtbl.t;
  by_exp_mac : (Mac.t, string) Hashtbl.t;
  mutable owner_trie : owner Ptrie.V4.t;
  owner_cache : owner Dcache.t;
      (** destination cache over [owner_trie]; mutate the trie only via
          [owner_insert]/[owner_remove] so the generation stays coherent *)
  mutable mesh : mesh_peer list;
  mesh_imports : (string * int, mesh_import) Hashtbl.t;
  remote_exp_routes :
    (string * int, Prefix.t * Attr_arena.handle * Ipv4.t) Hashtbl.t;
      (** (origin PoP, path id) -> announced prefix, attributes, and the
          origin's backbone address (the owner fallback when no local
          experiment announces the prefix) *)
  (* The dirty-prefix re-export queue (drained by [Control_out]): updates
     mark prefixes dirty; one flush per engine tick recomputes each dirty
     prefix once. *)
  dirty : (Prefix.t, unit) Hashtbl.t;
  dirty_v6 : (Prefix_v6.t, unit) Hashtbl.t;
  mutable reexport_scheduled : bool;
  (* The batched-ingest dirty queue (drained by [Control_in.flush_ingest]):
     neighbor and mesh ingest applies RIB/FIB writes in-band, marks
     (neighbor id, prefix) dirty, and defers the experiment/mesh export
     fan-out to one flush per engine tick, where each neighbor's batch
     leaves as packed multi-NLRI UPDATEs grouped by shared attribute
     set. *)
  dirty_in : (int * Prefix.t, unit) Hashtbl.t;
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
      (** serve forwarding decisions from the per-neighbor flow caches
          (off forces every frame through the slow path — the reference
          behavior differential tests compare against) *)
  lanes : int;
      (** worker lanes of the export lane ({!Lanes}); 1 = the sequential
          flush (the default) *)
  export_pool : Export_pool.t;
      (** always present: it holds the Adj-RIB-Out (one group table plus
          per-neighbor overrides), and the single-lane pool is the
          sequential flush path itself (inline on the coordinator), so
          the encode-once wire cache and its stats are live on every
          router *)
}

let mesh_exp_id_base = 100_000

let mesh_path_id (e : experiment_state) v_path_id =
  mesh_exp_id_base + (e.g_idx * 64) + (v_path_id land 63)

let default_v6_next_hop = Ipv6.of_string_exn "2804:269c::1"

let create ~engine ?(trace = Trace.create ()) ~name ~asn ~router_id
    ~primary_ip ?(v6_next_hop = default_v6_next_hop) ~local_pool ~global_pool
    ?control ?data ?(flow_cache = true) ?(ingest_batching = true)
    ?(lanes = 1) ?(seed = 42) ?(gr_restart_time = 120) () =
  if lanes < 1 then invalid_arg "Router.create: lanes must be >= 1";
  let control =
    match control with
    | Some c -> c
    | None -> Control_enforcer.create ~platform_asns:[ asn ] ~trace ()
  in
  let data =
    match data with Some d -> d | None -> Data_enforcer.create ~trace ()
  in
  {
    engine;
    trace;
    name;
    asn;
    router_id;
    primary_ip;
    v6_next_hop;
    exp_lan = Lan.create engine;
    router_mac = Mac.local ~pool:0xee (Hashtbl.hash name land 0xffffff);
    bb = None;
    local_pool = Addr_pool.create ~base:local_pool ~mac_pool:0x65;
    global_pool;
    control;
    data;
    fibs = Rib.Fib.Set.create ();
    neighbors = Hashtbl.create 32;
    next_neighbor_id = 1;
    by_vmac = Hashtbl.create 32;
    by_vip = Hashtbl.create 32;
    by_global_ip = Hashtbl.create 32;
    alias_by_global = Hashtbl.create 32;
    experiments = Hashtbl.create 8;
    by_exp_mac = Hashtbl.create 8;
    owner_trie = Ptrie.V4.empty;
    owner_cache = Dcache.create ();
    mesh = [];
    mesh_imports = Hashtbl.create 64;
    remote_exp_routes = Hashtbl.create 16;
    dirty = Hashtbl.create 64;
    dirty_v6 = Hashtbl.create 16;
    reexport_scheduled = false;
    dirty_in = Hashtbl.create 256;
    ingest_scheduled = false;
    ingest_batching;
    counters =
      {
        updates_from_neighbors = 0;
        updates_from_experiments = 0;
        updates_from_mesh = 0;
        packets_to_neighbors = 0;
        packets_to_experiments = 0;
        packets_over_backbone = 0;
        packets_dropped = 0;
        icmp_sent = 0;
        reexport_computations = 0;
        gr_retentions = 0;
        gr_expiries = 0;
        updates_to_neighbors = 0;
        nlri_to_neighbors = 0;
        updates_to_experiments = 0;
        nlri_to_experiments = 0;
        updates_to_mesh = 0;
        nlri_to_mesh = 0;
        flow_hits = 0;
        flow_misses = 0;
        decode_errors = 0;
      };
    rng = Random.State.make [| seed; Hashtbl.hash name |];
    gr_restart_time;
    flow_cache_enabled = flow_cache;
    lanes;
    export_pool = Export_pool.create ~lanes ();
  }

let name t = t.name
let asn t = t.asn
let experiment_lan t = t.exp_lan
let router_mac t = t.router_mac
let counters t = t.counters
let trace t = t.trace
let control_enforcer t = t.control
let data_enforcer t = t.data
let fib_set t = t.fibs
let v6_next_hop t = t.v6_next_hop
let control_asn t = Control_enforcer.control_community_asn t.control

let log t fmt =
  Trace.record t.trace ~time:(Engine.now t.engine) ~category:"router" fmt

(* -- owner trie -------------------------------------------------------------- *)

(* All owner-trie mutation goes through these two, which keep the
   destination cache coherent by bumping its generation — only when the
   trie changed: flow-cache entries stamp that generation, so re-binding
   a prefix to the owner it already has (every attribute-changing
   re-announcement by the owning experiment) must not retire them. *)

let owner_equal a b =
  match (a, b) with
  | Local_exp x, Local_exp y -> String.equal x y
  | Remote_exp x, Remote_exp y ->
      String.equal x.pop y.pop && Ipv4.equal x.via_global y.via_global
  | _ -> false

let owner_insert t prefix owner =
  let trie, _ = Ptrie.V4.add' ~equal:owner_equal prefix owner t.owner_trie in
  if trie != t.owner_trie then begin
    t.owner_trie <- trie;
    Dcache.invalidate t.owner_cache
  end

let owner_remove t prefix =
  let trie = Ptrie.V4.remove prefix t.owner_trie in
  if trie != t.owner_trie then begin
    t.owner_trie <- trie;
    Dcache.invalidate t.owner_cache
  end

let owner_of_trie trie ip =
  match Ptrie.lookup_v4 ip trie with
  | Some (_, owner) -> Some owner
  | None -> None

(* Longest-prefix match of the owner of [ip], through the cache — the
   per-packet operation of [Data_plane.deliver_inbound]. *)
let owner_lookup t ip =
  Dcache.lookup t.owner_cache ip owner_of_trie t.owner_trie

let neighbor t id = Hashtbl.find_opt t.neighbors id

let neighbor_states t =
  Hashtbl.fold (fun _ ns acc -> ns :: acc) t.neighbors []
  |> List.sort (fun a b -> Int.compare a.info.Neighbor.id b.info.Neighbor.id)

let real_neighbors t =
  List.filter (fun ns -> not (Neighbor.is_alias ns.info)) (neighbor_states t)

let experiment t name = Hashtbl.find_opt t.experiments name

(* Send a (possibly multi-NLRI) UPDATE to a neighbor, splitting it at the
   classic 4096-byte boundary, and account messages and NLRI for the
   packing-ratio counters. Lives here (not in [Control_out]) because both
   the outbound flush and [Control_in]'s resync path send packed
   updates. *)
let send_update_to_neighbor t ns (u : Msg.update) =
  match ns.session with
  | Some s when Session.established s ->
      List.iter
        (fun (piece : Msg.update) ->
          t.counters.updates_to_neighbors <-
            t.counters.updates_to_neighbors + 1;
          t.counters.nlri_to_neighbors <-
            t.counters.nlri_to_neighbors
            + List.length piece.Msg.announced
            + List.length piece.Msg.withdrawn;
          Session.send_update s piece)
        (Codec.split_update u)
  | _ -> ()

(* Experiment and mesh sessions negotiate ADD-PATH, so NLRIs carry 4
   extra bytes each; splitting must account for that or a full packed
   update would exceed the 4096-byte boundary on the wire. *)
let add_path_params = { Codec.add_path = true; as4 = true }

let send_update_to_experiment t (e : experiment_state) (u : Msg.update) =
  if Session.established e.exp_session then
    List.iter
      (fun (piece : Msg.update) ->
        t.counters.updates_to_experiments <-
          t.counters.updates_to_experiments + 1;
        t.counters.nlri_to_experiments <-
          t.counters.nlri_to_experiments
          + List.length piece.Msg.announced
          + List.length piece.Msg.withdrawn;
        Session.send_update e.exp_session piece)
      (Codec.split_update ~params:add_path_params u)

let send_update_to_mesh t (u : Msg.update) =
  match t.mesh with
  | [] -> ()
  | mesh ->
      let pieces = Codec.split_update ~params:add_path_params u in
      List.iter
        (fun m ->
          if Session.established m.mesh_session then
            List.iter
              (fun (piece : Msg.update) ->
                t.counters.updates_to_mesh <- t.counters.updates_to_mesh + 1;
                t.counters.nlri_to_mesh <-
                  t.counters.nlri_to_mesh
                  + List.length piece.Msg.announced
                  + List.length piece.Msg.withdrawn;
                Session.send_update m.mesh_session piece)
              pieces)
        mesh

(* -- NLRI grouping ----------------------------------------------------------- *)

(* Accumulates NLRIs per interned attribute set in first-seen order. Every
   batched export path (the ingest flush, experiment full-table sync, mesh
   sync) uses this to leave one packed multi-NLRI UPDATE per shared
   attribute set instead of one message per prefix. *)
type nlri_groups = {
  ng_tbl : (int, Attr_arena.handle * Msg.nlri list ref) Hashtbl.t;
      (* arena id -> (handle, reversed NLRIs) *)
  mutable ng_order : int list;  (* arena ids, reversed first-seen *)
}

let nlri_groups_create () = { ng_tbl = Hashtbl.create 8; ng_order = [] }

let nlri_groups_add g h nlri =
  let hid = Attr_arena.id h in
  match Hashtbl.find_opt g.ng_tbl hid with
  | Some (_, nlris) -> nlris := nlri :: !nlris
  | None ->
      Hashtbl.replace g.ng_tbl hid (h, ref [ nlri ]);
      g.ng_order <- hid :: g.ng_order

let nlri_groups_iter g f =
  List.iter
    (fun hid ->
      match Hashtbl.find_opt g.ng_tbl hid with
      | Some (h, nlris) -> f h (List.rev !nlris)
      | None -> ())
    (List.rev g.ng_order)

let session_capabilities ?(add_path = false) t =
  let base =
    [
      Capability.Multiprotocol
        { afi = Capability.afi_ipv4; safi = Capability.safi_unicast };
      Capability.Multiprotocol
        { afi = Capability.afi_ipv6; safi = Capability.safi_unicast };
      Capability.As4 t.asn;
      Capability.Graceful_restart
        {
          restart_time = t.gr_restart_time;
          afis =
            [
              (Capability.afi_ipv4, Capability.safi_unicast);
              (Capability.afi_ipv6, Capability.safi_unicast);
            ];
        };
    ]
  in
  if add_path then
    base
    @ [
        Capability.Add_path
          [
            ( Capability.afi_ipv4,
              Capability.safi_unicast,
              Capability.Send_receive );
          ];
      ]
  else base

(* The reconnect policy every platform-owned session uses: capped
   exponential backoff with jitter from this router's RNG, so runs stay
   reproducible while peers avoid lock-step retries. *)
let reconnect_policy t =
  Session.reconnect_policy ~backoff_base:0.5 ~backoff_max:30. ~jitter:t.rng ()

(* -- inspection -------------------------------------------------------------- *)

(* Total routes across all per-neighbor RIBs. *)
let route_count t =
  List.fold_left
    (fun acc ns -> acc + Rib.Table.route_count ns.rib_in)
    0 (neighbor_states t)

let fib_entry_count t = Rib.Fib.Set.total_entries t.fibs

(* Memory footprint (bytes) of control-plane state (RIBs). *)
let control_plane_bytes t =
  let words =
    List.fold_left
      (fun acc ns -> acc + Obj.reachable_words (Obj.repr ns.rib_in))
      0 (neighbor_states t)
  in
  words * (Sys.word_size / 8)

(* Memory footprint (bytes) of per-neighbor FIBs. *)
let data_plane_bytes t = Rib.Fib.Set.memory_bytes t.fibs

(* PlanetFlow-style attribution (§3.1): per-experiment traffic totals as
   (experiment, packets out, bytes out, packets in). *)
let attribution t =
  Hashtbl.fold
    (fun name e acc ->
      (name, e.att_packets_out, e.att_bytes_out, e.att_packets_in) :: acc)
    t.experiments []
  |> List.sort (fun (a, _, _, _) (b, _, _, _) -> String.compare a b)

(* The experiment owning [ip], when it is local experiment space. *)
let owner_of t ip =
  match owner_lookup t ip with
  | Some (Local_exp name) -> Some name
  | Some (Remote_exp _) | None -> None

(* The experiment whose *allocation* covers [ip] (connected at this PoP),
   regardless of whether it has announced yet — the basis for data-plane
   source validation. *)
let allocation_owner_of t ip =
  Hashtbl.fold
    (fun name e acc ->
      match acc with
      | Some _ -> acc
      | None ->
          if Control_enforcer.owns_address e.grant ip then Some name else None)
    t.experiments None

(* The platform-global export id of a neighbor (the value used in
   export-control community tags). *)
let export_id t ~neighbor_id =
  match neighbor t neighbor_id with
  | Some ns -> ns.export_id
  | None -> invalid_arg "Router.export_id: unknown neighbor"

let neighbor_routes t ~neighbor_id =
  match neighbor t neighbor_id with
  | Some ns -> Rib.Table.to_list ns.rib_in
  | None -> []

(* The Adj-RIB-Out toward a real neighbor, as a sorted association list
   (the convergence checker compares these across runs). *)
let adj_out_routes t ~neighbor_id =
  match neighbor t neighbor_id with
  | Some ns when not (Neighbor.is_alias ns.info) ->
      List.map
        (fun (p, h) -> (p, Attr_arena.set h))
        (Export_pool.routes t.export_pool ~nid:neighbor_id)
  | _ -> []

(* Prefixes currently held stale for a neighbor (GR retention). *)
let stale_count t ~neighbor_id =
  match neighbor t neighbor_id with
  | Some { gr = Some h; _ } -> Hashtbl.length h.stale
  | _ -> 0
