(** Control plane, inbound (§3.2.1, Figure 2a): per-neighbor RIB-in
    maintenance, next-hop rewriting to the neighbor's virtual IP, and
    ADD-PATH export to experiments and the backbone mesh.

    Operates on the shared {!Router_state.t}. *)

open Netcore
open Bgp
open Sim

val export_route_to_experiments :
  Router_state.t -> Router_state.neighbor_state -> Prefix.t -> Attr.set -> unit
(** Eagerly announce a neighbor-learned route to all experiments: next
    hop becomes the neighbor's virtual IP, path id its table id. The
    per-prefix reference path; batched ingest defers to
    {!mark_ingest_dirty} instead. *)

val export_withdraw_to_experiments :
  Router_state.t -> Router_state.neighbor_state -> Prefix.t -> unit

val sync_experiment : Router_state.t -> Router_state.experiment_state -> unit
(** Full-table sync when an experiment session reaches Established (or on
    ROUTE-REFRESH): one packed multi-NLRI UPDATE per neighbor per shared
    attribute set, closed with End-of-RIB. *)

val export_route_to_mesh :
  Router_state.t -> Router_state.neighbor_state -> Prefix.t -> Attr.set -> unit
(** Eagerly announce toward the mesh with the neighbor's global IP as
    next hop (§4.4). *)

val export_withdraw_to_mesh :
  Router_state.t -> Router_state.neighbor_state -> Prefix.t -> unit

val mark_ingest_dirty :
  Router_state.t -> Router_state.neighbor_state -> Prefix.t -> unit
(** Mark one (neighbor, prefix) pair dirty in the batched-ingest queue
    and schedule {!flush_ingest} at the current engine tick. The flush
    resolves the pair against the RIB: route present → announce, absent
    → withdraw, so a same-tick burst coalesces to its net effect. *)

val flush_ingest : Router_state.t -> unit
(** Drain the batched-ingest queue now: per neighbor (deterministic id
    order, sorted prefixes), send the experiment/mesh fan-out as packed
    multi-NLRI UPDATEs grouped by shared attribute set. Idempotent; runs
    automatically once per engine tick after updates. *)

val process_neighbor_update :
  Router_state.t -> neighbor_id:int -> Msg.update -> unit
(** The one ingest step, the full vBGP ingress pipeline: GR unmark,
    Adj-RIB-In withdraw and install (one attribute intern per update,
    re-announcements of the installed route absorbed), FIB writes,
    next-hop rewriting, ADD-PATH export to experiments, backbone export.
    With batched ingest (the default), RIB/FIB writes and the decision
    process run in-band while export fan-out is deferred to the
    dirty-queue flush at the current engine tick. *)

(** An item for {!ingest_updates}: raw wire bytes or an already-decoded
    update. *)
type payload = Wire of string | Update of Msg.update

val ingest_updates : Router_state.t -> (int * payload) array -> unit
(** Ingest a batch of (neighbor id, item) pairs in batch order through
    {!process_neighbor_update}. Non-UPDATE messages are ignored;
    undecodable bytes are counted in [decode_errors]. Raises
    [Invalid_argument] on an unknown neighbor id. *)

val add_neighbor :
  Router_state.t ->
  asn:Asn.t ->
  ip:Ipv4.t ->
  kind:Neighbor.kind ->
  remote_id:Ipv4.t ->
  ?latency:float ->
  ?deliver:(Ipv4_packet.t -> unit) ->
  unit ->
  int * Bgp_wire.pair
(** Register a real BGP neighbor; returns its table id and the session
    pair (the caller drives the remote, active side). *)

val set_neighbor_deliver :
  Router_state.t -> neighbor_id:int -> (Ipv4_packet.t -> unit) -> unit
