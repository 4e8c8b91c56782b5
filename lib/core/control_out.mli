(** Control plane, outbound (§3.2.1, §3.3, §4.7): experiment update
    processing through the enforcement engine, announcement-variant
    selection, mesh import, and batched per-neighbor re-export.

    Re-export runs through a dirty-prefix queue: updates mark prefixes
    dirty ({!request_reexport}) and one flush per engine tick
    ({!flush_reexports}, self-scheduled at zero delay) recomputes each
    dirty prefix once. Deltas against the Adj-RIB-Out keep the wire
    identical to eager re-export.

    Within one flush, neighbors selecting the same interned variant form
    an update-group: the Adj-RIB-Out is one group table (what every
    untagged neighbor hears) plus per-neighbor overrides, the
    neighbor-facing attribute set is computed once per variant, and each
    distinct delta list leaves as packed multi-NLRI UPDATEs (one per
    shared outbound attribute set, split at the 4096-byte RFC 4271
    boundary), encoded once and sent to every neighbor that shares it
    ({!Export_pool}). *)

open Netcore
open Bgp
open Sim

val variants_for_prefix :
  Router_state.t -> Prefix.t -> Attr_arena.handle list
(** All live announcement variants for a prefix (local experiments plus
    remote-experiment imports), unfiltered, as interned handles. *)

val neighbor_facing_attrs : Router_state.t -> Attr.set -> Attr.set
(** Attributes as announced to a real eBGP neighbor: platform ASN
    prepended, next hop rewritten, control communities stripped. *)

val chunked : 'a list -> int -> 'a list list
(** Split a list into chunks of at most [n] elements, preserving order
    (the v6 MP-attribute packer's helper). Tail-recursive — a full-table
    withdraw sweep chunks hundreds of thousands of NLRIs — and raises
    [Invalid_argument] when [n <= 0]. *)

val request_reexport : Router_state.t -> Prefix.t -> unit
(** Mark an IPv4 prefix dirty and schedule a flush at the current engine
    tick (no-op if one is already scheduled). *)

val request_reexport_v6 : Router_state.t -> Prefix_v6.t -> unit

val flush_reexports : Router_state.t -> unit
(** Drain the dirty-prefix queues now: recompute each dirty prefix
    (deterministic prefix order) and send Adj-RIB-Out deltas. Runs automatically once per engine tick after updates; call
    directly only when driving the router without the engine. *)

val seed_neighbor : Router_state.t -> neighbor_id:int -> unit
(** Give a newly added neighbor its Adj-RIB-Out view: the group table
    plus an override at each live prefix whose export-control tags name
    its export id and give it another outcome. No-op for an alias or an
    unknown id. *)

val process_experiment_update :
  Router_state.t ->
  experiment:string ->
  Msg.update ->
  (unit, string list) result
(** Run one UPDATE from a connected experiment through the control-plane
    enforcement engine (§3.3); on acceptance, record the variant, export
    to the mesh, and mark affected prefixes dirty. *)

val process_mesh_update : Router_state.t -> pop:string -> Msg.update -> unit
(** Import one UPDATE from the backbone mesh: alias remote neighbors'
    routes (§4.4) or record remote experiment announcements for local
    re-export. Identical replays (a graceful-restart resync) are
    absorbed silently. *)

val process_mesh_eor : Router_state.t -> pop:string -> unit
(** The mesh peer's End-of-RIB (RFC 4724): drop exactly the stale
    imports its post-restart resync did not refresh. *)

val process_mesh_down : Router_state.t -> pop:string -> Fsm.down_reason -> unit
(** Mesh session loss: retain imports as stale for the negotiated restart
    window on a graceful down, hard-drop them otherwise. *)

val flush_mesh_peer : Router_state.t -> pop:string -> unit
(** An out-of-band verdict that [pop] is dead (the health monitor's
    Failed transition): drop its imports now instead of waiting out the
    graceful-restart window, withdrawing its remote experiment
    announcements from our neighbors. Idempotent. *)

val connect_experiment :
  Router_state.t ->
  grant:Control_enforcer.grant ->
  mac:Mac.t ->
  ?latency:float ->
  unit ->
  Bgp_wire.pair
(** Connect an experiment's BGP client (ADD-PATH both directions); data
    flows over the experiment LAN via [mac]. The caller starts the
    returned pair. *)
