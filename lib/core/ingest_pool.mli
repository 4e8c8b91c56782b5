(** The Control_in ingest step and its parallel lane.

    {!ingest_update} is the one per-update step every ingest path runs:
    GR unmark, withdraw, one intern per update, the unchanged-route check
    and the Adj-RIB-In install, with every route delta handed to a sink.
    {!Control_in.process_neighbor_update} passes a sink that writes the
    FIB and the dirty queue; the lane passes a staging sink.

    The lane is a {!Lanes} pool: {!run} hash-partitions a batch by
    neighbor id ({!Lanes.of_neighbor} — deterministic, so per-neighbor
    state is single-writer by construction) after capturing a fresh
    {!target} per neighbor from live router state, and each lane decodes
    its updates and runs {!ingest_update} through a lane-local
    {!Attr_arena.Front} cache. {!consume} replays the staged deltas on
    the coordinator in per-neighbor processing order. The control plane
    must be quiesced during a run; workers only ever run concurrently
    with each other. The par-ingest differential suite pins identical
    RIB/FIB/heard/export fingerprints and exact counter equality against
    the sequential path, whatever the lane interleaving. *)

open Netcore
open Bgp

(** An input item: raw wire bytes (the lane owns the decode — the
    dominant ingest cost) or an already-decoded update. Non-UPDATE
    messages are ignored; undecodable bytes count as decode errors. *)
type payload = Wire of string | Update of Msg.update

(** One neighbor as the ingest step sees it. [tg_gr] is the live stale
    table of a graceful-restart hold. *)
type target = {
  tg_id : int;
  tg_peer_ip : Ipv4.t;
  tg_peer_asn : Asn.t;
  tg_rib : Rib.Table.t;
  tg_gr : (Prefix.t, unit) Hashtbl.t option;
}

(** A route delta for shared state. [D_withdraw best_changed]:
    unconditional FIB remove; dirty mark only when the best route
    changed. [D_install entry]: FIB insert + dirty mark. *)
type delta = D_withdraw of bool | D_install of Rib.Fib.entry

val ingest_update :
  intern:(Attr.set -> Attr_arena.handle) ->
  apply:(Prefix.t -> delta -> unit) ->
  now:float ->
  target ->
  Msg.update ->
  unit
(** Apply one UPDATE to the target's Adj-RIB-In: for every withdrawn
    NLRI, GR unmark, RIB withdraw and one [D_withdraw] delta; for the
    announced NLRI, one [intern] of the attribute set, then per NLRI a
    GR unmark and — unless the installed route already carries the same
    key and attributes — a RIB install stamped [now] and one [D_install]
    delta. *)

(** The lane pool: per-lane front cache, targets and staging. *)
type t

val create : lanes:int -> unit -> t
(** A pool of [lanes] lanes (>= 1). No domain is spawned until a
    multi-lane {!run}. *)

val decode : t -> payload -> Msg.update option
(** Decode one item on the coordinator, counting a decode error into
    {!stats} as a lane would: the sequential path's decode. *)

val run :
  t ->
  now:float ->
  resolve:(int -> target option) ->
  (int * payload) array ->
  unit
(** Ingest a batch on the lanes: resolve a target for every neighbor in
    it (raising [Invalid_argument], with nothing queued, if [resolve]
    returns [None]), queue each item on its neighbor's lane and run them
    ({!Lanes.run}). The caller must not mutate router state during the
    call. *)

val consume :
  t ->
  apply:(nid:int -> prefix:Prefix.t -> delta -> unit) ->
  updates:(int -> unit) ->
  unit
(** Replay the run's staged deltas into the caller's sinks and clear
    them: [apply] per delta in per-neighbor processing order, then one
    [updates] call with the number of UPDATEs processed (the
    [updates_from_neighbors] fold). Call after {!run} returns. *)

val shutdown : t -> unit
(** {!Lanes.shutdown}. *)

(** {1 Observability} *)

type stats = {
  front_hits : int;  (** per-lane intern front-cache hits, summed *)
  front_misses : int;
  decode_errors : int;  (** cumulative undecodable wire items *)
  staging_residual : int;
      (** staged deltas not yet consumed — 0 after every run+consume
          cycle (gated in the ingest-par bench) *)
  queue_depth_max : int array;
      (** per-lane input-queue high-water mark over the pool's lifetime
          (index 0 = coordinator lane) *)
}

val stats : t -> stats
