(** The Control_out export flush, its shared Adj-RIB-Out, and its
    {!Lanes} pool. A one-lane pool is the sequential flush itself.

    The Adj-RIB-Out is one group table plus sparse overrides. The group
    table holds, for each prefix, what a neighbor that no export-control
    tag names hears. An override holds a neighbor's outcome at one
    prefix where it differs from the group's, and is dropped as soon as
    the two agree again. A neighbor's view is the group table overlaid
    with its overrides.

    Protocol: {!flush} computes every delta on the coordinator — the
    group's choice once per dirty prefix, per-neighbor outcomes only for
    the neighbors the prefix's tags name or that hold an override there
    — and updates the Adj-RIB-Out. Neighbors whose whole delta list is
    equal under equal session parameters share one job: one packing
    ({!Codec.split_update}) and one encoding, attribute blocks encoded
    once per lane per flush ({!Codec.encode_attrs_block}) and spliced
    into every message ({!Codec.encode_update_spliced}). Each neighbor is
    queued on its {!Lanes.of_neighbor} lane and a job's lowest-id member
    encodes it there. {!consume} then sends each member its job's byte
    strings on the coordinator, in neighbor-id order. The control plane
    must be quiesced during a flush; workers only ever run concurrently
    with each other, and only the coordinator interns. *)

open Netcore
open Bgp

(** One neighbor in a flush, captured from live router state by the
    coordinator immediately before the flush. [xt_params] is [Some] of
    the session's negotiated encoding parameters iff it is established;
    [None] sends nothing while the neighbor's view still changes. *)
type target = {
  xt_id : int;
  xt_export_id : int;
  xt_params : Codec.params option;
}

type t

val create : lanes:int -> unit -> t
(** A pool of [lanes] export lanes (>= 1) over an empty Adj-RIB-Out. No
    domain is spawned until a multi-lane {!flush}; a 1-lane pool runs
    everything inline on the coordinator. *)

val flush :
  t ->
  prefixes:(Prefix.t * (Attr_arena.handle * Export_control.filter) list) array ->
  targets:target list ->
  facing:(Attr_arena.handle -> Attr_arena.handle) ->
  ?log:(announce:bool -> int -> Prefix.t -> unit) ->
  unit ->
  unit
(** Run one export flush over the sorted dirty-prefix snapshot
    [prefixes]: each prefix with its exportable variants in preference
    order, each variant paired with its compiled export filter. A
    neighbor hears the first variant whose filter permits its export id
    ({!Export_control.first_permitted}), or a withdrawal when none does.
    [targets] are every real neighbor, in id order. [facing] maps a
    variant to its neighbor-facing set; it runs on the coordinator, once
    per variant per flush. [log] is the per-delta trace hook, called
    per neighbor in id order, each neighbor's deltas in prefix order. The
    caller must not mutate router state during the call. *)

val consume :
  t ->
  send:(nid:int -> update:Msg.update -> bytes:string -> bool) ->
  computations:(int -> unit) ->
  unit
(** Replay the flush's sends into the caller's sink and clear them:
    [send] per fully encoded message in neighbor-id order (per-neighbor
    FIFO), returning whether the bytes went out (counted into
    [wire_bytes_out]); then one [computations] call with the number of
    distinct variants some neighbor hears in this flush — one facing-set
    computation each. Call after {!flush} returns. *)

val shutdown : t -> unit
(** {!Lanes.shutdown}. *)

(** {1 The Adj-RIB-Out} *)

val routes : t -> nid:int -> (Prefix.t * Attr_arena.handle) list
(** Neighbor [nid]'s view, sorted by prefix: the group table overlaid
    with its overrides. The caller decides which ids are neighbors. *)

val set_view : t -> nid:int -> Prefix.t -> Attr_arena.handle option -> unit
(** Make [nid]'s view at the prefix the given outcome, as an override
    when it differs from the group's and as no override when it does
    not. For seeding a neighbor added after announcements. *)

val entries : t -> int
(** Group-table entries plus overrides. *)

(** {1 Observability} *)

type stats = {
  wire_cache_hits : int;
      (** announce messages, per member send, spliced from an
          already-encoded attribute block *)
  wire_cache_misses : int;
      (** distinct (facing set, params) attribute blocks encoded *)
  wire_bytes_out : int;  (** wire bytes handed to established sessions *)
  delta_lists_encoded : int;
      (** distinct (delta list, params) packed and encoded — one per job,
          however many neighbors it is sent to *)
  staged_residual : int;
      (** encoded messages not yet replayed — 0 after every
          flush+consume cycle (checked in the export-par bench) *)
  lane_depth_max : int array;
      (** per-lane neighbor-queue high-water mark over the pool's
          lifetime (index 0 = coordinator lane) *)
}

val stats : t -> stats
