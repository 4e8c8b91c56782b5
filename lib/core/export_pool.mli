(** The Control_out export flush and its lanes: a {!Lanes} pool, each
    lane owning the export-control filtering, Adj-RIB-Out delta,
    multi-NLRI packing, and wire encoding for a fixed subset of
    neighbors, with the staged sends replayed by the single writer. A
    one-lane pool is the sequential flush itself.

    Protocol: {!flush} hash-partitions the neighbor targets across the
    lanes ({!Lanes.of_neighbor} — deterministic, so each Adj-RIB-Out is
    single-writer by construction) and runs them with the
    coordinator-computed dirty-prefix snapshot plus the facing closure
    as the run context; {!consume} replays the fully encoded staged
    messages on the coordinator in neighbor-id order through the
    caller's send sink and folds the deduplicated facing/block novelty
    counts. The control plane must be quiesced during a flush; workers
    only ever run concurrently with each other.

    Each lane encodes its own messages: one attribute block per facing
    set per lane per flush ({!Codec.encode_attrs_block}), spliced into
    every packed message ({!Codec.encode_update_spliced}) — the
    encode-once wire cache. The parallel-vs-sequential differential
    suite pins adj-out fingerprints, exact counters, and per-neighbor
    wire-byte transcripts, whatever the lane interleaving. *)

open Netcore
open Bgp

(** Per-flush view of one neighbor, captured from live router state by
    the coordinator immediately before the workers run. [xt_out] is the
    live Adj-RIB-Out table (resolved up front so its lazy creation never
    races); only the owning worker touches it during the flush.
    [xt_params] is [Some] of the session's negotiated encoding
    parameters iff it is established — [None] suppresses packing while
    the Adj-RIB-Out delta still applies, exactly as on the sequential
    path. *)
type target = {
  xt_id : int;
  xt_export_id : int;
  xt_out : Attr_arena.handle Prefix.Tbl.t;
  xt_params : Codec.params option;
}

type t

val create : lanes:int -> unit -> t
(** A pool of [lanes] export lanes (>= 1). No domain is spawned until a
    multi-lane {!flush}; a 1-lane pool runs everything inline on the
    coordinator. *)

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
    [facing] runs on worker domains, so it may only touch domain-safe
    state (it interns the neighbor-facing set through the striped
    arena). [log] is the
    per-delta trace hook, retained only with one lane — tracing is
    not domain-safe, so multi-lane flushes skip trace lines (a
    trace-only divergence the fingerprints never see). The caller must
    not mutate router state during the call. *)

val consume :
  t ->
  send:(nid:int -> update:Msg.update -> bytes:string -> bool) ->
  computations:(int -> unit) ->
  unit
(** Replay the flush's staged sends into the caller's sink and clear
    them: [send] per fully encoded message in neighbor-id order (stable
    across lanes; per-neighbor FIFO), returning whether the bytes went
    out (counted into [wire_bytes_out]); then one [computations] call
    with the cross-lane deduplicated count of facing sets computed —
    exactly the sequential flush's facing-cache misses. Call after
    {!flush} returns. *)

val shutdown : t -> unit
(** {!Lanes.shutdown}. *)

(** {1 Observability} *)

type stats = {
  wire_cache_hits : int;
      (** announce messages spliced from an already-encoded attribute
          block (cross-lane deduplicated, like the misses) *)
  wire_cache_misses : int;
      (** distinct (facing set, params) attribute blocks encoded *)
  wire_bytes_out : int;  (** wire bytes handed to established sessions *)
  staged_residual : int;
      (** staged messages not yet consumed — 0 after every
          flush+consume cycle (gated in the export-par bench) *)
  lane_depth_max : int array;
      (** per-lane target-queue high-water mark over the pool's lifetime
          (index 0 = coordinator lane) *)
}

val stats : t -> stats
