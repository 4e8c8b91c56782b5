(** The domain-sharded data plane: N lanes ({!Lanes}), each owning a
    lane-local per-neighbor flow cache and FIB destination cache,
    forwarding against an immutable generation-stamped control snapshot.

    Protocol: the (single-domain) control plane {!publish}es a snapshot
    whenever its state changes; frames are {!dispatch}ed to per-lane
    queues by hashing the flow key (source MAC, IPv4 source and
    destination) so every packet of a flow lands on the same lane —
    keeping memoized verdicts and per-flow shaper buckets single-writer;
    {!drain} reconciles each lane's caches with the snapshot generation
    and runs the lanes; {!consume} folds buffered effects and per-lane
    counters into the caller's sinks. The control plane must be quiesced
    during a drain; workers only ever run concurrently with each other.

    The worker fast path mirrors {!Data_plane.forward_experiment_frame}
    exactly (verdicts, per-filter accounting, delivered records, shaper
    debits); the parallel-vs-sequential differential suite pins the
    equivalence. Flow entries carry one snapshot generation instead of
    the sequential path's three stamps, so invalidation is coarser and
    hit/miss counts may differ across equivalent runs — never verdicts. *)

open Netcore

val domain_of_flow :
  domains:int -> src_mac:Mac.t -> src:Ipv4.t -> dst:Ipv4.t -> int
(** The home domain of a flow key — deterministic, so per-flow state is
    single-writer by construction. *)

(** Per-neighbor slice of a snapshot: the FIB's persistent trie root
    (immutable — safe to walk from any domain) plus egress identity. *)
type nsnap = {
  sn_id : int;
  sn_alias : bool;  (** remote neighbor: egress goes over the backbone *)
  sn_trie : Rib.Fib.entry Ptrie.V4.t;
}

(** Buffered externally-visible effects a worker may not perform itself;
    applied by the coordinator via {!consume}. *)
type outcome =
  | O_icmp of Ipv4_packet.t  (** TTL expired: answer with ICMP inbound *)
  | O_backbone of Ipv4.t * Ipv4_packet.t
      (** forward over the backbone toward the global IP *)

type t

val create : lanes:int -> unit -> t
(** A pool of [lanes] lanes (>= 1). No domain is spawned until a
    multi-lane {!drain}; a 1-lane pool runs everything inline. *)

val generation : t -> int
(** The current snapshot's generation (0 before the first publish). *)

val queue_depth_max : t -> int array
(** Per-lane queue high-water mark over the pool's lifetime (index 0 =
    coordinator lane). A skewed flow hash shows up as one lane's max far
    above the others' — recorded in the fwd-par bench so speedup-floor
    failures are diagnosable from the JSON alone. *)

val publish :
  t ->
  vmac:(Mac.t, nsnap) Hashtbl.t ->
  exp_mac:(Mac.t, string) Hashtbl.t ->
  head:Data_enforcer.filter list ->
  tail:Data_enforcer.filter list ->
  unit
(** Publish a new control snapshot (generation = previous + 1). The
    tables must be freshly built for this call and never mutated after;
    lanes see the snapshot from the next {!drain} on. [head] filters
    are shared read-only across lanes (workers account them in per-lane
    arrays); [tail] filters are replicated per lane on first sight
    ({!Data_enforcer.replicate}) and the replicas persist across
    generations, so stateful filters keep their state through control
    churn. *)

val dispatch : t -> Eth.t -> unit
(** Queue one frame on its flow's home lane (runs on the coordinator,
    between drains). *)

val drain : t -> now:float -> unit
(** Forward everything queued ({!Lanes.run}). The control plane must not
    mutate router state during the call. *)

val shutdown : t -> unit
(** Join the pool's worker domains ({!Lanes.shutdown}). Idempotent;
    sharding state survives, and the next multi-lane {!drain} respawns
    workers transparently. *)

val consume :
  t ->
  deliver:(int -> Ipv4_packet.t -> unit) ->
  outcome:(outcome -> unit) ->
  attribute:(string -> packets:int -> bytes:int -> unit) ->
  counters:
    (hits:int -> misses:int -> to_neighbors:int -> dropped:int -> unit) ->
  unit
(** Fold the drain's buffered effects and counters into the caller's
    sinks and clear them: deliveries ([deliver neighbor_id packet], the
    record built on the lane) and outcomes in per-lane forwarding order,
    per-experiment attribution totals, then one [counters] call with the
    drain's flow-cache and forwarding tallies. Call after {!drain}
    returns. *)

(** {1 Enforcer aggregation}

    Sharded analogs of {!Data_enforcer.stats}/[filter_stats], summed
    across lanes (shared-head counter arrays + tail replica counters).
    Call between drains. *)

val enforcer_stats : t -> int * int
(** Aggregate [(allowed, blocked)] chain totals. *)

val filter_stats : t -> (string * int * int) list
(** Aggregate per-filter [(name, allowed, blocked)] in chain order. *)
