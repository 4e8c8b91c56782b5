(** The data-plane enforcement engine (paper §3.3): the eBPF-analog filter
    chain inspecting every experiment packet before it reaches the
    Internet. Filters can be stateless or stateful (keeping their own
    state, like an eBPF map). The built-ins mirror PEERING's policies:
    source validation (no spoofing, no transiting foreign traffic) and
    per-PoP/per-neighbor traffic shaping (§4.7).

    The chain is split for the data plane's flow cache: the maximal
    leading run of stateless filters (the head) has a per-flow-memoizable
    verdict; everything from the first stateful filter onward (the tail)
    runs on every packet, cache hit or not. *)

open Netcore

(** One filter's verdict on one packet. *)
type verdict =
  | Allow
  | Block of string
  | Transform of Ipv4_packet.t  (** rewrite, then continue down the chain *)

type meta = { ingress : string }
(** Where the packet entered the platform (e.g. an experiment name), for
    attribution. *)

type filter

val filter :
  ?stateless:bool ->
  ?fresh:(unit -> filter) ->
  name:string ->
  (now:float -> meta:meta -> Ipv4_packet.t -> verdict) ->
  filter
(** Build a filter. [stateless] (default [false]) is a contract, not an
    observation: it asserts the verdict depends {e only} on the packet's
    source and destination addresses, the ingress metadata, and the
    filter's fixed configuration — the fields of the data-plane flow key —
    never on other header fields, payload, wall-clock time, or mutable
    state. Stateless filters form the cacheable head of the chain;
    flagging a filter stateless when it is not breaks flow-cache
    coherence (stale verdicts served to later packets of a flow).

    [fresh] builds an independent instance of the filter with private
    mutable state; the sharded data plane calls it once per worker
    domain ({!replicate}). A stateful filter whose apply closure owns
    interior state (a bucket table, say) must provide it — typically
    [let rec make () = filter ~fresh:make ... in make ()]. *)

val filter_name : filter -> string
val filter_is_stateless : filter -> bool

val filter_counts : filter -> int * int
(** This filter's own [(allowed, blocked)] counters (used to aggregate
    replica counters under sharding). *)

val replicate : filter -> filter
(** An independent instance for a worker domain: private state via
    [fresh] when provided, zeroed counters. Without [fresh] the apply
    closure is shared — safe only when it holds no mutable state. *)

type t

val create : ?trace:Sim.Trace.t -> unit -> t

val add_filter : t -> filter -> unit
(** Appended: filters run in insertion order (O(1); the ordered chain is
    rebuilt lazily). Bumps {!generation}. *)

val filters : t -> string list

val stats : t -> int * int
(** [(allowed, blocked)]. *)

val filter_stats : t -> (string * int * int) list
(** Per-filter [(name, allowed, blocked)] in chain order. A filter's
    [allowed] counts packets it passed onward (including transforms);
    packets short-circuited by an earlier block are not charged to later
    filters. *)

val generation : t -> int
(** The chain-config generation, bumped by every {!add_filter}. The data
    plane stamps flow-cache entries with it so any chain change
    invalidates every memoized verdict. *)

val source_validation : owner_of:(Ipv4.t -> string option) -> unit -> filter
(** Anti-spoofing: the source address must belong to the sending
    experiment ([owner_of] maps addresses to allocations, the ingress
    metadata names the sender). Stateless — the verdict is a function of
    the flow key. *)

val shaper :
  name:string ->
  rate:float ->
  burst:float ->
  ?idle_horizon:float ->
  key_of:(Ipv4_packet.t -> string) ->
  unit ->
  filter
(** Token-bucket shaping, bytes/second with a burst allowance, one bucket
    per classifier key (PoP, neighbor, experiment...). Stateful: debits
    tokens on every packet, cached flow or not. Buckets idle longer than
    [idle_horizon] seconds (default 300) are evicted when a new key first
    appears, bounding the bucket table under key churn. *)

val ttl_guard : ?min_ttl:int -> unit -> filter
(** Refuse packets that would expire inside the platform. Keeps no state
    but reads the TTL — not a flow-key field — so it is deliberately NOT
    stateless and runs per packet. *)

(** The chain's decision, carrying the (possibly rewritten) packet. *)
type decision = Allowed of Ipv4_packet.t | Blocked of string

val check : t -> now:float -> meta:meta -> Ipv4_packet.t -> decision

(** {1 Flow-cache interface}

    Used by {!Data_plane}'s per-neighbor flow cache. One slow-path
    [check_resolve] classifies the flow; hits then replay only what must
    run per packet. *)

(** Whether the stateless head alone determined the flow's fate. *)
type resolution =
  | Cacheable_allow
      (** the head passed the packet through unchanged; memoize the
          forwarding action, re-run the tail per hit *)
  | Cacheable_block of filter * string
      (** a head filter blocked; memoize and {!replay_block} per hit *)
  | Uncacheable
      (** a head filter transformed the packet — per-packet content
          escaped into the verdict, nothing may be memoized *)

(** What the stateful tail said about one cache-hit packet. *)
type tail_decision =
  | Tail_pass of Ipv4_packet.t option
      (** the tail passed the packet unchanged; carries the record the
          tail ran on ([None] when the chain has no tail and no record
          was built), so the caller need not materialize another *)
  | Tail_rewritten of Ipv4_packet.t
      (** a tail filter rewrote the packet; the caller must fall back to
          the slow path (the rewrite may change the destination) *)
  | Tail_blocked of string

val check_resolve :
  t -> now:float -> meta:meta -> Ipv4_packet.t -> decision * resolution
(** Exactly {!check} — same decision, counters, and trace effects — plus
    the flow's cacheability classification. *)

val replay_block : t -> now:float -> filter -> string -> unit
(** Account one cache-hit packet of a flow whose memoized verdict is a
    head block: identical counter/trace effects to re-walking the head. *)

val check_tail :
  t -> now:float -> meta:meta -> Ipv4_packet.View.t -> tail_decision
(** Account one cache-hit packet of a flow whose memoized verdict is a
    head pass, and run the stateful tail on it. Only materializes a
    packet record when a tail filter actually exists, and then at most
    once: a pass returns it as [Tail_pass (Some p)]. *)

(** {1 Sharded data plane}

    The domain-sharded data plane ({!Shard}) publishes the chain split
    into worker snapshots: head filters are shared read-only (their apply
    closures are stateless by contract; workers keep per-domain counter
    arrays), tail filters are {!replicate}d per domain so stateful
    filters keep single-writer state under flow-to-domain affinity. *)

val head_filters : t -> filter list
(** The maximal stateless prefix of the chain, in order. *)

val tail_filters : t -> filter list
(** The first stateful filter onward, in order. *)

val apply_filter :
  filter -> now:float -> meta:meta -> Ipv4_packet.t -> verdict
(** Run one filter's predicate without touching its counters (workers
    account shared head filters in per-domain arrays instead). *)

val run_replica_chain :
  now:float -> meta:meta -> Ipv4_packet.t -> filter list -> decision
(** Run a standalone replica list to a decision, crediting the replicas'
    own per-filter counters; no chain-global counters or trace. *)
