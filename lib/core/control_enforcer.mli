(** The control-plane enforcement engine (paper §3.3; policies of §4.7).

    Interposes between experiments and the routing engine: every experiment
    announcement is validated against its allocation and capability grant,
    transformed where policy strips rather than rejects, and rate limited.
    Fails closed: when flagged overloaded it blocks all experiment
    announcements rather than risk leaking one. *)

open Netcore
open Bgp

(** An approved experiment's resources and capabilities. *)
type grant = {
  name : string;
  asns : Asn.t list;  (** ASNs it may originate from *)
  prefixes : Prefix.t list;  (** IPv4 allocation *)
  prefixes_v6 : Prefix_v6.t list;
  caps : Experiment_caps.t;
}

val grant :
  ?asns:Asn.t list ->
  ?prefixes:Prefix.t list ->
  ?prefixes_v6:Prefix_v6.t list ->
  ?caps:Experiment_caps.t ->
  string ->
  grant

val owns_prefix : grant -> Prefix.t -> bool
val owns_prefix_v6 : grant -> Prefix_v6.t -> bool
val owns_address : grant -> Ipv4.t -> bool

(** The verdict on one update. *)
type outcome =
  | Accepted of Msg.update  (** possibly transformed (attributes stripped) *)
  | Rejected of string list  (** every violated policy *)

type t

type limit_key = string * Prefix.t * string
(** A rate-limiter key: (experiment name, prefix, PoP). Enforcers at
    different PoPs may share one limiter and still keep a budget per
    (prefix, PoP). *)

val create :
  ?platform_asns:Asn.t list ->
  ?control_community_asn:int ->
  ?limiter:limit_key Rate_limiter.t ->
  ?trace:Sim.Trace.t ->
  unit ->
  t

val set_fail_closed : t -> bool -> unit

val stats : t -> int * int
(** [(accepted, rejected)]. *)

val control_community_asn : t -> int
(** The 16-bit community namespace reserved for export control. *)

val is_control_community : t -> Community.t -> bool

val check : t -> now:float -> pop:string -> grant -> Msg.update -> outcome
(** Validate one experiment update at [pop]: address-space ownership (both
    announce and withdraw), origin ASN, transit, poisoning budget,
    community and large-community budgets (strip when the capability is
    absent, reject when over a granted budget), unknown transitive
    attributes, 6to4, and the per-(prefix, PoP) daily rate limit. *)

val split_control_communities : t -> Attr.set -> Community.t list * Attr.set
(** Partition off the export-control communities (consumed by the router,
    never leaked upstream). *)
