(** vBGP's community-based export control (paper §3.2.1).

    Experiments tag announcements with whitelist/blacklist communities
    naming neighbors; the router propagates each announcement only to the
    neighbors the tags allow. Neighbors are named by their platform-global
    export id (their index in the shared global address pool, §4.4), so a
    tag written at one PoP means the same neighbor everywhere. *)

open Bgp

val marker_experiment : int
val whitelist_base : int
val blacklist_base : int
val max_export_id : int

val announce_to : ctl_asn:int -> int -> Community.t
(** Whitelist tag: announce only to this neighbor (repeatable). *)

val block : ctl_asn:int -> int -> Community.t
(** Blacklist tag: never announce to this neighbor. *)

val experiment_marker : ctl_asn:int -> Community.t
(** Internal backbone-mesh marker for experiment-originated routes. *)

val is_marker : ctl_asn:int -> Community.t -> bool

type filter
(** A tag set decoded once: the export ids it whitelists and blacklists. *)

val compile : ctl_asn:int -> Community.t list -> filter
(** Decode the export-control tags among [communities]; every other
    community (foreign ASN, marker, NO_EXPORT) is ignored. *)

val permits : filter -> int -> bool
(** [permits f export_id]: no tags = announce everywhere; a whitelist
    restricts to its members; a blacklist always excludes (and beats the
    whitelist). *)

val allows : ctl_asn:int -> export_id:int -> Community.t list -> bool
(** [permits (compile ~ctl_asn communities) export_id]. *)

val first_permitted : int -> ('a * filter) list -> 'a option
(** The first variant whose filter permits the export id, in list order. *)

val first_untagged : ('a * filter) list -> 'a option
(** What every export id no filter names hears: the first variant
    without a whitelist. Equal to [first_permitted id] for any such
    [id]. *)

val iter_named : (int -> unit) -> filter -> unit
(** Each export id the filter whitelists or blacklists. *)

val names : filter -> int -> bool
(** Whether the filter whitelists or blacklists the export id. *)
