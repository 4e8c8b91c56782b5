(** The vBGP data plane (§3.2.2): MAC-keyed per-neighbor forwarding on
    the experiment LAN, inbound source-MAC rewriting, and ICMP errors.

    The destination MAC of a frame from an experiment selects the
    neighbor forwarding table; frames toward experiments carry the
    delivering neighbor's virtual MAC as source. Operates on the shared
    {!Router_state.t}. *)

open Netcore

val deliver_to_local_experiment :
  Router_state.t -> via_mac:Mac.t -> string -> Ipv4_packet.t -> unit
(** Frame a packet to the named experiment's station, with [via_mac] (the
    delivering neighbor's virtual MAC) as the frame source. *)

val icmp_ttl_exceeded : Router_state.t -> Ipv4_packet.t -> Ipv4_packet.t
(** The ICMP time-exceeded error for an expired packet, sourced from the
    router's primary address (§5). *)

val forward_over_backbone :
  Router_state.t -> global_ip:Ipv4.t -> Ipv4_packet.t -> unit
(** Hand a packet to the backbone segment toward the PoP owning
    [global_ip] (§4.4 hop-by-hop forwarding). *)

val deliver_inbound : Router_state.t -> ?via:Router_state.neighbor_state -> Ipv4_packet.t -> unit
(** Route a packet destined to experiment space: to the owning local
    experiment (source MAC rewritten to [via]'s virtual MAC) or across
    the backbone for a remote owner. *)

val inject_from_neighbor :
  Router_state.t -> neighbor_id:int -> Ipv4_packet.t -> unit
(** A packet arriving from the Internet via this neighbor. *)

val forward_experiment_frame :
  Router_state.t -> neighbor_id:int -> Eth.t -> unit
(** A frame an experiment addressed to a neighbor's virtual MAC: data
    enforcement, attribution, TTL, then the neighbor's own FIB. Always
    runs on the sequential path (shared caches), even on a router with
    several lanes. *)

val handle_exp_lan_frame :
  Router_state.t -> station_neighbor:int option -> Eth.t -> unit
(** The experiment-LAN station handler: ARP for virtual IPs, IPv4
    forwarding through the station's neighbor table. *)

val activate : Router_state.t -> unit
(** Attach the router's own station to the experiment LAN. *)
