(** IPv4 prefixes in CIDR notation.

    The network address is stored with host bits cleared, so structural
    equality coincides with prefix equality. *)

type t
(** An IPv4 prefix. *)

val make : Ipv4.t -> int -> t
(** [make addr len] is [addr/len] with host bits cleared. Raises
    [Invalid_argument] when [len] is outside [0, 32]. *)

val network : t -> Ipv4.t
(** The (masked) network address. *)

val length : t -> int
(** The prefix length. *)

val netmask : t -> int32

val equal : t -> t -> bool
val compare : t -> t -> int

val to_string : t -> string
(** ["a.b.c.d/len"]. *)

val of_string : string -> t option
val of_string_exn : string -> t

val mem : Ipv4.t -> t -> bool
(** [mem addr p] holds when [addr] is inside [p]. *)

val subset : sub:t -> super:t -> bool
(** [subset ~sub ~super] holds when every address of [sub] is in [super]
    (used for allocation-ownership checks). *)

val bit : t -> int -> bool
(** [bit p i] is bit [i] of the network address, [0 <= i < length p]. *)

val host : t -> int -> Ipv4.t
(** [host p n] is the [n]-th address inside [p] (0 is the network address).
    Raises [Invalid_argument] when out of range. *)

val size : t -> int
(** Number of addresses covered. *)

val split : t -> t * t
(** The two half-length subprefixes. Raises on a /32. *)

val subnets : t -> int -> t list
(** [subnets p len] enumerates the subprefixes of [p] of length [len]. *)

val default : t
(** [0.0.0.0/0]. *)

val pp : Format.formatter -> t -> unit

module Tbl : Hashtbl.S with type key = t
(** Hash tables keyed by prefix, without the polymorphic hash and
    compare of [Hashtbl]. The hash spreads runs of consecutive prefixes
    of one length over its low bits, which [Hashtbl.Make] uses as the
    bucket index. *)
