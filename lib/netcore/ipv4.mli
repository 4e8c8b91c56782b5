(** IPv4 addresses.

    Addresses are totally ordered as unsigned 32-bit integers, so
    [255.0.0.1 > 1.0.0.1] as network operators expect. *)

type t
(** An IPv4 address. *)

val equal : t -> t -> bool

val compare : t -> t -> int
(** Unsigned comparison. *)

val of_int32 : int32 -> t
(** Interpret [v] as a big-endian address. *)

val to_int32 : t -> int32

val of_octets : int -> int -> int -> int -> t
(** [of_octets a b c d] is [a.b.c.d]. Raises [Invalid_argument] if any octet
    is outside [0, 255]. *)

val octets : t -> int * int * int * int

val to_string : t -> string
(** Dotted-quad rendering. *)

val of_string : string -> t option
(** Parse dotted-quad notation; [None] on malformed input. *)

val of_string_exn : string -> t
(** Like {!of_string}; raises [Invalid_argument] on malformed input. *)

val any : t
(** [0.0.0.0]. *)

val broadcast : t
(** [255.255.255.255]. *)

val localhost : t
(** [127.0.0.1]. *)

val add : t -> int -> t
(** Offset arithmetic, wrapping modulo 2{^32}; used by address pools. *)

val succ : t -> t

val diff : t -> t -> int
(** [diff a b] is the unsigned distance from [b] to [a]. *)

val hash : t -> int

val to_bits : t -> int
(** The address as an unsigned 32-bit [int]: distinct addresses give
    distinct ints, and none is boxed. *)

val is_private : t -> bool
(** RFC 1918 space or loopback. *)

val pp : Format.formatter -> t -> unit
