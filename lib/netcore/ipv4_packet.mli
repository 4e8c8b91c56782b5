(** IPv4 packets (RFC 791; no options, no fragmentation).

    Header checksums are computed on encode and verified on decode so
    corruption in the simulated network is detectable. *)

type protocol = Icmp | Tcp | Udp | Other of int

val protocol_to_int : protocol -> int
val protocol_of_int : int -> protocol

type t = {
  src : Ipv4.t;
  dst : Ipv4.t;
  mutable ttl : int;
      (** mutable so a forwarding path can decrement the TTL of a record
          it owns without copying it; {!decrement_ttl} is the copying
          form *)
  protocol : protocol;
  ident : int;
  dscp : int;
  payload : string;
}

val header_size : int

val make :
  ?ttl:int ->
  ?ident:int ->
  ?dscp:int ->
  src:Ipv4.t ->
  dst:Ipv4.t ->
  protocol:protocol ->
  string ->
  t
(** [make ~src ~dst ~protocol payload] with TTL defaulting to 64. *)

val decrement_ttl : t -> t
(** A copy with TTL decremented; forwarding engines re-encode it. *)

val encode : t -> string
(** The wire form, built in one buffer of the exact size: the payload is
    copied once. *)

val encode_head : t -> payload:int -> string
(** The first [header_size + payload] bytes of {!encode} (all of it when
    the payload is shorter): the header, whose total length and checksum
    still describe the whole packet, and the payload's first [payload]
    bytes. Nothing past them is written — the quote an ICMP error
    carries. *)

val decode : string -> (t, string) result
(** Verifies version, IHL, total length, and the header checksum. *)

val pp : Format.formatter -> t -> unit

type packet = t
(** Alias for the record, for use under {!View} where [t] is shadowed. *)

(** Zero-copy packet views: the frame's own string, read by field offset.

    The data-plane fast path uses views to look at a frame without
    copying it or materializing a record, and to deliver it locally
    without re-encoding; the record stays the slow-path currency
    (filters, ICMP generation, tests). A view validated by
    {!View.of_string} satisfies exactly {!decode}'s checks (version,
    IHL 5, total length, header checksum). Unlike the record round trip,
    a view preserves the ECN bits and any trailing bytes the buffer
    carries beyond the total length. *)
module View : sig
  type t

  val of_string : string -> (t, string) result
  (** Validates the string in place and adopts it as the view: no copy.
      Strings are immutable and a view has no mutators, so the frame is
      shared safely with whoever else holds it. *)

  val src : t -> Ipv4.t
  val dst : t -> Ipv4.t

  val src_bits : t -> int
  (** [Ipv4.to_bits (src v)], read without allocating (a flow-table
      key). *)

  val dst_bits : t -> int
  (** [Ipv4.to_bits (dst v)], read without allocating. *)

  val ttl : t -> int
  val protocol : t -> protocol
  val ident : t -> int
  val dscp : t -> int

  val total_length : t -> int
  (** Header plus payload bytes, as carried on the wire. *)

  val payload_length : t -> int

  val to_wire : t -> string
  (** The wire form, without re-encoding: the adopted string itself, or
      its first {!total_length} bytes when it carries trailing bytes. *)

  val to_packet : t -> packet
  (** A fresh record: one copy of the payload. *)

  val of_packet : packet -> t
  val pp : Format.formatter -> t -> unit
end
