(** IPv4 packets (RFC 791; no options, no fragmentation).

    Header checksums are computed on encode and verified on decode so
    corruption in the simulated network is detectable. *)

type protocol = Icmp | Tcp | Udp | Other of int

val protocol_to_int : protocol -> int
val protocol_of_int : int -> protocol

type t = {
  src : Ipv4.t;
  dst : Ipv4.t;
  ttl : int;
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

val decode : string -> (t, string) result
(** Verifies version, IHL, total length, and the header checksum. *)

val pp : Format.formatter -> t -> unit

type packet = t
(** Alias for the record, for use under {!View} where [t] is shadowed. *)

(** Zero-copy packet views: the wire buffer itself, read by field offset.

    The data-plane fast path uses views to avoid materializing a record
    per packet or re-encoding on delivery; the record stays the slow-path
    currency (filters, ICMP generation, tests). A view validated by
    {!View.of_string}/{!View.of_bytes} satisfies exactly {!decode}'s
    checks (version, IHL 5, total length, header checksum). Unlike the
    record round trip, a view preserves the ECN bits and any trailing
    bytes the buffer carries beyond the total length. *)
module View : sig
  type t

  val of_string : string -> (t, string) result
  (** Copies the string into a private mutable buffer and validates it
      (one copy — the only one on the fast path). *)

  val of_bytes : Bytes.t -> (t, string) result
  (** Zero-copy adoption of [b]; the caller must not mutate it behind
      the view's back. *)

  val src : t -> Ipv4.t
  val dst : t -> Ipv4.t
  val ttl : t -> int
  val protocol : t -> protocol
  val ident : t -> int
  val dscp : t -> int

  val total_length : t -> int
  (** Header plus payload bytes, as carried on the wire. *)

  val payload_length : t -> int

  val to_wire : t -> string
  (** The wire form, without re-encoding. Ownership contract: the view
      must not be mutated after [to_wire] (the buffer may be shared with
      the returned string). *)

  val to_packet : t -> packet
  val of_packet : packet -> t
  val pp : Format.formatter -> t -> unit
end
