(** The Internet (ones-complement) checksum of RFC 1071, used by the IPv4
    header and ICMP codecs. *)

val sum_into : int -> string -> int
(** Accumulate the 16-bit ones-complement sum of [data] into a partial
    sum (for pseudo-header style computations). *)

val finish : int -> int
(** Fold carries and complement a partial sum into the final checksum. *)

val of_string : string -> int
(** Checksum of a whole string (checksum field zeroed by the caller). *)

val verify : string -> bool
(** Valid data, with its checksum field in place, sums to zero. *)

val sum_bytes_into : int -> Bytes.t -> pos:int -> len:int -> int
(** {!sum_into} over a [Bytes.t] slice (no copy). *)

val of_bytes : Bytes.t -> pos:int -> len:int -> int
val verify_bytes : Bytes.t -> pos:int -> len:int -> bool
