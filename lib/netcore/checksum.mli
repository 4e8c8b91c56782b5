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

val of_sub : string -> pos:int -> len:int -> int
(** Checksum of the slice [data.[pos .. pos + len - 1]], read in place. *)

val verify_sub : string -> pos:int -> len:int -> bool
(** {!verify} over a slice, read in place. *)

val of_bytes : Bytes.t -> pos:int -> len:int -> int
(** {!of_sub} over a [Bytes.t] slice, read in place. *)
