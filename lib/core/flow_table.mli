(** The data plane's per-neighbor flow table, keyed by (source MAC,
    source address, destination address) with every key part an
    unboxed [int]: a lookup allocates nothing.

    Addresses are passed as {!Netcore.Ipv4.to_bits} (the data plane
    reads them from the frame with {!Netcore.Ipv4_packet.View.src_bits}
    and [dst_bits]); MACs as {!Netcore.Mac.to_int}. Entries are only
    ever dropped all at once, by {!reset}. A table is not safe for
    concurrent use. *)

type 'a t

val create : unit -> 'a t

val find : 'a t -> mac:int -> src:int -> dst:int -> 'a option
(** The entry stored under the key, if any. Allocates nothing. *)

val replace : 'a t -> mac:int -> src:int -> dst:int -> 'a -> unit
(** Store (or overwrite) the entry under the key. *)

val length : _ t -> int
(** The number of keys stored. *)

val reset : _ t -> unit
(** Drop every entry and shrink back to the initial size. *)
