(** Forwarding tables. vBGP keeps one FIB per BGP neighbor — the key
    design point of the data-plane delegation (paper §3.2.2): the
    destination MAC of an incoming frame selects the neighbor's table, and
    the lookup proceeds exactly as in a conventional router. Figure 6a
    measures the memory cost of this choice, so the structures expose an
    accurate byte count. *)

open Netcore

type entry = {
  next_hop : Ipv4.t;
  neighbor : int;  (** opaque neighbor/interface identifier *)
}

type t

val create : unit -> t
val entry_count : t -> int

val insert : t -> Prefix.t -> entry -> unit
(** Replaces any entry for the same prefix. Inserting an entry equal to
    the one already bound (same next hop and neighbor) is a no-op: the
    trie, the entry count and {!generation} are all left as they were. *)

val remove : t -> Prefix.t -> unit

val lookup : t -> Ipv4.t -> entry option
(** Longest-prefix match, through a generation-stamped destination cache:
    repeated lookups of one address skip the trie, and any [insert],
    [remove], or [clear] that changes a binding invalidates the cache
    before the next lookup. *)

val generation : t -> int
(** The table's mutation stamp (the destination cache's generation):
    bumped by every mutation that changes a binding — an [insert] of a
    new or different entry, a binding-removing [remove], and [clear].
    External caches stamp derived entries with it and treat a mismatch
    as invalidation. *)

val find : t -> Prefix.t -> entry option
val fold : (Prefix.t -> entry -> 'acc -> 'acc) -> t -> 'acc -> 'acc
val clear : t -> unit

val memory_bytes : t -> int
(** Heap footprint, word-accurate via the runtime (Figure 6a). *)

(** The per-neighbor table set of one vBGP router. *)
module Set : sig
  type fib = t
  type t

  val create : unit -> t

  val table : t -> int -> fib
  (** The table for neighbor [id], created on first use. *)

  val find : t -> int -> fib option
  val remove_table : t -> int -> unit
  val table_ids : t -> int list
  val table_count : t -> int
  val total_entries : t -> int
  val memory_bytes : t -> int
end
