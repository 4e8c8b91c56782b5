(** Path-compressed (Patricia) bit-prefix tries with longest-prefix match.

    Backs every routing and forwarding table in the repository: per-neighbor
    FIBs (vBGP's data-plane delegation, paper §3.2.2), RIBs, and the
    experiment-ownership map the enforcement engines consult. Each node
    stores the bit-index where its subtree diverges, so lookups touch
    O(distinct branch points) heap nodes instead of one per prefix bit.
    Functorized over the key, with IPv4 and IPv6 instances provided. *)

module type KEY = sig
  type t

  val length : t -> int
  (** Number of significant bits. *)

  val bit : t -> int -> bool
  (** [bit k i] is bit [i] (0 = most significant); requires
      [i < length k]. *)

  val equal : t -> t -> bool

  val diverge : t -> t -> int -> int -> int
  (** [diverge a b lo hi] is the smallest [i] in [lo, hi) where bit [i] of
      [a] and [b] differ, or [hi] when they agree on the whole range.
      Requires [hi <= min (length a) (length b)]. Implementations should
      compare words, not bits — this is the hot comparison of every trie
      walk. *)
end

module Make (K : KEY) : sig
  type 'a t
  (** An immutable trie mapping keys to ['a]. *)

  val empty : 'a t
  val is_empty : 'a t -> bool

  val add : K.t -> 'a -> 'a t -> 'a t
  (** Insert or replace the binding for the key. *)

  val add' : equal:('a -> 'a -> bool) -> K.t -> 'a -> 'a t -> 'a t * bool
  (** Like {!add}, also reporting whether the key was already bound — a
      single walk where [mem] followed by [add] would take two. Returns a
      physically equal trie when the key is already bound to a value
      [equal] to the new one, so callers can detect a no-op write with
      one [==], the same contract as {!remove}. *)

  val remove : K.t -> 'a t -> 'a t
  (** Remove the binding; dead branches are collapsed. Returns a
      physically equal trie when the key is unbound, so callers can detect
      a no-op without a separate [mem] walk. *)

  val find : K.t -> 'a t -> 'a option
  (** Exact-key lookup. *)

  val mem : K.t -> 'a t -> bool

  val longest_match : K.t -> 'a t -> (K.t * 'a) option
  (** The binding of the longest stored key that is a prefix of the
      argument. *)

  val matches : K.t -> 'a t -> (K.t * 'a) list
  (** All bindings whose key is a prefix of the argument, shortest first. *)

  val fold : (K.t -> 'a -> 'acc -> 'acc) -> 'a t -> 'acc -> 'acc
  val iter : (K.t -> 'a -> unit) -> 'a t -> unit
  val cardinal : 'a t -> int
  val to_list : 'a t -> (K.t * 'a) list

  val of_list : (K.t * 'a) list -> 'a t
  (** Later bindings replace earlier ones for equal keys. *)

  val map : (K.t -> 'a -> 'b) -> 'a t -> 'b t
  val filter : (K.t -> 'a -> bool) -> 'a t -> 'a t
end

module V4 : sig
  type 'a t

  val empty : 'a t
  val is_empty : 'a t -> bool
  val add : Prefix.t -> 'a -> 'a t -> 'a t
  val add' :
    equal:('a -> 'a -> bool) -> Prefix.t -> 'a -> 'a t -> 'a t * bool
  val remove : Prefix.t -> 'a t -> 'a t
  val find : Prefix.t -> 'a t -> 'a option
  val mem : Prefix.t -> 'a t -> bool
  val longest_match : Prefix.t -> 'a t -> (Prefix.t * 'a) option
  val matches : Prefix.t -> 'a t -> (Prefix.t * 'a) list
  val fold : (Prefix.t -> 'a -> 'acc -> 'acc) -> 'a t -> 'acc -> 'acc
  val iter : (Prefix.t -> 'a -> unit) -> 'a t -> unit
  val cardinal : 'a t -> int
  val to_list : 'a t -> (Prefix.t * 'a) list
  val of_list : (Prefix.t * 'a) list -> 'a t
  val map : (Prefix.t -> 'a -> 'b) -> 'a t -> 'b t
  val filter : (Prefix.t -> 'a -> bool) -> 'a t -> 'a t
end
(** IPv4 routing tables. *)

module V6 : sig
  type 'a t

  val empty : 'a t
  val is_empty : 'a t -> bool
  val add : Prefix_v6.t -> 'a -> 'a t -> 'a t
  val add' :
    equal:('a -> 'a -> bool) -> Prefix_v6.t -> 'a -> 'a t -> 'a t * bool
  val remove : Prefix_v6.t -> 'a t -> 'a t
  val find : Prefix_v6.t -> 'a t -> 'a option
  val mem : Prefix_v6.t -> 'a t -> bool
  val longest_match : Prefix_v6.t -> 'a t -> (Prefix_v6.t * 'a) option
  val matches : Prefix_v6.t -> 'a t -> (Prefix_v6.t * 'a) list
  val fold : (Prefix_v6.t -> 'a -> 'acc -> 'acc) -> 'a t -> 'acc -> 'acc
  val iter : (Prefix_v6.t -> 'a -> unit) -> 'a t -> unit
  val cardinal : 'a t -> int
  val to_list : 'a t -> (Prefix_v6.t * 'a) list
  val of_list : (Prefix_v6.t * 'a) list -> 'a t
  val map : (Prefix_v6.t -> 'a -> 'b) -> 'a t -> 'b t
  val filter : (Prefix_v6.t -> 'a -> bool) -> 'a t -> 'a t
end
(** IPv6 routing tables. *)

val lookup_v4 : Ipv4.t -> 'a V4.t -> (Prefix.t * 'a) option
(** Longest-prefix match of a host address (the data-plane operation). *)

val lookup_v6 : Ipv6.t -> 'a V6.t -> (Prefix_v6.t * 'a) option
