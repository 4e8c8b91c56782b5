(** A direct-mapped destination cache for longest-prefix-match results.

    Sits in front of a {!Ptrie} (a FIB or the owner trie) so repeated
    flows to the same destination address skip the trie walk. Stale
    entries are never served: the owning structure bumps the generation
    counter with {!invalidate} on every mutation, which invalidates all
    slots in O(1). *)

type 'a t

val create : ?slots:int -> unit -> 'a t
(** [slots] (default 256) is rounded up to a power of two. *)

val lookup : 'a t -> Ipv4.t -> ('b -> Ipv4.t -> 'a option) -> 'b -> 'a option
(** [lookup t addr slow src] is the lookup outcome for [addr], possibly
    [None] (negative results are cached). A current-generation entry is
    returned as stored, allocating nothing; on a miss [slow src addr]
    computes the outcome, which is stored under the current generation.
    Pass a closed function as [slow] and its input as [src], so a hit
    builds no closure either. *)

val invalidate : 'a t -> unit
(** Bump the generation, making every cached entry stale. Call on any
    mutation of the backing structure. *)

val generation : 'a t -> int
(** The current generation (exposed for tests and diagnostics). *)
