(** Keyed fixed-window rate limiting.

    PEERING limits each experiment to 144 BGP updates per day per
    (prefix, PoP) pair (paper §4.7). Sharing one limiter across vBGP
    instances gives AS-wide limits, as §3.3 describes. *)

type 'k t
(** A limiter over keys of type ['k], hashed and compared structurally. *)

val create : limit:int -> period:float -> 'k t
(** [limit] tokens per [period] seconds per key. *)

val day : float

val peering_default : unit -> 'k t
(** The platform's announcement limiter: 144/day per key. *)

val allow : ?limit:int -> 'k t -> now:float -> 'k -> bool
(** Consume one token for the key; [false] means over budget. [limit]
    overrides the default for this key (per-experiment budgets). *)

val remaining : ?limit:int -> 'k t -> now:float -> 'k -> int
val used : 'k t -> now:float -> 'k -> int
val reset : 'k t -> unit
