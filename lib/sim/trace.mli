(** A bounded in-memory event trace. PlanetFlow-style attribution (paper
    §3.1) requires experiment activity to be loggable; platform components
    record control- and data-plane events here and tests assert on them. *)

type entry = { time : float; category : string; message : string }

type t

val create : ?capacity:int -> unit -> t

val set_enabled : t -> bool -> unit
(** A disabled trace records nothing and skips message formatting
    entirely, so hot paths may log unconditionally. *)

val enabled : t -> bool

val record :
  t -> time:float -> category:string -> ('a, Format.formatter, unit, unit) format4 -> 'a
(** Printf-style; drops the oldest half when over capacity, counting the
    dropped entries in {!dropped}. *)

val dropped : t -> int
(** Entries evicted at capacity since creation — a non-zero value means
    {!entries} no longer holds the whole history. {!clear} does not reset
    it: a cleared entry was discarded on purpose, not lost. *)

val entries : t -> entry list
(** Oldest first. *)

val find : t -> category:string -> entry list
val count : t -> category:string -> int
val clear : t -> unit
val pp_entry : Format.formatter -> entry -> unit
val dump : ?limit:int -> t -> Format.formatter -> unit
