(** Hash-consing arena for attribute sets.

    The mux exports every route from every neighbor to every experiment
    (paper §4.2), so the same attribute set is stored in many RIB rows,
    Adj-RIB-Outs, and experiment variants at once. Interning collapses
    all of them onto one canonical, physically-unique copy — the same
    trick as BIRD's [ea_list] cache — and stamps it with an id so
    equality and hashing are O(1).

    Handles are weak-table backed: an attribute set whose last route is
    withdrawn is reclaimed by the GC; nothing needs explicit release.

    {b Concurrency:} an arena is domain-safe. One mutex serializes the
    table probe, the id counter and the counters, so {!global} — state
    shared by the whole process — stays consistent whichever domain
    interns. Handles themselves are immutable values, so every read-side
    operation — {!equal}, {!hash}, {!id}, {!set}, pattern matching on a
    handle — is lock-free and safe from any domain. *)

type handle = private { id : int; set : Attr.set }
(** A canonical interned attribute set. Two handles for observationally
    equal sets are physically equal; [set] is sorted by type code. *)

type t
(** An arena. Most callers use {!global} (sharing is platform-wide). *)

val create : ?size:int -> unit -> t
(** [size] is the initial weak capacity (default 1024). *)

val global : t

val intern : ?arena:t -> Attr.set -> handle
(** Canonicalize (sort by type code) and return the unique handle for
    the set, allocating one on first sight. O(size of the set).
    Domain-safe: the table probe is serialized by the arena's lock. *)

val intern_set : ?arena:t -> Attr.set -> Attr.set
(** [(intern s).set]: the canonical physically-shared representation. *)

val set : handle -> Attr.set
val id : handle -> int

val equal : handle -> handle -> bool
(** O(1): physical equality of canonical handles. *)

val hash : handle -> int
(** O(1): the stamp id. *)

val pp : Format.formatter -> handle -> unit

(** {1 Observability} *)

type stats = {
  hits : int;  (** interns that found an existing handle *)
  misses : int;  (** interns that allocated a new handle *)
  live : int;  (** handles currently alive (weak count) *)
  locks : int;  (** lock acquisitions on the intern path *)
  contended : int;
      (** acquisitions where a [try_lock] failed first, i.e. another
          domain held the lock at that moment *)
}

val stats : ?arena:t -> unit -> stats

val reset_stats : ?arena:t -> unit -> unit
(** Zero the hit/miss/lock counters (benchmark harness); live is
    untouched. *)
