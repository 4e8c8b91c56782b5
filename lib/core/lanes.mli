(** Worker lanes: the parked-domain protocol behind the router's export
    lane ({!Export_pool}).

    A pool has [n] lanes. Each lane owns a state of type ['s] and a FIFO
    queue of items of type ['i]; the coordinator {!push}es items between
    runs and {!run} hands every lane's queue to a fixed [work] function.
    Lane 0 always runs on
    the caller. Lanes [1 .. n-1] run on persistent worker domains,
    spawned at the first multi-lane run and parked on a condition
    between runs (a spawn/join costs milliseconds, a wake microseconds).

    All lane-state transitions happen under one mutex, which is the
    happens-before edge both ways: the coordinator's queue and state
    writes are visible to a worker once it sees its work signal, and the
    worker's writes are visible to the coordinator once {!run} returns.
    The caller must not touch shared router state during a run, so
    workers only ever run concurrently with each other.

    A one-lane pool never spawns a domain: {!run} calls [work] inline,
    with no lock taken and nothing allocated. *)

type ('s, 'i) t

val create :
  lanes:int ->
  dummy:'i ->
  init:(int -> 's) ->
  work:('s -> 'i -> unit) ->
  ('s, 'i) t
(** [lanes] lanes (raises [Invalid_argument] below 1), lane [i] owning
    [init i]. [work state item] processes one queued item on its
    lane. [dummy] fills drained queue slots, so a queue never keeps a
    processed item alive. *)

val count : _ t -> int

val state : ('s, _) t -> int -> 's
(** Lane [i]'s state. Touch it from the coordinator only between runs. *)

val iter : ('s -> unit) -> ('s, _) t -> unit
(** Every lane's state, in lane order (coordinator, between runs). *)

val of_neighbor : lanes:int -> int -> int
(** The home lane of a neighbor id: a fixed multiply-xor mix, so a
    neighbor's export state is single-writer for the life of
    the router. Always 0 with one lane. *)

val push : (_, 'i) t -> int -> 'i -> unit
(** Queue an item on lane [i] (coordinator, between runs). Queues grow
    by doubling. *)

val depth_max : _ t -> int array
(** Per-lane queue high-water mark over the pool's lifetime (index 0 =
    the coordinator's lane). A skewed hash shows up as one lane's mark
    far above the others'. *)

val run : _ t -> unit
(** Process every queued item: each lane runs [work] over its own
    queue in FIFO order, then empties it. Returns once every lane is
    done. If [work] raises on a lane, that lane drops the rest of its
    queue, the other lanes still finish theirs, and [run] re-raises the
    exception of the lowest failing lane once every queue is empty; the
    pool is ready for the next run. *)

val spawned : _ t -> int
(** Worker domains currently alive (0 with one lane or after
    {!shutdown}). *)

val shutdown : _ t -> unit
(** Join the worker domains (each live domain counts against the
    runtime's domain limit). Idempotent; lane states and queues survive,
    and the next multi-lane {!run} respawns the workers. *)
