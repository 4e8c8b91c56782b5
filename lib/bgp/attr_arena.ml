(* Hash-consing arena for attribute sets (see the .mli). A weak hash set
   keyed on the canonically-sorted attribute list maps every
   observationally-equal set onto one physically-unique, id-stamped
   handle. The weak table holds handles weakly: when the last RIB row or
   Adj-RIB-Out entry referencing a handle goes away, the GC reclaims the
   entry — no refcounting in the router planes.

   One mutex guards the table, its id counter and its counters:
   [global] is process-wide state, so an intern from any domain stays
   safe. Ids are taken only on a miss, so handles stay unique and
   dense. *)

type handle = { id : int; set : Attr.set }

(* The weak set keys on the canonical set; [id] is ignored so a fresh
   candidate matches an existing handle for the same attributes. *)
module Key = struct
  type t = handle

  let equal a b = a.set == b.set || Attr.equal_set a.set b.set
  let hash h = Attr.hash_set h.set
end

module W = Weak.Make (Key)

(* The table and the plain counters mutated under [lock]. [locks] counts
   every acquisition on the intern path; [contended] the subset where a
   [try_lock] failed first — i.e. another domain held the table at that
   moment. *)
type t = {
  tbl : W.t;
  lock : Mutex.t;
  mutable next_id : int;
  mutable hits : int;
  mutable misses : int;
  mutable locks : int;
  mutable contended : int;
}

let create ?(size = 1024) () =
  {
    tbl = W.create (max 8 size);
    lock = Mutex.create ();
    next_id = 0;
    hits = 0;
    misses = 0;
    locks = 0;
    contended = 0;
  }

(* One arena for the whole platform: sharing across routers, tables and
   planes is the point. *)
let global = create ~size:4096 ()

(* Lock the table, counting the acquisition and whether it contended. *)
let lock t =
  if Mutex.try_lock t.lock then t.locks <- t.locks + 1
  else begin
    Mutex.lock t.lock;
    t.locks <- t.locks + 1;
    t.contended <- t.contended + 1
  end

let intern ?(arena = global) set =
  (* Canonicalization is pure; only the table probe needs the lock. *)
  let sorted = Attr.sort set in
  lock arena;
  let found =
    match W.find_opt arena.tbl { id = -1; set = sorted } with
    | Some h ->
        arena.hits <- arena.hits + 1;
        h
    | None ->
        let h = { id = arena.next_id; set = sorted } in
        arena.next_id <- arena.next_id + 1;
        W.add arena.tbl h;
        arena.misses <- arena.misses + 1;
        h
  in
  Mutex.unlock arena.lock;
  found

let intern_set ?arena s = (intern ?arena s).set
let set h = h.set
let id h = h.id
let equal (a : handle) (b : handle) = a == b
let hash h = h.id
let pp ppf h = Fmt.pf ppf "#%d{%a}" h.id Attr.pp_set h.set

type stats = {
  hits : int;
  misses : int;
  live : int;
  locks : int;
  contended : int;
}

let stats ?(arena = global) () =
  Mutex.lock arena.lock;
  let s =
    {
      hits = arena.hits;
      misses = arena.misses;
      live = W.count arena.tbl;
      locks = arena.locks;
      contended = arena.contended;
    }
  in
  Mutex.unlock arena.lock;
  s

let reset_stats ?(arena = global) () =
  Mutex.lock arena.lock;
  arena.hits <- 0;
  arena.misses <- 0;
  arena.locks <- 0;
  arena.contended <- 0;
  Mutex.unlock arena.lock
