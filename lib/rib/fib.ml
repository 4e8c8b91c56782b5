(* Forwarding tables. vBGP keeps one FIB per BGP neighbor — the key design
   point of the data-plane delegation (paper §3.2.2): the destination MAC of
   an incoming frame selects the neighbor's table, and the lookup then
   proceeds exactly as in a conventional router.

   Figure 6a measures the memory cost of this design, so these structures
   expose an accurate [memory_bytes].

   Lookups go through a generation-stamped destination cache (Dcache):
   repeated flows to one destination skip the trie entirely, and every
   mutation that changes a binding — an [insert] of a new or different
   entry, a binding-removing [remove], [clear] — bumps the generation so
   no stale result is ever served. Writes that change no binding bump
   nothing: every entry of a per-neighbor table is the neighbor itself,
   so a re-announcement that only moves the AS path, MED or communities
   leaves the table, its generation and every cache stamped with it
   untouched. *)

open Netcore

type entry = {
  next_hop : Ipv4.t;
  neighbor : int;  (** opaque neighbor/interface identifier *)
}

type t = {
  mutable trie : entry Ptrie.V4.t;
  mutable count : int;
  cache : entry Dcache.t;
}

let create () =
  { trie = Ptrie.V4.empty; count = 0; cache = Dcache.create () }

let entry_count t = t.count

let entry_equal a b =
  a.neighbor = b.neighbor && Ipv4.equal a.next_hop b.next_hop

let insert t prefix entry =
  (* [Ptrie.add' ~equal] returns a physically equal trie when the prefix
     is already bound to an equal entry, so one walk both writes and
     tells us whether forwarding changed. *)
  let trie, was_bound =
    Ptrie.V4.add' ~equal:entry_equal prefix entry t.trie
  in
  if trie != t.trie then begin
    if not was_bound then t.count <- t.count + 1;
    t.trie <- trie;
    Dcache.invalidate t.cache
  end

let remove t prefix =
  (* [Ptrie.remove] returns a physically equal trie on a no-op, so one
     walk both removes and tells us whether anything changed. *)
  let trie = Ptrie.V4.remove prefix t.trie in
  if trie != t.trie then begin
    t.count <- t.count - 1;
    t.trie <- trie;
    Dcache.invalidate t.cache
  end

let lookup t addr =
  match Dcache.find t.cache addr with
  | Some cached -> cached
  | None ->
      let result =
        match Ptrie.lookup_v4 addr t.trie with
        | Some (_, e) -> Some e
        | None -> None
      in
      Dcache.store t.cache addr result;
      result

(* The destination cache's generation doubles as the table's mutation
   stamp: every insert/remove/clear that changes a binding bumps it, so
   external caches (the data plane's flow cache) can stamp entries with
   it and self-invalidate on the next lookup instead of being flushed
   explicitly. *)
let generation t = Dcache.generation t.cache

let find t prefix = Ptrie.V4.find prefix t.trie

let fold f t acc = Ptrie.V4.fold f t.trie acc

let clear t =
  t.trie <- Ptrie.V4.empty;
  t.count <- 0;
  Dcache.invalidate t.cache

(* Heap footprint in bytes (word-accurate via the runtime). *)
let memory_bytes t = Obj.reachable_words (Obj.repr t) * (Sys.word_size / 8)

(* The set of per-neighbor tables of one vBGP router. Table 0 is reserved
   for the router's own (default) table when it also routes production
   traffic — the "w/ default" configuration of Figure 6a. *)
module Set = struct
  type fib = t

  let create_fib = create

  type t = { tables : (int, fib) Hashtbl.t }

  let create () = { tables = Hashtbl.create 16 }

  let table t id =
    match Hashtbl.find_opt t.tables id with
    | Some fib -> fib
    | None ->
        let fib = create_fib () in
        Hashtbl.replace t.tables id fib;
        fib

  let find t id = Hashtbl.find_opt t.tables id
  let remove_table t id = Hashtbl.remove t.tables id
  let table_ids t = Hashtbl.fold (fun id _ acc -> id :: acc) t.tables []
  let table_count t = Hashtbl.length t.tables

  let total_entries t =
    Hashtbl.fold (fun _ fib acc -> acc + entry_count fib) t.tables 0

  let memory_bytes t = Obj.reachable_words (Obj.repr t) * (Sys.word_size / 8)
end
