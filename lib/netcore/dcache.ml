(* A small direct-mapped cache in front of a longest-prefix-match
   structure, keyed by destination host address. Repeated flows to the
   same destination skip the trie walk entirely.

   Coherence is by generation stamp: every slot records the generation it
   was filled under, and [invalidate] bumps the cache's generation, making
   all slots stale in O(1). The owner of the backing trie must call
   [invalidate] on every mutation (insert, remove, clear); lookups then
   never observe pre-mutation results. *)

type 'a slot = {
  mutable gen : int;
  mutable addr : int;
      (** {!Ipv4.to_bits}: an unboxed key, so a store promotes no box *)
  mutable value : 'a option;  (** negative results are cached too *)
}

type 'a t = { slots : 'a slot array; mask : int; mutable generation : int }

let default_slots = 256

let create ?(slots = default_slots) () =
  let n =
    let rec up p = if p >= slots || p >= 1 lsl 20 then p else up (p * 2) in
    up 1
  in
  {
    (* Array.init, not Array.make: each slot must be a distinct record. *)
    slots = Array.init n (fun _ -> { gen = 0; addr = 0; value = None });
    mask = n - 1;
    (* Slots start at generation 0, the cache at 1: everything stale. *)
    generation = 1;
  }

let generation t = t.generation
let invalidate t = t.generation <- t.generation + 1

(* The slot index mixes all four octets: destinations often differ only
   above the last octet (hosts [x.y.z.9] across many /24s), and indexing
   by the low bits alone would send them all to one slot. The halves are
   folded (octet pairs a^c and b^d), then one multiply-add weighs the
   pairs unequally. An XOR of all four octets maps every address whose
   octets XOR alike to one slot (10.1.2.3 and 11.0.0.1 both land in slot
   10), so two such hot destinations evict each other on every
   alternation; here each pair's octet still moves the index through
   every slot, so a run of /24s or /16s fills the cache without a
   collision. *)
let index t bits =
  let h = bits lxor (bits lsr 16) in
  (h + ((h lsr 8) * 0x9b)) land t.mask

let lookup t addr slow src =
  let bits = Ipv4.to_bits addr in
  let s = t.slots.(index t bits) in
  if s.gen = t.generation && s.addr = bits then s.value
  else begin
    let value = slow src addr in
    s.gen <- t.generation;
    s.addr <- bits;
    s.value <- value;
    value
  end
