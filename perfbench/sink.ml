(* Counting receivers: what the router hands to its links and LAN.

   A BGP sink replaces the remote end of a session's link once the session
   is Established. It walks each delivered message's framing without
   decoding attributes: UPDATEs are tallied (messages, NLRI, wire bytes,
   a hash of the attribute block) and every other message (KEEPALIVE,
   NOTIFICATION) is passed on to the remote session unchanged, so the
   session stays up. Frame sinks count packets handed to a neighbor and
   frames delivered to an experiment station. *)

open Netcore

type bgp = {
  add_path : bool;  (** NLRI carry a 4-byte path identifier *)
  mutable updates : int;
  mutable announces : int;  (** UPDATEs with a path-attribute block *)
  mutable nlri : int;  (** announced + withdrawn prefixes *)
  mutable bytes : int;  (** UPDATE wire bytes, headers included *)
}

(* Attribute blocks seen since the owner last reset the table, by content
   hash: one flush should encode each distinct block exactly once. *)
type blocks = (int, unit) Hashtbl.t

let u16 s i = (Char.code s.[i] lsl 8) lor Char.code s.[i + 1]

(* Prefixes in [s.[pos], s.[stop]): [path id] length byte, then
   ceil(len/8) address bytes each. *)
let count_prefixes ~add_path s pos stop =
  let n = ref 0 and p = ref pos in
  while !p < stop do
    if add_path then p := !p + 4;
    let len = Char.code s.[!p] in
    p := !p + 1 + ((len + 7) / 8);
    incr n
  done;
  !n

(* FNV-1a over a byte range (no substring allocated). *)
let hash_range s pos len =
  let h = ref 0x4bf29ce484222325 in
  for i = pos to pos + len - 1 do
    h := (!h lxor Char.code s.[i]) * 0x100000001b3
  done;
  !h land max_int

let update b ?blocks s pos mlen =
  let body = pos + 19 in
  let wlen = u16 s body in
  let withdrawn =
    count_prefixes ~add_path:b.add_path s (body + 2) (body + 2 + wlen)
  in
  let apos = body + 2 + wlen in
  let alen = u16 s apos in
  let announced =
    count_prefixes ~add_path:b.add_path s (apos + 2 + alen) (pos + mlen)
  in
  b.updates <- b.updates + 1;
  b.nlri <- b.nlri + withdrawn + announced;
  b.bytes <- b.bytes + mlen;
  if alen > 0 then begin
    b.announces <- b.announces + 1;
    Option.iter
      (fun t -> Hashtbl.replace t (hash_range s (apos + 2) alen) ())
      blocks
  end

let bgp ~add_path =
  { add_path; updates = 0; announces = 0; nlri = 0; bytes = 0 }

(* Take over delivery toward the remote (active, link end A) session;
   attribute blocks are recorded in [blocks] when given. *)
let attach_bgp ?blocks b (pair : Sim.Bgp_wire.pair) =
  let pass data = Bgp.Session.receive_bytes pair.Sim.Bgp_wire.active data in
  Sim.Link.attach pair.Sim.Bgp_wire.link Sim.Link.A (fun data ->
      let len = String.length data in
      let pos = ref 0 in
      while !pos + 19 <= len do
        let mlen = u16 data (!pos + 16) in
        if Char.code data.[!pos + 18] = 2 then update b ?blocks data !pos mlen
        else if !pos = 0 && mlen = len then pass data
        else pass (String.sub data !pos mlen);
        pos := !pos + mlen
      done)

(* -- frames ---------------------------------------------------------------- *)

type frames = { mutable packets : int }

let frames () = { packets = 0 }
let to_neighbor f (_ : Ipv4_packet.t) = f.packets <- f.packets + 1
let station f (_ : Eth.t) = f.packets <- f.packets + 1
