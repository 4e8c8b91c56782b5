(* The data plane's per-neighbor flow table: a [Hashtbl.Make] over a key
   of three unboxed ints — source MAC, source address, destination
   address, the addresses as {!Netcore.Ipv4.to_bits} — hashed and
   compared as ints. A lookup writes the key into the table's own
   mutable probe record instead of allocating one, and values are stored
   wrapped once, at insert, so a hit returns the stored option as is:
   a probe allocates nothing. Only [replace] builds a key, a fresh one
   the table keeps.

   The probe record makes a table single-threaded: the data plane that
   owns it runs on one domain. *)

type key = { mutable mac : int; mutable src : int; mutable dst : int }

module Tbl = Hashtbl.Make (struct
  type t = key

  let equal a b = a.mac = b.mac && a.src = b.src && a.dst = b.dst

  (* Every bit of the key reaches the low bits the table's mask keeps:
     fold the high half down, multiply to spread it back up, fold
     again. *)
  let hash k =
    let h = k.mac lxor (k.src lsl 20) lxor (k.dst * 0x9E3779B1) in
    let h = (h lxor (h lsr 29)) * 0x3C79AC492BA7B653 in
    h lxor (h lsr 32)
end)

type 'a t = { table : 'a option Tbl.t; probe : key }

let create () =
  { table = Tbl.create 64; probe = { mac = 0; src = 0; dst = 0 } }

let length t = Tbl.length t.table
let reset t = Tbl.reset t.table

let find t ~mac ~src ~dst =
  t.probe.mac <- mac;
  t.probe.src <- src;
  t.probe.dst <- dst;
  match Tbl.find t.table t.probe with v -> v | exception Not_found -> None

let replace t ~mac ~src ~dst v = Tbl.replace t.table { mac; src; dst } (Some v)
