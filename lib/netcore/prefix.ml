(* IPv4 prefixes in CIDR notation. The network address is always stored with
   host bits cleared, so structural equality coincides with prefix equality. *)

type t = { network : Ipv4.t; len : int }

let mask_of_len len =
  if len = 0 then 0l else Int32.shift_left (-1l) (32 - len)

let make addr len =
  if len < 0 || len > 32 then invalid_arg "Prefix.make: length";
  {
    network = Ipv4.of_int32 (Int32.logand (Ipv4.to_int32 addr) (mask_of_len len));
    len;
  }

let network p = p.network
let length p = p.len
let netmask p = mask_of_len p.len

let equal a b = Ipv4.equal a.network b.network && a.len = b.len

let compare a b =
  match Ipv4.compare a.network b.network with
  | 0 -> Int.compare a.len b.len
  | c -> c

let to_string p = Printf.sprintf "%s/%d" (Ipv4.to_string p.network) p.len

let of_string s =
  match String.index_opt s '/' with
  | None -> None
  | Some i -> (
      let addr = String.sub s 0 i in
      let len = String.sub s (i + 1) (String.length s - i - 1) in
      match (Ipv4.of_string addr, int_of_string_opt len) with
      | Some addr, Some len when len >= 0 && len <= 32 -> Some (make addr len)
      | _ -> None)

let of_string_exn s =
  match of_string s with
  | Some p -> p
  | None -> invalid_arg (Printf.sprintf "Prefix.of_string_exn: %S" s)

let mem addr p =
  Ipv4.equal
    (Ipv4.of_int32 (Int32.logand (Ipv4.to_int32 addr) (mask_of_len p.len)))
    p.network

(* [subset ~sub ~super] holds when every address of [sub] is in [super]. *)
let subset ~sub ~super = sub.len >= super.len && mem sub.network super

(* Bit [i] of the network address, [i] in [0, len). *)
let bit p i =
  Int32.logand (Int32.shift_right_logical (Ipv4.to_int32 p.network) (31 - i)) 1l
  = 1l

(* The [n]-th address inside the prefix (0 is the network address). *)
let host p n =
  let size = if p.len = 32 then 1 else 1 lsl (32 - p.len) in
  if n < 0 || n >= size then invalid_arg "Prefix.host: out of range";
  Ipv4.add p.network n

let size p = 1 lsl (32 - p.len)

(* Split into the two half-length subprefixes. *)
let split p =
  if p.len >= 32 then invalid_arg "Prefix.split: /32";
  let left = { network = p.network; len = p.len + 1 } in
  let right =
    { network = Ipv4.add p.network (1 lsl (31 - p.len)); len = p.len + 1 }
  in
  (left, right)

(* Enumerate the [2^(sub - p.len)] subprefixes of [p] of length [sub]. *)
let subnets p sub =
  if sub < p.len || sub > 32 then invalid_arg "Prefix.subnets";
  let count = 1 lsl (sub - p.len) in
  let step = if sub = 32 then 1 else 1 lsl (32 - sub) in
  List.init count (fun i -> { network = Ipv4.add p.network (i * step); len = sub })

let default = { network = Ipv4.any; len = 0 }

let pp ppf p = Fmt.string ppf (to_string p)

(* [Hashtbl.Make] indexes buckets by the hash's low bits, and a /24's
   network address has eight zero low bits. Fibonacci hashing: multiply
   by 2^32 / golden ratio and keep the product's upper half, which
   spreads runs of consecutive networks evenly over the low bits. *)
let hash p =
  let k = Int32.to_int (Ipv4.to_int32 p.network) land 0xffff_ffff in
  ((k lor (p.len lsl 32)) * 0x9e3779b1) lsr 32

module Tbl = Hashtbl.Make (struct
  type nonrec t = t

  let equal = equal
  let hash = hash
end)
