(* IPv4 addresses represented as big-endian [int32]. All arithmetic
   comparisons treat addresses as unsigned. *)

type t = int32

let equal = Int32.equal

(* Unsigned comparison: flip the sign bit and compare signed. *)
let compare a b =
  Int32.compare (Int32.logxor a Int32.min_int) (Int32.logxor b Int32.min_int)

let of_int32 v = v
let to_int32 v = v

let of_octets a b c d =
  let ok x = x >= 0 && x <= 255 in
  if not (ok a && ok b && ok c && ok d) then invalid_arg "Ipv4.of_octets";
  Int32.logor
    (Int32.shift_left (Int32.of_int a) 24)
    (Int32.of_int ((b lsl 16) lor (c lsl 8) lor d))

let octets v =
  let byte n = Int32.to_int (Int32.logand (Int32.shift_right_logical v n) 0xffl) in
  (byte 24, byte 16, byte 8, byte 0)

let to_string v =
  let a, b, c, d = octets v in
  Printf.sprintf "%d.%d.%d.%d" a b c d

let of_string s =
  match String.split_on_char '.' s with
  | [ a; b; c; d ] -> (
      let parse x =
        if x = "" || String.length x > 3 then None
        else
          match int_of_string_opt x with
          | Some v when v >= 0 && v <= 255 -> Some v
          | _ -> None
      in
      match (parse a, parse b, parse c, parse d) with
      | Some a, Some b, Some c, Some d -> Some (of_octets a b c d)
      | _ -> None)
  | _ -> None

let of_string_exn s =
  match of_string s with
  | Some v -> v
  | None -> invalid_arg (Printf.sprintf "Ipv4.of_string_exn: %S" s)

let any = 0l
let broadcast = 0xffffffffl
let localhost = of_octets 127 0 0 1

(* Offset arithmetic, used by address pools. Wraps modulo 2^32. *)
let add v n = Int32.add v (Int32.of_int n)
let succ v = add v 1

let diff a b = Int32.to_int (Int32.sub a b) land 0xffffffff

let hash v = Int32.to_int v land max_int
let to_bits v = Int32.to_int v land 0xffffffff

let is_private v =
  let a, b, _, _ = octets v in
  a = 10 || (a = 172 && b >= 16 && b < 32) || (a = 192 && b = 168) || a = 127

let pp ppf v = Fmt.string ppf (to_string v)
