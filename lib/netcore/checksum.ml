(* The Internet (ones-complement) checksum of RFC 1071, used by the IPv4
   header and ICMP codecs. *)

let sum_into acc data =
  let len = String.length data in
  let acc = ref acc in
  let i = ref 0 in
  while !i + 1 < len do
    acc := !acc + String.get_uint16_be data !i;
    i := !i + 2
  done;
  if len land 1 = 1 then acc := !acc + (Char.code data.[len - 1] lsl 8);
  !acc

let finish acc =
  let acc = ref acc in
  while !acc lsr 16 <> 0 do
    acc := (!acc land 0xffff) + (!acc lsr 16)
  done;
  lnot !acc land 0xffff

(* Checksum of a whole string. *)
let of_string data = finish (sum_into 0 data)

(* Valid data (with its checksum field in place) sums to zero. *)
let verify data = of_string data = 0

(* Same accumulation over a [Bytes.t] slice, so packet views can verify a
   header in place without copying it out to a string first. *)
let sum_bytes_into acc data ~pos ~len =
  let acc = ref acc in
  let i = ref pos in
  let stop = pos + len in
  while !i + 1 < stop do
    acc := !acc + Bytes.get_uint16_be data !i;
    i := !i + 2
  done;
  if len land 1 = 1 then
    acc := !acc + (Char.code (Bytes.get data (stop - 1)) lsl 8);
  !acc

let of_bytes data ~pos ~len = finish (sum_bytes_into 0 data ~pos ~len)
let verify_bytes data ~pos ~len = of_bytes data ~pos ~len = 0
