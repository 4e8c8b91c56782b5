(* The Internet (ones-complement) checksum of RFC 1071, used by the IPv4
   header and ICMP codecs. *)

let sum_sub acc data ~pos ~len =
  let acc = ref acc in
  let i = ref pos in
  let stop = pos + len in
  while !i + 1 < stop do
    acc := !acc + String.get_uint16_be data !i;
    i := !i + 2
  done;
  if len land 1 = 1 then acc := !acc + (Char.code data.[stop - 1] lsl 8);
  !acc

let sum_into acc data = sum_sub acc data ~pos:0 ~len:(String.length data)

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

(* The same over a slice, so packet views verify a header in place
   without copying it out first. *)
let of_sub data ~pos ~len = finish (sum_sub 0 data ~pos ~len)
let verify_sub data ~pos ~len = of_sub data ~pos ~len = 0

(* A [Bytes.t] slice, read in place: the string alias does not outlive
   the call, so later writes to [data] cannot reach it. *)
let of_bytes data ~pos ~len = of_sub (Bytes.unsafe_to_string data) ~pos ~len
