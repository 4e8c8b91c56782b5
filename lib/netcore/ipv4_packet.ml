(* IPv4 packets (RFC 791), without options or fragmentation — the testbed
   never fragments. Header checksums are computed on encode and verified on
   decode so that corruption in the simulated network is detectable. *)

type protocol = Icmp | Tcp | Udp | Other of int

let protocol_to_int = function
  | Icmp -> 1
  | Tcp -> 6
  | Udp -> 17
  | Other v -> v

let protocol_of_int = function
  | 1 -> Icmp
  | 6 -> Tcp
  | 17 -> Udp
  | v -> Other v

type t = {
  src : Ipv4.t;
  dst : Ipv4.t;
  mutable ttl : int;
  protocol : protocol;
  ident : int;
  dscp : int;
  payload : string;
}

let header_size = 20

let make ?(ttl = 64) ?(ident = 0) ?(dscp = 0) ~src ~dst ~protocol payload =
  { src; dst; ttl; protocol; ident; dscp; payload }

(* A copy with the TTL decremented; forwarding engines must re-encode. *)
let decrement_ttl t = { t with ttl = t.ttl - 1 }

(* The header is written in place into one buffer of the exact size, its
   checksum computed over that buffer, and the payload blitted once. *)
let encode t =
  let len = String.length t.payload in
  let total = header_size + len in
  let b = Bytes.create total in
  Bytes.set_uint8 b 0 0x45 (* version 4, IHL 5 *);
  Bytes.set_uint8 b 1 ((t.dscp lsl 2) land 0xff);
  Bytes.set_uint16_be b 2 (total land 0xffff);
  Bytes.set_uint16_be b 4 (t.ident land 0xffff);
  Bytes.set_uint16_be b 6 0 (* flags/fragment *);
  Bytes.set_uint8 b 8 (t.ttl land 0xff);
  Bytes.set_uint8 b 9 (protocol_to_int t.protocol land 0xff);
  Bytes.set_uint16_be b 10 0;
  Bytes.set_int32_be b 12 (Ipv4.to_int32 t.src);
  Bytes.set_int32_be b 16 (Ipv4.to_int32 t.dst);
  Bytes.set_uint16_be b 10 (Checksum.of_bytes b ~pos:0 ~len:header_size);
  Bytes.blit_string t.payload 0 b header_size len;
  Bytes.unsafe_to_string b

let decode data =
  try
    let r = Wire.Reader.of_string data in
    let vihl = Wire.Reader.u8 r in
    if vihl lsr 4 <> 4 then Error "ipv4: bad version"
    else if vihl land 0xf <> 5 then Error "ipv4: options unsupported"
    else begin
      let dscp_ecn = Wire.Reader.u8 r in
      let total = Wire.Reader.u16 r in
      let ident = Wire.Reader.u16 r in
      let _flags = Wire.Reader.u16 r in
      let ttl = Wire.Reader.u8 r in
      let protocol = protocol_of_int (Wire.Reader.u8 r) in
      let _cksum = Wire.Reader.u16 r in
      let src = Ipv4.of_int32 (Wire.Reader.u32 r) in
      let dst = Ipv4.of_int32 (Wire.Reader.u32 r) in
      if total < header_size || total > String.length data then
        Error "ipv4: bad total length"
      else if not (Checksum.verify_sub data ~pos:0 ~len:header_size) then
        Error "ipv4: bad header checksum"
      else
        let payload = String.sub data header_size (total - header_size) in
        Ok
          {
            src;
            dst;
            ttl;
            protocol;
            ident;
            dscp = dscp_ecn lsr 2;
            payload;
          }
    end
  with Wire.Truncated what -> Error (Printf.sprintf "ipv4: truncated %s" what)

let pp ppf t =
  Fmt.pf ppf "ip %a -> %a ttl=%d proto=%d len=%d" Ipv4.pp t.src Ipv4.pp t.dst
    t.ttl
    (protocol_to_int t.protocol)
    (String.length t.payload)

type packet = t

(* Zero-copy packet views: the frame's own string, validated in place and
   read by field offset, so the data-plane fast path never copies the
   frame to look at it, and local delivery passes it on as it came. The
   record above remains the slow-path currency (filters, ICMP
   generation, tests).

   Wire layout (RFC 791, IHL fixed at 5): 0 version/IHL, 1 DSCP/ECN,
   2-3 total length, 4-5 ident, 6-7 flags/fragment, 8 TTL, 9 protocol,
   10-11 header checksum, 12-15 source, 16-19 destination. *)
module View = struct
  type t = string

  let of_string s =
    if String.length s < header_size then Error "ipv4: truncated header"
    else
      let vihl = String.get_uint8 s 0 in
      if vihl lsr 4 <> 4 then Error "ipv4: bad version"
      else if vihl land 0xf <> 5 then Error "ipv4: options unsupported"
      else
        let total = String.get_uint16_be s 2 in
        if total < header_size || total > String.length s then
          Error "ipv4: bad total length"
        else if not (Checksum.verify_sub s ~pos:0 ~len:header_size) then
          Error "ipv4: bad header checksum"
        else Ok s

  (* {!Ipv4.to_bits} of an address field, from two 16-bit reads, so the
     address never passes through a boxed [int32]. *)
  let addr_bits s off =
    (String.get_uint16_be s off lsl 16) lor String.get_uint16_be s (off + 2)

  let src_bits s = addr_bits s 12
  let dst_bits s = addr_bits s 16
  let src s = Ipv4.of_int32 (String.get_int32_be s 12)
  let dst s = Ipv4.of_int32 (String.get_int32_be s 16)
  let ttl s = String.get_uint8 s 8
  let protocol s = protocol_of_int (String.get_uint8 s 9)
  let ident s = String.get_uint16_be s 4
  let dscp s = String.get_uint8 s 1 lsr 2
  let total_length s = String.get_uint16_be s 2
  let payload_length s = total_length s - header_size

  let to_wire s =
    let total = total_length s in
    if total = String.length s then s else String.sub s 0 total

  let to_packet s =
    {
      src = src s;
      dst = dst s;
      ttl = ttl s;
      protocol = protocol s;
      ident = ident s;
      dscp = dscp s;
      payload = String.sub s header_size (payload_length s);
    }

  let of_packet = encode

  let pp ppf s =
    Fmt.pf ppf "ip %a -> %a ttl=%d proto=%d len=%d" Ipv4.pp (src s) Ipv4.pp
      (dst s) (ttl s)
      (String.get_uint8 s 9)
      (payload_length s)
end
