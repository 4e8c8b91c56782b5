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
  ttl : int;
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

let encode t =
  let total = header_size + String.length t.payload in
  let w = Wire.Writer.create ~capacity:total () in
  Wire.Writer.u8 w 0x45 (* version 4, IHL 5 *);
  Wire.Writer.u8 w (t.dscp lsl 2);
  Wire.Writer.u16 w total;
  Wire.Writer.u16 w t.ident;
  Wire.Writer.u16 w 0 (* flags/fragment *);
  Wire.Writer.u8 w t.ttl;
  Wire.Writer.u8 w (protocol_to_int t.protocol);
  let cksum_off = Wire.Writer.reserve w 2 in
  Wire.Writer.u32 w (Ipv4.to_int32 t.src);
  Wire.Writer.u32 w (Ipv4.to_int32 t.dst);
  let header = Wire.Writer.contents w in
  Wire.Writer.patch_u16 w cksum_off (Checksum.of_string header);
  Wire.Writer.string w t.payload;
  Wire.Writer.contents w

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
      else if not (Checksum.verify (String.sub data 0 header_size)) then
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

(* Zero-copy packet views: the wire buffer itself, read by field offset,
   so the data-plane fast path never materializes a record or re-encodes
   on delivery. The record above remains the slow-path currency (filters,
   ICMP generation, tests).

   Wire layout (RFC 791, IHL fixed at 5): 0 version/IHL, 1 DSCP/ECN,
   2-3 total length, 4-5 ident, 6-7 flags/fragment, 8 TTL, 9 protocol,
   10-11 header checksum, 12-15 source, 16-19 destination. *)
module View = struct
  type t = Bytes.t

  let validate b =
    if Bytes.length b < header_size then Error "ipv4: truncated header"
    else
      let vihl = Bytes.get_uint8 b 0 in
      if vihl lsr 4 <> 4 then Error "ipv4: bad version"
      else if vihl land 0xf <> 5 then Error "ipv4: options unsupported"
      else
        let total = Bytes.get_uint16_be b 2 in
        if total < header_size || total > Bytes.length b then
          Error "ipv4: bad total length"
        else if not (Checksum.verify_bytes b ~pos:0 ~len:header_size) then
          Error "ipv4: bad header checksum"
        else Ok b

  let of_bytes = validate
  let of_string s = validate (Bytes.of_string s)
  let src b = Ipv4.of_int32 (Bytes.get_int32_be b 12)
  let dst b = Ipv4.of_int32 (Bytes.get_int32_be b 16)
  let ttl b = Bytes.get_uint8 b 8
  let protocol b = protocol_of_int (Bytes.get_uint8 b 9)
  let ident b = Bytes.get_uint16_be b 4
  let dscp b = Bytes.get_uint8 b 1 lsr 2
  let total_length b = Bytes.get_uint16_be b 2
  let payload_length b = total_length b - header_size

  (* The wire form without re-encoding. [Bytes.unsafe_to_string] is safe
     under the stated ownership contract: after [to_wire] the view must
     not be mutated again. *)
  let to_wire b =
    let total = total_length b in
    if total = Bytes.length b then Bytes.unsafe_to_string b
    else Bytes.sub_string b 0 total

  let to_packet b =
    {
      src = src b;
      dst = dst b;
      ttl = ttl b;
      protocol = protocol b;
      ident = ident b;
      dscp = dscp b;
      payload = Bytes.sub_string b header_size (payload_length b);
    }

  (* [encode] returns a fresh unshared string, so claiming it is safe. *)
  let of_packet p = Bytes.unsafe_of_string (encode p)

  let pp ppf b =
    Fmt.pf ppf "ip %a -> %a ttl=%d proto=%d len=%d" Ipv4.pp (src b) Ipv4.pp
      (dst b) (ttl b)
      (Bytes.get_uint8 b 9)
      (payload_length b)
end
