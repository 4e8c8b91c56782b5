(* Unit and property tests for the netcore substrate: addresses, prefixes,
   MACs, checksums, packet codecs, and the prefix trie. *)

open Netcore


let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checks = Alcotest.(check string)

(* -- IPv4 ------------------------------------------------------------------- *)

let test_ipv4_roundtrip () =
  List.iter
    (fun s -> checks s s (Ipv4.to_string (Ipv4.of_string_exn s)))
    [ "0.0.0.0"; "1.2.3.4"; "10.255.0.1"; "192.168.100.200"; "255.255.255.255" ]

let test_ipv4_invalid () =
  List.iter
    (fun s -> checkb s true (Ipv4.of_string s = None))
    [ ""; "1.2.3"; "1.2.3.4.5"; "256.1.1.1"; "-1.2.3.4"; "a.b.c.d"; "1..2.3" ]

let test_ipv4_unsigned_compare () =
  let lo = Ipv4.of_string_exn "1.0.0.0" in
  let hi = Ipv4.of_string_exn "200.0.0.0" in
  checkb "1.0.0.0 < 200.0.0.0" true (Ipv4.compare lo hi < 0);
  checkb "255.255.255.255 is max" true
    (Ipv4.compare Ipv4.broadcast hi > 0);
  checkb "equal" true (Ipv4.compare lo lo = 0)

let test_ipv4_arithmetic () =
  let a = Ipv4.of_string_exn "10.0.0.255" in
  checks "carry" "10.0.1.0" (Ipv4.to_string (Ipv4.succ a));
  checki "diff" 256 (Ipv4.diff (Ipv4.add a 1) (Ipv4.of_string_exn "10.0.0.0"));
  let b, c, d, e = Ipv4.octets (Ipv4.of_string_exn "1.2.3.4") in
  checki "octet1" 1 b;
  checki "octet2" 2 c;
  checki "octet3" 3 d;
  checki "octet4" 4 e

let test_ipv4_private () =
  checkb "10/8" true (Ipv4.is_private (Ipv4.of_string_exn "10.1.2.3"));
  checkb "172.16" true (Ipv4.is_private (Ipv4.of_string_exn "172.16.0.1"));
  checkb "172.32" false (Ipv4.is_private (Ipv4.of_string_exn "172.32.0.1"));
  checkb "192.168" true (Ipv4.is_private (Ipv4.of_string_exn "192.168.1.1"));
  checkb "8.8.8.8" false (Ipv4.is_private (Ipv4.of_string_exn "8.8.8.8"))

(* -- IPv6 ------------------------------------------------------------------- *)

let test_ipv6_roundtrip () =
  List.iter
    (fun (input, expect) ->
      checks input expect (Ipv6.to_string (Ipv6.of_string_exn input)))
    [
      ("::", "::");
      ("::1", "::1");
      ("2001:db8::", "2001:db8::");
      ("2001:db8::1", "2001:db8::1");
      ("2001:0db8:0000:0000:0000:0000:0000:0001", "2001:db8::1");
      ("fe80::1:2:3:4", "fe80::1:2:3:4");
      ("1:2:3:4:5:6:7:8", "1:2:3:4:5:6:7:8");
      ("2002::", "2002::");
    ]

let test_ipv6_invalid () =
  List.iter
    (fun s -> checkb s true (Ipv6.of_string s = None))
    [ ""; "1:2:3"; "1:2:3:4:5:6:7:8:9"; "gggg::"; "12345::" ]

let test_ipv6_bits () =
  let a = Ipv6.of_string_exn "8000::" in
  checkb "bit 0 set" true (Ipv6.bit a 0);
  checkb "bit 1 clear" false (Ipv6.bit a 1);
  let b = Ipv6.set_bit Ipv6.any 127 true in
  checkb "set bit 127" true (Ipv6.equal b Ipv6.localhost);
  let c = Ipv6.set_bit b 127 false in
  checkb "clear bit 127" true (Ipv6.equal c Ipv6.any)

(* -- Prefix ------------------------------------------------------------------ *)

let test_prefix_normalization () =
  let p = Prefix.make (Ipv4.of_string_exn "10.1.2.3") 16 in
  checks "host bits cleared" "10.1.0.0/16" (Prefix.to_string p);
  checkb "equal to canonical" true
    (Prefix.equal p (Prefix.of_string_exn "10.1.0.0/16"))

let test_prefix_membership () =
  let p = Prefix.of_string_exn "192.168.0.0/24" in
  checkb "member" true (Prefix.mem (Ipv4.of_string_exn "192.168.0.200") p);
  checkb "not member" false (Prefix.mem (Ipv4.of_string_exn "192.168.1.0") p);
  checkb "default matches all" true
    (Prefix.mem (Ipv4.of_string_exn "8.8.8.8") Prefix.default)

let test_prefix_subset () =
  let sub = Prefix.of_string_exn "10.0.1.0/24" in
  let super = Prefix.of_string_exn "10.0.0.0/16" in
  checkb "subset" true (Prefix.subset ~sub ~super);
  checkb "not superset" false (Prefix.subset ~sub:super ~super:sub);
  checkb "reflexive" true (Prefix.subset ~sub ~super:sub)

let test_prefix_split_subnets () =
  let p = Prefix.of_string_exn "10.0.0.0/23" in
  let l, r = Prefix.split p in
  checks "left" "10.0.0.0/24" (Prefix.to_string l);
  checks "right" "10.0.1.0/24" (Prefix.to_string r);
  let subnets = Prefix.subnets (Prefix.of_string_exn "10.0.0.0/22") 24 in
  checki "4 subnets" 4 (List.length subnets);
  checks "last subnet" "10.0.3.0/24"
    (Prefix.to_string (List.nth subnets 3))

let test_prefix_host () =
  let p = Prefix.of_string_exn "10.0.0.0/24" in
  checks "host 1" "10.0.0.1" (Ipv4.to_string (Prefix.host p 1));
  checks "host 255" "10.0.0.255" (Ipv4.to_string (Prefix.host p 255));
  Alcotest.check_raises "out of range" (Invalid_argument "Prefix.host: out of range")
    (fun () -> ignore (Prefix.host p 256))

let test_prefix_v6 () =
  let p = Prefix_v6.of_string_exn "2001:db8::/32" in
  checkb "member" true (Prefix_v6.mem (Ipv6.of_string_exn "2001:db8::42") p);
  checkb "not member" false (Prefix_v6.mem (Ipv6.of_string_exn "2001:db9::") p);
  let sub = Prefix_v6.subnet p 48 5 in
  checks "subnet 5" "2001:db8:5::/48" (Prefix_v6.to_string sub);
  checkb "subnet is subset" true (Prefix_v6.subset ~sub ~super:p)

(* -- MAC --------------------------------------------------------------------- *)

let test_mac_roundtrip () =
  List.iter
    (fun s -> checks s s (Mac.to_string (Mac.of_string_exn s)))
    [ "00:00:00:00:00:00"; "02:65:00:00:12:34"; "ff:ff:ff:ff:ff:ff" ]

let test_mac_properties () =
  checkb "broadcast" true (Mac.is_broadcast Mac.broadcast);
  let m = Mac.local ~pool:0x65 7 in
  checkb "local admin bit" true (Mac.is_local_admin m);
  checkb "not broadcast" false (Mac.is_broadcast m);
  checkb "distinct pools" false
    (Mac.equal (Mac.local ~pool:1 7) (Mac.local ~pool:2 7));
  checkb "distinct indices" false
    (Mac.equal (Mac.local ~pool:1 7) (Mac.local ~pool:1 8))

(* -- Checksum ---------------------------------------------------------------- *)

let test_checksum () =
  (* A datagram with its checksum patched in verifies. *)
  let data = Bytes.of_string "\x45\x00\x00\x1c\x00\x00\x00\x00\x40\x11\x00\x00\x0a\x00\x00\x01\x0a\x00\x00\x02" in
  let c = Checksum.of_string (Bytes.to_string data) in
  Bytes.set_uint16_be data 10 c;
  checkb "verifies after patch" true (Checksum.verify (Bytes.to_string data));
  checkb "detects corruption" false
    (Checksum.verify (Bytes.to_string data ^ "\x01"))

(* -- Ethernet / ARP / IPv4 / ICMP / UDP codecs -------------------------------- *)

let test_eth_roundtrip () =
  let frame =
    {
      Eth.dst = Mac.of_string_exn "02:00:00:00:00:01";
      src = Mac.of_string_exn "02:00:00:00:00:02";
      ethertype = Eth.Ipv4;
      payload = "hello world";
    }
  in
  match Eth.decode (Eth.encode frame) with
  | Ok f ->
      checkb "dst" true (Mac.equal f.Eth.dst frame.Eth.dst);
      checkb "src" true (Mac.equal f.Eth.src frame.Eth.src);
      checkb "ethertype" true (f.Eth.ethertype = Eth.Ipv4);
      checks "payload" "hello world" f.Eth.payload
  | Error e -> Alcotest.fail e

let test_eth_truncated () =
  checkb "truncated" true (Result.is_error (Eth.decode "short"))

let test_arp_roundtrip () =
  let req =
    Arp.request
      ~sender_mac:(Mac.of_string_exn "02:00:00:00:00:01")
      ~sender_ip:(Ipv4.of_string_exn "10.0.0.1")
      ~target_ip:(Ipv4.of_string_exn "10.0.0.2")
  in
  (match Arp.decode (Arp.encode req) with
  | Ok a ->
      checkb "op" true (a.Arp.op = Arp.Request);
      checks "target" "10.0.0.2" (Ipv4.to_string a.Arp.target_ip)
  | Error e -> Alcotest.fail e);
  let rep =
    Arp.reply
      ~sender_mac:(Mac.of_string_exn "02:00:00:00:00:03")
      ~sender_ip:(Ipv4.of_string_exn "10.0.0.2")
      ~target_mac:(Mac.of_string_exn "02:00:00:00:00:01")
      ~target_ip:(Ipv4.of_string_exn "10.0.0.1")
  in
  match Arp.decode (Arp.encode rep) with
  | Ok a ->
      checkb "op" true (a.Arp.op = Arp.Reply);
      checks "sender mac" "02:00:00:00:00:03" (Mac.to_string a.Arp.sender_mac)
  | Error e -> Alcotest.fail e

let test_ipv4_packet_roundtrip () =
  let p =
    Ipv4_packet.make ~ttl:17 ~ident:99
      ~src:(Ipv4.of_string_exn "1.2.3.4")
      ~dst:(Ipv4.of_string_exn "5.6.7.8")
      ~protocol:Ipv4_packet.Udp "payload bytes"
  in
  match Ipv4_packet.decode (Ipv4_packet.encode p) with
  | Ok q ->
      checks "src" "1.2.3.4" (Ipv4.to_string q.Ipv4_packet.src);
      checks "dst" "5.6.7.8" (Ipv4.to_string q.Ipv4_packet.dst);
      checki "ttl" 17 q.Ipv4_packet.ttl;
      checki "ident" 99 q.Ipv4_packet.ident;
      checks "payload" "payload bytes" q.Ipv4_packet.payload
  | Error e -> Alcotest.fail e

let test_ipv4_packet_checksum () =
  let p =
    Ipv4_packet.make
      ~src:(Ipv4.of_string_exn "1.2.3.4")
      ~dst:(Ipv4.of_string_exn "5.6.7.8")
      ~protocol:Ipv4_packet.Udp "x"
  in
  let encoded = Bytes.of_string (Ipv4_packet.encode p) in
  (* Corrupt a header byte: decode must fail. *)
  Bytes.set encoded 8 '\x01';
  checkb "corruption detected" true
    (Result.is_error (Ipv4_packet.decode (Bytes.to_string encoded)))

let test_ttl_decrement () =
  let p =
    Ipv4_packet.make ~ttl:3
      ~src:(Ipv4.of_string_exn "1.2.3.4")
      ~dst:(Ipv4.of_string_exn "5.6.7.8")
      ~protocol:Ipv4_packet.Icmp ""
  in
  checki "ttl decremented" 2 (Ipv4_packet.decrement_ttl p).Ipv4_packet.ttl

let test_icmp_roundtrip () =
  let msgs =
    [
      Icmp.Echo_request { id = 7; seq = 3; payload = "ping" };
      Icmp.Echo_reply { id = 7; seq = 3; payload = "pong" };
      Icmp.Ttl_exceeded { original = "original header bytes" };
      Icmp.Dest_unreachable { code = 3; original = "hdr" };
    ]
  in
  List.iter
    (fun m ->
      match Icmp.decode (Icmp.encode m) with
      | Ok m' -> checkb "roundtrip" true (m = m')
      | Error e -> Alcotest.fail e)
    msgs

let test_icmp_checksum () =
  let enc = Bytes.of_string (Icmp.encode (Icmp.Echo_request { id = 1; seq = 1; payload = "x" })) in
  Bytes.set enc 4 '\xff';
  checkb "corruption detected" true
    (Result.is_error (Icmp.decode (Bytes.to_string enc)))

let test_udp_roundtrip () =
  let d = { Udp.src_port = 1234; dst_port = 53; payload = "query" } in
  match Udp.decode (Udp.encode d) with
  | Ok d' ->
      checki "src port" 1234 d'.Udp.src_port;
      checki "dst port" 53 d'.Udp.dst_port;
      checks "payload" "query" d'.Udp.payload
  | Error e -> Alcotest.fail e

(* -- Wire --------------------------------------------------------------------- *)

let test_wire_writer_reader () =
  let w = Wire.Writer.create ~capacity:2 () in
  Wire.Writer.u8 w 0xab;
  Wire.Writer.u16 w 0x1234;
  Wire.Writer.u32 w 0xdeadbeefl;
  Wire.Writer.u64 w 0x0123456789abcdefL;
  Wire.Writer.string w "tail";
  let r = Wire.Reader.of_string (Wire.Writer.contents w) in
  checki "u8" 0xab (Wire.Reader.u8 r);
  checki "u16" 0x1234 (Wire.Reader.u16 r);
  checkb "u32" true (Wire.Reader.u32 r = 0xdeadbeefl);
  checkb "u64" true (Wire.Reader.u64 r = 0x0123456789abcdefL);
  checks "tail" "tail" (Wire.Reader.take_rest r);
  checkb "eof" true (Wire.Reader.eof r)

let test_wire_patch () =
  let w = Wire.Writer.create () in
  let off = Wire.Writer.reserve w 2 in
  Wire.Writer.string w "body";
  Wire.Writer.patch_u16 w off (Wire.Writer.length w);
  let r = Wire.Reader.of_string (Wire.Writer.contents w) in
  checki "patched length" 6 (Wire.Reader.u16 r)

let test_wire_truncation () =
  let r = Wire.Reader.of_string "ab" in
  Alcotest.check_raises "u32 truncated" (Wire.Truncated "u32") (fun () ->
      ignore (Wire.Reader.u32 r))

(* -- Ptrie --------------------------------------------------------------------- *)

let p = Prefix.of_string_exn

(* Host [.9] in each of 256 /24s, the shape of the data-plane benches'
   destinations: indexed by the last octet they would all share one
   slot; folded over every octet, a 256-slot cache holds them all, so a
   second pass hits every one — whether the /24s differ in the third
   octet (consecutive /24s) or in the second. *)
let test_dcache_spreads_last_octet () =
  List.iter
    (fun (what, host) ->
      let c = Dcache.create ~slots:256 () in
      for i = 0 to 255 do
        ignore (Dcache.lookup c (host i) (fun i _ -> Some i) i)
      done;
      let hits = ref 0 in
      for i = 0 to 255 do
        match Dcache.lookup c (host i) (fun () _ -> None) () with
        | Some j when j = i -> incr hits
        | _ -> ()
      done;
      checki what 256 !hits)
    [
      ("16.0.i.9: all 256 hit", fun i -> Ipv4.of_octets 16 0 i 9);
      ("16.i.0.9: all 256 hit", fun i -> Ipv4.of_octets 16 i 0 9);
    ]

let test_ptrie_basics () =
  let t =
    Ptrie.V4.empty
    |> Ptrie.V4.add (p "10.0.0.0/8") "eight"
    |> Ptrie.V4.add (p "10.1.0.0/16") "sixteen"
    |> Ptrie.V4.add (p "10.1.2.0/24") "twentyfour"
  in
  checki "cardinal" 3 (Ptrie.V4.cardinal t);
  checkb "find exact" true (Ptrie.V4.find (p "10.1.0.0/16") t = Some "sixteen");
  checkb "find missing" true (Ptrie.V4.find (p "10.2.0.0/16") t = None);
  let lookup addr =
    match Ptrie.lookup_v4 (Ipv4.of_string_exn addr) t with
    | Some (_, v) -> v
    | None -> "none"
  in
  checks "lpm /24" "twentyfour" (lookup "10.1.2.3");
  checks "lpm /16" "sixteen" (lookup "10.1.3.1");
  checks "lpm /8" "eight" (lookup "10.9.9.9");
  checks "no match" "none" (lookup "11.0.0.1")

let test_ptrie_remove () =
  let t =
    Ptrie.V4.empty
    |> Ptrie.V4.add (p "10.0.0.0/8") 1
    |> Ptrie.V4.add (p "10.1.0.0/16") 2
  in
  let t = Ptrie.V4.remove (p "10.1.0.0/16") t in
  checki "cardinal after remove" 1 (Ptrie.V4.cardinal t);
  checkb "lpm falls back" true
    (match Ptrie.lookup_v4 (Ipv4.of_string_exn "10.1.2.3") t with
    | Some (_, 1) -> true
    | _ -> false);
  let t = Ptrie.V4.remove (p "10.0.0.0/8") t in
  checkb "empty after removing all" true (Ptrie.V4.is_empty t)

let test_ptrie_matches_order () =
  let t =
    Ptrie.V4.empty
    |> Ptrie.V4.add (p "0.0.0.0/0") 0
    |> Ptrie.V4.add (p "10.0.0.0/8") 8
    |> Ptrie.V4.add (p "10.1.0.0/16") 16
  in
  let ms = Ptrie.V4.matches (p "10.1.0.0/24") t in
  checkb "shortest first" true (List.map snd ms = [ 0; 8; 16 ])

let test_ptrie_map_filter () =
  let t =
    Ptrie.V4.of_list [ (p "10.0.0.0/8", 1); (p "20.0.0.0/8", 2); (p "30.0.0.0/8", 3) ]
  in
  let doubled = Ptrie.V4.map (fun _ v -> v * 2) t in
  checkb "map" true (Ptrie.V4.find (p "20.0.0.0/8") doubled = Some 4);
  let odd = Ptrie.V4.filter (fun _ v -> v mod 2 = 1) t in
  checki "filter" 2 (Ptrie.V4.cardinal odd)

(* Differential tests: drive the Patricia trie and a naive assoc-list model
   through the same randomized add'/remove schedule, checking the add'
   was-bound flag, both physical-equality no-op contracts (a remove of an
   unbound key, an add' of a value equal to the bound one), and the
   cardinal at every step; then compare exact finds and longest matches.
   Values come from a small range so equal re-adds happen often; an
   unequal one must yield a new trie whose find sees it. The prefix pools
   are biased toward nesting (prefix-of-prefix chains, including /0 and
   full-length host keys) to exercise span splits. *)

let test_ptrie_differential_v4 () =
  let rng = Random.State.make [| 0x9e37 |] in
  let lengths = [| 0; 8; 12; 16; 20; 24; 28; 30; 31; 32 |] in
  let bases =
    [|
      "10.0.0.0"; "10.1.0.0"; "10.1.2.0"; "10.1.2.3"; "172.16.5.0";
      "172.16.5.128"; "0.0.0.0"; "255.255.255.255";
    |]
  in
  let pool =
    Array.init 64 (fun i ->
        Prefix.make
          (Ipv4.of_string_exn bases.(i mod Array.length bases))
          lengths.(Random.State.int rng (Array.length lengths)))
  in
  let model = ref [] in
  let trie = ref Ptrie.V4.empty in
  let model_mem q = List.exists (fun (r, _) -> Prefix.equal r q) !model in
  let model_drop q =
    List.filter (fun (r, _) -> not (Prefix.equal r q)) !model
  in
  for _ = 1 to 2_000 do
    let q = pool.(Random.State.int rng (Array.length pool)) in
    if Random.State.bool rng then begin
      let v = Random.State.int rng 3 in
      let t', was_bound = Ptrie.V4.add' ~equal:Int.equal q v !trie in
      checkb "add' was-bound flag" (model_mem q) was_bound;
      checkb "add' of an equal value is physically equal"
        (List.exists (fun (r, w) -> Prefix.equal r q && w = v) !model)
        (t' == !trie);
      checkb "add' binding visible" true (Ptrie.V4.find q t' = Some v);
      trie := t';
      model := (q, v) :: model_drop q
    end
    else begin
      let t' = Ptrie.V4.remove q !trie in
      checkb "remove no-op is physically equal" (not (model_mem q))
        (t' == !trie);
      trie := t';
      model := model_drop q
    end;
    checki "cardinal tracks model" (List.length !model)
      (Ptrie.V4.cardinal !trie)
  done;
  Array.iter
    (fun q ->
      let expect =
        List.find_opt (fun (r, _) -> Prefix.equal r q) !model
        |> Option.map snd
      in
      checkb "exact find agrees" true (Ptrie.V4.find q !trie = expect))
    pool;
  for _ = 1 to 500 do
    let addr =
      Ipv4.add
        (Ipv4.of_string_exn bases.(Random.State.int rng (Array.length bases)))
        (Random.State.int rng 512)
    in
    let expected =
      List.fold_left
        (fun best (q, v) ->
          if Prefix.mem addr q then
            match best with
            | Some (bq, _) when Prefix.length bq >= Prefix.length q -> best
            | _ -> Some (q, v)
          else best)
        None !model
    in
    match (expected, Ptrie.lookup_v4 addr !trie) with
    | None, None -> ()
    | Some (q1, v1), Some (q2, v2) ->
        checkb "lpm prefix agrees" true (Prefix.equal q1 q2);
        checki "lpm value agrees" v1 v2
    | Some _, None -> Alcotest.fail "trie missed a match the model found"
    | None, Some _ -> Alcotest.fail "trie matched where the model found none"
  done

let test_ptrie_differential_v6 () =
  let rng = Random.State.make [| 0x6b8b |] in
  (* Lengths straddle the 64-bit half boundary; bases differ in both
     halves so diverge points land in each word. *)
  let lengths = [| 0; 16; 32; 48; 63; 64; 65; 96; 112; 127; 128 |] in
  let bases =
    [|
      Ipv6.make 0x2001_0db8_0000_0000L 0L;
      Ipv6.make 0x2001_0db8_0000_0000L 0x8000_0000_0000_0000L;
      Ipv6.make 0x2001_0db8_ffff_0000L 1L;
      Ipv6.make 0x2804_269c_0000_0000L (-1L);
      Ipv6.make 0x2804_269c_0000_0001L 0L;
      Ipv6.make (-1L) (-1L);
      Ipv6.make 0L 1L;
      Ipv6.make 0L 0L;
    |]
  in
  let pool =
    Array.init 64 (fun i ->
        Prefix_v6.make
          bases.(i mod Array.length bases)
          lengths.(Random.State.int rng (Array.length lengths)))
  in
  let model = ref [] in
  let trie = ref Ptrie.V6.empty in
  let model_mem q = List.exists (fun (r, _) -> Prefix_v6.equal r q) !model in
  let model_drop q =
    List.filter (fun (r, _) -> not (Prefix_v6.equal r q)) !model
  in
  for _ = 1 to 2_000 do
    let q = pool.(Random.State.int rng (Array.length pool)) in
    if Random.State.bool rng then begin
      let v = Random.State.int rng 3 in
      let t', was_bound = Ptrie.V6.add' ~equal:Int.equal q v !trie in
      checkb "add' was-bound flag" (model_mem q) was_bound;
      checkb "add' of an equal value is physically equal"
        (List.exists (fun (r, w) -> Prefix_v6.equal r q && w = v) !model)
        (t' == !trie);
      checkb "add' binding visible" true (Ptrie.V6.find q t' = Some v);
      trie := t';
      model := (q, v) :: model_drop q
    end
    else begin
      let t' = Ptrie.V6.remove q !trie in
      checkb "remove no-op is physically equal" (not (model_mem q))
        (t' == !trie);
      trie := t';
      model := model_drop q
    end;
    checki "cardinal tracks model" (List.length !model)
      (Ptrie.V6.cardinal !trie)
  done;
  Array.iter
    (fun q ->
      let expect =
        List.find_opt (fun (r, _) -> Prefix_v6.equal r q) !model
        |> Option.map snd
      in
      checkb "exact find agrees" true (Ptrie.V6.find q !trie = expect))
    pool;
  for _ = 1 to 500 do
    let addr =
      Ipv6.set_bit
        bases.(Random.State.int rng (Array.length bases))
        (Random.State.int rng 128)
        (Random.State.bool rng)
    in
    let expected =
      List.fold_left
        (fun best (q, v) ->
          if Prefix_v6.mem addr q then
            match best with
            | Some (bq, _) when Prefix_v6.length bq >= Prefix_v6.length q ->
                best
            | _ -> Some (q, v)
          else best)
        None !model
    in
    match (expected, Ptrie.lookup_v6 addr !trie) with
    | None, None -> ()
    | Some (q1, v1), Some (q2, v2) ->
        checkb "lpm prefix agrees" true (Prefix_v6.equal q1 q2);
        checki "lpm value agrees" v1 v2
    | Some _, None -> Alcotest.fail "trie missed a match the model found"
    | None, Some _ -> Alcotest.fail "trie matched where the model found none"
  done

(* -- properties ----------------------------------------------------------------- *)

let arbitrary_prefix =
  QCheck.map
    (fun (a, len) -> Prefix.make (Ipv4.of_int32 (Int32.of_int a)) len)
    (QCheck.pair (QCheck.int_bound 0x3fffffff) (QCheck.int_bound 32))

let prop_prefix_string_roundtrip =
  QCheck.Test.make ~name:"prefix to_string/of_string roundtrip" ~count:500
    arbitrary_prefix (fun p ->
      Prefix.equal p (Prefix.of_string_exn (Prefix.to_string p)))

let prop_prefix_network_member =
  QCheck.Test.make ~name:"prefix contains its network address" ~count:500
    arbitrary_prefix (fun p -> Prefix.mem (Prefix.network p) p)

let prop_ipv4_roundtrip =
  QCheck.Test.make ~name:"ipv4 string roundtrip" ~count:500
    (QCheck.int_bound 0x3fffffff) (fun v ->
      let ip = Ipv4.of_int32 (Int32.of_int v) in
      Ipv4.equal ip (Ipv4.of_string_exn (Ipv4.to_string ip)))

(* Model-based: [Prefix.Tbl] agrees with an association list over random
   add/replace/remove/find sequences. Keys come from a small pool (one
   network under several lengths among them) so every op often hits a
   bound key. *)
let prop_prefix_tbl_model =
  let key (a, len) = Prefix.make (Ipv4.of_int32 (Int32.of_int (a lsl 20))) len in
  let op =
    QCheck.triple (QCheck.int_bound 3)
      (QCheck.pair (QCheck.int_bound 7) (QCheck.oneofl [ 8; 12; 16; 24; 32 ]))
      QCheck.small_nat
  in
  QCheck.Test.make ~name:"Prefix.Tbl matches an association-list model"
    ~count:300 (QCheck.list op) (fun ops ->
      let t = Prefix.Tbl.create 4 in
      let model = ref [] in
      let without k = List.filter (fun (k', _) -> not (Prefix.equal k k')) in
      List.for_all
        (fun (kind, k, v) ->
          let k = key k in
          (match kind with
          | 0 -> Prefix.Tbl.replace t k v; model := (k, v) :: without k !model
          | 1 -> Prefix.Tbl.remove t k; model := without k !model
          | _ -> ());
          let expect =
            List.find_map
              (fun (k', v') -> if Prefix.equal k k' then Some v' else None)
              !model
          in
          Prefix.Tbl.find_opt t k = expect
          && Prefix.Tbl.length t = List.length !model)
        ops)

(* Runs of consecutive /24s or /32s must not pile into a few buckets:
   [Hashtbl.Make] indexes by the hash's low bits, and a /24's low eight
   address bits are all zero. *)
let test_prefix_tbl_spread () =
  List.iter
    (fun (base, len) ->
      let t = Prefix.Tbl.create 16 in
      for i = 0 to 4095 do
        let addr = Int32.add base (Int32.shift_left (Int32.of_int i) (32 - len)) in
        Prefix.Tbl.replace t (Prefix.make (Ipv4.of_int32 addr) len) i
      done;
      checki "all bound" 4096 (Prefix.Tbl.length t);
      let longest = (Prefix.Tbl.stats t).Hashtbl.max_bucket_length in
      if longest > 8 then
        Alcotest.failf "/%d run from %ld: longest bucket %d > 8" len base
          longest)
    [ (0x0a000000l, 24); (0xc6120000l, 24); (0x0a000000l, 32); (0xc0a80000l, 32) ]

(* Model-based: longest_match agrees with brute force over an assoc list. *)
let prop_ptrie_lpm_model =
  let gen =
    QCheck.pair
      (QCheck.small_list (QCheck.pair (QCheck.int_bound 0xffffff) (QCheck.int_range 8 32)))
      (QCheck.int_bound 0xffffff)
  in
  QCheck.Test.make ~name:"ptrie longest_match matches brute force" ~count:300
    gen (fun (entries, addr_seed) ->
      let entries =
        List.map
          (fun (a, len) ->
            (Prefix.make (Ipv4.of_int32 (Int32.of_int (a * 251))) len, a))
          entries
      in
      let t = Ptrie.V4.of_list entries in
      let addr = Ipv4.of_int32 (Int32.of_int (addr_seed * 257)) in
      let expected =
        List.fold_left
          (fun best (p, v) ->
            if Prefix.mem addr p then
              match best with
              | Some (bp, _) when Prefix.length bp >= Prefix.length p -> best
              | _ -> Some (p, v)
            else best)
          None
          (* later inserts win on duplicates, like the trie *)
          (List.rev entries)
      in
      let got = Ptrie.lookup_v4 addr t in
      match (expected, got) with
      | None, None -> true
      | Some (p1, _), Some (p2, _) -> Prefix.equal p1 p2
      | _ -> false)

let prop_udp_roundtrip =
  QCheck.Test.make ~name:"udp codec roundtrip" ~count:300
    (QCheck.triple (QCheck.int_bound 65535) (QCheck.int_bound 65535)
       QCheck.small_string) (fun (sp, dp, payload) ->
      match Udp.decode (Udp.encode { Udp.src_port = sp; dst_port = dp; payload }) with
      | Ok d -> d.Udp.src_port = sp && d.Udp.dst_port = dp && d.Udp.payload = payload
      | Error _ -> false)

let prop_ipv6_roundtrip =
  QCheck.Test.make ~name:"ipv6 string roundtrip (incl. :: compression)"
    ~count:500
    (QCheck.pair (QCheck.list_of_size (QCheck.Gen.return 8) (QCheck.int_bound 0xffff))
       (QCheck.int_bound 7))
    (fun (groups, zero_from) ->
      (* Bias toward zero runs so compression paths are exercised. *)
      let gs =
        Array.of_list groups |> Array.mapi (fun i g ->
            if i >= zero_from && i < zero_from + 3 then 0 else g)
      in
      let v = Ipv6.of_groups gs in
      Ipv6.equal v (Ipv6.of_string_exn (Ipv6.to_string v)))

let prop_mac_roundtrip =
  QCheck.Test.make ~name:"mac string roundtrip" ~count:300
    (QCheck.int_bound 0xffffff) (fun seed ->
      let m = Mac.local ~pool:(seed land 0xff) (seed * 17 land 0xffffff) in
      Mac.equal m (Mac.of_string_exn (Mac.to_string m)))

let prop_checksum_patch_verifies =
  QCheck.Test.make ~name:"checksum: patched data always verifies" ~count:300
    (QCheck.string_of_size (QCheck.Gen.int_range 4 64)) (fun data ->
      let b = Bytes.of_string data in
      Bytes.set_uint16_be b 0 0;
      let c = Checksum.of_string (Bytes.to_string b) in
      Bytes.set_uint16_be b 0 c;
      Checksum.verify (Bytes.to_string b))

let prop_ipv4_packet_roundtrip =
  QCheck.Test.make ~name:"ipv4 packet roundtrip" ~count:300
    (QCheck.triple QCheck.small_string (QCheck.int_range 1 255)
       (QCheck.int_bound 0xffff))
    (fun (payload, ttl, ident) ->
      let p =
        Ipv4_packet.make ~ttl ~ident
          ~src:(Ipv4.of_string_exn "10.0.0.1")
          ~dst:(Ipv4.of_string_exn "10.0.0.2")
          ~protocol:Ipv4_packet.Udp payload
      in
      match Ipv4_packet.decode (Ipv4_packet.encode p) with
      | Ok q -> q = p
      | Error _ -> false)

(* The header-and-payload encoding as the growable [Wire.Writer] built
   it before [encode] wrote one exact-size buffer: the oracle the new
   encoding must match byte for byte. *)
let writer_encode (t : Ipv4_packet.t) =
  let total = Ipv4_packet.header_size + String.length t.payload in
  let w = Wire.Writer.create ~capacity:total () in
  Wire.Writer.u8 w 0x45;
  Wire.Writer.u8 w (t.dscp lsl 2);
  Wire.Writer.u16 w total;
  Wire.Writer.u16 w t.ident;
  Wire.Writer.u16 w 0;
  Wire.Writer.u8 w t.ttl;
  Wire.Writer.u8 w (Ipv4_packet.protocol_to_int t.protocol);
  let cksum_off = Wire.Writer.reserve w 2 in
  Wire.Writer.u32 w (Ipv4.to_int32 t.src);
  Wire.Writer.u32 w (Ipv4.to_int32 t.dst);
  let header = Wire.Writer.contents w in
  Wire.Writer.patch_u16 w cksum_off (Checksum.of_string header);
  Wire.Writer.string w t.payload;
  Wire.Writer.contents w

(* Every header field over its whole range, addresses on both sides of
   128.0.0.0 (a negative [int32]), payloads up to an MTU's worth. *)
let gen_ipv4_packet =
  QCheck.Gen.(
    let addr = map Int32.of_int (int_bound 0xffff_ffff) in
    map
      (fun ((src, dst, ttl, proto), (ident, dscp, payload)) ->
        Ipv4_packet.make ~ttl ~ident ~dscp ~src:(Ipv4.of_int32 src)
          ~dst:(Ipv4.of_int32 dst)
          ~protocol:(Ipv4_packet.protocol_of_int proto)
          payload)
      (pair
         (quad addr addr (int_bound 255) (int_bound 255))
         (triple (int_bound 0xffff) (int_bound 63)
            (string_size ~gen:char (int_bound 1480)))))

let prop_ipv4_encode_matches_writer =
  QCheck.Test.make ~name:"ipv4 encode is byte-identical to the writer's"
    ~count:300
    (QCheck.make ~print:(Fmt.to_to_string Ipv4_packet.pp) gen_ipv4_packet)
    (fun p ->
      let wire = Ipv4_packet.encode p in
      String.equal wire (writer_encode p)
      && Ipv4_packet.decode wire = Ok p)

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_prefix_string_roundtrip;
      prop_prefix_network_member;
      prop_ipv4_roundtrip;
      prop_ptrie_lpm_model;
      prop_prefix_tbl_model;
      prop_udp_roundtrip;
      prop_ipv6_roundtrip;
      prop_mac_roundtrip;
      prop_checksum_patch_verifies;
      prop_ipv4_packet_roundtrip;
      prop_ipv4_encode_matches_writer;
    ]

let () =
  Alcotest.run "netcore"
    [
      ( "ipv4",
        [
          Alcotest.test_case "roundtrip" `Quick test_ipv4_roundtrip;
          Alcotest.test_case "invalid" `Quick test_ipv4_invalid;
          Alcotest.test_case "unsigned compare" `Quick test_ipv4_unsigned_compare;
          Alcotest.test_case "arithmetic" `Quick test_ipv4_arithmetic;
          Alcotest.test_case "private ranges" `Quick test_ipv4_private;
        ] );
      ( "ipv6",
        [
          Alcotest.test_case "roundtrip" `Quick test_ipv6_roundtrip;
          Alcotest.test_case "invalid" `Quick test_ipv6_invalid;
          Alcotest.test_case "bits" `Quick test_ipv6_bits;
        ] );
      ( "prefix",
        [
          Alcotest.test_case "normalization" `Quick test_prefix_normalization;
          Alcotest.test_case "membership" `Quick test_prefix_membership;
          Alcotest.test_case "subset" `Quick test_prefix_subset;
          Alcotest.test_case "split/subnets" `Quick test_prefix_split_subnets;
          Alcotest.test_case "host" `Quick test_prefix_host;
          Alcotest.test_case "ipv6 prefixes" `Quick test_prefix_v6;
          Alcotest.test_case "Tbl spreads consecutive prefixes" `Quick
            test_prefix_tbl_spread;
        ] );
      ( "mac",
        [
          Alcotest.test_case "roundtrip" `Quick test_mac_roundtrip;
          Alcotest.test_case "properties" `Quick test_mac_properties;
        ] );
      ("checksum", [ Alcotest.test_case "rfc1071" `Quick test_checksum ]);
      ( "codecs",
        [
          Alcotest.test_case "ethernet roundtrip" `Quick test_eth_roundtrip;
          Alcotest.test_case "ethernet truncated" `Quick test_eth_truncated;
          Alcotest.test_case "arp roundtrip" `Quick test_arp_roundtrip;
          Alcotest.test_case "ipv4 roundtrip" `Quick test_ipv4_packet_roundtrip;
          Alcotest.test_case "ipv4 checksum" `Quick test_ipv4_packet_checksum;
          Alcotest.test_case "ttl decrement" `Quick test_ttl_decrement;
          Alcotest.test_case "icmp roundtrip" `Quick test_icmp_roundtrip;
          Alcotest.test_case "icmp checksum" `Quick test_icmp_checksum;
          Alcotest.test_case "udp roundtrip" `Quick test_udp_roundtrip;
        ] );
      ( "wire",
        [
          Alcotest.test_case "writer/reader" `Quick test_wire_writer_reader;
          Alcotest.test_case "patch" `Quick test_wire_patch;
          Alcotest.test_case "truncation" `Quick test_wire_truncation;
        ] );
      ( "dcache",
        [
          Alcotest.test_case "hosts sharing a last octet spread out" `Quick
            test_dcache_spreads_last_octet;
        ] );
      ( "ptrie",
        [
          Alcotest.test_case "basics" `Quick test_ptrie_basics;
          Alcotest.test_case "remove" `Quick test_ptrie_remove;
          Alcotest.test_case "matches order" `Quick test_ptrie_matches_order;
          Alcotest.test_case "map/filter" `Quick test_ptrie_map_filter;
          Alcotest.test_case "differential v4" `Quick test_ptrie_differential_v4;
          Alcotest.test_case "differential v6" `Quick test_ptrie_differential_v6;
        ] );
      ("properties", qcheck_cases);
    ]
