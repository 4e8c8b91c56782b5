(* Tests for the BGP substrate: ASNs, communities, AS paths, capabilities,
   attributes, the wire codec (incl. ADD-PATH and MP-BGP), the FSM, and
   live sessions over simulated links. *)

open Netcore
open Bgp

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checks = Alcotest.(check string)

let asn = Asn.of_int
let ip = Ipv4.of_string_exn
let pfx = Prefix.of_string_exn

(* -- Asn ----------------------------------------------------------------------- *)

let test_asn () =
  checkb "4byte" true (Asn.is_4byte (asn 263842));
  checkb "2byte" false (Asn.is_4byte (asn 47065));
  checki "as_trans" 23456 Asn.as_trans;
  checkb "private 2byte" true (Asn.is_private (asn 64512));
  checkb "public" false (Asn.is_private (asn 47065));
  checkb "reserved" true (Asn.is_reserved (asn 0))

(* -- Community ------------------------------------------------------------------ *)

let test_community () =
  let c = Community.make 47065 10001 in
  checki "asn part" 47065 (Community.asn c);
  checki "value part" 10001 (Community.value c);
  checks "to_string" "47065:10001" (Community.to_string c);
  checkb "parse" true (Community.of_string "47065:10001" = Some c);
  checkb "well-known" true
    (Community.of_string "no-export" = Some Community.no_export);
  checkb "bad" true (Community.of_string "70000:1" = None);
  checkb "int32 roundtrip" true
    (Community.equal c (Community.of_int32 (Community.to_int32 c)))

let test_large_community () =
  let c = Large_community.make 47065 1 4000000000 in
  checks "to_string" "47065:1:4000000000" (Large_community.to_string c);
  checkb "roundtrip" true
    (Large_community.of_string (Large_community.to_string c) = Some c)

(* -- Aspath ----------------------------------------------------------------------- *)

let test_aspath_length () =
  let path =
    [ Aspath.Seq [ asn 1; asn 2 ]; Aspath.Set [ asn 3; asn 4; asn 5 ]; Aspath.Seq [ asn 6 ] ]
  in
  (* sets count as 1 *)
  checki "length" 4 (Aspath.length path);
  checki "flat asns" 6 (List.length (Aspath.to_asns path))

let test_aspath_origin_first () =
  let path = Aspath.of_asns [ asn 10; asn 20; asn 30 ] in
  checkb "first" true (Aspath.first path = Some (asn 10));
  checkb "origin" true (Aspath.origin path = Some (asn 30));
  checkb "empty origin" true (Aspath.origin Aspath.empty = None)

let test_aspath_prepend () =
  let path = Aspath.of_asns [ asn 20 ] in
  let path = Aspath.prepend_n (asn 10) 3 path in
  checki "length after prepend" 4 (Aspath.length path);
  checkb "first" true (Aspath.first path = Some (asn 10))

let test_aspath_poison () =
  let path = Aspath.poison ~self:(asn 61574) [ asn 3356; asn 174 ] Aspath.empty in
  checkb "contains victim" true (Aspath.contains (asn 3356) path);
  checkb "origin stays self" true (Aspath.origin path = Some (asn 61574));
  let poisoned = Aspath.poisoned ~self:(asn 61574) path in
  checki "poisoned count" 2 (List.length poisoned)

(* -- Capability -------------------------------------------------------------------- *)

let test_capability_roundtrip () =
  let caps =
    [
      Capability.Multiprotocol { afi = 1; safi = 1 };
      Capability.Route_refresh;
      Capability.As4 (asn 263842);
      Capability.Add_path [ (1, 1, Capability.Send_receive) ];
    ]
  in
  List.iter
    (fun cap ->
      let v = Capability.encode_value cap in
      let cap' = Capability.decode_value ~code:(Capability.code cap) ~data:v in
      checkb "roundtrip" true (cap = cap'))
    caps

let test_add_path_negotiation () =
  let sr = [ Capability.Add_path [ (1, 1, Capability.Send_receive) ] ] in
  let recv = [ Capability.Add_path [ (1, 1, Capability.Receive) ] ] in
  let none = [] in
  let check_pair name local peer expect =
    checkb name true
      (Capability.negotiate_add_path ~local ~peer ~afi:1 ~safi:1 = expect)
  in
  check_pair "both SR" sr sr (true, true);
  check_pair "send to receiver" sr recv (true, false);
  check_pair "no peer support" sr none (false, false);
  check_pair "receiver only" recv sr (false, true)

(* -- Attr ---------------------------------------------------------------------------- *)

let test_attr_accessors () =
  let attrs =
    Attr.origin_attrs ~as_path:(Aspath.of_asns [ asn 1 ]) ~next_hop:(ip "1.1.1.1") ()
    |> Attr.with_med 50 |> Attr.with_local_pref 200
    |> Attr.add_community (Community.make 1 2)
  in
  checkb "origin" true (Attr.origin attrs = Some Attr.Igp);
  checkb "next hop" true (Attr.next_hop attrs = Some (ip "1.1.1.1"));
  checkb "med" true (Attr.med attrs = Some 50);
  checkb "local pref" true (Attr.local_pref attrs = Some 200);
  checkb "community" true (Attr.has_community (Community.make 1 2) attrs);
  (* replacement *)
  let attrs = Attr.with_next_hop (ip "2.2.2.2") attrs in
  checkb "replaced next hop" true (Attr.next_hop attrs = Some (ip "2.2.2.2"));
  checki "no duplicate next hop" 1
    (List.length (List.filter (fun a -> Attr.type_code a = 3) attrs))

let test_attr_sorted () =
  let attrs =
    [ Attr.Med 1; Attr.Origin Attr.Igp; Attr.Next_hop (ip "1.1.1.1") ]
  in
  let sorted = Attr.sort attrs in
  checkb "sorted by type code" true
    (List.map Attr.type_code sorted = [ 1; 3; 4 ])

let test_attr_unknown_transitive () =
  let unknown_trans =
    Attr.Unknown { flags = Attr.flag_optional lor Attr.flag_transitive; code = 99; data = "x" }
  in
  let unknown_nontrans =
    Attr.Unknown { flags = Attr.flag_optional; code = 98; data = "y" }
  in
  let attrs = [ Attr.Origin Attr.Igp; unknown_trans; unknown_nontrans ] in
  checki "only optional transitive" 1 (List.length (Attr.unknown_transitive attrs))

(* -- Codec ------------------------------------------------------------------------------ *)

let roundtrip ?params msg =
  Codec.decode_exn ?params (Codec.encode ?params msg)

let test_codec_open () =
  let o =
    {
      Msg.version = 4;
      asn = asn 263842;
      hold_time = 90;
      bgp_id = ip "10.0.0.1";
      capabilities =
        [
          Capability.Multiprotocol { afi = 1; safi = 1 };
          Capability.As4 (asn 263842);
          Capability.Add_path [ (1, 1, Capability.Send_receive) ];
        ];
    }
  in
  match roundtrip (Msg.Open o) with
  | Msg.Open o' ->
      checkb "asn recovered from AS4 cap" true (Asn.equal o'.Msg.asn (asn 263842));
      checki "hold" 90 o'.Msg.hold_time;
      checki "caps" 3 (List.length o'.Msg.capabilities)
  | _ -> Alcotest.fail "wrong message type"

let test_codec_keepalive_notification () =
  checkb "keepalive" true (roundtrip Msg.Keepalive = Msg.Keepalive);
  match
    roundtrip (Msg.Notification { code = 6; subcode = 2; data = "bye" })
  with
  | Msg.Notification n ->
      checki "code" 6 n.Msg.code;
      checki "subcode" 2 n.Msg.subcode;
      checks "data" "bye" n.Msg.data
  | _ -> Alcotest.fail "wrong message type"

let sample_update ?(path_id = None) () =
  {
    Msg.withdrawn = [ { Msg.prefix = pfx "10.9.0.0/16"; path_id } ];
    attrs =
      Attr.origin_attrs
        ~as_path:[ Aspath.Seq [ asn 65000; asn 174 ]; Aspath.Set [ asn 1; asn 2 ] ]
        ~next_hop:(ip "192.0.2.1") ()
      |> Attr.with_med 10
      |> Attr.add_community (Community.make 47065 10001);
    announced =
      [
        { Msg.prefix = pfx "184.164.224.0/24"; path_id };
        { Msg.prefix = pfx "184.164.225.0/24"; path_id };
      ];
  }

let update_equal (a : Msg.update) (b : Msg.update) =
  a.Msg.withdrawn = b.Msg.withdrawn
  && a.Msg.announced = b.Msg.announced
  && Attr.equal_set a.Msg.attrs b.Msg.attrs

let test_codec_update () =
  let u = sample_update () in
  match roundtrip (Msg.Update u) with
  | Msg.Update u' -> checkb "update roundtrip" true (update_equal u u')
  | _ -> Alcotest.fail "wrong message type"

let test_codec_update_add_path () =
  let params = { Codec.add_path = true; as4 = true } in
  let u = sample_update ~path_id:(Some 7) () in
  match roundtrip ~params (Msg.Update u) with
  | Msg.Update u' ->
      checkb "add-path roundtrip" true (update_equal u u');
      checkb "path ids present" true
        (List.for_all (fun (n : Msg.nlri) -> n.Msg.path_id = Some 7) u'.Msg.announced)
  | _ -> Alcotest.fail "wrong message type"

(* -- NLRI packing: split_update --------------------------------------------- *)

let packing_attrs () =
  Attr.origin_attrs
    ~as_path:[ Aspath.Seq [ asn 65000; asn 47065 ] ]
    ~next_hop:(ip "192.0.2.1") ()
  |> Attr.add_community (Community.make 47065 10001)

(* [n] distinct /24s under 10.0.0.0/8. *)
let many_prefixes n =
  List.init n (fun i ->
      Msg.nlri (pfx (Printf.sprintf "10.%d.%d.0/24" (i / 256) (i mod 256))))

let decoded_routes ?params (u : Msg.update) =
  List.concat_map
    (fun piece ->
      match Codec.decode_exn ?params (Codec.encode ?params (Msg.Update piece)) with
      | Msg.Update u' ->
          List.map (fun n -> (`A, n, u'.Msg.attrs)) u'.Msg.announced
          @ List.map (fun n -> (`W, n, [])) u'.Msg.withdrawn
      | _ -> Alcotest.fail "expected UPDATE")
    (Codec.split_update ?params u)

let test_split_update_noop () =
  let u = sample_update () in
  (match Codec.split_update u with
  | [ u' ] -> checkb "within bounds: unchanged" true (u == u')
  | pieces -> Alcotest.failf "expected singleton, got %d" (List.length pieces));
  (* MP-only updates (no v4 NLRI) are never split, however large. *)
  let nlri =
    List.init 2000 (fun i ->
        (Prefix_v6.of_string_exn (Printf.sprintf "2804:269c:%x::/48" (i + 1)), None))
  in
  let mp =
    Msg.update
      ~attrs:
        [
          Attr.Origin Attr.Igp;
          Attr.As_path (Aspath.of_asns [ asn 61574 ]);
          Attr.Mp_reach { next_hop = Ipv6.of_string_exn "2001:db8::1"; nlri };
        ]
      ()
  in
  checki "mp-only never splits" 1 (List.length (Codec.split_update mp))

let test_split_update_boundary () =
  let attrs = packing_attrs () in
  (* Find the largest NLRI count that still encodes within 4096 bytes. *)
  let size n =
    String.length
      (Codec.encode (Msg.Update (Msg.update ~attrs ~announced:(many_prefixes n) ())))
  in
  let max_fit = ref 1 in
  while size (!max_fit + 1) <= Codec.classic_max_message_size do incr max_fit done;
  let u_fit = Msg.update ~attrs ~announced:(many_prefixes !max_fit) () in
  checki "exact fit stays one message" 1 (List.length (Codec.split_update u_fit));
  let u_over = Msg.update ~attrs ~announced:(many_prefixes (!max_fit + 1)) () in
  let pieces = Codec.split_update u_over in
  checkb "one over the boundary splits" true (List.length pieces >= 2);
  List.iter
    (fun piece ->
      checkb "every piece within 4096" true
        (String.length (Codec.encode (Msg.Update piece))
        <= Codec.classic_max_message_size))
    pieces;
  (* The split decodes to exactly the same routes as the packed update. *)
  let flat =
    List.map (fun n -> (`A, n, Attr.sort attrs)) u_over.Msg.announced
  in
  let got =
    List.map
      (fun (k, n, a) -> (k, n, Attr.sort a))
      (decoded_routes u_over)
  in
  checkb "split decodes to the same routes" true (flat = got)

let test_split_update_withdraw_and_announce () =
  let attrs = packing_attrs () in
  let u =
    Msg.update ~attrs
      ~withdrawn:(many_prefixes 900)
      ~announced:
        (List.init 900 (fun i ->
             Msg.nlri
               (pfx (Printf.sprintf "172.%d.%d.0/24" (i / 256) (i mod 256)))))
      ()
  in
  let pieces = Codec.split_update u in
  checkb "withdraw+announce splits" true (List.length pieces >= 2);
  List.iter
    (fun (piece : Msg.update) ->
      checkb "piece within 4096" true
        (String.length (Codec.encode (Msg.Update piece))
        <= Codec.classic_max_message_size);
      checkb "withdraw pieces carry no attrs" true
        (piece.Msg.withdrawn = [] || piece.Msg.attrs = []))
    pieces;
  let count k =
    List.fold_left
      (fun acc (k', _, _) -> if k = k' then acc + 1 else acc)
      0 (decoded_routes u)
  in
  checki "all withdrawals survive" 900 (count `W);
  checki "all announcements survive" 900 (count `A)

let test_split_update_add_path () =
  let params = { Codec.add_path = true; as4 = true } in
  let attrs = packing_attrs () in
  let announced =
    List.map
      (fun (n : Msg.nlri) -> { n with Msg.path_id = Some 7 })
      (many_prefixes 1200)
  in
  let u = Msg.update ~attrs ~announced () in
  let pieces = Codec.split_update ~params u in
  checkb "add-path splits" true (List.length pieces >= 2);
  List.iter
    (fun piece ->
      checkb "add-path piece within 4096" true
        (String.length (Codec.encode ~params (Msg.Update piece))
        <= Codec.classic_max_message_size))
    pieces;
  let got = decoded_routes ~params u in
  checki "all nlri survive" 1200 (List.length got);
  checkb "path ids preserved" true
    (List.for_all (fun (_, (n : Msg.nlri), _) -> n.Msg.path_id = Some 7) got)

let test_codec_as_trans () =
  (* Without AS4, 4-byte ASNs in paths become AS_TRANS on the wire. *)
  let params = { Codec.add_path = false; as4 = false } in
  let u =
    Msg.update
      ~attrs:
        (Attr.origin_attrs
           ~as_path:(Aspath.of_asns [ asn 263842 ])
           ~next_hop:(ip "1.1.1.1") ())
      ~announced:[ Msg.nlri (pfx "10.0.0.0/24") ]
      ()
  in
  match roundtrip ~params (Msg.Update u) with
  | Msg.Update u' -> (
      match Attr.as_path u'.Msg.attrs with
      | Some path ->
          checkb "as_trans substituted" true
            (Aspath.to_asns path = [ asn Asn.as_trans ])
      | None -> Alcotest.fail "no as path")
  | _ -> Alcotest.fail "wrong message type"

let test_codec_extended_length () =
  (* An AS path over 255 bytes forces the extended-length attribute flag. *)
  let long_path = Aspath.of_asns (List.init 100 (fun i -> asn (1000 + i))) in
  let u =
    Msg.update
      ~attrs:(Attr.origin_attrs ~as_path:long_path ~next_hop:(ip "1.1.1.1") ())
      ~announced:[ Msg.nlri (pfx "10.0.0.0/24") ]
      ()
  in
  match roundtrip (Msg.Update u) with
  | Msg.Update u' ->
      checkb "long path roundtrip" true
        (match Attr.as_path u'.Msg.attrs with
        | Some p -> Aspath.equal p long_path
        | None -> false)
  | _ -> Alcotest.fail "wrong message type"

let test_codec_mp_v6 () =
  let nlri = [ (Prefix_v6.of_string_exn "2804:269c:1::/48", None) ] in
  let u =
    Msg.update
      ~attrs:
        [
          Attr.Origin Attr.Igp;
          Attr.As_path (Aspath.of_asns [ asn 61574 ]);
          Attr.Mp_reach { next_hop = Ipv6.of_string_exn "2001:db8::1"; nlri };
        ]
      ()
  in
  match roundtrip (Msg.Update u) with
  | Msg.Update u' -> (
      match
        List.find_opt
          (fun a -> match a with Attr.Mp_reach _ -> true | _ -> false)
          u'.Msg.attrs
      with
      | Some (Attr.Mp_reach { next_hop; nlri = nlri' }) ->
          checkb "v6 next hop" true
            (Ipv6.equal next_hop (Ipv6.of_string_exn "2001:db8::1"));
          checkb "v6 nlri" true (nlri = nlri')
      | _ -> Alcotest.fail "mp_reach lost")
  | _ -> Alcotest.fail "wrong message type"

let test_codec_unknown_attr_preserved () =
  let unknown =
    Attr.Unknown
      { flags = Attr.flag_optional lor Attr.flag_transitive; code = 99; data = "opaque" }
  in
  let u =
    Msg.update
      ~attrs:
        (unknown
        :: Attr.origin_attrs
             ~as_path:(Aspath.of_asns [ asn 1 ])
             ~next_hop:(ip "1.1.1.1") ())
      ~announced:[ Msg.nlri (pfx "10.0.0.0/24") ]
      ()
  in
  match roundtrip (Msg.Update u) with
  | Msg.Update u' ->
      checkb "unknown preserved" true
        (List.exists
           (fun a ->
             match a with
             | Attr.Unknown { code = 99; data = "opaque"; _ } -> true
             | _ -> false)
           u'.Msg.attrs)
  | _ -> Alcotest.fail "wrong message type"

let test_codec_route_refresh () =
  match roundtrip (Msg.Route_refresh { afi = 1; safi = 1 }) with
  | Msg.Route_refresh { afi = 1; safi = 1 } -> ()
  | m -> Alcotest.failf "wrong message: %a" Msg.pp m

let test_codec_errors () =
  (* Bad marker *)
  let good = Codec.encode Msg.Keepalive in
  let bad_marker = "\x00" ^ String.sub good 1 (String.length good - 1) in
  checkb "bad marker" true (Result.is_error (Codec.decode bad_marker));
  (* Bad length field *)
  let bad_len = Bytes.of_string good in
  Bytes.set_uint16_be bad_len 16 5;
  checkb "bad length" true
    (Result.is_error (Codec.decode (Bytes.to_string bad_len)));
  (* Truncated *)
  checkb "truncated" true
    (Result.is_error (Codec.decode (String.sub good 0 10)))

let test_stream_reassembly () =
  let msgs =
    [
      Msg.Keepalive;
      Msg.Update (sample_update ());
      Msg.Keepalive;
      Msg.Notification { code = 6; subcode = 0; data = "" };
    ]
  in
  let wire = String.concat "" (List.map (fun m -> Codec.encode m) msgs) in
  (* Feed the byte stream in 7-byte chunks. *)
  let stream = Codec.Stream.create () in
  let received = ref [] in
  let rec feed i =
    if i < String.length wire then begin
      let n = min 7 (String.length wire - i) in
      (match Codec.Stream.input stream (String.sub wire i n) with
      | Ok ms -> received := !received @ ms
      | Error e -> Alcotest.fail e.Codec.message);
      feed (i + n)
    end
  in
  feed 0;
  checki "all messages recovered" (List.length msgs) (List.length !received);
  checkb "order preserved" true
    (match !received with
    | [ Msg.Keepalive; Msg.Update _; Msg.Keepalive; Msg.Notification _ ] -> true
    | _ -> false)

(* -- FSM ---------------------------------------------------------------------------------- *)

let dummy_open =
  {
    Msg.version = 4;
    asn = asn 100;
    hold_time = 90;
    bgp_id = ip "10.0.0.2";
    capabilities = [];
  }

let test_fsm_happy_path () =
  let s, _ = Fsm.step Fsm.Idle Fsm.Start in
  Alcotest.(check string) "connect" "connect" (Fsm.state_to_string s);
  let s, actions = Fsm.step s Fsm.Connection_up in
  Alcotest.(check string) "open-sent" "open-sent" (Fsm.state_to_string s);
  checkb "sends open" true (List.mem Fsm.Send_open actions);
  let s, actions = Fsm.step s (Fsm.Received (Msg.Open dummy_open)) in
  Alcotest.(check string) "open-confirm" "open-confirm" (Fsm.state_to_string s);
  checkb "processes open" true
    (List.exists (function Fsm.Process_open _ -> true | _ -> false) actions);
  checkb "sends keepalive" true (List.mem Fsm.Send_keepalive actions);
  let s, actions = Fsm.step s (Fsm.Received Msg.Keepalive) in
  Alcotest.(check string) "established" "established" (Fsm.state_to_string s);
  checkb "reports established" true (List.mem Fsm.Session_established actions)

let test_fsm_hold_expiry () =
  let s, actions = Fsm.step Fsm.Established Fsm.Hold_timer_expired in
  Alcotest.(check string) "back to idle" "idle" (Fsm.state_to_string s);
  checkb "notification sent" true
    (List.mem (Fsm.Send_notification (Msg.err_hold_timer_expired, 0)) actions)

let test_fsm_stop_sends_cease () =
  let _, actions = Fsm.step Fsm.Established Fsm.Stop in
  checkb "cease" true
    (List.mem (Fsm.Send_notification (Msg.err_cease, 0)) actions)

let test_fsm_unexpected_message () =
  let s, actions = Fsm.step Fsm.Open_sent (Fsm.Received Msg.Keepalive) in
  Alcotest.(check string) "reset" "idle" (Fsm.state_to_string s);
  checkb "fsm error notification" true
    (List.mem (Fsm.Send_notification (Msg.err_fsm, 0)) actions)

let test_fsm_idle_inert () =
  List.iter
    (fun ev ->
      let s, actions = Fsm.step Fsm.Idle ev in
      checkb "stays idle" true (s = Fsm.Idle && actions = []))
    [ Fsm.Connection_failed; Fsm.Hold_timer_expired; Fsm.Keepalive_timer_expired ]

(* -- live sessions over a simulated link ---------------------------------------------------- *)

let make_pair engine =
  let config_a =
    Session.config ~local_asn:(asn 47065) ~local_id:(ip "10.0.0.1")
      ~capabilities:
        [ Capability.As4 (asn 47065);
          Capability.Add_path [ (1, 1, Capability.Send_receive) ] ]
      ()
  in
  let config_b =
    Session.config ~local_asn:(asn 100) ~local_id:(ip "10.0.0.2")
      ~capabilities:
        [ Capability.As4 (asn 100);
          Capability.Add_path [ (1, 1, Capability.Send_receive) ] ]
      ()
  in
  Sim.Bgp_wire.make engine ~config_active:config_a ~config_passive:config_b ()

let test_session_establishment () =
  let engine = Sim.Engine.create () in
  let pair = make_pair engine in
  Sim.Bgp_wire.start pair;
  Sim.Engine.run_until engine 5.;
  checkb "active established" true (Session.established pair.Sim.Bgp_wire.active);
  checkb "passive established" true
    (Session.established pair.Sim.Bgp_wire.passive);
  (* ADD-PATH negotiated in both directions. *)
  checkb "add-path send negotiated" true
    (Session.send_params pair.Sim.Bgp_wire.active).Codec.add_path

let test_session_update_delivery () =
  let engine = Sim.Engine.create () in
  let pair = make_pair engine in
  let got = ref [] in
  Session.set_handlers pair.Sim.Bgp_wire.passive
    {
      Session.on_route_refresh = (fun ~afi:_ ~safi:_ -> ());
      on_update = (fun u -> got := u :: !got);
      on_established = ignore;
      on_down = ignore;
    };
  Sim.Bgp_wire.start pair;
  Sim.Engine.run_until engine 5.;
  let u = sample_update ~path_id:(Some 3) () in
  Session.send_update pair.Sim.Bgp_wire.active u;
  Sim.Engine.run_until engine 10.;
  checki "one update" 1 (List.length !got);
  checkb "faithful delivery incl path ids" true
    (update_equal u (List.hd !got))

let test_session_keepalives_maintain () =
  let engine = Sim.Engine.create () in
  let pair = make_pair engine in
  Sim.Bgp_wire.start pair;
  (* Run well past several hold periods: keepalives must keep it alive. *)
  Sim.Engine.run_until engine 600.;
  checkb "still established after 10 minutes" true
    (Session.established pair.Sim.Bgp_wire.active)

let test_session_hold_timer_detects_failure () =
  let engine = Sim.Engine.create () in
  let pair = make_pair engine in
  Sim.Bgp_wire.start pair;
  Sim.Engine.run_until engine 5.;
  (* Cut the link: keepalives stop flowing, hold timers must fire. *)
  Sim.Link.set_up pair.Sim.Bgp_wire.link false;
  Sim.Engine.run_until engine 300.;
  checkb "session torn down" false
    (Session.established pair.Sim.Bgp_wire.active);
  checkb "hold timer reason" true
    (match Session.last_error pair.Sim.Bgp_wire.active with
    | Some reason ->
        (* Either our hold timer fired or the peer's notification arrived
           first; both indicate detection. *)
        reason <> ""
    | None -> false)

let test_session_stop_notifies_peer () =
  let engine = Sim.Engine.create () in
  let pair = make_pair engine in
  let down_reason = ref "" in
  Sim.Bgp_wire.start pair;
  Sim.Engine.run_until engine 5.;
  Session.set_handlers pair.Sim.Bgp_wire.passive
    {
      Session.on_route_refresh = (fun ~afi:_ ~safi:_ -> ());
      on_update = ignore;
      on_established = ignore;
      on_down = (fun r -> down_reason := Fsm.down_reason_to_string r);
    };
  Session.stop pair.Sim.Bgp_wire.active;
  Sim.Engine.run_until engine 10.;
  checkb "peer saw cease notification" true
    (String.length !down_reason > 0 && String.sub !down_reason 0 12 = "notification")

let test_session_hold_time_negotiation () =
  (* Negotiated hold time is the minimum of both proposals (RFC 4271). *)
  let engine = Sim.Engine.create () in
  let config_a =
    Session.config ~local_asn:(asn 47065) ~local_id:(ip "10.0.0.1")
      ~hold_time:180 ~capabilities:[ Capability.As4 (asn 47065) ] ()
  in
  let config_b =
    Session.config ~local_asn:(asn 100) ~local_id:(ip "10.0.0.2")
      ~hold_time:30 ~capabilities:[ Capability.As4 (asn 100) ] ()
  in
  let pair =
    Sim.Bgp_wire.make engine ~config_active:config_a ~config_passive:config_b ()
  in
  Sim.Bgp_wire.start pair;
  Sim.Engine.run_until engine 5.;
  (match Session.peer_open pair.Sim.Bgp_wire.active with
  | Some o -> checki "peer proposed 30" 30 o.Msg.hold_time
  | None -> Alcotest.fail "no peer open");
  (* The 180-proposing side must keepalive fast enough for the 30s hold:
     run 10 minutes; the session only survives if it honoured min(180,30). *)
  Sim.Engine.run_until engine 600.;
  checkb "session survives on min hold time" true
    (Session.established pair.Sim.Bgp_wire.active)

let test_session_route_refresh () =
  let engine = Sim.Engine.create () in
  let pair = make_pair engine in
  let refreshed = ref None in
  Sim.Bgp_wire.start pair;
  Sim.Engine.run_until engine 5.;
  Session.set_handlers pair.Sim.Bgp_wire.passive
    {
      Session.on_route_refresh =
        (fun ~afi ~safi -> refreshed := Some (afi, safi));
      on_update = ignore;
      on_established = ignore;
      on_down = ignore;
    };
  Session.send_route_refresh pair.Sim.Bgp_wire.active;
  Sim.Engine.run_until engine 10.;
  checkb "route refresh delivered" true (!refreshed = Some (1, 1));
  checkb "session survives" true (Session.established pair.Sim.Bgp_wire.active)

let test_session_mrai_batches () =
  let engine = Sim.Engine.create () in
  let config_a =
    Session.config ~local_asn:(asn 47065) ~local_id:(ip "10.0.0.1") ~mrai:10.
      ~capabilities:[ Capability.As4 (asn 47065) ] ()
  in
  let config_b =
    Session.config ~local_asn:(asn 100) ~local_id:(ip "10.0.0.2")
      ~capabilities:[ Capability.As4 (asn 100) ] ()
  in
  let pair =
    Sim.Bgp_wire.make engine ~config_active:config_a ~config_passive:config_b ()
  in
  let got = ref 0 in
  Session.set_handlers pair.Sim.Bgp_wire.passive
    {
      Session.on_route_refresh = (fun ~afi:_ ~safi:_ -> ());
      on_update = (fun _ -> incr got);
      on_established = ignore;
      on_down = ignore;
    };
  Sim.Bgp_wire.start pair;
  Sim.Engine.run_until engine 5.;
  Session.send_update pair.Sim.Bgp_wire.active (sample_update ());
  Session.send_update pair.Sim.Bgp_wire.active (sample_update ());
  (* Before the MRAI expires nothing is on the wire... *)
  Sim.Engine.run_until engine 10.;
  checki "held back by MRAI" 0 !got;
  (* ...after it, both flush in order. *)
  Sim.Engine.run_until engine 30.;
  checki "flushed after MRAI" 2 !got

(* On a session with an MRAI, [send_encoded] queues the update and the
   flush re-encodes it, so the wire carries what [send_update] would have
   sent, at the same time. Two MRAI sessions get the same updates, one
   through each call; their transcripts must match byte for byte, both
   before the interval expires (nothing) and after it. *)
let test_session_mrai_send_encoded () =
  let engine = Sim.Engine.create () in
  let transcript send =
    let config_a =
      Session.config ~local_asn:(asn 47065) ~local_id:(ip "10.0.0.1")
        ~mrai:10. ~capabilities:[ Capability.As4 (asn 47065) ] ()
    in
    let config_b =
      Session.config ~local_asn:(asn 100) ~local_id:(ip "10.0.0.2")
        ~capabilities:[ Capability.As4 (asn 100) ] ()
    in
    let pair =
      Sim.Bgp_wire.make engine ~config_active:config_a
        ~config_passive:config_b ()
    in
    let wire = Buffer.create 256 in
    Sim.Link.attach pair.Sim.Bgp_wire.link Sim.Link.B (fun data ->
        Buffer.add_string wire data;
        Session.receive_bytes pair.Sim.Bgp_wire.passive data);
    Sim.Bgp_wire.start pair;
    (pair.Sim.Bgp_wire.active, wire, send)
  in
  let plain = transcript Session.send_update in
  let encoded =
    transcript (fun s u ->
        Session.send_encoded s u
          (Codec.encode ~params:(Session.send_params s) (Msg.Update u)))
  in
  Sim.Engine.run_until engine 5.;
  let opened (_, wire, _) = Buffer.length wire in
  let before = (opened plain, opened encoded) in
  let updates =
    [
      sample_update ();
      { (sample_update ()) with Msg.attrs = []; announced = [] };
      Msg.update
        ~attrs:(Attr.with_med 20 (sample_update ()).Msg.attrs)
        ~announced:[ Msg.nlri (pfx "184.164.226.0/24") ]
        ();
    ]
  in
  List.iter
    (fun u -> List.iter (fun (s, _, send) -> send s u) [ plain; encoded ])
    updates;
  Sim.Engine.run_until engine 10.;
  checkb "held back by MRAI on both" true
    ((opened plain, opened encoded) = before);
  Sim.Engine.run_until engine 30.;
  let bytes (_, wire, _) = Buffer.contents wire in
  checkb "flushed" true (opened plain > fst before);
  checks "same transcript" (bytes plain) (bytes encoded)

(* -- robustness: failure causes, teardown, reconnect, graceful restart ------------------------ *)

(* A codec error must be recorded as [last_error] before the Stop it
   triggers, so diagnostics see the true cause rather than "stopped". *)
let test_session_codec_error_cause () =
  let engine = Sim.Engine.create () in
  let pair = make_pair engine in
  Sim.Bgp_wire.start pair;
  Sim.Engine.run_until engine 5.;
  (* A well-formed 19-byte KEEPALIVE header whose marker is all zeroes:
     "connection not synchronized" (RFC 4271 §6.1). *)
  Session.receive_bytes pair.Sim.Bgp_wire.active
    (String.make 16 '\000' ^ "\x00\x13\x04");
  Sim.Engine.run_until engine 10.;
  checkb "session torn down" false (Session.established pair.Sim.Bgp_wire.active);
  checkb "codec cause, not the admin stop it triggered" true
    (Session.last_error pair.Sim.Bgp_wire.active
    = Some "connection not synchronized")

(* Teardown with a non-empty MRAI queue drops the queued updates
   deliberately (and counts them) instead of leaking the flush timer. *)
let test_session_mrai_teardown_drops () =
  let engine = Sim.Engine.create () in
  let config_a =
    Session.config ~local_asn:(asn 47065) ~local_id:(ip "10.0.0.1") ~mrai:10.
      ~capabilities:[ Capability.As4 (asn 47065) ] ()
  in
  let config_b =
    Session.config ~local_asn:(asn 100) ~local_id:(ip "10.0.0.2")
      ~capabilities:[ Capability.As4 (asn 100) ] ()
  in
  let pair =
    Sim.Bgp_wire.make engine ~config_active:config_a ~config_passive:config_b ()
  in
  let got = ref 0 in
  Session.set_handlers pair.Sim.Bgp_wire.passive
    {
      Session.on_route_refresh = (fun ~afi:_ ~safi:_ -> ());
      on_update = (fun _ -> incr got);
      on_established = ignore;
      on_down = ignore;
    };
  Sim.Bgp_wire.start pair;
  Sim.Engine.run_until engine 5.;
  Session.send_update pair.Sim.Bgp_wire.active (sample_update ());
  Session.send_update pair.Sim.Bgp_wire.active (sample_update ());
  Session.send_update pair.Sim.Bgp_wire.active (sample_update ());
  (* Kill the session while all three sit in the MRAI queue. *)
  Session.stop pair.Sim.Bgp_wire.active;
  Sim.Engine.run_until engine 60.;
  checki "queued updates counted as dropped" 3
    (Session.dropped_updates pair.Sim.Bgp_wire.active);
  checki "nothing leaked onto the wire after teardown" 0 !got

(* Reconnect backoff doubles from the base per failed cycle, caps, and the
   accessors expose the schedule. *)
let test_session_backoff_growth () =
  let engine = Sim.Engine.create () in
  let transport = { Session.connect = ignore; send = ignore; close = ignore } in
  let config =
    Session.config ~local_asn:(asn 1) ~local_id:(ip "10.0.0.9")
      ~reconnect:(Session.reconnect_policy ~backoff_base:0.5 ~backoff_max:4. ())
      ()
  in
  let s =
    Session.create ~config ~transport ~timers:(Sim.Engine.timers engine) ()
  in
  Session.start s;
  checkb "first delay is the base" true (Session.next_backoff s = Some 0.5);
  List.iteri
    (fun i expected ->
      Session.connection_up s;
      Session.connection_failed s;
      checkb
        (Printf.sprintf "delay after %d failures" (i + 1))
        true
        (Session.next_backoff s = Some expected);
      checki "backoff level" (i + 1) (Session.backoff_level s);
      (* Let the scheduled re-Start fire before failing the next cycle. *)
      Sim.Engine.run_until engine (float_of_int (i + 1) *. 20.))
    [ 1.; 2.; 4.; 4. ];
  checki "every non-administrative down counted as a flap" 4
    (Session.flap_count s)

(* End to end: a link cut tears the session down, and the reconnect policy
   brings it back without any manual Start once the link heals. *)
let test_session_auto_reconnect () =
  let engine = Sim.Engine.create () in
  let reconnect = Session.reconnect_policy ~backoff_base:0.5 ~backoff_max:8. () in
  let config_a =
    Session.config ~local_asn:(asn 47065) ~local_id:(ip "10.0.0.1") ~reconnect
      ~capabilities:[ Capability.As4 (asn 47065) ] ()
  in
  let config_b =
    Session.config ~local_asn:(asn 100) ~local_id:(ip "10.0.0.2") ~reconnect
      ~capabilities:[ Capability.As4 (asn 100) ] ()
  in
  let pair =
    Sim.Bgp_wire.make engine ~config_active:config_a ~config_passive:config_b ()
  in
  Sim.Bgp_wire.start pair;
  Sim.Engine.run_until engine 5.;
  checkb "up" true (Session.established pair.Sim.Bgp_wire.active);
  Sim.Link.set_up pair.Sim.Bgp_wire.link false;
  Sim.Engine.run_until engine 400.;
  checkb "down while the link is down" false
    (Session.established pair.Sim.Bgp_wire.active);
  checkb "flap counted" true (Session.flap_count pair.Sim.Bgp_wire.active >= 1);
  Sim.Link.set_up pair.Sim.Bgp_wire.link true;
  Sim.Engine.run_until engine 1200.;
  checkb "re-established without manual start" true
    (Session.established pair.Sim.Bgp_wire.active);
  checki "backoff reset on establishment" 0
    (Session.backoff_level pair.Sim.Bgp_wire.active)

let test_gr_capability_roundtrip () =
  let cap =
    Capability.Graceful_restart
      {
        restart_time = 120;
        afis =
          [
            (Capability.afi_ipv4, Capability.safi_unicast);
            (Capability.afi_ipv6, Capability.safi_unicast);
          ];
      }
  in
  checki "RFC 4724 code" 64 (Capability.code cap);
  let v = Capability.encode_value cap in
  checkb "roundtrip" true
    (Capability.decode_value ~code:(Capability.code cap) ~data:v = cap);
  checkb "window accessor" true (Capability.graceful_restart [ cap ] = Some 120)

let gr_pair engine ~active_window ~passive_window =
  let caps base window =
    Capability.As4 (asn base)
    ::
    (match window with
    | Some restart_time ->
        [
          Capability.Graceful_restart
            {
              restart_time;
              afis = [ (Capability.afi_ipv4, Capability.safi_unicast) ];
            };
        ]
    | None -> [])
  in
  let config_a =
    Session.config ~local_asn:(asn 47065) ~local_id:(ip "10.0.0.1")
      ~capabilities:(caps 47065 active_window) ()
  in
  let config_b =
    Session.config ~local_asn:(asn 100) ~local_id:(ip "10.0.0.2")
      ~capabilities:(caps 100 passive_window) ()
  in
  Sim.Bgp_wire.make engine ~config_active:config_a ~config_passive:config_b ()

(* RFC 4724: the negotiated window is the peer's advertised restart time,
   and only exists when both sides advertised the capability. *)
let test_gr_negotiation () =
  let engine = Sim.Engine.create () in
  let both = gr_pair engine ~active_window:(Some 45) ~passive_window:(Some 90) in
  let one = gr_pair engine ~active_window:(Some 45) ~passive_window:None in
  let none = gr_pair engine ~active_window:None ~passive_window:None in
  Sim.Bgp_wire.start both;
  Sim.Bgp_wire.start one;
  Sim.Bgp_wire.start none;
  Sim.Engine.run_until engine 5.;
  checkb "both advertised: peer's window" true
    (Session.gr_restart_time both.Sim.Bgp_wire.active = Some 90.
    && Session.gr_restart_time both.Sim.Bgp_wire.passive = Some 45.);
  checkb "peer silent: no window" true
    (Session.gr_restart_time one.Sim.Bgp_wire.active = None);
  checkb "self silent: no window" true
    (Session.gr_restart_time one.Sim.Bgp_wire.passive = None);
  checkb "neither: no window" true
    (Session.gr_restart_time none.Sim.Bgp_wire.active = None)

(* -- codec property tests --------------------------------------------------------------------- *)

let arbitrary_update =
  let gen_prefix =
    QCheck.map
      (fun (a, len) -> pfx (Printf.sprintf "%d.%d.0.0/%d" (a mod 224) (a mod 256) len))
      (QCheck.pair (QCheck.int_bound 223) (QCheck.int_range 8 24))
  in
  let gen_nlri =
    QCheck.map (fun p -> { Msg.prefix = p; path_id = None }) gen_prefix
  in
  QCheck.map
    (fun (withdrawn, announced, asns, med) ->
      {
        Msg.withdrawn;
        attrs =
          (if announced = [] then []
           else
             Attr.origin_attrs
               ~as_path:(Aspath.of_asns (List.map (fun a -> asn (1 + (a land 0xffff))) asns))
               ~next_hop:(ip "192.0.2.1") ()
             |> Attr.with_med (med land 0xffff));
        announced;
      })
    (QCheck.quad (QCheck.small_list gen_nlri) (QCheck.small_list gen_nlri)
       (QCheck.list_of_size (QCheck.Gen.int_range 1 5) QCheck.small_nat)
       QCheck.small_nat)

let prop_update_roundtrip =
  QCheck.Test.make ~name:"update codec roundtrip" ~count:200 arbitrary_update
    (fun u ->
      match roundtrip (Msg.Update u) with
      | Msg.Update u' -> update_equal u u'
      | _ -> false)

(* Updates with heavyweight attribute payloads: community sets past the
   255-byte extended-length boundary and large-community blocks, under
   both encoding parameter variants. The attribute block is where the
   encode-once wire cache operates, so these pin (1) the codec roundtrip
   on exactly the attribute shapes experiments send, and (2) that
   splicing a pre-encoded attribute block into a header + NLRI shell
   ([Codec.encode_update_spliced]) produces the very bytes of a whole
   [Codec.encode] — the equivalence the parallel export lane rests on. *)
let arbitrary_heavy_update =
  let gen_prefix =
    QCheck.Gen.map
      (fun (a, len) ->
        pfx (Printf.sprintf "%d.%d.0.0/%d" (a mod 224) (a mod 256) len))
      (QCheck.Gen.pair (QCheck.Gen.int_bound 223) (QCheck.Gen.int_range 8 24))
  in
  let gen =
    QCheck.Gen.(
      pair
        (quad (small_list gen_prefix) (small_list gen_prefix)
           (int_range 0 80) (int_range 0 30))
        (pair bool (int_range 1 5)))
  in
  QCheck.make
    ~print:(fun ((u : Msg.update), (params : Codec.params)) ->
      Printf.sprintf "withdrawn=%d announced=%d comms=%d larges=%d add_path=%b"
        (List.length u.Msg.withdrawn)
        (List.length u.Msg.announced)
        (List.length (Attr.communities u.Msg.attrs))
        (List.length (Attr.large_communities u.Msg.attrs))
        params.Codec.add_path)
    (QCheck.Gen.map
       (fun ((withdrawn, announced, n_comms, n_larges), (add_path, path_len)) ->
         let params = { Codec.add_path; as4 = true } in
         let nlri p =
           { Msg.prefix = p; path_id = (if add_path then Some 7 else None) }
         in
         let attrs =
           if announced = [] then []
           else
             Attr.origin_attrs
               ~as_path:
                 (Aspath.of_asns (List.init path_len (fun i -> asn (70000 + i))))
               ~next_hop:(ip "192.0.2.1") ()
             |> Attr.with_communities
                  (List.init n_comms (fun i -> Community.make 47065 i))
             |> fun a ->
             if n_larges = 0 then a
             else
               Attr.set_attr
                 (Attr.Large_communities
                    (List.init n_larges (fun i ->
                         Large_community.make 47065 i 4000000000)))
                 a
         in
         ( {
             Msg.withdrawn = List.map nlri withdrawn;
             attrs;
             announced = List.map nlri announced;
           },
           params ))
       gen)

let prop_heavy_update_roundtrip =
  QCheck.Test.make ~name:"heavy-attribute update codec roundtrip" ~count:200
    arbitrary_heavy_update (fun (u, params) ->
      match roundtrip ~params (Msg.Update u) with
      | Msg.Update u' -> update_equal u u'
      | _ -> false)

let prop_attr_block_splice =
  QCheck.Test.make
    ~name:"spliced attr block equals whole-message encode" ~count:200
    arbitrary_heavy_update (fun (u, params) ->
      let block = Codec.encode_attrs_block ~params u.Msg.attrs in
      String.equal
        (Codec.encode_update_spliced ~params ~attrs_block:block u)
        (Codec.encode ~params (Msg.Update u)))

let prop_stream_chunking =
  QCheck.Test.make ~name:"stream decoding is chunking-invariant" ~count:100
    (QCheck.pair arbitrary_update (QCheck.int_range 1 40)) (fun (u, chunk) ->
      let wire = Codec.encode (Msg.Update u) ^ Codec.encode Msg.Keepalive in
      let stream = Codec.Stream.create () in
      let out = ref [] in
      let i = ref 0 in
      while !i < String.length wire do
        let n = min chunk (String.length wire - !i) in
        (match Codec.Stream.input stream (String.sub wire !i n) with
        | Ok ms -> out := !out @ ms
        | Error _ -> ());
        i := !i + n
      done;
      List.length !out = 2)

(* Fuzz: arbitrary bytes never crash the decoder — they produce a message
   or a protocol error (the property a production parser facing the open
   Internet must have). *)
let prop_decode_never_crashes =
  QCheck.Test.make ~name:"decoder is total on arbitrary bytes" ~count:500
    QCheck.(string_of_size (QCheck.Gen.int_range 0 100))
    (fun junk ->
      match Codec.decode junk with Ok _ -> true | Error _ -> true)

(* Fuzz: corrupting any single byte of a valid update never crashes, and
   header corruption is always detected. *)
let prop_bitflip_safe =
  QCheck.Test.make ~name:"single-byte corruption is handled" ~count:300
    (QCheck.pair arbitrary_update (QCheck.int_bound 1000))
    (fun (u, pos_seed) ->
      let wire = Bytes.of_string (Codec.encode (Msg.Update u)) in
      let pos = pos_seed mod Bytes.length wire in
      Bytes.set wire pos
        (Char.chr ((Char.code (Bytes.get wire pos) + 1) land 0xff));
      match Codec.decode (Bytes.to_string wire) with
      | Ok _ -> true
      | Error _ -> true
      | exception _ -> false)

let prop_aspath_prepend_length =
  QCheck.Test.make ~name:"prepend_n adds exactly n to length" ~count:300
    (QCheck.pair (QCheck.int_bound 20) (QCheck.int_range 1 5))
    (fun (n, base_len) ->
      let base = Aspath.of_asns (List.init base_len (fun i -> asn (1 + i))) in
      Aspath.length (Aspath.prepend_n (asn 99) n base)
      = n + Aspath.length base)

let prop_aspath_poison_members =
  QCheck.Test.make ~name:"poisoned recovers the victim set" ~count:300
    (QCheck.list_of_size (QCheck.Gen.int_range 1 5) (QCheck.int_range 100 10000))
    (fun victims ->
      let victims = List.sort_uniq Int.compare victims |> List.map asn in
      let path = Aspath.poison ~self:(asn 1) victims Aspath.empty in
      Aspath.poisoned ~self:(asn 1) path = List.sort Asn.compare victims)

(* The FSM is total: no (state, event) pair raises, and every transition
   out of Idle requires an administrative Start. *)
let prop_fsm_total =
  let states =
    [ Fsm.Idle; Fsm.Connect; Fsm.Active; Fsm.Open_sent; Fsm.Open_confirm; Fsm.Established ]
  in
  let events =
    [
      Fsm.Start;
      Fsm.Stop;
      Fsm.Connection_up;
      Fsm.Connection_failed;
      Fsm.Received Msg.Keepalive;
      Fsm.Received (Msg.Open dummy_open);
      Fsm.Received (Msg.Update (Msg.update ()));
      Fsm.Received (Msg.Notification { code = 6; subcode = 0; data = "" });
      Fsm.Received (Msg.Route_refresh { afi = 1; safi = 1 });
      Fsm.Hold_timer_expired;
      Fsm.Keepalive_timer_expired;
      Fsm.Connect_retry_expired;
    ]
  in
  QCheck.Test.make ~name:"fsm is total and idle is quiescent" ~count:1
    QCheck.unit (fun () ->
      List.for_all
        (fun state ->
          List.for_all
            (fun event ->
              match Fsm.step state event with
              | _ -> true
              | exception _ -> false)
            events)
        states
      && List.for_all
           (fun event ->
             event = Fsm.Start || fst (Fsm.step Fsm.Idle event) = Fsm.Idle)
           events)

(* Randomized FSM driver: arbitrary event sequences starting from Idle.
   [step] never raises; every teardown closes its transport in the same
   action batch and lands in Idle; Idle arms no timers; and any transition
   that sends an OPEN or establishes the session re-arms the hold timer
   (RFC 4271 §8). *)
let prop_fsm_driver =
  let events =
    [
      Fsm.Start;
      Fsm.Stop;
      Fsm.Connection_up;
      Fsm.Connection_failed;
      Fsm.Received Msg.Keepalive;
      Fsm.Received (Msg.Open dummy_open);
      Fsm.Received (Msg.Update (Msg.update ()));
      Fsm.Received (Msg.Notification { code = 6; subcode = 0; data = "" });
      Fsm.Received (Msg.Route_refresh { afi = 1; safi = 1 });
      Fsm.Hold_timer_expired;
      Fsm.Keepalive_timer_expired;
      Fsm.Connect_retry_expired;
    ]
  in
  let arms = function
    | Fsm.Arm_hold_timer | Fsm.Arm_keepalive_timer | Fsm.Arm_connect_retry ->
        true
    | _ -> false
  in
  let step_ok state event =
    match Fsm.step state event with
    | exception _ -> None
    | state', actions ->
        let down =
          List.exists
            (function Fsm.Session_down _ -> true | _ -> false)
            actions
        in
        let ok =
          (not down
          || (List.mem Fsm.Close_transport actions && state' = Fsm.Idle))
          && ((not (List.mem Fsm.Send_open actions))
             || List.mem Fsm.Arm_hold_timer actions)
          && ((not (List.mem Fsm.Session_established actions))
             || List.mem Fsm.Arm_hold_timer actions)
          && (state' <> Fsm.Idle || not (List.exists arms actions))
        in
        if ok then Some state' else None
  in
  QCheck.Test.make ~name:"fsm driver invariants over random event sequences"
    ~count:300
    (QCheck.list_of_size (QCheck.Gen.int_range 1 60) (QCheck.oneofl events))
    (fun seq ->
      List.fold_left
        (fun st ev -> Option.bind st (fun s -> step_ok s ev))
        (Some Fsm.Idle) seq
      <> None)

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_update_roundtrip;
      prop_heavy_update_roundtrip;
      prop_attr_block_splice;
      prop_stream_chunking;
      prop_decode_never_crashes;
      prop_bitflip_safe;
      prop_fsm_total;
      prop_fsm_driver;
      prop_aspath_prepend_length;
      prop_aspath_poison_members;
    ]

let () =
  Alcotest.run "bgp"
    [
      ("asn", [ Alcotest.test_case "basics" `Quick test_asn ]);
      ( "community",
        [
          Alcotest.test_case "standard" `Quick test_community;
          Alcotest.test_case "large" `Quick test_large_community;
        ] );
      ( "aspath",
        [
          Alcotest.test_case "length with sets" `Quick test_aspath_length;
          Alcotest.test_case "origin/first" `Quick test_aspath_origin_first;
          Alcotest.test_case "prepend" `Quick test_aspath_prepend;
          Alcotest.test_case "poison" `Quick test_aspath_poison;
        ] );
      ( "capability",
        [
          Alcotest.test_case "roundtrip" `Quick test_capability_roundtrip;
          Alcotest.test_case "add-path negotiation" `Quick test_add_path_negotiation;
        ] );
      ( "attr",
        [
          Alcotest.test_case "accessors" `Quick test_attr_accessors;
          Alcotest.test_case "sorted" `Quick test_attr_sorted;
          Alcotest.test_case "unknown transitive" `Quick test_attr_unknown_transitive;
        ] );
      ( "codec",
        [
          Alcotest.test_case "open" `Quick test_codec_open;
          Alcotest.test_case "keepalive/notification" `Quick
            test_codec_keepalive_notification;
          Alcotest.test_case "update" `Quick test_codec_update;
          Alcotest.test_case "update add-path" `Quick test_codec_update_add_path;
          Alcotest.test_case "split_update noop" `Quick test_split_update_noop;
          Alcotest.test_case "split_update 4096 boundary" `Quick
            test_split_update_boundary;
          Alcotest.test_case "split_update withdraw+announce" `Quick
            test_split_update_withdraw_and_announce;
          Alcotest.test_case "split_update add-path" `Quick
            test_split_update_add_path;
          Alcotest.test_case "as_trans" `Quick test_codec_as_trans;
          Alcotest.test_case "extended length" `Quick test_codec_extended_length;
          Alcotest.test_case "mp ipv6" `Quick test_codec_mp_v6;
          Alcotest.test_case "unknown attr preserved" `Quick
            test_codec_unknown_attr_preserved;
          Alcotest.test_case "route refresh" `Quick test_codec_route_refresh;
          Alcotest.test_case "errors" `Quick test_codec_errors;
          Alcotest.test_case "stream reassembly" `Quick test_stream_reassembly;
        ] );
      ( "fsm",
        [
          Alcotest.test_case "happy path" `Quick test_fsm_happy_path;
          Alcotest.test_case "hold expiry" `Quick test_fsm_hold_expiry;
          Alcotest.test_case "stop sends cease" `Quick test_fsm_stop_sends_cease;
          Alcotest.test_case "unexpected message" `Quick test_fsm_unexpected_message;
          Alcotest.test_case "idle inert" `Quick test_fsm_idle_inert;
        ] );
      ( "session",
        [
          Alcotest.test_case "establishment" `Quick test_session_establishment;
          Alcotest.test_case "update delivery" `Quick test_session_update_delivery;
          Alcotest.test_case "keepalives maintain" `Quick
            test_session_keepalives_maintain;
          Alcotest.test_case "hold timer detects failure" `Quick
            test_session_hold_timer_detects_failure;
          Alcotest.test_case "stop notifies peer" `Quick
            test_session_stop_notifies_peer;
          Alcotest.test_case "hold-time negotiation" `Quick
            test_session_hold_time_negotiation;
          Alcotest.test_case "route refresh" `Quick test_session_route_refresh;
          Alcotest.test_case "mrai batches" `Quick test_session_mrai_batches;
          Alcotest.test_case "mrai send_encoded matches send_update" `Quick
            test_session_mrai_send_encoded;
        ] );
      ( "robustness",
        [
          Alcotest.test_case "codec error is the recorded cause" `Quick
            test_session_codec_error_cause;
          Alcotest.test_case "teardown drops mrai queue" `Quick
            test_session_mrai_teardown_drops;
          Alcotest.test_case "backoff growth and cap" `Quick
            test_session_backoff_growth;
          Alcotest.test_case "auto reconnect across a link cut" `Quick
            test_session_auto_reconnect;
          Alcotest.test_case "graceful-restart capability roundtrip" `Quick
            test_gr_capability_roundtrip;
          Alcotest.test_case "graceful-restart negotiation" `Quick
            test_gr_negotiation;
        ] );
      ("properties", qcheck_cases);
    ]
