(* Tests for the vBGP core: address pools, rate limiting, export control,
   the control- and data-plane enforcement engines, ARP, and the router's
   delegation mechanics (next-hop rewriting, per-neighbor tables, MAC-based
   forwarding, experiment multiplexing). *)

open Netcore
open Bgp
open Vbgp

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checks = Alcotest.(check string)

let asn = Asn.of_int
let ip = Ipv4.of_string_exn
let pfx = Prefix.of_string_exn

(* -- addr_pool ----------------------------------------------------------------- *)

let test_addr_pool () =
  let pool = Addr_pool.create ~base:(pfx "127.65.0.0/16") ~mac_pool:0x65 in
  let a = Addr_pool.allocate pool "n1" in
  let b = Addr_pool.allocate pool "n2" in
  checkb "distinct ips" false (Ipv4.equal a.Addr_pool.ip b.Addr_pool.ip);
  checkb "distinct macs" false (Mac.equal a.Addr_pool.mac b.Addr_pool.mac);
  checks "first allocation" "127.65.0.1" (Ipv4.to_string a.Addr_pool.ip);
  (* Idempotent per key. *)
  let a' = Addr_pool.allocate pool "n1" in
  checkb "idempotent" true (Ipv4.equal a.Addr_pool.ip a'.Addr_pool.ip);
  (* Reverse lookups. *)
  checkb "by ip" true
    (match Addr_pool.of_ip pool a.Addr_pool.ip with
    | Some x -> x.Addr_pool.key = "n1"
    | None -> false);
  checkb "by mac" true
    (match Addr_pool.of_mac pool b.Addr_pool.mac with
    | Some x -> x.Addr_pool.key = "n2"
    | None -> false);
  checkb "contains" true (Addr_pool.contains pool (ip "127.65.9.9"));
  checkb "not contains" false (Addr_pool.contains pool (ip "127.66.0.1"));
  checki "count" 2 (Addr_pool.count pool);
  Addr_pool.release pool "n1";
  checki "after release" 1 (Addr_pool.count pool);
  checkb "released ip gone" true (Addr_pool.of_ip pool a.Addr_pool.ip = None)

let test_addr_pool_exhaustion () =
  let pool = Addr_pool.create ~base:(pfx "10.0.0.0/30") ~mac_pool:1 in
  ignore (Addr_pool.allocate pool "a");
  ignore (Addr_pool.allocate pool "b");
  ignore (Addr_pool.allocate pool "c");
  Alcotest.check_raises "exhausted"
    (Failure "Addr_pool.allocate: pool exhausted") (fun () ->
      ignore (Addr_pool.allocate pool "d"))

(* -- rate limiter ----------------------------------------------------------------- *)

let test_rate_limiter () =
  let rl = Rate_limiter.create ~limit:3 ~period:60. in
  checkb "first" true (Rate_limiter.allow rl ~now:0. "k");
  checkb "second" true (Rate_limiter.allow rl ~now:1. "k");
  checkb "third" true (Rate_limiter.allow rl ~now:2. "k");
  checkb "fourth denied" false (Rate_limiter.allow rl ~now:3. "k");
  (* Separate keys do not interfere. *)
  checkb "other key fine" true (Rate_limiter.allow rl ~now:3. "other");
  (* Window reset restores budget. *)
  checkb "after window" true (Rate_limiter.allow rl ~now:61. "k");
  checki "remaining" 2 (Rate_limiter.remaining rl ~now:61. "k")

let test_rate_limiter_override () =
  let rl = Rate_limiter.create ~limit:3 ~period:60. in
  checkb "override allows more" true
    (List.for_all
       (fun i -> Rate_limiter.allow ~limit:10 rl ~now:(float_of_int i) "k")
       [ 1; 2; 3; 4; 5 ]);
  checkb "override cap eventually" false
    (List.for_all
       (fun i -> Rate_limiter.allow ~limit:10 rl ~now:(float_of_int i) "k")
       [ 6; 7; 8; 9; 10; 11 ])

let test_peering_default_limit () =
  let rl = Rate_limiter.peering_default () in
  let allowed = ref 0 in
  for i = 1 to 200 do
    if Rate_limiter.allow rl ~now:(float_of_int i) "prefix@pop" then
      incr allowed
  done;
  checki "144 per day" 144 !allowed

(* -- export control ------------------------------------------------------------------ *)

let ctl = 47065

let test_export_control () =
  let allows communities id =
    Export_control.allows ~ctl_asn:ctl ~export_id:id communities
  in
  (* No tags: everyone. *)
  checkb "untagged goes everywhere" true (allows [] 5);
  (* Whitelist: only listed neighbors. *)
  let wl = [ Export_control.announce_to ~ctl_asn:ctl 5 ] in
  checkb "whitelisted" true (allows wl 5);
  checkb "not whitelisted" false (allows wl 6);
  (* Blacklist: everyone but. *)
  let bl = [ Export_control.block ~ctl_asn:ctl 5 ] in
  checkb "blacklisted" false (allows bl 5);
  checkb "others fine" true (allows bl 6);
  (* Blacklist overrides whitelist. *)
  let both =
    [ Export_control.announce_to ~ctl_asn:ctl 5; Export_control.block ~ctl_asn:ctl 5 ]
  in
  checkb "blacklist wins" false (allows both 5);
  (* Foreign communities are ignored. *)
  checkb "foreign community ignored" true
    (allows [ Community.make 100 10005 ] 6)

let test_export_marker () =
  let m = Export_control.experiment_marker ~ctl_asn:ctl in
  checkb "marker detected" true (Export_control.is_marker ~ctl_asn:ctl m);
  checkb "whitelist is not marker" false
    (Export_control.is_marker ~ctl_asn:ctl
       (Export_control.announce_to ~ctl_asn:ctl 1))

(* The list-based semantics the compiled filter replaced, kept as the
   model: decode the whitelist and blacklist ids, then test membership. *)
let model_allows ~ctl_asn ~export_id communities =
  let ids base =
    List.filter_map
      (fun c ->
        let v = Community.value c in
        if
          Community.asn c = ctl_asn
          && v >= base
          && v < base + Export_control.max_export_id + 1
        then Some (v - base)
        else None)
      communities
  in
  let white = ids Export_control.whitelist_base in
  let black = ids Export_control.blacklist_base in
  (not (List.mem export_id black)) && (white = [] || List.mem export_id white)

(* Tag lists mixing whitelist, blacklist and both-for-one-id tags with
   foreign-ASN look-alikes, the mesh marker, NO_EXPORT and control-ASN
   values at the edges of the tag ranges. *)
let gen_tags =
  let open QCheck.Gen in
  let id = int_bound 11 in
  let tag =
    oneof
      [
        map (fun i -> [ Export_control.announce_to ~ctl_asn:ctl i ]) id;
        map (fun i -> [ Export_control.block ~ctl_asn:ctl i ]) id;
        map
          (fun i ->
            [
              Export_control.announce_to ~ctl_asn:ctl i;
              Export_control.block ~ctl_asn:ctl i;
            ])
          id;
        map
          (fun i -> [ Community.make 100 (Export_control.whitelist_base + i) ])
          id;
        map
          (fun i -> [ Community.make 100 (Export_control.blacklist_base + i) ])
          id;
        return [ Export_control.experiment_marker ~ctl_asn:ctl ];
        return [ Community.no_export ];
        map
          (fun v -> [ Community.make ctl v ])
          (oneofl [ 0; 9_999; 19_999; 29_999; 30_000; 65_535 ]);
      ]
  in
  map List.concat (list_size (int_bound 6) tag)

let prop_compiled_filter_matches_model =
  QCheck.Test.make ~name:"compiled export filter matches the list model"
    ~count:500
    (QCheck.make
       ~print:(fun cs -> String.concat " " (List.map Community.to_string cs))
       gen_tags)
    (fun cs ->
      let f = Export_control.compile ~ctl_asn:ctl cs in
      List.for_all
        (fun id ->
          Export_control.permits f id
          = model_allows ~ctl_asn:ctl ~export_id:id cs)
        (List.init 16 Fun.id @ [ 9_999 ]))

(* -- control enforcement --------------------------------------------------------------- *)

let grant ?(caps = Experiment_caps.default) () =
  Control_enforcer.grant ~asns:[ asn 61574 ]
    ~prefixes:[ pfx "184.164.224.0/24" ]
    ~prefixes_v6:[ Prefix_v6.of_string_exn "2804:269c:1::/48" ]
    ~caps "exp001"

let enforcer () =
  Control_enforcer.create ~platform_asns:[ asn 47065 ]
    ~control_community_asn:ctl ()

let announce ?(prefix = pfx "184.164.224.0/24") ?(path = [ 61574 ])
    ?(communities = []) ?(extra_attrs = []) () =
  Msg.update
    ~attrs:
      (extra_attrs
      @ (Attr.origin_attrs
           ~as_path:(Aspath.of_asns (List.map asn path))
           ~next_hop:(ip "184.164.224.1") ()
        |> Attr.with_communities communities))
    ~announced:[ Msg.nlri prefix ]
    ()

let is_rejected = function Control_enforcer.Rejected _ -> true | _ -> false

let accepted_attrs = function
  | Control_enforcer.Accepted u -> u.Msg.attrs
  | Control_enforcer.Rejected reasons ->
      Alcotest.fail ("unexpected rejection: " ^ String.concat "; " reasons)

let test_enforcer_accepts_basic () =
  let e = enforcer () in
  checkb "valid announcement accepted" false
    (is_rejected (Control_enforcer.check e ~now:0. ~pop:"p" (grant ()) (announce ())))

let test_enforcer_hijack () =
  let e = enforcer () in
  checkb "hijack rejected" true
    (is_rejected
       (Control_enforcer.check e ~now:0. ~pop:"p" (grant ())
          (announce ~prefix:(pfx "8.8.8.0/24") ())));
  (* Sub-prefix of the allocation is fine (more-specific of own space). *)
  checkb "more-specific of own space ok" false
    (is_rejected
       (Control_enforcer.check e ~now:0. ~pop:"p" (grant ())
          (announce ~prefix:(pfx "184.164.224.128/25") ())))

let test_enforcer_withdraw_ownership () =
  let e = enforcer () in
  let u = Msg.update ~withdrawn:[ Msg.nlri (pfx "8.8.8.0/24") ] () in
  checkb "foreign withdraw rejected" true
    (is_rejected (Control_enforcer.check e ~now:0. ~pop:"p" (grant ()) u))

let test_enforcer_origin () =
  let e = enforcer () in
  checkb "foreign origin rejected" true
    (is_rejected
       (Control_enforcer.check e ~now:0. ~pop:"p" (grant ())
          (announce ~path:[ 61574; 3356 ] ())))

let test_enforcer_transit () =
  let e = enforcer () in
  (* Path not starting with the experiment AS = providing transit. *)
  let u = announce ~path:[ 3356; 61574 ] () in
  checkb "transit rejected without capability" true
    (is_rejected (Control_enforcer.check e ~now:0. ~pop:"p" (grant ()) u));
  let caps =
    Experiment_caps.(default |> with_transit |> with_poisoning 4)
  in
  checkb "transit allowed with capability" false
    (is_rejected (Control_enforcer.check e ~now:0. ~pop:"p" (grant ~caps ()) u))

let test_enforcer_poisoning () =
  let e = enforcer () in
  let poisoned = announce ~path:[ 61574; 3356; 174; 61574 ] () in
  checkb "poisoning rejected by default" true
    (is_rejected (Control_enforcer.check e ~now:0. ~pop:"p" (grant ()) poisoned));
  let caps = Experiment_caps.(default |> with_poisoning 2) in
  checkb "two poisons within capability" false
    (is_rejected
       (Control_enforcer.check e ~now:0. ~pop:"p" (grant ~caps ()) poisoned));
  let too_many = announce ~path:[ 61574; 1; 2; 3; 61574 ] () in
  checkb "three poisons over capability" true
    (is_rejected
       (Control_enforcer.check e ~now:0. ~pop:"p" (grant ~caps ()) too_many));
  (* The platform's own ASN in the path never counts as poisoning. *)
  let with_platform = announce ~path:[ 61574; 47065; 61574 ] () in
  checkb "platform asn not poisoning" false
    (is_rejected
       (Control_enforcer.check e ~now:0. ~pop:"p" (grant ()) with_platform))

let test_enforcer_communities () =
  let e = enforcer () in
  let foreign = Community.make 100 42 in
  let control = Export_control.announce_to ~ctl_asn:ctl 3 in
  (* Without the capability, foreign communities are stripped but control
     communities survive. *)
  let attrs =
    accepted_attrs
      (Control_enforcer.check e ~now:0. ~pop:"p" (grant ())
         (announce ~communities:[ foreign; control ] ()))
  in
  checkb "foreign stripped" false (Attr.has_community foreign attrs);
  checkb "control kept" true (Attr.has_community control attrs);
  (* With the capability, foreign communities survive. *)
  let caps = Experiment_caps.(default |> with_communities 4) in
  let attrs =
    accepted_attrs
      (Control_enforcer.check e ~now:0. ~pop:"p" (grant ~caps ())
         (announce ~communities:[ foreign; control ] ()))
  in
  checkb "foreign kept with capability" true (Attr.has_community foreign attrs);
  (* Exceeding the granted budget is rejected outright. *)
  let caps = Experiment_caps.(default |> with_communities 1) in
  checkb "over budget rejected" true
    (is_rejected
       (Control_enforcer.check e ~now:0. ~pop:"p" (grant ~caps ())
          (announce ~communities:[ foreign; Community.make 100 43 ] ())))

let test_enforcer_transitive_attrs () =
  let e = enforcer () in
  let unknown =
    Attr.Unknown
      {
        flags = Attr.flag_optional lor Attr.flag_transitive;
        code = 99;
        data = "x";
      }
  in
  let attrs =
    accepted_attrs
      (Control_enforcer.check e ~now:0. ~pop:"p" (grant ())
         (announce ~extra_attrs:[ unknown ] ()))
  in
  checkb "unknown transitive stripped" true (Attr.unknown_transitive attrs = []);
  let caps = Experiment_caps.(default |> with_transitive_attrs) in
  let attrs =
    accepted_attrs
      (Control_enforcer.check e ~now:0. ~pop:"p" (grant ~caps ())
         (announce ~extra_attrs:[ unknown ] ()))
  in
  checki "kept with capability" 1 (List.length (Attr.unknown_transitive attrs))

let test_enforcer_v6 () =
  let e = enforcer () in
  let mk p =
    Msg.update
      ~attrs:
        [
          Attr.Origin Attr.Igp;
          Attr.As_path (Aspath.of_asns [ asn 61574 ]);
          Attr.Mp_reach
            { next_hop = Ipv6.of_string_exn "2001:db8::1"; nlri = [ (p, None) ] };
        ]
      ()
  in
  checkb "own v6 accepted" false
    (is_rejected
       (Control_enforcer.check e ~now:0. ~pop:"p" (grant ())
          (mk (Prefix_v6.of_string_exn "2804:269c:1:5::/64"))));
  checkb "foreign v6 rejected" true
    (is_rejected
       (Control_enforcer.check e ~now:0. ~pop:"p" (grant ())
          (mk (Prefix_v6.of_string_exn "2001:db8::/48"))))

let test_enforcer_6to4 () =
  let e = enforcer () in
  let g6to4 =
    Control_enforcer.grant ~asns:[ asn 61574 ]
      ~prefixes_v6:[ Prefix_v6.of_string_exn "2002:b8a4:e000::/40" ]
      "exp6to4"
  in
  let mk caps =
    Control_enforcer.check e ~now:0. ~pop:"p"
      { g6to4 with Control_enforcer.caps }
      (Msg.update
         ~attrs:
           [
             Attr.Origin Attr.Igp;
             Attr.As_path (Aspath.of_asns [ asn 61574 ]);
             Attr.Mp_reach
               {
                 next_hop = Ipv6.of_string_exn "2001:db8::1";
                 nlri = [ (Prefix_v6.of_string_exn "2002:b8a4:e000::/40", None) ];
               };
           ]
         ())
  in
  checkb "6to4 needs capability" true
    (is_rejected (mk Experiment_caps.default));
  checkb "6to4 with capability" false
    (is_rejected (mk Experiment_caps.(default |> with_6to4)))

let test_enforcer_rate_limit () =
  let e = enforcer () in
  let g = grant () in
  let accepted = ref 0 in
  for i = 1 to 150 do
    if
      not
        (is_rejected
           (Control_enforcer.check e ~now:(float_of_int i) ~pop:"p" g
              (announce ())))
    then incr accepted
  done;
  checki "144 accepted" 144 !accepted;
  (* A different PoP has its own budget. *)
  checkb "independent per pop" false
    (is_rejected
       (Control_enforcer.check e ~now:151. ~pop:"q" g (announce ())))

(* One limiter shared by the enforcers of two PoPs (an AS-wide limit):
   each (prefix, PoP) keeps its own 144/day budget, two enforcers at one
   PoP draw on the same budget, and the rejection text is unchanged. *)
let test_enforcer_shared_limiter () =
  let limiter = Rate_limiter.peering_default () in
  let at () =
    Control_enforcer.create ~platform_asns:[ asn 47065 ]
      ~control_community_asn:ctl ~limiter ()
  in
  let ams = at () and sea = at () and ams' = at () in
  let g = grant () in
  let accepted e ~pop ~from n =
    List.length
      (List.filter
         (fun i ->
           not
             (is_rejected
                (Control_enforcer.check e ~now:(float_of_int i) ~pop g
                   (announce ()))))
         (List.init n (fun i -> from + i)))
  in
  checki "ams budget" 144 (accepted ams ~pop:"ams" ~from:1 150);
  checki "sea keeps its own budget" 144 (accepted sea ~pop:"sea" ~from:151 150);
  checki "a second ams enforcer shares ams's budget" 0
    (accepted ams' ~pop:"ams" ~from:301 5);
  checkb "another prefix has its own budget" false
    (is_rejected
       (Control_enforcer.check sea ~now:400. ~pop:"sea" g
          (announce ~prefix:(pfx "184.164.224.0/25") ())));
  match Control_enforcer.check ams' ~now:401. ~pop:"ams" g (announce ()) with
  | Control_enforcer.Rejected reasons ->
      Alcotest.(check (list string))
        "rejection text"
        [ "update budget exhausted for 184.164.224.0/24 at ams (limit 144/day)" ]
        reasons
  | Control_enforcer.Accepted _ -> Alcotest.fail "over-budget update accepted"

let test_enforcer_fail_closed () =
  let e = enforcer () in
  Control_enforcer.set_fail_closed e true;
  checkb "everything rejected" true
    (is_rejected (Control_enforcer.check e ~now:0. ~pop:"p" (grant ()) (announce ())));
  Control_enforcer.set_fail_closed e false;
  checkb "recovers" false
    (is_rejected (Control_enforcer.check e ~now:0. ~pop:"p" (grant ()) (announce ())))

(* -- data enforcement ------------------------------------------------------------------ *)

let packet ?(src = "184.164.224.1") ?(dst = "192.168.0.1") ?(ttl = 64)
    ?(payload = "data") () =
  Ipv4_packet.make ~ttl ~src:(ip src) ~dst:(ip dst)
    ~protocol:Ipv4_packet.Udp payload

let test_data_source_validation () =
  let d = Data_enforcer.create () in
  Data_enforcer.add_filter d
    (Data_enforcer.source_validation
       ~owner_of:(fun a ->
         if Prefix.mem a (pfx "184.164.224.0/24") then Some "exp001" else None)
       ());
  let meta = { Data_enforcer.ingress = "exp001" } in
  checkb "own source allowed" true
    (match Data_enforcer.check d ~now:0. ~meta (packet ()) with
    | Data_enforcer.Allowed _ -> true
    | _ -> false);
  checkb "spoofed source blocked" true
    (match Data_enforcer.check d ~now:0. ~meta (packet ~src:"9.9.9.9" ()) with
    | Data_enforcer.Blocked _ -> true
    | _ -> false);
  (* Another experiment's space: also blocked (no transiting). *)
  checkb "foreign experiment space blocked" true
    (match
       Data_enforcer.check d ~now:0.
         ~meta:{ Data_enforcer.ingress = "exp002" }
         (packet ())
     with
    | Data_enforcer.Blocked _ -> true
    | _ -> false);
  checkb "stats" true (Data_enforcer.stats d = (1, 2))

let test_data_shaper () =
  let d = Data_enforcer.create () in
  Data_enforcer.add_filter d
    (Data_enforcer.shaper ~name:"pop-shaper" ~rate:100. ~burst:100.
       ~key_of:(fun _ -> "pop") ());
  let meta = { Data_enforcer.ingress = "exp001" } in
  let ok now =
    match Data_enforcer.check d ~now ~meta (packet ~payload:(String.make 30 'x') ()) with
    | Data_enforcer.Allowed _ -> true
    | _ -> false
  in
  (* 50-byte packets against a 100-byte bucket: two pass, third blocked. *)
  checkb "first passes" true (ok 0.);
  checkb "second passes" true (ok 0.);
  checkb "burst exhausted" false (ok 0.);
  (* Tokens refill over time. *)
  checkb "refilled" true (ok 1.0)

let test_data_ttl_guard () =
  let d = Data_enforcer.create () in
  Data_enforcer.add_filter d (Data_enforcer.ttl_guard ~min_ttl:2 ());
  let meta = { Data_enforcer.ingress = "x" } in
  checkb "ttl 1 blocked" true
    (match Data_enforcer.check d ~now:0. ~meta (packet ~ttl:1 ()) with
    | Data_enforcer.Blocked _ -> true
    | _ -> false);
  checkb "ttl 64 fine" true
    (match Data_enforcer.check d ~now:0. ~meta (packet ()) with
    | Data_enforcer.Allowed _ -> true
    | _ -> false)

let test_data_transform_chain () =
  let d = Data_enforcer.create () in
  Data_enforcer.add_filter d
    (Data_enforcer.filter ~name:"dscp-marker" (fun ~now:_ ~meta:_ p ->
         Data_enforcer.Transform { p with Ipv4_packet.dscp = 46 }));
  let meta = { Data_enforcer.ingress = "x" } in
  checkb "transform visible in decision" true
    (match Data_enforcer.check d ~now:0. ~meta (packet ()) with
    | Data_enforcer.Allowed p -> p.Ipv4_packet.dscp = 46
    | _ -> false)

(* The router's allocation owner (the source-validation [~owner_of]
   every PoP installs) is a trie over the granted allocations; for
   disjoint grants it answers as a scan over every experiment's grant
   does. Grants take 1-3 prefixes from a pool of disjoint /16s and /24s;
   queries are a host inside each granted prefix plus random addresses. *)
let prop_allocation_owner_matches_scan =
  let pool =
    Array.append
      (Array.init 16 (fun i -> Prefix.make (Ipv4.of_octets 10 (16 * i) 0 0) 16))
      (Array.init 16 (fun i ->
           Prefix.make (Ipv4.of_octets 184 164 (224 + i) 0) 24))
  in
  let gen =
    QCheck.Gen.(
      pair
        (map
           (fun (order, sizes) ->
             let order = Array.of_list order in
             let next = ref 0 in
             List.mapi
               (fun k size ->
                 let prefixes =
                   List.init size (fun _ ->
                       let p = pool.(order.(!next)) in
                       incr next;
                       p)
                 in
                 Control_enforcer.grant ~asns:[ asn (64512 + k) ] ~prefixes
                   (Printf.sprintf "exp%02d" k))
               sizes)
           (pair
              (shuffle_l (List.init (Array.length pool) Fun.id))
              (list_size (int_range 1 10) (int_range 1 3))))
        (list_size (int_range 1 20) (map Int32.of_int (int_bound 0xffff_ffff))))
  in
  QCheck.Test.make ~name:"allocation owner matches a scan of the grants"
    ~count:100 (QCheck.make gen) (fun (grants, randoms) ->
      let engine = Sim.Engine.create () in
      let router =
        Router.create ~engine ~name:"alloc" ~asn:(asn 47065)
          ~router_id:(ip "10.255.0.1") ~primary_ip:(ip "10.255.0.1")
          ~local_pool:(pfx "127.65.0.0/16")
          ~global_pool:
            (Addr_pool.create ~base:(pfx "127.127.0.0/16") ~mac_pool:0x7f)
          ()
      in
      List.iteri
        (fun k g ->
          ignore
            (Router.connect_experiment router ~grant:g
               ~mac:(Mac.local ~pool:0xe0 (k + 1))
               ()))
        grants;
      let scan a =
        List.find_map
          (fun (g : Control_enforcer.grant) ->
            if Control_enforcer.owns_address g a then
              Some g.Control_enforcer.name
            else None)
          grants
      in
      let queries =
        List.concat_map
          (fun (g : Control_enforcer.grant) ->
            List.map (fun p -> Prefix.host p 7) g.Control_enforcer.prefixes)
          grants
        @ List.map Ipv4.of_int32 randoms
      in
      List.for_all
        (fun a -> Router.allocation_owner_of router a = scan a)
        queries)

(* -- arp client -------------------------------------------------------------------------- *)

let test_arp_resolution () =
  let engine = Sim.Engine.create () in
  let lan = Sim.Lan.create engine in
  let a = Arp_client.attach lan ~mac:(Mac.local ~pool:1 1) ~ips:[ ip "10.0.0.1" ] in
  let _b = Arp_client.attach lan ~mac:(Mac.local ~pool:1 2) ~ips:[ ip "10.0.0.2" ] in
  let resolved = ref None in
  Arp_client.resolve a (ip "10.0.0.2") (fun mac -> resolved := Some mac);
  ignore (Sim.Engine.run engine);
  checkb "resolved to station 2" true
    (match !resolved with
    | Some m -> Mac.equal m (Mac.local ~pool:1 2)
    | None -> false);
  (* Second resolution hits the cache (no further LAN frames). *)
  let frames = Sim.Lan.frames_carried lan in
  Arp_client.resolve a (ip "10.0.0.2") ignore;
  ignore (Sim.Engine.run engine);
  checki "cached" frames (Sim.Lan.frames_carried lan)

let test_arp_pending_coalesce () =
  let engine = Sim.Engine.create () in
  let lan = Sim.Lan.create engine in
  let a = Arp_client.attach lan ~mac:(Mac.local ~pool:1 1) ~ips:[ ip "10.0.0.1" ] in
  let _b = Arp_client.attach lan ~mac:(Mac.local ~pool:1 2) ~ips:[ ip "10.0.0.2" ] in
  let hits = ref 0 in
  Arp_client.resolve a (ip "10.0.0.2") (fun _ -> incr hits);
  Arp_client.resolve a (ip "10.0.0.2") (fun _ -> incr hits);
  ignore (Sim.Engine.run engine);
  checki "both callbacks fire" 2 !hits;
  (* One request + one reply on the wire, not two of each. *)
  checki "coalesced on the wire" 2 (Sim.Lan.frames_carried lan)

let test_arp_ip_delivery () =
  let engine = Sim.Engine.create () in
  let lan = Sim.Lan.create engine in
  let a = Arp_client.attach lan ~mac:(Mac.local ~pool:1 1) ~ips:[ ip "10.0.0.1" ] in
  let b = Arp_client.attach lan ~mac:(Mac.local ~pool:1 2) ~ips:[ ip "10.0.0.2" ] in
  let got = ref None in
  Arp_client.set_ip_handler b (fun ~src_mac p -> got := Some (src_mac, p));
  Arp_client.send_ip a ~next_hop:(ip "10.0.0.2")
    (packet ~src:"10.0.0.1" ~dst:"10.0.0.2" ());
  ignore (Sim.Engine.run engine);
  checkb "delivered with source mac" true
    (match !got with
    | Some (m, p) ->
        Mac.equal m (Mac.local ~pool:1 1)
        && Ipv4.equal p.Ipv4_packet.dst (ip "10.0.0.2")
    | None -> false)

(* -- router delegation ---------------------------------------------------------------------- *)

(* A one-PoP fixture built directly on the vbgp library (no peering lib). *)
type fixture = {
  engine : Sim.Engine.t;
  router : Router.t;
  n1 : int;
  n1_session : Sim.Bgp_wire.pair;
  n2 : int;
  n2_session : Sim.Bgp_wire.pair;
  n1_delivered : Ipv4_packet.t list ref;
  n2_delivered : Ipv4_packet.t list ref;
}

let make_fixture ?v6_next_hop () =
  let engine = Sim.Engine.create () in
  let global_pool =
    Addr_pool.create ~base:(pfx "127.127.0.0/16") ~mac_pool:0x7f
  in
  let router =
    Router.create ~engine ~name:"testpop" ~asn:(asn 47065)
      ~router_id:(ip "10.255.0.1") ~primary_ip:(ip "10.255.0.1")
      ?v6_next_hop ~local_pool:(pfx "127.65.0.0/16") ~global_pool ()
  in
  Router.activate router;
  let n1_delivered = ref [] and n2_delivered = ref [] in
  let n1, n1_session =
    Router.add_neighbor router ~asn:(asn 100) ~ip:(ip "100.64.0.1")
      ~kind:Neighbor.Transit ~remote_id:(ip "100.64.0.1")
      ~deliver:(fun p -> n1_delivered := p :: !n1_delivered)
      ()
  in
  let n2, n2_session =
    Router.add_neighbor router ~asn:(asn 200) ~ip:(ip "100.64.0.2")
      ~kind:Neighbor.Peer ~remote_id:(ip "100.64.0.2")
      ~deliver:(fun p -> n2_delivered := p :: !n2_delivered)
      ()
  in
  Sim.Bgp_wire.start n1_session;
  Sim.Bgp_wire.start n2_session;
  Sim.Engine.run_until engine 5.;
  { engine; router; n1; n1_session; n2; n2_session; n1_delivered; n2_delivered }

let neighbor_announce fx session prefix path =
  Session.send_update session.Sim.Bgp_wire.active
    (Msg.update
       ~attrs:
         (Attr.origin_attrs
            ~as_path:(Aspath.of_asns (List.map asn path))
            ~next_hop:(ip "100.64.0.1") ())
       ~announced:[ Msg.nlri prefix ]
       ());
  Sim.Engine.run_until fx.engine (Sim.Engine.now fx.engine +. 2.)

let test_router_learns_routes () =
  let fx = make_fixture () in
  neighbor_announce fx fx.n1_session (pfx "192.168.0.0/24") [ 100; 900 ];
  neighbor_announce fx fx.n2_session (pfx "192.168.0.0/24") [ 200; 900 ];
  checki "one route per neighbor table" 1
    (List.length (Router.neighbor_routes fx.router ~neighbor_id:fx.n1));
  checki "total routes" 2 (Router.route_count fx.router);
  checki "fib entries mirror ribs" 2 (Router.fib_entry_count fx.router)

let test_router_nexthop_rewrite_and_visibility () =
  let fx = make_fixture () in
  neighbor_announce fx fx.n1_session (pfx "192.168.0.0/24") [ 100; 900 ];
  neighbor_announce fx fx.n2_session (pfx "192.168.0.0/24") [ 200; 900 ];
  (* Connect an experiment and check it receives BOTH paths with
     pool-rewritten next hops and per-neighbor path ids. *)
  let g = grant () in
  let received = ref [] in
  let pair = Router.connect_experiment fx.router ~grant:g ~mac:(Mac.local ~pool:2 1) () in
  Session.set_handlers pair.Sim.Bgp_wire.active
    {
      Session.on_route_refresh = (fun ~afi:_ ~safi:_ -> ());
      on_update = (fun u -> received := u :: !received);
      on_established = ignore;
      on_down = ignore;
    };
  Sim.Bgp_wire.start pair;
  Sim.Engine.run_until fx.engine (Sim.Engine.now fx.engine +. 5.);
  let announced =
    List.concat_map (fun (u : Msg.update) -> u.Msg.announced) !received
  in
  checki "two paths for one prefix (ADD-PATH)" 2 (List.length announced);
  let path_ids = List.filter_map (fun (n : Msg.nlri) -> n.Msg.path_id) announced in
  checkb "path ids are neighbor table ids" true
    (List.sort Int.compare path_ids = List.sort Int.compare [ fx.n1; fx.n2 ]);
  List.iter
    (fun (u : Msg.update) ->
      if u.Msg.announced <> [] then
        match Attr.next_hop u.Msg.attrs with
        | Some nh ->
            checkb "next hop in local pool" true
              (Prefix.mem nh (pfx "127.65.0.0/16"))
        | None -> Alcotest.fail "missing next hop")
    !received

let test_router_withdraw_propagates () =
  let fx = make_fixture () in
  neighbor_announce fx fx.n1_session (pfx "192.168.0.0/24") [ 100 ];
  let received = ref [] in
  let pair =
    Router.connect_experiment fx.router ~grant:(grant ())
      ~mac:(Mac.local ~pool:2 1) ()
  in
  Session.set_handlers pair.Sim.Bgp_wire.active
    {
      Session.on_route_refresh = (fun ~afi:_ ~safi:_ -> ());
      on_update = (fun u -> received := u :: !received);
      on_established = ignore;
      on_down = ignore;
    };
  Sim.Bgp_wire.start pair;
  Sim.Engine.run_until fx.engine (Sim.Engine.now fx.engine +. 5.);
  Session.send_update fx.n1_session.Sim.Bgp_wire.active
    (Msg.update ~withdrawn:[ Msg.nlri (pfx "192.168.0.0/24") ] ());
  Sim.Engine.run_until fx.engine (Sim.Engine.now fx.engine +. 5.);
  checkb "withdraw reached experiment" true
    (List.exists
       (fun (u : Msg.update) ->
         List.exists
           (fun (n : Msg.nlri) -> n.Msg.path_id = Some fx.n1)
           u.Msg.withdrawn)
       !received);
  checki "router table empty" 0 (Router.route_count fx.router);
  checki "fib empty" 0 (Router.fib_entry_count fx.router)

let test_router_mac_selects_table () =
  let fx = make_fixture () in
  (* Both neighbors reach the destination; the experiment must be able to
     force either one per packet via the destination MAC. *)
  neighbor_announce fx fx.n1_session (pfx "192.168.0.0/24") [ 100; 900 ];
  neighbor_announce fx fx.n2_session (pfx "192.168.0.0/24") [ 200; 900 ];
  let g = grant () in
  let pair =
    Router.connect_experiment fx.router ~grant:g ~mac:(Mac.local ~pool:2 1) ()
  in
  Sim.Bgp_wire.start pair;
  Sim.Engine.run_until fx.engine (Sim.Engine.now fx.engine +. 5.);
  let lan = Router.experiment_lan fx.router in
  let client =
    Arp_client.attach lan ~mac:(Mac.local ~pool:2 1)
      ~ips:[ ip "184.164.224.1" ]
  in
  let vip id =
    match Router.neighbor fx.router id with
    | Some ns -> ns.Router.info.Neighbor.virtual_ip
    | None -> Alcotest.fail "missing neighbor"
  in
  Arp_client.send_ip client ~next_hop:(vip fx.n1) (packet ());
  Arp_client.send_ip client ~next_hop:(vip fx.n2) (packet ());
  Arp_client.send_ip client ~next_hop:(vip fx.n2) (packet ());
  Sim.Engine.run_until fx.engine (Sim.Engine.now fx.engine +. 5.);
  checki "one packet via N1" 1 (List.length !(fx.n1_delivered));
  checki "two packets via N2" 2 (List.length !(fx.n2_delivered))

let test_router_inbound_mac_rewrite () =
  let fx = make_fixture () in
  let g = grant () in
  let pair =
    Router.connect_experiment fx.router ~grant:g ~mac:(Mac.local ~pool:2 1) ()
  in
  Sim.Bgp_wire.start pair;
  Sim.Engine.run_until fx.engine (Sim.Engine.now fx.engine +. 5.);
  (* The experiment announces; inbound traffic from N2 must arrive with
     N2's virtual MAC as the frame source. *)
  ignore
    (Router.process_experiment_update fx.router ~experiment:"exp001"
       (announce ()));
  let lan = Router.experiment_lan fx.router in
  let client =
    Arp_client.attach lan ~mac:(Mac.local ~pool:2 1)
      ~ips:[ ip "184.164.224.1" ]
  in
  let got = ref None in
  Arp_client.set_ip_handler client (fun ~src_mac p -> got := Some (src_mac, p));
  Router.inject_from_neighbor fx.router ~neighbor_id:fx.n2
    (packet ~src:"192.168.0.9" ~dst:"184.164.224.1" ());
  Sim.Engine.run_until fx.engine (Sim.Engine.now fx.engine +. 5.);
  checkb "source MAC is N2's virtual MAC" true
    (match (!got, Router.neighbor fx.router fx.n2) with
    | Some (m, _), Some ns ->
        Mac.equal m ns.Router.info.Neighbor.virtual_mac
    | _ -> false)

let test_router_export_control () =
  let fx = make_fixture () in
  let heard_n1 = ref [] and heard_n2 = ref [] in
  let listen session heard =
    Session.set_handlers session.Sim.Bgp_wire.active
      {
        Session.on_route_refresh = (fun ~afi:_ ~safi:_ -> ());
      on_update = (fun u -> heard := u :: !heard);
        on_established = ignore;
        on_down = ignore;
      }
  in
  listen fx.n1_session heard_n1;
  listen fx.n2_session heard_n2;
  let pair =
    Router.connect_experiment fx.router ~grant:(grant ())
      ~mac:(Mac.local ~pool:2 1) ()
  in
  Sim.Bgp_wire.start pair;
  Sim.Engine.run_until fx.engine (Sim.Engine.now fx.engine +. 5.);
  let id2 = Router.export_id fx.router ~neighbor_id:fx.n2 in
  (* Announce whitelisted to N2 only. *)
  ignore
    (Router.process_experiment_update fx.router ~experiment:"exp001"
       (announce
          ~communities:[ Export_control.announce_to ~ctl_asn:ctl id2 ]
          ()));
  Sim.Engine.run_until fx.engine (Sim.Engine.now fx.engine +. 5.);
  let announced heard =
    List.exists (fun (u : Msg.update) -> u.Msg.announced <> []) !heard
  in
  checkb "N2 heard it" true (announced heard_n2);
  checkb "N1 did not" false (announced heard_n1);
  (* The control community must not leak to the Internet, and the platform
     ASN must be prepended. *)
  List.iter
    (fun (u : Msg.update) ->
      if u.Msg.announced <> [] then begin
        checkb "control community stripped" true
          (List.for_all
             (fun c -> Community.asn c <> ctl)
             (Attr.communities u.Msg.attrs));
        checkb "platform asn prepended" true
          (match Attr.as_path u.Msg.attrs with
          | Some path -> Aspath.first path = Some (asn 47065)
          | None -> false)
      end)
    !heard_n2;
  (* Re-announcing without restriction reaches N1 too. *)
  ignore
    (Router.process_experiment_update fx.router ~experiment:"exp001"
       (announce ()));
  Sim.Engine.run_until fx.engine (Sim.Engine.now fx.engine +. 5.);
  checkb "unrestricted reaches N1" true (announced heard_n1)

let test_router_ttl_expiry_generates_icmp () =
  let fx = make_fixture () in
  neighbor_announce fx fx.n1_session (pfx "192.168.0.0/24") [ 100 ];
  let pair =
    Router.connect_experiment fx.router ~grant:(grant ())
      ~mac:(Mac.local ~pool:2 1) ()
  in
  Sim.Bgp_wire.start pair;
  Sim.Engine.run_until fx.engine (Sim.Engine.now fx.engine +. 5.);
  ignore
    (Router.process_experiment_update fx.router ~experiment:"exp001"
       (announce ()));
  let lan = Router.experiment_lan fx.router in
  let client =
    Arp_client.attach lan ~mac:(Mac.local ~pool:2 1)
      ~ips:[ ip "184.164.224.1" ]
  in
  let got_icmp = ref false in
  Arp_client.set_ip_handler client (fun ~src_mac:_ p ->
      if p.Ipv4_packet.protocol = Ipv4_packet.Icmp then got_icmp := true);
  let vip =
    match Router.neighbor fx.router fx.n1 with
    | Some ns -> ns.Router.info.Neighbor.virtual_ip
    | None -> Alcotest.fail "missing neighbor"
  in
  (* TTL 1 expires at the router; an ICMP TTL-exceeded comes back. *)
  Arp_client.send_ip client ~next_hop:vip (packet ~ttl:1 ());
  Sim.Engine.run_until fx.engine (Sim.Engine.now fx.engine +. 5.);
  checkb "icmp ttl exceeded returned" true !got_icmp;
  checki "counted" 1 (Router.counters fx.router).Router.icmp_sent

let test_router_experiment_down_withdraws () =
  let fx = make_fixture () in
  let heard_n1 = ref [] in
  Session.set_handlers fx.n1_session.Sim.Bgp_wire.active
    {
      Session.on_route_refresh = (fun ~afi:_ ~safi:_ -> ());
      on_update = (fun u -> heard_n1 := u :: !heard_n1);
      on_established = ignore;
      on_down = ignore;
    };
  let pair =
    Router.connect_experiment fx.router ~grant:(grant ())
      ~mac:(Mac.local ~pool:2 1) ()
  in
  Sim.Bgp_wire.start pair;
  Sim.Engine.run_until fx.engine (Sim.Engine.now fx.engine +. 5.);
  ignore
    (Router.process_experiment_update fx.router ~experiment:"exp001"
       (announce ()));
  Sim.Engine.run_until fx.engine (Sim.Engine.now fx.engine +. 5.);
  (* Kill the experiment session: the router must withdraw from N1. *)
  Session.stop pair.Sim.Bgp_wire.active;
  Sim.Engine.run_until fx.engine (Sim.Engine.now fx.engine +. 10.);
  checkb "withdraw sent to neighbor" true
    (List.exists
       (fun (u : Msg.update) -> u.Msg.withdrawn <> [])
       !heard_n1)

let test_router_attribution () =
  (* PlanetFlow-style accountability (§3.1): per-experiment traffic totals
     follow the packets. *)
  let fx = make_fixture () in
  neighbor_announce fx fx.n1_session (pfx "192.168.0.0/24") [ 100 ];
  let pair =
    Router.connect_experiment fx.router ~grant:(grant ())
      ~mac:(Mac.local ~pool:2 1) ()
  in
  Sim.Bgp_wire.start pair;
  Sim.Engine.run_until fx.engine (Sim.Engine.now fx.engine +. 5.);
  ignore
    (Router.process_experiment_update fx.router ~experiment:"exp001"
       (announce ()));
  let lan = Router.experiment_lan fx.router in
  let client =
    Arp_client.attach lan ~mac:(Mac.local ~pool:2 1)
      ~ips:[ ip "184.164.224.1" ]
  in
  let vip =
    match Router.neighbor fx.router fx.n1 with
    | Some ns -> ns.Router.info.Neighbor.virtual_ip
    | None -> Alcotest.fail "missing neighbor"
  in
  Arp_client.send_ip client ~next_hop:vip (packet ~payload:"abcd" ());
  Arp_client.send_ip client ~next_hop:vip (packet ~payload:"efgh" ());
  Router.inject_from_neighbor fx.router ~neighbor_id:fx.n1
    (packet ~src:"192.168.0.7" ~dst:"184.164.224.1" ());
  Sim.Engine.run_until fx.engine (Sim.Engine.now fx.engine +. 5.);
  match Router.attribution fx.router with
  | [ (name, out, bytes, inn) ] ->
      checks "attributed to the experiment" "exp001" name;
      checki "packets out" 2 out;
      checki "bytes out" (2 * (Ipv4_packet.header_size + 4)) bytes;
      checki "packets in" 1 inn
  | other -> Alcotest.failf "unexpected attribution rows: %d" (List.length other)

let test_router_no_export () =
  (* The well-known NO_EXPORT community keeps an announcement inside the
     platform: experiments see it via the mesh, eBGP neighbors never do. *)
  let fx = make_fixture () in
  let heard_n1 = ref [] in
  Session.set_handlers fx.n1_session.Sim.Bgp_wire.active
    {
      Session.on_route_refresh = (fun ~afi:_ ~safi:_ -> ());
      on_update = (fun u -> heard_n1 := u :: !heard_n1);
      on_established = ignore;
      on_down = ignore;
    };
  let g =
    Control_enforcer.grant ~asns:[ asn 61574 ]
      ~prefixes:[ pfx "184.164.224.0/24" ]
      ~caps:Experiment_caps.(default |> with_communities 2)
      "exp001"
  in
  let pair =
    Router.connect_experiment fx.router ~grant:g ~mac:(Mac.local ~pool:2 1) ()
  in
  Sim.Bgp_wire.start pair;
  Sim.Engine.run_until fx.engine (Sim.Engine.now fx.engine +. 5.);
  (match
     Router.process_experiment_update fx.router ~experiment:"exp001"
       (announce ~communities:[ Community.no_export ] ())
   with
  | Ok () -> ()
  | Error e -> Alcotest.fail (String.concat "; " e));
  Sim.Engine.run_until fx.engine (Sim.Engine.now fx.engine +. 5.);
  checkb "no eBGP export under NO_EXPORT" false
    (List.exists (fun (u : Msg.update) -> u.Msg.announced <> []) !heard_n1)

let test_router_blacklist_export () =
  let fx = make_fixture () in
  let heard_n1 = ref [] and heard_n2 = ref [] in
  let listen session heard =
    Session.set_handlers session.Sim.Bgp_wire.active
      {
        Session.on_route_refresh = (fun ~afi:_ ~safi:_ -> ());
        on_update = (fun u -> heard := u :: !heard);
        on_established = ignore;
        on_down = ignore;
      }
  in
  listen fx.n1_session heard_n1;
  listen fx.n2_session heard_n2;
  let pair =
    Router.connect_experiment fx.router ~grant:(grant ())
      ~mac:(Mac.local ~pool:2 1) ()
  in
  Sim.Bgp_wire.start pair;
  Sim.Engine.run_until fx.engine (Sim.Engine.now fx.engine +. 5.);
  let id1 = Router.export_id fx.router ~neighbor_id:fx.n1 in
  (* Blacklist N1: everyone except N1 hears it. *)
  ignore
    (Router.process_experiment_update fx.router ~experiment:"exp001"
       (announce ~communities:[ Export_control.block ~ctl_asn:ctl id1 ] ()));
  Sim.Engine.run_until fx.engine (Sim.Engine.now fx.engine +. 5.);
  let announced heard =
    List.exists (fun (u : Msg.update) -> u.Msg.announced <> []) !heard
  in
  checkb "N1 blacklisted" false (announced heard_n1);
  checkb "N2 hears" true (announced heard_n2)

(* A neighbor added after the experiment announced starts from what it
   should hear: the untagged announcement, the one whitelisting its
   export id, and not the one blacklisting it. (Before update-groups its
   Adj-RIB-Out started empty and the resync replayed nothing.) *)
let test_router_late_neighbor () =
  let fx = make_fixture () in
  let pair =
    Router.connect_experiment fx.router ~grant:(grant ())
      ~mac:(Mac.local ~pool:2 1) ()
  in
  Sim.Bgp_wire.start pair;
  Sim.Engine.run_until fx.engine (Sim.Engine.now fx.engine +. 5.);
  (* Export ids are global-pool indices, handed out in order — the two
     neighbors, then the experiment's address — so the next neighbor's is
     known before it exists. *)
  let late_export_id = Router.export_id fx.router ~neighbor_id:fx.n2 + 2 in
  let untagged = pfx "184.164.224.0/26"
  and whitelisted = pfx "184.164.224.64/26"
  and blacklisted = pfx "184.164.224.128/26" in
  List.iter
    (fun (prefix, communities) ->
      match
        Router.process_experiment_update fx.router ~experiment:"exp001"
          (announce ~prefix ~communities ())
      with
      | Ok () -> ()
      | Error e -> Alcotest.fail (String.concat "; " e))
    [
      (untagged, []);
      (whitelisted, [ Export_control.announce_to ~ctl_asn:ctl late_export_id ]);
      (blacklisted, [ Export_control.block ~ctl_asn:ctl late_export_id ]);
    ];
  Sim.Engine.run_until fx.engine (Sim.Engine.now fx.engine +. 5.);
  let n3, n3_session =
    Router.add_neighbor fx.router ~asn:(asn 300) ~ip:(ip "100.64.0.3")
      ~kind:Neighbor.Transit ~remote_id:(ip "100.64.0.3") ()
  in
  checki "the tags name the late neighbor" late_export_id
    (Router.export_id fx.router ~neighbor_id:n3);
  let heard = Hashtbl.create 4 in
  Session.set_handlers n3_session.Sim.Bgp_wire.active
    {
      Session.on_route_refresh = (fun ~afi:_ ~safi:_ -> ());
      on_update =
        (fun u ->
          List.iter
            (fun (n : Msg.nlri) -> Hashtbl.remove heard n.Msg.prefix)
            u.Msg.withdrawn;
          List.iter
            (fun (n : Msg.nlri) -> Hashtbl.replace heard n.Msg.prefix ())
            u.Msg.announced);
      on_established = ignore;
      on_down = ignore;
    };
  Sim.Bgp_wire.start n3_session;
  Sim.Engine.run_until fx.engine (Sim.Engine.now fx.engine +. 5.);
  Router.flush_reexports fx.router;
  let prefixes l = List.sort Prefix.compare l |> List.map Prefix.to_string in
  let expected = prefixes [ untagged; whitelisted ] in
  Alcotest.(check (list string))
    "late neighbor's Adj-RIB-Out" expected
    (prefixes (List.map fst (Router.adj_out_routes fx.router ~neighbor_id:n3)));
  Alcotest.(check (list string))
    "late neighbor heard" expected
    (prefixes (Hashtbl.fold (fun p () acc -> p :: acc) heard []));
  Alcotest.(check (list string))
    "an early neighbor's view is unchanged"
    (prefixes [ untagged; blacklisted ])
    (prefixes (List.map fst (Router.adj_out_routes fx.router ~neighbor_id:fx.n1)))

let test_router_variant_selection () =
  (* Two ADD-PATH variants of one prefix with different export policies:
     each neighbor hears exactly its variant (the §2.2.2 scenario). *)
  let fx = make_fixture () in
  let heard_n1 = ref [] and heard_n2 = ref [] in
  let listen session heard =
    Session.set_handlers session.Sim.Bgp_wire.active
      {
        Session.on_route_refresh = (fun ~afi:_ ~safi:_ -> ());
        on_update = (fun u -> heard := u :: !heard);
        on_established = ignore;
        on_down = ignore;
      }
  in
  listen fx.n1_session heard_n1;
  listen fx.n2_session heard_n2;
  let g =
    Control_enforcer.grant ~asns:[ asn 61574 ]
      ~prefixes:[ pfx "184.164.224.0/24" ]
      ~caps:Experiment_caps.(default |> with_poisoning 0)
      "exp001"
  in
  let pair =
    Router.connect_experiment fx.router ~grant:g ~mac:(Mac.local ~pool:2 1) ()
  in
  Sim.Bgp_wire.start pair;
  Sim.Engine.run_until fx.engine (Sim.Engine.now fx.engine +. 5.);
  let id1 = Router.export_id fx.router ~neighbor_id:fx.n1 in
  let id2 = Router.export_id fx.router ~neighbor_id:fx.n2 in
  (* Variant 1: prepended, to N1 only. Variant 2: plain, to N2 only. *)
  let variant ~path_id ~prepends ~to_id =
    let path =
      Aspath.prepend_n (asn 61574) prepends (Aspath.of_asns [ asn 61574 ])
    in
    Msg.update
      ~attrs:
        (Attr.origin_attrs ~as_path:path ~next_hop:(ip "184.164.224.1") ()
        |> Attr.with_communities
             [ Export_control.announce_to ~ctl_asn:ctl to_id ])
      ~announced:[ Msg.nlri ~path_id (pfx "184.164.224.0/24") ]
      ()
  in
  (match
     Router.process_experiment_update fx.router ~experiment:"exp001"
       (variant ~path_id:1 ~prepends:3 ~to_id:id1)
   with
  | Ok () -> ()
  | Error e -> Alcotest.fail (String.concat "; " e));
  (match
     Router.process_experiment_update fx.router ~experiment:"exp001"
       (variant ~path_id:2 ~prepends:0 ~to_id:id2)
   with
  | Ok () -> ()
  | Error e -> Alcotest.fail (String.concat "; " e));
  Sim.Engine.run_until fx.engine (Sim.Engine.now fx.engine +. 5.);
  let path_len heard =
    List.find_map
      (fun (u : Msg.update) ->
        if u.Msg.announced <> [] then
          Option.map Aspath.length (Attr.as_path u.Msg.attrs)
        else None)
      !heard
  in
  (* N1 hears the prepended variant (mux + 4x experiment = 5), N2 the
     plain one (mux + experiment = 2). *)
  checkb "N1 heard the prepended variant" true (path_len heard_n1 = Some 5);
  checkb "N2 heard the plain variant" true (path_len heard_n2 = Some 2);
  (* Withdrawing variant 2 withdraws from N2 but leaves N1 announced. *)
  ignore
    (Router.process_experiment_update fx.router ~experiment:"exp001"
       (Msg.update ~withdrawn:[ Msg.nlri ~path_id:2 (pfx "184.164.224.0/24") ] ()));
  Sim.Engine.run_until fx.engine (Sim.Engine.now fx.engine +. 5.);
  checkb "N2 got a withdraw" true
    (List.exists (fun (u : Msg.update) -> u.Msg.withdrawn <> []) !heard_n2);
  checkb "N1 did not" false
    (List.exists (fun (u : Msg.update) -> u.Msg.withdrawn <> []) !heard_n1)

(* A neighbor hears the first variant, in [variants_for_prefix] order,
   that may leave the platform and whose tags permit it. The first
   variant here is NO_EXPORT (nobody may hear it) or blacklists A; the
   second whitelists A. MEDs tell the two apart on the wire. *)
let test_router_first_permitted_variant () =
  let prefix = pfx "184.164.224.0/24" in
  let run first_tag =
    let fx = make_fixture () in
    let heard_a = ref [] and heard_b = ref [] in
    let listen session heard =
      Session.set_handlers session.Sim.Bgp_wire.active
        {
          Session.on_route_refresh = (fun ~afi:_ ~safi:_ -> ());
          on_update = (fun u -> heard := u :: !heard);
          on_established = ignore;
          on_down = ignore;
        }
    in
    listen fx.n1_session heard_a;
    listen fx.n2_session heard_b;
    let g =
      Control_enforcer.grant ~asns:[ asn 61574 ] ~prefixes:[ prefix ]
        ~caps:Experiment_caps.(default |> with_communities 2)
        "exp001"
    in
    ignore
      (Router.connect_experiment fx.router ~grant:g
         ~mac:(Mac.local ~pool:2 1) ());
    let id_a = Router.export_id fx.router ~neighbor_id:fx.n1 in
    let variant ~path_id ~med tag =
      match
        Router.process_experiment_update fx.router ~experiment:"exp001"
          (Msg.update
             ~attrs:
               (Attr.origin_attrs
                  ~as_path:(Aspath.of_asns [ asn 61574 ])
                  ~next_hop:(ip "184.164.224.1") ()
               |> Attr.with_med med
               |> Attr.with_communities [ tag ])
             ~announced:[ Msg.nlri ~path_id prefix ]
             ())
      with
      | Ok () -> ()
      | Error e -> Alcotest.fail (String.concat "; " e)
    in
    (* The later announcement comes first in variant order. *)
    variant ~path_id:2 ~med:2 (Export_control.announce_to ~ctl_asn:ctl id_a);
    variant ~path_id:1 ~med:1 (first_tag id_a);
    checkb "the restricted variant comes first" true
      (match Control_out.variants_for_prefix fx.router prefix with
      | [ v1; v2 ] ->
          Attr.med (Attr_arena.set v1) = Some 1
          && Attr.med (Attr_arena.set v2) = Some 2
      | _ -> false);
    Sim.Engine.run_until fx.engine (Sim.Engine.now fx.engine +. 5.);
    let meds heard =
      List.filter_map
        (fun (u : Msg.update) ->
          if u.Msg.announced <> [] then Attr.med u.Msg.attrs else None)
        !heard
    in
    (meds heard_a, meds heard_b)
  in
  let a, b = run (fun _ -> Community.no_export) in
  checkb "NO_EXPORT first: A hears the second variant" true (a = [ 2 ]);
  checkb "NO_EXPORT first: B hears nothing" true (b = []);
  let a, b = run (fun id_a -> Export_control.block ~ctl_asn:ctl id_a) in
  checkb "blacklist first: A hears the second variant" true (a = [ 2 ]);
  checkb "blacklist first: B hears the first variant" true (b = [ 1 ])

let test_router_burst_single_recompute () =
  (* A burst of updates to one prefix inside one engine tick costs exactly
     one re-export recomputation per neighbor (the dirty-prefix queue),
     and each neighbor hears only the final variant. *)
  let fx = make_fixture () in
  let heard_n1 = ref [] and heard_n2 = ref [] in
  let listen session heard =
    Session.set_handlers session.Sim.Bgp_wire.active
      {
        Session.on_route_refresh = (fun ~afi:_ ~safi:_ -> ());
        on_update = (fun u -> heard := u :: !heard);
        on_established = ignore;
        on_down = ignore;
      }
  in
  listen fx.n1_session heard_n1;
  listen fx.n2_session heard_n2;
  let pair =
    Router.connect_experiment fx.router ~grant:(grant ())
      ~mac:(Mac.local ~pool:2 1) ()
  in
  Sim.Bgp_wire.start pair;
  Sim.Engine.run_until fx.engine (Sim.Engine.now fx.engine +. 5.);
  checki "no recomputation before the burst" 0
    (Router.counters fx.router).Router.reexport_computations;
  (* 20 updates to the same prefix, engine not run in between: all land at
     the same tick, before the single scheduled flush. *)
  for i = 1 to 20 do
    match
      Router.process_experiment_update fx.router ~experiment:"exp001"
        (announce ~path:(List.init ((i mod 3) + 1) (fun _ -> 61574)) ())
    with
    | Ok () -> ()
    | Error e -> Alcotest.fail (String.concat "; " e)
  done;
  Sim.Engine.run_until fx.engine (Sim.Engine.now fx.engine +. 5.);
  (* Update-groups: both neighbors select the same variant, so the whole
     burst costs a single facing-attribute computation shared by both. *)
  checki "one facing computation for the whole burst" 1
    (Router.counters fx.router).Router.reexport_computations;
  let announces heard =
    List.filter (fun (u : Msg.update) -> u.Msg.announced <> []) !heard
  in
  checki "N1 heard exactly one announcement" 1 (List.length (announces heard_n1));
  checki "N2 heard exactly one announcement" 1 (List.length (announces heard_n2));
  (* The surviving announcement is the burst's final variant: path of
     length 3 (20 mod 3 + 1) plus the mux prepend. *)
  List.iter
    (fun (u : Msg.update) ->
      checkb "final variant won" true
        (match Attr.as_path u.Msg.attrs with
        | Some path -> Aspath.length path = 4
        | None -> false))
    (announces heard_n1);
  (* The re-export counters on the burst shapes, pinned exactly: one
     neighbor, one experiment with an unlimited update budget, updates fed
     and flushed without running the engine. Each burst returns the
     (facing computations, UPDATEs, NLRI) it cost toward the neighbor. *)
  let burst ~flush_each updates =
    let engine = Sim.Engine.create () in
    let router =
      Router.create ~engine ~name:"burst" ~asn:(asn 47065)
        ~router_id:(ip "10.255.0.1") ~primary_ip:(ip "10.255.0.1")
        ~local_pool:(pfx "127.65.0.0/16")
        ~global_pool:
          (Addr_pool.create ~base:(pfx "127.127.0.0/16") ~mac_pool:0x7f)
        ()
    in
    Router.activate router;
    let _, npair =
      Router.add_neighbor router ~asn:(asn 100) ~ip:(ip "100.64.0.1")
        ~kind:Neighbor.Transit ~remote_id:(ip "100.64.0.1") ()
    in
    Sim.Bgp_wire.start npair;
    let caps = Experiment_caps.(default |> with_update_budget max_int) in
    Sim.Bgp_wire.start
      (Router.connect_experiment router ~grant:(grant ~caps ())
         ~mac:(Mac.local ~pool:0xe0 1) ());
    Sim.Engine.run_until engine 10.;
    let c = Router.counters router in
    let c0 = c.Router.reexport_computations
    and u0 = c.Router.updates_to_neighbors
    and n0 = c.Router.nlri_to_neighbors in
    List.iter
      (fun u ->
        (match Router.process_experiment_update router ~experiment:"exp001" u with
        | Ok () -> ()
        | Error e -> Alcotest.fail (String.concat "; " e));
        if flush_each then Router.flush_reexports router)
      updates;
    Router.flush_reexports router;
    ( c.Router.reexport_computations - c0,
      c.Router.updates_to_neighbors - u0,
      c.Router.nlri_to_neighbors - n0 )
  in
  let more_specific i = pfx (Printf.sprintf "184.164.224.%d/28" (i * 16)) in
  let update ?med i =
    Msg.update
      ~attrs:
        (let a =
           Attr.origin_attrs
             ~as_path:(Aspath.of_asns [ asn 61574 ])
             ~next_hop:(ip "184.164.224.1") ()
         in
         match med with Some m -> Attr.with_med m a | None -> a)
      ~announced:[ Msg.nlri (more_specific i) ]
      ()
  in
  (* 16 more-specifics x 100 MED variants each: flushed after every
     update, each costs a computation and an UPDATE; flushed once, the
     dirty queue keeps each prefix's last variant (MED 0 everywhere), so
     one computation serves all 16 and they leave packed in one UPDATE. *)
  let variants =
    List.concat_map
      (fun i -> List.init 100 (fun j -> update ~med:((j + 1) mod 100) i))
      (List.init 16 Fun.id)
  in
  let pin what =
    Alcotest.(check (triple int int int)) (what ^ ": computations, UPDATEs, NLRI")
  in
  pin "1600 updates, flushed each" (1600, 1600, 1600)
    (burst ~flush_each:true variants);
  pin "1600 updates, flushed once" (1, 1, 16) (burst ~flush_each:false variants);
  (* One interned attribute set across a 16-prefix burst: one
     computation, one UPDATE carrying all 16 NLRI. *)
  pin "16 prefixes, one attribute set" (1, 1, 16)
    (burst ~flush_each:false (List.init 16 (fun i -> update i)))

let mp_reach_heard heard =
  List.find_map
    (fun (u : Msg.update) ->
      List.find_map
        (function
          | Attr.Mp_reach { next_hop; nlri } -> Some (next_hop, nlri)
          | _ -> None)
        u.Msg.attrs)
    !heard

let mp_unreach_heard heard =
  List.find_map
    (fun (u : Msg.update) ->
      List.find_map
        (function Attr.Mp_unreach nlri -> Some nlri | _ -> None)
        u.Msg.attrs)
    !heard

let v6_pfx = Prefix_v6.of_string_exn "2804:269c:1::/48"

let announce_v6 () =
  Msg.update
    ~attrs:
      [
        Attr.Origin Attr.Igp;
        Attr.As_path (Aspath.of_asns [ asn 61574 ]);
        Attr.Mp_reach
          {
            next_hop = Ipv6.of_string_exn "2001:db8::1";
            nlri = [ (v6_pfx, None) ];
          };
      ]
    ()

let run_v6_reexport ?v6_next_hop () =
  let fx = make_fixture ?v6_next_hop () in
  let heard_n1 = ref [] in
  Session.set_handlers fx.n1_session.Sim.Bgp_wire.active
    {
      Session.on_route_refresh = (fun ~afi:_ ~safi:_ -> ());
      on_update = (fun u -> heard_n1 := u :: !heard_n1);
      on_established = ignore;
      on_down = ignore;
    };
  let pair =
    Router.connect_experiment fx.router ~grant:(grant ())
      ~mac:(Mac.local ~pool:2 1) ()
  in
  Sim.Bgp_wire.start pair;
  Sim.Engine.run_until fx.engine (Sim.Engine.now fx.engine +. 5.);
  (match
     Router.process_experiment_update fx.router ~experiment:"exp001"
       (announce_v6 ())
   with
  | Ok () -> ()
  | Error e -> Alcotest.fail (String.concat "; " e));
  Sim.Engine.run_until fx.engine (Sim.Engine.now fx.engine +. 5.);
  (match mp_reach_heard heard_n1 with
  | Some (next_hop, nlri) ->
      checkb "v6 next hop is the router's" true
        (Ipv6.equal next_hop (Router.v6_next_hop fx.router));
      checkb "v6 prefix announced" true
        (List.exists (fun (p, _) -> Prefix_v6.equal p v6_pfx) nlri)
  | None -> Alcotest.fail "neighbor heard no MP_REACH");
  (* Withdrawing the v6 prefix reaches the neighbor as MP_UNREACH. *)
  (match
     Router.process_experiment_update fx.router ~experiment:"exp001"
       (Msg.update ~attrs:[ Attr.Mp_unreach [ (v6_pfx, None) ] ] ())
   with
  | Ok () -> ()
  | Error e -> Alcotest.fail (String.concat "; " e));
  Sim.Engine.run_until fx.engine (Sim.Engine.now fx.engine +. 5.);
  (match mp_unreach_heard heard_n1 with
  | Some nlri ->
      checkb "v6 prefix withdrawn" true
        (List.exists (fun (p, _) -> Prefix_v6.equal p v6_pfx) nlri)
  | None -> Alcotest.fail "neighbor heard no MP_UNREACH");
  fx.router

let test_router_v6_reexport () =
  let router = run_v6_reexport () in
  checkb "default next hop is PEERING's" true
    (Ipv6.equal (Router.v6_next_hop router)
       (Ipv6.of_string_exn "2804:269c::1"))

let test_router_v6_next_hop_config () =
  (* The IPv6 next hop is per-router configuration, not a constant. *)
  let custom = Ipv6.of_string_exn "2001:db8:ffff::1" in
  let router = run_v6_reexport ~v6_next_hop:custom () in
  checkb "configured next hop used" true
    (Ipv6.equal (Router.v6_next_hop router) custom)

let () =
  Alcotest.run "vbgp"
    [
      ( "addr_pool",
        [
          Alcotest.test_case "allocation" `Quick test_addr_pool;
          Alcotest.test_case "exhaustion" `Quick test_addr_pool_exhaustion;
        ] );
      ( "rate_limiter",
        [
          Alcotest.test_case "windowing" `Quick test_rate_limiter;
          Alcotest.test_case "override" `Quick test_rate_limiter_override;
          Alcotest.test_case "peering default" `Quick test_peering_default_limit;
        ] );
      ( "export_control",
        [
          Alcotest.test_case "allow semantics" `Quick test_export_control;
          Alcotest.test_case "marker" `Quick test_export_marker;
          QCheck_alcotest.to_alcotest prop_compiled_filter_matches_model;
        ] );
      ( "control_enforcer",
        [
          Alcotest.test_case "accepts basic" `Quick test_enforcer_accepts_basic;
          Alcotest.test_case "hijack" `Quick test_enforcer_hijack;
          Alcotest.test_case "withdraw ownership" `Quick
            test_enforcer_withdraw_ownership;
          Alcotest.test_case "origin asn" `Quick test_enforcer_origin;
          Alcotest.test_case "transit" `Quick test_enforcer_transit;
          Alcotest.test_case "poisoning" `Quick test_enforcer_poisoning;
          Alcotest.test_case "communities" `Quick test_enforcer_communities;
          Alcotest.test_case "transitive attrs" `Quick
            test_enforcer_transitive_attrs;
          Alcotest.test_case "ipv6 ownership" `Quick test_enforcer_v6;
          Alcotest.test_case "6to4" `Quick test_enforcer_6to4;
          Alcotest.test_case "rate limit" `Quick test_enforcer_rate_limit;
          Alcotest.test_case "shared limiter across pops" `Quick
            test_enforcer_shared_limiter;
          Alcotest.test_case "fail closed" `Quick test_enforcer_fail_closed;
        ] );
      ( "data_enforcer",
        [
          QCheck_alcotest.to_alcotest prop_allocation_owner_matches_scan;
          Alcotest.test_case "source validation" `Quick test_data_source_validation;
          Alcotest.test_case "shaper" `Quick test_data_shaper;
          Alcotest.test_case "ttl guard" `Quick test_data_ttl_guard;
          Alcotest.test_case "transform chain" `Quick test_data_transform_chain;
        ] );
      ( "arp",
        [
          Alcotest.test_case "resolution" `Quick test_arp_resolution;
          Alcotest.test_case "pending coalesce" `Quick test_arp_pending_coalesce;
          Alcotest.test_case "ip delivery" `Quick test_arp_ip_delivery;
        ] );
      ( "router",
        [
          Alcotest.test_case "learns routes" `Quick test_router_learns_routes;
          Alcotest.test_case "nexthop rewrite + add-path" `Quick
            test_router_nexthop_rewrite_and_visibility;
          Alcotest.test_case "withdraw propagates" `Quick
            test_router_withdraw_propagates;
          Alcotest.test_case "mac selects table" `Quick
            test_router_mac_selects_table;
          Alcotest.test_case "inbound mac rewrite" `Quick
            test_router_inbound_mac_rewrite;
          Alcotest.test_case "export control" `Quick test_router_export_control;
          Alcotest.test_case "ttl expiry icmp" `Quick
            test_router_ttl_expiry_generates_icmp;
          Alcotest.test_case "experiment down withdraws" `Quick
            test_router_experiment_down_withdraws;
          Alcotest.test_case "traffic attribution" `Quick
            test_router_attribution;
          Alcotest.test_case "no-export community" `Quick
            test_router_no_export;
          Alcotest.test_case "blacklist export" `Quick
            test_router_blacklist_export;
          Alcotest.test_case "late neighbor hears current announcements"
            `Quick test_router_late_neighbor;
          Alcotest.test_case "per-neighbor variants" `Quick
            test_router_variant_selection;
          Alcotest.test_case "first permitted variant" `Quick
            test_router_first_permitted_variant;
          Alcotest.test_case "burst recomputes once" `Quick
            test_router_burst_single_recompute;
          Alcotest.test_case "ipv6 re-export" `Quick test_router_v6_reexport;
          Alcotest.test_case "ipv6 next hop config" `Quick
            test_router_v6_next_hop_config;
        ] );
    ]
