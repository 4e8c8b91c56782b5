(* Tests for the data-plane fast path: zero-copy packet views (wire-offset
   accessors, in-place TTL decrement with an RFC 1624 incremental checksum
   fix) and the generation-stamped per-neighbor flow cache, held
   differentially against the record slow path. *)

open Netcore
open Bgp
open Vbgp

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checks = Alcotest.(check string)

let asn = Asn.of_int
let ip = Ipv4.of_string_exn
let pfx = Prefix.of_string_exn

let packet ?(src = "184.164.224.1") ?(dst = "192.168.0.1") ?(ttl = 64)
    ?(ident = 0) ?(dscp = 0) ?(protocol = Ipv4_packet.Udp)
    ?(payload = "data") () =
  Ipv4_packet.make ~ttl ~ident ~dscp ~src:(ip src) ~dst:(ip dst) ~protocol
    payload

let view_of p =
  match Ipv4_packet.View.of_string (Ipv4_packet.encode p) with
  | Ok v -> v
  | Error e -> Alcotest.fail e

(* -- packet views ------------------------------------------------------------------ *)

let test_view_accessors () =
  let p = packet ~ttl:17 ~ident:4242 ~dscp:46 ~payload:"hello" () in
  let wire = Ipv4_packet.encode p in
  let v = view_of p in
  checkb "src" true (Ipv4.equal (Ipv4_packet.View.src v) p.Ipv4_packet.src);
  checkb "dst" true (Ipv4.equal (Ipv4_packet.View.dst v) p.Ipv4_packet.dst);
  checki "ttl" 17 (Ipv4_packet.View.ttl v);
  checkb "protocol" true (Ipv4_packet.View.protocol v = Ipv4_packet.Udp);
  checki "ident" 4242 (Ipv4_packet.View.ident v);
  checki "dscp" 46 (Ipv4_packet.View.dscp v);
  checki "total length" (Ipv4_packet.header_size + 5)
    (Ipv4_packet.View.total_length v);
  checki "payload length" 5 (Ipv4_packet.View.payload_length v);
  checkb "record round trip" true (Ipv4_packet.View.to_packet v = p);
  checks "wire preserved verbatim" wire (Ipv4_packet.View.to_wire v)

let test_view_validation () =
  let wire = Ipv4_packet.encode (packet ()) in
  let rejected s =
    match Ipv4_packet.View.of_string s with Ok _ -> false | Error _ -> true
  in
  checkb "valid accepted" false (rejected wire);
  checkb "truncated" true (rejected (String.sub wire 0 10));
  let corrupt pos f =
    let b = Bytes.of_string wire in
    Bytes.set_uint8 b pos (f (Bytes.get_uint8 b pos));
    Bytes.to_string b
  in
  checkb "bad version" true (rejected (corrupt 0 (fun _ -> 0x65)));
  checkb "options unsupported" true (rejected (corrupt 0 (fun _ -> 0x46)));
  checkb "bad total length" true (rejected (corrupt 3 (fun x -> x + 40)));
  (* A flipped header byte without a checksum fix must be caught. *)
  checkb "bad checksum" true (rejected (corrupt 8 (fun x -> x lxor 0xff)));
  (* [decode] and the view agree on every one of these. *)
  List.iter
    (fun s ->
      checkb "view agrees with decode" true
        (Result.is_ok (Ipv4_packet.decode s)
        = Result.is_ok (Ipv4_packet.View.of_string s)))
    [
      wire;
      String.sub wire 0 10;
      corrupt 0 (fun _ -> 0x65);
      corrupt 0 (fun _ -> 0x46);
      corrupt 3 (fun x -> x + 40);
      corrupt 8 (fun x -> x lxor 0xff);
    ]

(* The incremental checksum fix must agree bit-for-bit with a full
   recompute: decrementing the TTL through the view yields exactly the
   bytes [encode] produces for the decremented record. *)
let test_ttl_decrement_matches_reencode () =
  List.iter
    (fun ttl ->
      List.iter
        (fun protocol ->
          let p = packet ~ttl ~protocol ~payload:"payload!" () in
          let v = view_of p in
          Ipv4_packet.View.decrement_ttl v;
          checks
            (Printf.sprintf "ttl %d" ttl)
            (Ipv4_packet.encode { p with Ipv4_packet.ttl = ttl - 1 })
            (Ipv4_packet.View.to_wire v))
        [ Ipv4_packet.Udp; Ipv4_packet.Tcp; Ipv4_packet.Icmp;
          Ipv4_packet.Other 97 ])
    [ 1; 2; 17; 64; 128; 255 ];
  Alcotest.check_raises "ttl 0 refused"
    (Invalid_argument "Ipv4_packet.View.decrement_ttl: ttl 0") (fun () ->
      Ipv4_packet.View.decrement_ttl (view_of (packet ~ttl:0 ())))

let prop_incremental_checksum =
  QCheck.Test.make ~name:"incremental checksum equals full recompute"
    ~count:500
    (QCheck.quad
       (QCheck.int_bound 0xffffff)
       (QCheck.int_bound 0xffffff)
       (QCheck.int_range 1 255)
       (QCheck.pair (QCheck.int_bound 0xffff)
          (QCheck.string_of_size (QCheck.Gen.int_range 0 40))))
    (fun (s, d, ttl, (ident, payload)) ->
      let p =
        Ipv4_packet.make ~ttl ~ident
          ~src:(Ipv4.of_int32 (Int32.of_int (0x0a000000 + s)))
          ~dst:(Ipv4.of_int32 (Int32.of_int (0x40000000 + d)))
          ~protocol:Ipv4_packet.Udp payload
      in
      match Ipv4_packet.View.of_string (Ipv4_packet.encode p) with
      | Error _ -> false
      | Ok v ->
          Ipv4_packet.View.decrement_ttl v;
          String.equal
            (Ipv4_packet.encode { p with Ipv4_packet.ttl = ttl - 1 })
            (Ipv4_packet.View.to_wire v))

(* -- router fixture ---------------------------------------------------------------- *)

type fx = {
  engine : Sim.Engine.t;
  router : Router.t;
  n1 : int;
  delivered : Ipv4_packet.t list ref;
}

let make_router ?data ?(flow_cache = true) () =
  let engine = Sim.Engine.create () in
  let global_pool =
    Addr_pool.create ~base:(pfx "127.127.0.0/16") ~mac_pool:0x7f
  in
  let router =
    Router.create ~engine ~name:"fastpath" ~asn:(asn 47065)
      ~router_id:(ip "10.255.0.1") ~primary_ip:(ip "10.255.0.1")
      ~local_pool:(pfx "127.65.0.0/16") ~global_pool ?data ~flow_cache ()
  in
  Router.activate router;
  let delivered = ref [] in
  let n1, pair =
    Router.add_neighbor router ~asn:(asn 100) ~ip:(ip "100.64.0.1")
      ~kind:Neighbor.Transit ~remote_id:(ip "100.64.0.1")
      ~deliver:(fun p -> delivered := p :: !delivered)
      ()
  in
  Sim.Bgp_wire.start pair;
  Sim.Engine.run_until engine 5.;
  { engine; router; n1; delivered }

(* [path] extends the AS path past the neighbor's own AS: a
   re-announcement with another [path] changes the route's attributes
   but not where its traffic goes. *)
let announce ?(path = []) fx prefix =
  Router.process_neighbor_update fx.router ~neighbor_id:fx.n1
    (Msg.update
       ~attrs:
         (Attr.origin_attrs
            ~as_path:(Aspath.of_asns (List.map asn (100 :: path)))
            ~next_hop:(ip "100.64.0.1") ())
       ~announced:[ Msg.nlri prefix ]
       ())

let withdraw fx prefix =
  Router.process_neighbor_update fx.router ~neighbor_id:fx.n1
    (Msg.update ~withdrawn:[ Msg.nlri prefix ] ())

let fwd fx ?(src_mac = Mac.local ~pool:9 9) p =
  let dst =
    match Router.neighbor fx.router fx.n1 with
    | Some ns -> ns.Router.info.Neighbor.virtual_mac
    | None -> Mac.zero
  in
  Router.forward_experiment_frame fx.router ~neighbor_id:fx.n1
    { Eth.dst; src = src_mac; ethertype = Eth.Ipv4;
      payload = Ipv4_packet.encode p }

(* -- flow cache -------------------------------------------------------------------- *)

let test_flow_cache_hits () =
  let fx = make_router () in
  announce fx (pfx "192.168.0.0/24");
  let p = packet ~dst:"192.168.0.9" () in
  fwd fx p;
  fwd fx p;
  fwd fx p;
  let c = Router.counters fx.router in
  checki "one miss" 1 c.Router.flow_misses;
  checki "two hits" 2 c.Router.flow_hits;
  checki "all delivered" 3 (List.length !(fx.delivered));
  checkb "hit and miss deliveries identical" true
    (List.for_all
       (fun q -> q = Ipv4_packet.decrement_ttl p)
       !(fx.delivered))

let test_invalidate_on_fib_change () =
  let fx = make_router () in
  announce fx (pfx "192.168.0.0/24");
  let p = packet ~dst:"192.168.0.9" () in
  fwd fx p;
  fwd fx p;
  let c = Router.counters fx.router in
  checki "warm" 1 c.Router.flow_hits;
  (* Any FIB mutation bumps the table generation. *)
  announce fx (pfx "192.168.0.0/16");
  fwd fx p;
  checki "fib change forces a miss" 2 c.Router.flow_misses;
  checki "no stale hit" 1 c.Router.flow_hits;
  checki "still delivered" 3 (List.length !(fx.delivered));
  (* Withdraw everything: the cached forward must not survive. *)
  withdraw fx (pfx "192.168.0.0/24");
  withdraw fx (pfx "192.168.0.0/16");
  fwd fx p;
  checki "withdraw forces a miss" 3 c.Router.flow_misses;
  checki "no delivery without a route" 3 (List.length !(fx.delivered));
  checki "dropped instead" 1 c.Router.packets_dropped

(* Every entry of a neighbor's FIB is the neighbor itself, so a
   re-announcement that only moves the AS path writes nothing: the flow
   stays a hit. Changes that do move forwarding — a new more-specific, a
   new covering prefix, a withdraw — still force a miss. *)
let test_attribute_churn_keeps_flow () =
  let fx = make_router () in
  let covering = pfx "192.168.0.0/24" in
  announce fx covering;
  let p = packet ~dst:"192.168.0.9" () in
  fwd fx p;
  fwd fx p;
  let c = Router.counters fx.router in
  for round = 1 to 3 do
    announce ~path:[ 200 + round ] fx covering;
    fwd fx p
  done;
  let installed_path =
    match Router.neighbor fx.router fx.n1 with
    | Some ns -> (
        match Rib.Table.best ns.Router.rib_in covering with
        | Some r -> List.map Asn.to_int (Aspath.to_asns (Rib.Route.as_path r))
        | None -> [])
    | None -> []
  in
  checkb "the re-announcement reached the RIB" true
    (installed_path = [ 100; 203 ]);
  checki "one miss" 1 c.Router.flow_misses;
  checki "hits through attribute churn" 4 c.Router.flow_hits;
  announce fx (pfx "192.168.0.0/25");
  fwd fx p;
  checki "new more-specific forces a miss" 2 c.Router.flow_misses;
  fwd fx p;
  checki "then warms again" 5 c.Router.flow_hits;
  announce fx (pfx "192.168.0.0/16");
  fwd fx p;
  checki "new covering prefix forces a miss" 3 c.Router.flow_misses;
  announce ~path:[ 999 ] fx (pfx "192.168.0.0/25");
  fwd fx p;
  checki "still a hit after path-only churn" 6 c.Router.flow_hits;
  withdraw fx (pfx "192.168.0.0/25");
  fwd fx p;
  checki "withdraw forces a miss" 4 c.Router.flow_misses;
  checki "every frame delivered" 10 (List.length !(fx.delivered));
  checkb "deliveries identical throughout" true
    (List.for_all (fun q -> q = Ipv4_packet.decrement_ttl p) !(fx.delivered))

let test_invalidate_on_add_filter () =
  let fx = make_router () in
  announce fx (pfx "192.168.0.0/24");
  let p = packet ~dst:"192.168.0.9" () in
  fwd fx p;
  fwd fx p;
  let c = Router.counters fx.router in
  checki "warm" 1 c.Router.flow_hits;
  Data_enforcer.add_filter
    (Router.data_enforcer fx.router)
    (Data_enforcer.filter ~stateless:true ~name:"block-all"
       (fun ~now:_ ~meta:_ _ -> Data_enforcer.Block "policy"));
  fwd fx p;
  checki "chain change forces a miss" 2 c.Router.flow_misses;
  checki "blocked" 1 c.Router.packets_dropped;
  checki "not delivered" 2 (List.length !(fx.delivered));
  (* The memoized block is replayed on the next hit, with identical
     per-filter accounting. *)
  fwd fx p;
  checki "cached block hit" 2 c.Router.flow_hits;
  checki "blocked again" 2 c.Router.packets_dropped;
  checkb "filter stats replayed" true
    (Data_enforcer.filter_stats (Router.data_enforcer fx.router)
    = [ ("block-all", 0, 2) ])

let test_invalidate_on_experiment_attach () =
  let fx = make_router () in
  announce fx (pfx "192.168.0.0/24");
  let exp_mac = Mac.local ~pool:2 1 in
  let p = packet ~dst:"192.168.0.9" () in
  fwd fx ~src_mac:exp_mac p;
  fwd fx ~src_mac:exp_mac p;
  let c = Router.counters fx.router in
  checki "warm" 1 c.Router.flow_hits;
  checkb "unattributed before attach" true (Router.attribution fx.router = []);
  (* Attaching an experiment on that MAC changes ingress attribution; the
     memoized decision must not outlive it. *)
  let grant =
    Control_enforcer.grant ~asns:[ asn 61574 ]
      ~prefixes:[ pfx "184.164.224.0/24" ]
      "exp001"
  in
  let pair = Router.connect_experiment fx.router ~grant ~mac:exp_mac () in
  Sim.Bgp_wire.start pair;
  Sim.Engine.run_until fx.engine (Sim.Engine.now fx.engine +. 5.);
  let misses_before = c.Router.flow_misses in
  fwd fx ~src_mac:exp_mac p;
  checki "attach forces a miss" (misses_before + 1) c.Router.flow_misses;
  checkb "re-resolved flow attributes to the experiment" true
    (match Router.attribution fx.router with
    | [ ("exp001", pkts, _, _) ] -> pkts = 1
    | _ -> false)

let test_invalidate_on_owner_change () =
  (* Experiment detach surfaces as route withdrawal → [owner_remove];
     both directions of owner-table churn must stamp out cached flows. *)
  let fx = make_router () in
  announce fx (pfx "192.168.0.0/24");
  let p = packet ~dst:"192.168.0.9" () in
  fwd fx p;
  fwd fx p;
  let c = Router.counters fx.router in
  Router_state.owner_insert fx.router
    (pfx "184.164.224.0/24")
    (Router_state.Local_exp "exp001");
  fwd fx p;
  checki "owner insert forces a miss" 2 c.Router.flow_misses;
  fwd fx p;
  checki "then warms again" 2 c.Router.flow_hits;
  Router_state.owner_remove fx.router (pfx "184.164.224.0/24");
  fwd fx p;
  checki "owner remove forces a miss" 3 c.Router.flow_misses;
  checki "every frame still delivered" 5 (List.length !(fx.delivered))

(* -- stateful tail under the cache ------------------------------------------------- *)

let shaper_chain () =
  let d = Data_enforcer.create () in
  Data_enforcer.add_filter d
    (Data_enforcer.shaper ~name:"pop-shaper" ~rate:0. ~burst:100.
       ~key_of:(fun _ -> "pop") ());
  d

let test_shaper_under_cache () =
  (* 50-byte packets against a 100-byte non-refilling bucket: exactly two
     pass no matter how warm the flow cache is — the stateful tail debits
     tokens on every packet, hit or miss. *)
  let run ~flow_cache =
    let fx = make_router ~data:(shaper_chain ()) ~flow_cache () in
    announce fx (pfx "192.168.0.0/24");
    let p = packet ~dst:"192.168.0.9" ~payload:(String.make 30 'x') () in
    for _ = 1 to 5 do
      fwd fx p
    done;
    fx
  in
  let cached = run ~flow_cache:true in
  let slow = run ~flow_cache:false in
  let cc = Router.counters cached.router in
  let sc = Router.counters slow.router in
  checki "cached: two delivered" 2 (List.length !(cached.delivered));
  checki "cached: three shaped off" 3 cc.Router.packets_dropped;
  checki "cached: first frame missed" 1 cc.Router.flow_misses;
  checki "cached: rest hit" 4 cc.Router.flow_hits;
  checkb "identical deliveries either way" true
    (!(cached.delivered) = !(slow.delivered));
  checki "identical drops either way" sc.Router.packets_dropped
    cc.Router.packets_dropped;
  checkb "identical enforcer stats" true
    (Data_enforcer.stats (Router.data_enforcer cached.router)
    = Data_enforcer.stats (Router.data_enforcer slow.router))

(* A hit forwards the record the stateful tail built, or reads one out
   of the frame when there is no tail: what it delivers — the forwarded
   packet, and the TTL-exceeded ICMP a TTL-1 frame earns — must equal the
   slow path's records exactly, and a flow with no route is dropped on
   every hit. The ICMP reaches a local experiment, whose frames are
   captured off the experiment LAN. *)
let hit_records ~tail () =
  let run ~flow_cache =
    let d = Data_enforcer.create () in
    if tail then
      Data_enforcer.add_filter d
        (Data_enforcer.shaper ~name:"pop-shaper" ~rate:0. ~burst:1e9
           ~key_of:(fun _ -> "pop") ());
    let fx = make_router ~data:d ~flow_cache () in
    announce fx (pfx "192.168.0.0/24");
    let exp_mac = Mac.local ~pool:2 1 in
    let grant =
      Control_enforcer.grant ~asns:[ asn 61574 ]
        ~prefixes:[ pfx "184.164.224.0/24" ]
        "exp001"
    in
    let pair = Router.connect_experiment fx.router ~grant ~mac:exp_mac () in
    Sim.Bgp_wire.start pair;
    Sim.Engine.run_until fx.engine (Sim.Engine.now fx.engine +. 5.);
    Router_state.owner_insert fx.router (pfx "184.164.224.0/24")
      (Router_state.Local_exp "exp001");
    let to_exp = ref [] in
    Sim.Lan.attach fx.router.Router_state.exp_lan exp_mac (fun f ->
        to_exp := f.Eth.payload :: !to_exp);
    for i = 1 to 4 do
      fwd fx ~src_mac:exp_mac
        (packet ~dst:"192.168.0.9" ~ident:i ~payload:(String.make 40 'm') ());
      fwd fx ~src_mac:exp_mac (packet ~dst:"192.168.0.10" ~ttl:1 ~ident:i ());
      fwd fx ~src_mac:exp_mac (packet ~dst:"172.16.0.9" ~ident:i ())
    done;
    Sim.Engine.run_until fx.engine (Sim.Engine.now fx.engine +. 1.);
    (fx, !to_exp)
  in
  let cached, cached_icmp = run ~flow_cache:true in
  let slow, slow_icmp = run ~flow_cache:false in
  let cc = Router.counters cached.router in
  let sc = Router.counters slow.router in
  checki "three flows missed once each" 3 cc.Router.flow_misses;
  checki "the rest hit" 9 cc.Router.flow_hits;
  checki "four forwarded" 4 (List.length !(cached.delivered));
  checki "no-route frames dropped" 4 cc.Router.packets_dropped;
  checki "dropped as on the slow path" sc.Router.packets_dropped
    cc.Router.packets_dropped;
  checkb "forwarded records equal the slow path's" true
    (!(cached.delivered) = !(slow.delivered));
  checki "four ICMP sent" 4 cc.Router.icmp_sent;
  checki "four ICMP delivered" 4 (List.length cached_icmp);
  checkb "ICMP records equal the slow path's" true (cached_icmp = slow_icmp);
  checkb "identical filter stats" true
    (Data_enforcer.filter_stats (Router.data_enforcer cached.router)
    = Data_enforcer.filter_stats (Router.data_enforcer slow.router))

(* -- differential property: cached == slow path ------------------------------------ *)

type op =
  | Fwd of int * int * int  (* flow index, ttl index, payload length *)
  | Announce of int
  | Reannounce_path of int * int  (* prefix index, AS-path variant *)
  | Withdraw of int
  | Add_noop_filter

let prefixes =
  [|
    pfx "192.168.0.0/24"; pfx "192.168.1.0/24"; pfx "10.9.0.0/16";
    pfx "172.16.0.0/24";
  |]

let dsts = [| "192.168.0.7"; "192.168.1.7"; "10.9.0.7"; "172.16.0.7" |]
let srcs = [| "184.164.224.1"; "184.164.224.2" |]
let ttls = [| 1; 2; 64 |]

(* A chain with a stateless head (blocks one destination block) and a
   stateful tail (non-refilling per-source shaper), so random runs mix
   memoized blocks, memoized forwards, tail blocks, and TTL expiry. *)
let diff_chain () =
  let d = Data_enforcer.create () in
  Data_enforcer.add_filter d
    (Data_enforcer.filter ~stateless:true ~name:"no-10-9"
       (fun ~now:_ ~meta:_ (p : Ipv4_packet.t) ->
         if Prefix.mem p.Ipv4_packet.dst (pfx "10.9.0.0/16") then
           Data_enforcer.Block "blackholed destination"
         else Data_enforcer.Allow));
  Data_enforcer.add_filter d
    (Data_enforcer.shaper ~name:"src-shaper" ~rate:0. ~burst:600.
       ~key_of:(fun (p : Ipv4_packet.t) ->
         Ipv4.to_string p.Ipv4_packet.src)
       ());
  d

let apply_op fx = function
  | Fwd (flow, ttl_i, payload_len) ->
      let p =
        packet
          ~src:srcs.(flow mod Array.length srcs)
          ~dst:dsts.(flow mod Array.length dsts)
          ~ttl:ttls.(ttl_i mod Array.length ttls)
          ~payload:(String.make (payload_len mod 32) 'x')
          ()
      in
      fwd fx p
  | Announce i -> announce fx prefixes.(i mod Array.length prefixes)
  | Reannounce_path (i, v) ->
      announce ~path:[ 200 + v ] fx prefixes.(i mod Array.length prefixes)
  | Withdraw i -> withdraw fx prefixes.(i mod Array.length prefixes)
  | Add_noop_filter ->
      Data_enforcer.add_filter
        (Router.data_enforcer fx.router)
        (Data_enforcer.filter ~stateless:true ~name:"noop"
           (fun ~now:_ ~meta:_ _ -> Data_enforcer.Allow))

let gen_op =
  QCheck.Gen.(
    frequency
      [
        ( 10,
          map3
            (fun a b c -> Fwd (a, b, c))
            (int_bound 7) (int_bound 2) (int_bound 31) );
        (1, map (fun i -> Announce i) (int_bound 3));
        ( 1,
          map2 (fun i v -> Reannounce_path (i, v)) (int_bound 3) (int_bound 3)
        );
        (1, map (fun i -> Withdraw i) (int_bound 3));
        (1, return Add_noop_filter);
      ])

let prop_cached_equals_slow =
  QCheck.Test.make ~name:"flow cache is invisible except for speed"
    ~count:60
    (QCheck.make (QCheck.Gen.list_size (QCheck.Gen.int_range 1 80) gen_op))
    (fun ops ->
      let cached = make_router ~data:(diff_chain ()) ~flow_cache:true () in
      let slow = make_router ~data:(diff_chain ()) ~flow_cache:false () in
      (* Seed one route so the first frames have somewhere to go. *)
      announce cached prefixes.(0);
      announce slow prefixes.(0);
      List.iter
        (fun op ->
          apply_op cached op;
          apply_op slow op)
        ops;
      let cc = Router.counters cached.router in
      let sc = Router.counters slow.router in
      !(cached.delivered) = !(slow.delivered)
      && cc.Router.packets_to_neighbors = sc.Router.packets_to_neighbors
      && cc.Router.packets_to_experiments = sc.Router.packets_to_experiments
      && cc.Router.packets_over_backbone = sc.Router.packets_over_backbone
      && cc.Router.packets_dropped = sc.Router.packets_dropped
      && cc.Router.icmp_sent = sc.Router.icmp_sent
      && Data_enforcer.stats (Router.data_enforcer cached.router)
         = Data_enforcer.stats (Router.data_enforcer slow.router)
      && Data_enforcer.filter_stats (Router.data_enforcer cached.router)
         = Data_enforcer.filter_stats (Router.data_enforcer slow.router)
      && sc.Router.flow_hits = 0
      && sc.Router.flow_misses = 0)

(* -- enforcement chain mechanics --------------------------------------------------- *)

let test_add_filter_order_and_stats () =
  let d = Data_enforcer.create () in
  for i = 1 to 5 do
    Data_enforcer.add_filter d
      (Data_enforcer.filter ~stateless:true
         ~name:(Printf.sprintf "f%d" i)
         (fun ~now:_ ~meta:_ _ -> Data_enforcer.Allow))
  done;
  checkb "insertion order preserved" true
    (Data_enforcer.filters d = [ "f1"; "f2"; "f3"; "f4"; "f5" ]);
  let meta = { Data_enforcer.ingress = "x" } in
  ignore (Data_enforcer.check d ~now:0. ~meta (packet ()));
  checkb "every filter credited once" true
    (Data_enforcer.filter_stats d
    = List.init 5 (fun i -> (Printf.sprintf "f%d" (i + 1), 1, 0)));
  checki "five adds, five generations" 5 (Data_enforcer.generation d)

let test_shaper_bucket_eviction () =
  let d = Data_enforcer.create () in
  Data_enforcer.add_filter d
    (Data_enforcer.shaper ~name:"s" ~rate:1000. ~burst:50. ~idle_horizon:10.
       ~key_of:(fun (p : Ipv4_packet.t) -> Ipv4.to_string p.Ipv4_packet.dst)
       ());
  let meta = { Data_enforcer.ingress = "x" } in
  let send now dst =
    ignore (Data_enforcer.check d ~now ~meta (packet ~dst ~payload:"" ()))
  in
  (* Exhaust the 50-byte burst for one destination at t=0... *)
  send 0. "192.168.0.1";
  send 0. "192.168.0.1";
  checkb "burst exhausted" true
    (match
       Data_enforcer.check d ~now:0. ~meta (packet ~dst:"192.168.0.1" ())
     with
    | Data_enforcer.Blocked _ -> true
    | _ -> false);
  (* ...then churn fresh keys past the idle horizon: the stale bucket is
     evicted, so the key starts over at full burst (not mid-debt). *)
  send 20. "192.168.0.2";
  checkb "idle bucket forgotten" true
    (match
       Data_enforcer.check d ~now:20. ~meta
         (packet ~dst:"192.168.0.1" ~payload:"" ())
     with
    | Data_enforcer.Allowed _ -> true
    | _ -> false)

let () =
  Alcotest.run "fastpath"
    [
      ( "view",
        [
          Alcotest.test_case "accessors + round trip" `Quick
            test_view_accessors;
          Alcotest.test_case "validation matches decode" `Quick
            test_view_validation;
          Alcotest.test_case "ttl decrement matches re-encode" `Quick
            test_ttl_decrement_matches_reencode;
          QCheck_alcotest.to_alcotest prop_incremental_checksum;
        ] );
      ( "flow-cache",
        [
          Alcotest.test_case "hits after first packet" `Quick
            test_flow_cache_hits;
          Alcotest.test_case "invalidated by fib change" `Quick
            test_invalidate_on_fib_change;
          Alcotest.test_case "kept through attribute-only churn" `Quick
            test_attribute_churn_keeps_flow;
          Alcotest.test_case "invalidated by add_filter" `Quick
            test_invalidate_on_add_filter;
          Alcotest.test_case "invalidated by experiment attach" `Quick
            test_invalidate_on_experiment_attach;
          Alcotest.test_case "invalidated by owner churn" `Quick
            test_invalidate_on_owner_change;
          Alcotest.test_case "stateful shaper still runs per packet" `Quick
            test_shaper_under_cache;
          Alcotest.test_case "tail hit records equal the slow path's" `Quick
            (hit_records ~tail:true);
          Alcotest.test_case "tailless hit records equal the slow path's"
            `Quick (hit_records ~tail:false);
          QCheck_alcotest.to_alcotest prop_cached_equals_slow;
        ] );
      ( "enforcer",
        [
          Alcotest.test_case "add_filter order + per-filter stats" `Quick
            test_add_filter_order_and_stats;
          Alcotest.test_case "shaper evicts idle buckets" `Quick
            test_shaper_bucket_eviction;
        ] );
    ]
