(* Tests for the data-plane fast path: zero-copy packet views (wire-offset
   accessors, validation) and the generation-stamped per-neighbor flow
   cache, held differentially against the record slow path. *)

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
  checki "src bits" (Ipv4.to_bits p.Ipv4_packet.src)
    (Ipv4_packet.View.src_bits v);
  checki "bits are unsigned" 0xb8a4e001 (Ipv4_packet.View.src_bits v);
  checki "dst bits" (Ipv4.to_bits p.Ipv4_packet.dst)
    (Ipv4_packet.View.dst_bits v);
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

(* The owner cache, consulted per inbound packet, returns a hit as
   stored, positive or negative, allocating nothing. *)
let test_owner_hit_allocates_nothing () =
  let fx = make_router () in
  Router_state.owner_insert fx.router
    (pfx "184.164.224.0/24")
    (Router_state.Local_exp "exp001");
  let owned = ip "184.164.224.9" and foreign = ip "192.168.0.9" in
  let lookups () =
    for _ = 1 to 1_000 do
      ignore (Sys.opaque_identity (Router_state.owner_lookup fx.router owned));
      ignore (Sys.opaque_identity (Router_state.owner_lookup fx.router foreign))
    done
  in
  lookups ();
  let words f =
    let before = Gc.minor_words () in
    f ();
    Gc.minor_words () -. before
  in
  let empty = words ignore in
  let hits = words lookups in
  checki "0 words per cached hit" 0 (int_of_float (hits -. empty));
  checkb "the hits return the stored owners" true
    (match
       ( Router_state.owner_lookup fx.router owned,
         Router_state.owner_lookup fx.router foreign )
     with
    | Some (Router_state.Local_exp "exp001"), None -> true
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

(* Flow entries stamp the owner-table generation. The owning experiment
   re-announcing its prefix with other attributes leaves the owner as it
   was, so the flow stays a hit; the experiment's withdrawal removes the
   owner and must force a miss. *)
let test_owner_reannounce_keeps_flow () =
  let fx = make_router () in
  announce fx (pfx "192.168.0.0/24");
  let grant =
    Control_enforcer.grant ~asns:[ asn 61574 ]
      ~prefixes:[ pfx "184.164.224.0/24" ]
      "exp001"
  in
  ignore
    (Router.connect_experiment fx.router ~grant ~mac:(Mac.local ~pool:2 1) ());
  let exp_prefix = pfx "184.164.224.0/24" in
  let exp_update ?med ~withdraw () =
    let attrs =
      Attr.origin_attrs
        ~as_path:(Aspath.of_asns [ asn 61574 ])
        ~next_hop:(ip "184.164.224.1") ()
    in
    let attrs =
      match med with Some m -> Attr.with_med m attrs | None -> attrs
    in
    let u =
      if withdraw then Msg.update ~withdrawn:[ Msg.nlri exp_prefix ] ()
      else Msg.update ~attrs ~announced:[ Msg.nlri exp_prefix ] ()
    in
    match Router.process_experiment_update fx.router ~experiment:"exp001" u with
    | Ok () -> ()
    | Error reasons -> Alcotest.fail (String.concat "; " reasons)
  in
  exp_update ~withdraw:false ();
  let p = packet ~dst:"192.168.0.9" () in
  fwd fx p;
  fwd fx p;
  let c = Router.counters fx.router in
  checki "warm" 1 c.Router.flow_hits;
  for med = 1 to 3 do
    exp_update ~med ~withdraw:false ();
    fwd fx p
  done;
  checkb "the re-announcements were recorded" true
    (match Router_state.experiment fx.router "exp001" with
    | Some e -> (
        match Hashtbl.find_opt e.Router_state.routes exp_prefix with
        | Some { contents = [ v ] } ->
            Attr.med (Bgp.Attr_arena.set v.Router_state.v_attrs) = Some 3
        | _ -> false)
    | None -> false);
  checki "one miss" 1 c.Router.flow_misses;
  checki "hits through the owner's re-announcements" 4 c.Router.flow_hits;
  exp_update ~withdraw:true ();
  fwd fx p;
  checki "the owner's withdrawal forces a miss" 2 c.Router.flow_misses;
  checki "every frame delivered" 6 (List.length !(fx.delivered))

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

(* -- per-hit allocation ------------------------------------------------------------- *)

(* Minor-heap words a string of [n] bytes takes: a header word plus
   [n + 1] bytes (the padding byte) rounded up to whole words. *)
let string_words n = 1 + ((n + 8) / 8)

(* What a tailless hit allocates besides its payload copy: the view's
   [Ok], the record and its two boxed addresses, the enforcement
   metadata, the clock reading and the neighbor lookup's option. *)
let hit_overhead = 22

(* The minor words of one flow-cache hit on a frame built beforehand,
   delivered to a neighbor that allocates nothing. *)
let words_per_hit ?data ~payload () =
  let fx = make_router ?data () in
  announce fx (pfx "192.168.0.0/24");
  let delivered = ref 0 in
  let ns = Option.get (Router.neighbor fx.router fx.n1) in
  ns.Router.deliver <- (fun _ -> incr delivered);
  let frame =
    {
      Eth.dst = ns.Router.info.Neighbor.virtual_mac;
      src = Mac.local ~pool:9 9;
      ethertype = Eth.Ipv4;
      payload =
        Ipv4_packet.encode
          (packet ~dst:"192.168.0.9" ~payload:(String.make payload 'p') ());
    }
  in
  let go () =
    Router.forward_experiment_frame fx.router ~neighbor_id:fx.n1 frame
  in
  (* The miss, then a first hit. *)
  go ();
  go ();
  let words f =
    let before = Gc.minor_words () in
    f ();
    Gc.minor_words () -. before
  in
  let empty = words ignore in
  let hit = words go in
  checki "every frame delivered" 3 !delivered;
  checki "two hits" 2 (Router.counters fx.router).Router.flow_hits;
  int_of_float (hit -. empty)

(* A hit copies the payload once, into the record it forwards, and
   otherwise allocates a fixed overhead whatever the frame's size. When
   views copied the frame, the 1,472 B hit also paid a copy of the whole
   frame and 22 more words (418 words in all). *)
let test_hit_allocation () =
  checki "minimum-size hit: the overhead plus one payload copy"
    (hit_overhead + string_words 26)
    (words_per_hit ~payload:26 ());
  checki "1,472 B hit: the overhead plus one payload copy"
    (hit_overhead + string_words 1472)
    (words_per_hit ~payload:1472 ());
  (* With a stateful tail the hit forwards the record the tail ran on,
     TTL decremented in place: still one payload copy. *)
  let tailed payload =
    let d = Data_enforcer.create () in
    Data_enforcer.add_filter d
      (Data_enforcer.shaper ~name:"pop-shaper" ~rate:0. ~burst:1e9
         ~key_of:(fun _ -> "pop") ());
    words_per_hit ~data:d ~payload ()
  in
  checki "tail hit: one payload copy"
    (string_words 1472 - string_words 26)
    (tailed 1472 - tailed 26)

(* -- flow key ---------------------------------------------------------------------- *)

(* Frames that differ in only one part of the key — source MAC, source
   address, destination address — never share an entry. The address
   variants differ in the top bit alone, the sign of their [int32]. *)
let test_flow_key_parts () =
  let fx = make_router () in
  announce fx (pfx "192.168.0.0/24");
  announce fx (pfx "64.168.0.0/24");
  let mac = Mac.local ~pool:9 9 in
  let variants =
    [
      (mac, packet ~src:"184.164.224.1" ~dst:"192.168.0.9" ());
      (Mac.local ~pool:9 10, packet ~src:"184.164.224.1" ~dst:"192.168.0.9" ());
      (mac, packet ~src:"56.164.224.1" ~dst:"192.168.0.9" ());
      (mac, packet ~src:"184.164.224.1" ~dst:"64.168.0.9" ());
    ]
  in
  let c = Router.counters fx.router in
  List.iter (fun (src_mac, p) -> fwd fx ~src_mac p) variants;
  checki "each variant misses once" 4 c.Router.flow_misses;
  checki "no variant hits another's entry" 0 c.Router.flow_hits;
  List.iter (fun (src_mac, p) -> fwd fx ~src_mac p) variants;
  checki "then each hits its own" 4 c.Router.flow_hits;
  checki "and misses no more" 4 c.Router.flow_misses;
  checkb "each delivered with its own destination" true
    (List.sort compare
       (List.map (fun q -> Ipv4.to_string q.Ipv4_packet.dst) !(fx.delivered))
    = [ "192.168.0.9"; "192.168.0.9"; "192.168.0.9"; "192.168.0.9";
        "192.168.0.9"; "192.168.0.9"; "64.168.0.9"; "64.168.0.9" ])

type table_op = Replace of int * int | Find of int | Reset

(* 100 keys from combinations of extreme parts: MACs at 0, 1 and the top
   of their 48 bits, addresses around 2^31 (the [int32] sign) and at
   both ends. *)
let table_keys =
  let macs = [| 0; 1; 0x7fffffffffff; 0xffffffffffff |] in
  let addrs = [| 0; 1; 0x7fffffff; 0x80000000; 0xffffffff |] in
  Array.init 100 (fun i ->
      (macs.(i mod 4), addrs.(i / 4 mod 5), addrs.(i / 20 mod 5)))

let prop_flow_table_model =
  QCheck.Test.make ~name:"flow table matches a Hashtbl model" ~count:200
    (QCheck.make
       QCheck.Gen.(
         list_size (int_range 1 400)
           (frequency
              [
                (8, map2 (fun k v -> Replace (k, v)) (int_bound 99) nat);
                (8, map (fun k -> Find k) (int_bound 99));
                (1, return Reset);
              ])))
    (fun ops ->
      let t = Flow_table.create () in
      let model = Hashtbl.create 16 in
      List.for_all
        (fun op ->
          (match op with
          | Replace (k, v) ->
              let mac, src, dst = table_keys.(k) in
              Flow_table.replace t ~mac ~src ~dst v;
              Hashtbl.replace model k v
          | Find _ -> ()
          | Reset ->
              Flow_table.reset t;
              Hashtbl.reset model);
          Flow_table.length t = Hashtbl.length model
          &&
          match op with
          | Find k | Replace (k, _) ->
              let mac, src, dst = table_keys.(k) in
              Flow_table.find t ~mac ~src ~dst = Hashtbl.find_opt model k
          | Reset -> true)
        ops)

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
          Alcotest.test_case "kept through the owner's re-announcements"
            `Quick test_owner_reannounce_keeps_flow;
          Alcotest.test_case "stateful shaper still runs per packet" `Quick
            test_shaper_under_cache;
          Alcotest.test_case "tail hit records equal the slow path's" `Quick
            (hit_records ~tail:true);
          Alcotest.test_case "tailless hit records equal the slow path's"
            `Quick (hit_records ~tail:false);
          QCheck_alcotest.to_alcotest prop_cached_equals_slow;
          Alcotest.test_case "an owner-cache hit allocates nothing" `Quick
            test_owner_hit_allocates_nothing;
          Alcotest.test_case "a hit copies the payload once" `Quick
            test_hit_allocation;
          Alcotest.test_case "key parts never share an entry" `Quick
            test_flow_key_parts;
          QCheck_alcotest.to_alcotest prop_flow_table_model;
        ] );
      ( "enforcer",
        [
          Alcotest.test_case "add_filter order + per-filter stats" `Quick
            test_add_filter_order_and_stats;
          Alcotest.test_case "shaper evicts idle buckets" `Quick
            test_shaper_bucket_eviction;
        ] );
    ]
