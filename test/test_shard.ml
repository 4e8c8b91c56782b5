(* Tests for the domain-sharded data plane: the domain-safe attribute
   arena under parallel intern storms, flow-to-domain placement, counter
   aggregation across worker domains, staleness refresh against the
   published control snapshot, and the sharded-vs-sequential
   differential (identical delivery multisets, counters, and shaper
   debits with [?domains:4] vs the single-domain path). *)

open Netcore
open Bgp
open Vbgp

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let asn = Asn.of_int
let ip = Ipv4.of_string_exn
let pfx = Prefix.of_string_exn

(* -- attribute arena across domains ------------------------------------------------ *)

(* The i-th of [distinct] overlapping attribute sets (same shape the
   bench harness uses: path, next hop and MED vary with i). *)
let stress_attrs ~distinct i =
  let i = i mod distinct in
  Attr.origin_attrs
    ~as_path:(Aspath.of_asns [ asn (1000 + i); asn (2000 + (i * 7 mod 97)) ])
    ~next_hop:(Ipv4.of_int32 (Int32.of_int (0x0a000000 lor i)))
    ()
  |> Attr.with_med (i mod 50)

let test_arena_domain_stress () =
  let arena = Attr_arena.create () in
  let distinct = 64 and per_domain = 2_000 in
  let storm () =
    Array.init per_domain (fun i ->
        Attr_arena.intern ~arena (stress_attrs ~distinct i))
  in
  let spawned = Array.init 3 (fun _ -> Domain.spawn storm) in
  let own = storm () in
  let others = Array.map Domain.join spawned in
  (* Every domain resolved set [i] to the same canonical handle. *)
  Array.iter
    (fun handles ->
      Array.iteri
        (fun i h ->
          checkb "same canonical handle across domains" true
            (Attr_arena.equal h handles.(i)))
        own)
    others;
  let s = Attr_arena.stats ~arena () in
  checki "one allocation per distinct set" distinct s.Attr_arena.misses;
  checki "everything else hit"
    ((4 * per_domain) - distinct)
    s.Attr_arena.hits

(* -- flow placement ---------------------------------------------------------------- *)

let test_domain_of_flow () =
  let mac i = Mac.local ~pool:0xe1 (1 + (i land 7)) in
  let addr i = Ipv4.of_int32 (Int32.of_int (0xb8a4e000 lor i)) in
  for f = 0 to 255 do
    let d =
      Shard.domain_of_flow ~domains:4 ~src_mac:(mac f) ~src:(addr f)
        ~dst:(addr (f * 31))
    in
    checkb "deterministic" true
      (d
      = Shard.domain_of_flow ~domains:4 ~src_mac:(mac f) ~src:(addr f)
          ~dst:(addr (f * 31)));
    checkb "in range" true (d >= 0 && d < 4);
    checki "single domain pins to 0" 0
      (Shard.domain_of_flow ~domains:1 ~src_mac:(mac f) ~src:(addr f)
         ~dst:(addr (f * 31)))
  done;
  (* 256 flows over 4 domains: the mix must not starve any domain. *)
  let load = Array.make 4 0 in
  for f = 0 to 255 do
    let d =
      Shard.domain_of_flow ~domains:4 ~src_mac:(mac f) ~src:(addr f)
        ~dst:(addr (f * 31))
    in
    load.(d) <- load.(d) + 1
  done;
  Array.iteri
    (fun i n ->
      checkb (Printf.sprintf "domain %d gets a fair share" i) true (n >= 32))
    load

(* -- router fixture ---------------------------------------------------------------- *)

type fx = {
  router : Router.t;
  n1 : int;
  delivered : Ipv4_packet.t list ref;
}

let make_router ?data ?(domains = 1) () =
  let engine = Sim.Engine.create () in
  let global_pool =
    Addr_pool.create ~base:(pfx "127.127.0.0/16") ~mac_pool:0x7f
  in
  let router =
    Router.create ~engine ~name:"shard" ~asn:(asn 47065)
      ~router_id:(ip "10.255.0.1") ~primary_ip:(ip "10.255.0.1")
      ~local_pool:(pfx "127.65.0.0/16") ~global_pool ?data ~domains ()
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
  { router; n1; delivered }

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

let vmac fx =
  match Router.neighbor fx.router fx.n1 with
  | Some ns -> ns.Router.info.Neighbor.virtual_mac
  | None -> Mac.zero

let prefixes =
  [|
    pfx "192.168.0.0/24"; pfx "192.168.1.0/24"; pfx "10.9.0.0/16";
    pfx "172.16.0.0/24";
  |]

let dsts = [| "192.168.0.7"; "192.168.1.7"; "10.9.0.7"; "172.16.0.7" |]
let srcs = [| "184.164.224.1"; "184.164.224.2" |]
let ttls = [| 1; 2; 64 |]

(* The frame for flow spec (flow, ttl index, payload length): a fixed
   source MAC, so the flow key is (MAC, src, dst) with 8 distinct
   combinations spreading across the domains. *)
let frame_of fx (flow, ttl_i, payload_len) =
  {
    Eth.dst = vmac fx;
    src = Mac.local ~pool:9 9;
    ethertype = Eth.Ipv4;
    payload =
      Ipv4_packet.encode
        (Ipv4_packet.make
           ~src:(ip srcs.(flow mod Array.length srcs))
           ~dst:(ip dsts.(flow mod Array.length dsts))
           ~ttl:ttls.(ttl_i mod Array.length ttls)
           ~protocol:Ipv4_packet.Udp
           (String.make (payload_len mod 32) 'x'));
  }

(* -- counter aggregation ----------------------------------------------------------- *)

let test_counter_aggregation () =
  let fx = make_router ~domains:4 () in
  announce fx prefixes.(0);
  announce fx prefixes.(1);
  let n = 300 in
  let frames =
    Array.init n (fun i -> frame_of fx (i land 7, 2, i mod 32))
  in
  Router.forward_frames fx.router frames;
  Router.forward_frames fx.router frames;
  let c = Router.counters fx.router in
  (* Every frame is accounted exactly once across the fold: it either
     hit or missed a flow cache, and was either forwarded or dropped. *)
  checki "hits + misses = frames" (2 * n)
    (c.Router.flow_hits + c.Router.flow_misses);
  checki "forwarded + dropped = frames" (2 * n)
    (c.Router.packets_to_neighbors + c.Router.packets_dropped);
  checki "deliveries match the forwarded count" c.Router.packets_to_neighbors
    (List.length !(fx.delivered));
  checkb "the second batch is all hits" true (c.Router.flow_hits >= n);
  Router.shutdown_domains fx.router

let test_stale_refresh () =
  (* Withdraw between batches: the workers must observe the republished
     snapshot and drop — a stale cached forward may not survive. *)
  let fx = make_router ~domains:4 () in
  announce fx prefixes.(0);
  let frames = Array.init 64 (fun i -> frame_of fx (i land 7, 2, 4)) in
  Router.forward_frames fx.router frames;
  let delivered_before = List.length !(fx.delivered) in
  checkb "warm batch delivered" true (delivered_before > 0);
  withdraw fx prefixes.(0);
  Router.forward_frames fx.router frames;
  checki "no stale delivery after withdraw" delivered_before
    (List.length !(fx.delivered));
  announce fx prefixes.(0);
  Router.forward_frames fx.router frames;
  checkb "delivery resumes after re-announce" true
    (List.length !(fx.delivered) > delivered_before);
  Router.shutdown_domains fx.router

let shard_pool fx =
  match fx.router.Router_state.pool with
  | Some pool -> pool
  | None -> Alcotest.fail "sharded router has no worker pool"

(* Attribute-only churn changes no FIB binding, so it must not move the
   snapshot fingerprint: no republication, no worker-cache flush, and
   the sharded output still equals the sequential one. *)
let test_attribute_churn_keeps_snapshot () =
  let par = make_router ~domains:4 () in
  let seq = make_router ~domains:1 () in
  let frames fx = Array.init 64 (fun i -> frame_of fx (i land 7, 2, 4)) in
  let both f =
    f par;
    f seq
  in
  both (fun fx ->
      announce fx prefixes.(0);
      announce fx prefixes.(1);
      Router.forward_frames fx.router (frames fx));
  let pool = shard_pool par in
  let fp = par.router.Router_state.shard_fp in
  let gen = Shard.generation pool in
  for round = 1 to 3 do
    both (fun fx ->
        announce ~path:[ 200 + round ] fx prefixes.(0);
        announce ~path:[ 300; 300 + round ] fx prefixes.(1);
        Router.forward_frames fx.router (frames fx))
  done;
  checkb "fingerprint unchanged by attribute-only churn" true
    (par.router.Router_state.shard_fp = fp);
  checki "no snapshot republished" gen (Shard.generation pool);
  (* A genuine FIB change still republishes. *)
  both (fun fx ->
      withdraw fx prefixes.(1);
      Router.forward_frames fx.router (frames fx));
  checkb "withdraw moves the fingerprint" true
    (par.router.Router_state.shard_fp <> fp);
  checkb "withdraw republishes" true (Shard.generation pool > gen);
  let multiset l = List.sort compare l in
  checkb "sharded deliveries equal sequential" true
    (multiset !(par.delivered) = multiset !(seq.delivered));
  checki "sharded forwards equal sequential"
    (Router.counters seq.router).Router.packets_to_neighbors
    (Router.counters par.router).Router.packets_to_neighbors;
  Router.shutdown_domains par.router

(* -- differential: sharded == sequential ------------------------------------------- *)

type op =
  | Fwd of (int * int * int) list  (* batch of (flow, ttl, payload) specs *)
  | Announce of int
  | Reannounce_path of int * int  (* prefix index, AS-path variant *)
  | Withdraw of int
  | Add_noop_filter

(* A stateless head (blocks one destination block) plus a stateful
   per-flow shaper tail (non-refilling, so debits are exact and
   cumulative): random runs mix memoized blocks, memoized forwards,
   shaper blocks, and TTL expiry. The shaper key is the flow's
   (src, dst) pair — the same key the domain hash pins, so sharded
   debits must equal sequential ones exactly. *)
let diff_chain () =
  let d = Data_enforcer.create () in
  Data_enforcer.add_filter d
    (Data_enforcer.filter ~stateless:true ~name:"no-10-9"
       (fun ~now:_ ~meta:_ (p : Ipv4_packet.t) ->
         if Prefix.mem p.Ipv4_packet.dst (pfx "10.9.0.0/16") then
           Data_enforcer.Block "blackholed destination"
         else Data_enforcer.Allow));
  Data_enforcer.add_filter d
    (Data_enforcer.shaper ~name:"flow-shaper" ~rate:0. ~burst:600.
       ~key_of:(fun (p : Ipv4_packet.t) ->
         Ipv4.to_string p.Ipv4_packet.src ^ ">" ^ Ipv4.to_string p.Ipv4_packet.dst)
       ());
  d

let apply_op fx = function
  | Fwd specs ->
      Router.forward_frames fx.router
        (Array.of_list (List.map (frame_of fx) specs))
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
          map
            (fun specs -> Fwd specs)
            (list_size (int_range 1 24)
               (triple (int_bound 7) (int_bound 2) (int_bound 31))) );
        (1, map (fun i -> Announce i) (int_bound 3));
        ( 1,
          map2 (fun i v -> Reannounce_path (i, v)) (int_bound 3) (int_bound 3)
        );
        (1, map (fun i -> Withdraw i) (int_bound 3));
        (1, return Add_noop_filter);
      ])

let prop_sharded_equals_sequential =
  QCheck.Test.make ~name:"sharding is invisible except for parallelism"
    ~count:25
    (QCheck.make (QCheck.Gen.list_size (QCheck.Gen.int_range 1 40) gen_op))
    (fun ops ->
      let par = make_router ~data:(diff_chain ()) ~domains:4 () in
      let seq = make_router ~data:(diff_chain ()) ~domains:1 () in
      announce par prefixes.(0);
      announce seq prefixes.(0);
      List.iter
        (fun op ->
          apply_op par op;
          apply_op seq op)
        ops;
      (* Force one last (possibly empty) drain so the snapshot reflects
         any trailing control mutation before comparing chain stats. *)
      Router.forward_frames par.router [||];
      let pool = shard_pool par in
      let pc = Router.counters par.router in
      let sc = Router.counters seq.router in
      let multiset l = List.sort compare l in
      let ok =
        multiset !(par.delivered) = multiset !(seq.delivered)
        && pc.Router.packets_to_neighbors = sc.Router.packets_to_neighbors
        && pc.Router.packets_to_experiments = sc.Router.packets_to_experiments
        && pc.Router.packets_over_backbone = sc.Router.packets_over_backbone
        && pc.Router.packets_dropped = sc.Router.packets_dropped
        && pc.Router.icmp_sent = sc.Router.icmp_sent
        && Shard.enforcer_stats pool
           = Data_enforcer.stats (Router.data_enforcer seq.router)
        && Shard.filter_stats pool
           = Data_enforcer.filter_stats (Router.data_enforcer seq.router)
        (* Hit/miss counts are NOT compared: sharded flow entries carry
           one snapshot generation instead of the sequential path's
           three stamps, so invalidation is coarser — verdicts and
           effects match, cache statistics may not. *)
      in
      Router.shutdown_domains par.router;
      ok)

let () =
  Alcotest.run "shard"
    [
      ( "arena",
        [
          Alcotest.test_case "4-domain intern storm converges" `Quick
            test_arena_domain_stress;
        ] );
      ( "placement",
        [
          Alcotest.test_case "flow-to-domain hash" `Quick test_domain_of_flow;
        ] );
      ( "aggregation",
        [
          Alcotest.test_case "counters fold without loss" `Quick
            test_counter_aggregation;
          Alcotest.test_case "stale snapshot refresh on withdraw" `Quick
            test_stale_refresh;
          Alcotest.test_case "attribute-only churn keeps the snapshot" `Quick
            test_attribute_churn_keeps_snapshot;
        ] );
      ( "differential",
        [ QCheck_alcotest.to_alcotest prop_sharded_equals_sequential ] );
    ]
