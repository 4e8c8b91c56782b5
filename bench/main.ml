(* The benchmark harness: regenerates every table and figure of the paper's
   evaluation (§4.2, §6, Table 1, §4.7) against this reproduction. Run all
   experiments with

     dune exec bench/main.exe

   or a single one by name:

     dune exec bench/main.exe -- fig6a fig6b throughput amsix table1 census
                                 security ratelimit fleet ablate fwd
                                 export-par fullscale

   [--smoke] shrinks the runs and checks their headline numbers, exiting
   non-zero when one fails; [make check] runs

     dune exec bench/main.exe -- --smoke fwd export-par fullscale

   Paper-vs-measured numbers for each experiment are recorded in
   EXPERIMENTS.md. Absolute numbers differ from the paper's (their substrate
   was BIRD on Xeon servers; ours is an OCaml simulator), but the shapes —
   linear scaling, who wins, where limits bind — are the reproduction
   targets. *)

open Netcore
open Bgp

let asn = Asn.of_int
let ip = Ipv4.of_string_exn
let pfx = Prefix.of_string_exn

let section title = Fmt.pr "@.=== %s ===@." title

(* -- smoke mode (--smoke) ------------------------------------------------- *)

(* [--smoke] runs each experiment at a small size and checks what it
   measures: [expect] keeps every failed check, and the run prints them
   and exits 1 at the end. Full-size runs only report. *)
let smoke = ref false
let smoke_failures = ref []

let expect ok fmt =
  Fmt.kstr
    (fun what ->
      if !smoke && not ok then smoke_failures := what :: !smoke_failures)
    fmt

let words_to_mb words = float_of_int (words * (Sys.word_size / 8)) /. 1e6

(* Synthetic route attributes. With the default [distinct] every route
   gets its own attribute set (the worst case for sharing); passing
   [~distinct:k] folds the stream onto [k] distinct sets, modelling the
   real-world shape where many routes repeat the same path attributes
   (and letting the arena intern them onto shared canonical copies). *)
let synth_attrs ?(distinct = max_int) i =
  let i = i mod distinct in
  Attr.origin_attrs
    ~as_path:
      (Aspath.of_asns
         [
           asn (1000 + (i mod 977));
           asn (2000 + (i mod 499));
           asn (3000 + (i mod 211));
         ])
    ~next_hop:(Ipv4.of_int32 (Int32.of_int (0x0a000000 lor (i land 0xffffff))))
    ()
  |> Attr.with_med (i mod 100)

(* The i-th synthetic prefix: distinct /24s. *)
let synth_prefix i =
  Prefix.make (Ipv4.of_int32 (Int32.of_int ((i lsl 8) lor 0x40000000))) 24

(* ------------------------------------------------------------------------- *)
(* Figure 6a: memory vs number of known routes, three configurations.        *)
(* ------------------------------------------------------------------------- *)

let neighbors_6a = 8

(* Control plane only: one RIB holding all routes. [attrs_of] picks the
   attribute stream; [Rib.Route.make] interns, so repeated sets share
   one canonical copy in the arena. *)
let build_control_plane ?(attrs_of = synth_attrs ?distinct:None) n =
  let table = Rib.Table.create () in
  for i = 0 to n - 1 do
    let peer = i mod neighbors_6a in
    let route =
      Rib.Route.make
        ~prefix:(synth_prefix (i / neighbors_6a))
        ~attrs:(attrs_of i)
        ~source:
          (Rib.Route.source
             ~peer_ip:(Ipv4.of_int32 (Int32.of_int (0x64400001 + peer)))
             ~peer_asn:(asn (100 + peer)) ())
        ()
    in
    ignore (Rib.Table.update table route)
  done;
  table

(* vBGP: + one FIB entry per route in the owning neighbor's kernel table. *)
let build_data_plane n =
  let table = build_control_plane n in
  let fibs = Rib.Fib.Set.create () in
  for i = 0 to n - 1 do
    let peer = i mod neighbors_6a in
    Rib.Fib.insert
      (Rib.Fib.Set.table fibs peer)
      (synth_prefix (i / neighbors_6a))
      {
        Rib.Fib.next_hop = Ipv4.of_int32 (Int32.of_int (0x64400001 + peer));
        neighbor = peer;
      }
  done;
  (table, fibs)

(* + default: the router additionally keeps its own best-path kernel FIB
   in sync (needed only if the vBGP node also routes production traffic). *)
let build_data_plane_with_default n =
  let table, fibs = build_data_plane n in
  let default_fib = Rib.Fib.create () in
  Rib.Table.iter_best
    (fun prefix r ->
      Rib.Fib.insert default_fib prefix
        {
          Rib.Fib.next_hop =
            (match Rib.Route.next_hop r with Some nh -> nh | None -> Ipv4.any);
          neighbor = 0;
        })
    table;
  (table, fibs, default_fib)

(* The attribute stream of the sharing rows: 4096 distinct sets folded
   over the table, the shape of a real feed where many routes repeat the
   same path attributes. Interning stores each set once. *)
let fig6a_shared_distinct = 4096

let fig6a () =
  section "Figure 6a: memory vs known routes";
  Fmt.pr "%-10s %-16s %-16s %-22s %-26s@." "routes" "control plane"
    "cp (shared)" "per-interconn. dp" "per-interconn. dp w/ default";
  let sweep = [ 25_000; 50_000; 100_000; 200_000 ] in
  let per_route = ref [] in
  List.iter
    (fun n ->
      let cp = build_control_plane n in
      let cp_mb = words_to_mb (Obj.reachable_words (Obj.repr cp)) in
      let cps =
        build_control_plane
          ~attrs_of:(synth_attrs ~distinct:fig6a_shared_distinct)
          n
      in
      let cps_mb = words_to_mb (Obj.reachable_words (Obj.repr cps)) in
      let dp = build_data_plane n in
      let dp_mb = words_to_mb (Obj.reachable_words (Obj.repr dp)) in
      let dpd = build_data_plane_with_default n in
      let dpd_mb = words_to_mb (Obj.reachable_words (Obj.repr dpd)) in
      per_route := (n, cp_mb, cps_mb, dp_mb, dpd_mb) :: !per_route;
      Fmt.pr "%-10d %-16s %-16s %-22s %-26s@." n
        (Fmt.str "%.1f MB" cp_mb)
        (Fmt.str "%.1f MB" cps_mb)
        (Fmt.str "%.1f MB" dp_mb)
        (Fmt.str "%.1f MB" dpd_mb))
    sweep;
  (* Linearity check and per-route cost (paper: ~327 B/route in BIRD; a
     32 GiB server serves 100M routes). *)
  (match !per_route with
  | (n2, cp2, cps2, dp2, dpd2) :: _ ->
      let cp_bytes = cp2 *. 1e6 /. float_of_int n2 in
      let cps_bytes = cps2 *. 1e6 /. float_of_int n2 in
      let dp_bytes = dp2 *. 1e6 /. float_of_int n2 in
      let dpd_bytes = dpd2 *. 1e6 /. float_of_int n2 in
      Fmt.pr
        "per-route cost: control=%.0f B, shared-attrs control=%.0f B, \
         +data-plane=%.0f B, +default=%.0f B (paper control plane: 327 B)@."
        cp_bytes cps_bytes dp_bytes dpd_bytes;
      Fmt.pr
        "a 32 GiB server supports %.0fM routes in the control-plane \
         configuration (paper: 100M), %.0fM with interned shared attrs@."
        (32. *. 1024. *. 1024. *. 1024. /. cp_bytes /. 1e6)
        (32. *. 1024. *. 1024. *. 1024. /. cps_bytes /. 1e6)
  | [] -> ());
  (* Shape check: memory grows linearly with route count. *)
  match (!per_route, List.rev !per_route) with
  | (nbig, big, _, _, _) :: _, (nsmall, small, _, _, _) :: _ ->
      Fmt.pr "linearity: %.0fx routes -> %.1fx memory@."
        (float_of_int nbig /. float_of_int nsmall)
        (big /. small)
  | _ -> ()

(* ------------------------------------------------------------------------- *)
(* Figure 6b: CPU utilization vs rate of updates, three configurations.      *)
(* ------------------------------------------------------------------------- *)

(* Pre-encoded synthetic update stream from a neighbor. *)
let encoded_updates n =
  Array.init n (fun i ->
      Codec.encode
        (Msg.Update
           (Msg.update ~attrs:(synth_attrs i)
              ~announced:[ Msg.nlri (synth_prefix (i mod 50_000)) ]
              ())))

let time_per_update name f stream =
  (* Warm up, then measure. *)
  let warmup = min 2_000 (Array.length stream) in
  for i = 0 to warmup - 1 do
    f stream.(i)
  done;
  let t0 = Unix.gettimeofday () in
  Array.iter f stream;
  let dt = Unix.gettimeofday () -. t0 in
  let per = dt /. float_of_int (Array.length stream) in
  Fmt.pr "%-22s %.2f us/update (%.0f updates/s sustainable)@." name
    (per *. 1e6) (1. /. per);
  per

(* A vBGP router fixture with [experiments] connected experiment sessions
   and optionally a backbone mesh peer. Session sends are synchronous, so
   the pipeline can be driven and timed without running the event engine. *)
let make_bench_router ?caps ?data ?(flow_cache = true) ~experiments ~mesh () =
  let engine = Sim.Engine.create () in
  let global_pool =
    Vbgp.Addr_pool.create ~base:(pfx "127.127.0.0/16") ~mac_pool:0x7f
  in
  let router =
    Vbgp.Router.create ~engine ~name:"bench" ~asn:(asn 47065)
      ~router_id:(ip "10.255.0.1") ~primary_ip:(ip "10.255.0.1")
      ~local_pool:(pfx "127.65.0.0/16") ~global_pool ?data ~flow_cache ()
  in
  Vbgp.Router.activate router;
  let neighbor_id, npair =
    Vbgp.Router.add_neighbor router ~asn:(asn 100) ~ip:(ip "100.64.0.1")
      ~kind:Vbgp.Neighbor.Transit ~remote_id:(ip "100.64.0.1") ()
  in
  Sim.Bgp_wire.start npair;
  for i = 1 to experiments do
    let grant =
      Vbgp.Control_enforcer.grant ~asns:[ asn 61574 ]
        ~prefixes:[ pfx "184.164.224.0/24" ]
        ?caps
        (Printf.sprintf "bench%d" i)
    in
    let pair =
      Vbgp.Router.connect_experiment router ~grant
        ~mac:(Mac.local ~pool:0xe0 i) ()
    in
    Sim.Bgp_wire.start pair
  done;
  if mesh then begin
    let router2 =
      Vbgp.Router.create ~engine ~name:"bench2" ~asn:(asn 47065)
        ~router_id:(ip "10.255.0.2") ~primary_ip:(ip "10.255.0.2")
        ~local_pool:(pfx "127.66.0.0/16") ~global_pool ()
    in
    Vbgp.Router.activate router2;
    ignore (Vbgp.Router.connect_mesh router router2 ())
  end;
  Sim.Engine.run_until engine 10.;
  (router, neighbor_id)

let fig6b () =
  section "Figure 6b: CPU utilization vs rate of updates";
  let n = 30_000 in
  let stream = encoded_updates n in
  (* accept: decode and store, no vBGP machinery (BIRD's "accept all"). *)
  let accept_table = Rib.Table.create () in
  let accept_source =
    Rib.Route.source ~peer_ip:(ip "100.64.0.1") ~peer_asn:(asn 100) ()
  in
  let t_accept =
    time_per_update "accept"
      (fun bytes ->
        match Codec.decode_exn bytes with
        | Msg.Update u ->
            List.iter
              (fun (nl : Msg.nlri) ->
                ignore
                  (Rib.Table.update accept_table
                     (Rib.Route.make ~prefix:nl.Msg.prefix ~attrs:u.Msg.attrs
                        ~source:accept_source ())))
              u.Msg.announced
        | _ -> ())
      stream
  in
  (* single-router vBGP: the full ingress pipeline with one experiment
     (per-neighbor RIB + FIB + next-hop rewrite + ADD-PATH re-export). *)
  let router, neighbor_id = make_bench_router ~experiments:1 ~mesh:false () in
  let t_single =
    time_per_update "single-router vBGP"
      (fun bytes ->
        match Codec.decode_exn bytes with
        | Msg.Update u ->
            Vbgp.Router.process_neighbor_update router ~neighbor_id u
        | _ -> ())
      stream
  in
  (* multi-router vBGP: + backbone mesh export with global next-hop
     handling (§4.3-4.4). *)
  let router_m, neighbor_id_m = make_bench_router ~experiments:1 ~mesh:true () in
  let t_multi =
    time_per_update "multi-router vBGP"
      (fun bytes ->
        match Codec.decode_exn bytes with
        | Msg.Update u ->
            Vbgp.Router.process_neighbor_update router_m
              ~neighbor_id:neighbor_id_m u
        | _ -> ())
      stream
  in
  Fmt.pr "@.%-10s %-10s %-20s %-20s@." "upd/s" "accept" "single-router vBGP"
    "multi-router vBGP";
  List.iter
    (fun rate ->
      let cpu t = Float.min 100. (float_of_int rate *. t *. 100.) in
      Fmt.pr "%-10d %-10s %-20s %-20s@." rate
        (Fmt.str "%.1f%%" (cpu t_accept))
        (Fmt.str "%.1f%%" (cpu t_single))
        (Fmt.str "%.1f%%" (cpu t_multi)))
    [ 500; 1000; 1500; 2000; 2500; 3000; 3500; 4000 ];
  Fmt.pr
    "shape: CPU grows linearly with rate; vBGP processing adds %.0f%% over \
     accept; multi-router adds %.0f%% over single-router@."
    ((t_single /. t_accept -. 1.) *. 100.)
    ((t_multi /. t_single -. 1.) *. 100.)

(* ------------------------------------------------------------------------- *)
(* §6: backbone TCP throughput between PoP pairs (iperf3 in the paper).      *)
(* ------------------------------------------------------------------------- *)

type region = Us_east | Us_west | Europe | Brazil

let pops_13 =
  [
    ("cornell", Us_east);
    ("gatech", Us_east);
    ("clemson", Us_east);
    ("columbia", Us_east);
    ("wisc", Us_east);
    ("utah", Us_west);
    ("uw", Us_west);
    ("ufmg", Brazil);
    ("ufms", Brazil);
    ("amsterdam", Europe);
    ("seattle", Us_west);
    ("phoenix", Us_west);
    ("isi", Us_west);
  ]

let rtt_between a b =
  match (a, b) with
  | Us_east, Us_east | Us_west, Us_west | Europe, Europe | Brazil, Brazil ->
      0.02
  | Us_east, Us_west | Us_west, Us_east -> 0.07
  | Us_east, Europe | Europe, Us_east -> 0.09
  | Us_west, Europe | Europe, Us_west -> 0.15
  | Us_east, Brazil | Brazil, Us_east -> 0.12
  | Us_west, Brazil | Brazil, Us_west -> 0.18
  | Europe, Brazil | Brazil, Europe -> 0.21

let throughput () =
  section "§6: backbone TCP throughput between PoP pairs";
  let rng = Random.State.make [| 13 |] in
  let results = ref [] in
  let mbps bytes_per_s = bytes_per_s *. 8. /. 1e6 in
  (* Per-site uplink capacity: two university sites are bandwidth
     constrained by agreement with their operators (§4.7). *)
  let uplink_mbps name =
    match name with
    | "ufms" -> 65.
    | "clemson" -> 110.
    | _ -> 600. +. Random.State.float rng 400.
  in
  let uplinks = List.map (fun (n, _) -> (n, uplink_mbps n)) pops_13 in
  List.iteri
    (fun i (na, ra) ->
      List.iteri
        (fun j (nb, rb) ->
          if i < j then begin
            (* Provisioned AL2S/RNP VLAN capacity varies per pair; loss is
               the educational-backbone background rate. *)
            let vlan_mbps = 350. +. Random.State.float rng 410. in
            let loss = 5e-9 +. Random.State.float rng 3e-7 in
            let rtt =
              rtt_between ra rb *. (0.9 +. Random.State.float rng 0.3)
            in
            let path =
              [
                Sim.Flow.link
                  ~capacity:(List.assoc na uplinks *. 1e6 /. 8.)
                  ~id:(i * 100);
                Sim.Flow.link ~capacity:(vlan_mbps *. 1e6 /. 8.)
                  ~id:((i * 16) + j + 2000);
                Sim.Flow.link
                  ~capacity:(List.assoc nb uplinks *. 1e6 /. 8.)
                  ~id:(j * 100);
              ]
            in
            let rate = Sim.Flow.tcp_throughput ~rtt ~loss path in
            results := (na, nb, mbps rate) :: !results
          end)
        pops_13)
    pops_13;
  let rates = List.map (fun (_, _, r) -> r) !results in
  let avg = List.fold_left ( +. ) 0. rates /. float_of_int (List.length rates) in
  let mn = List.fold_left Float.min infinity rates in
  let mx = List.fold_left Float.max neg_infinity rates in
  Fmt.pr "measured over %d PoP pairs (13 PoPs):@." (List.length rates);
  Fmt.pr "  average %.0f Mbps (paper: ~400)@." avg;
  Fmt.pr "  minimum %.0f Mbps (paper: 60)@." mn;
  Fmt.pr "  maximum %.0f Mbps (paper: 750)@." mx;
  let sorted =
    List.sort (fun (_, _, a) (_, _, b) -> Float.compare a b) !results
  in
  (match (sorted, List.rev sorted) with
  | (a1, a2, ar) :: _, (b1, b2, br) :: _ ->
      Fmt.pr "  slowest pair: %s-%s at %.0f Mbps (constrained site)@." a1 a2
        ar;
      Fmt.pr "  fastest pair: %s-%s at %.0f Mbps (capacity-bound)@." b1 b2 br
  | _ -> ());
  (* Validation: run *actual* event-driven TCP transfers (Sim.Tcp) on three
     representative pair profiles and compare against the analytic model. *)
  Fmt.pr
    "@.model vs event-driven TCP (Sim.Tcp, iperf-style transfers — the \
     model is idealized steady state, the simulator a timeout-recovery \
     Reno; agreement in shape and order, not digits):@.";
  List.iter
    (fun (profile, latency, cap_mbps, loss) ->
      let engine = Sim.Engine.create () in
      let model =
        mbps
          (Sim.Flow.tcp_throughput ~rtt:(2. *. latency) ~loss
             [ Sim.Flow.link ~capacity:(cap_mbps *. 1e6 /. 8.) ~id:1 ])
      in
      match
        Sim.Tcp.run engine ~latency ~bandwidth:(cap_mbps *. 1e6 /. 8.) ~loss
          ~bytes:(if loss > 1e-5 then 10_000_000 else 40_000_000) ()
      with
      | Some s ->
          Fmt.pr
            "  %-22s simulated %.0f Mbps, model %.0f Mbps (%d retransmits)@."
            profile
            (s.Sim.Tcp.goodput *. 8. /. 1e6)
            model s.Sim.Tcp.retransmits
      | None -> Fmt.pr "  %-22s transfer did not converge@." profile)
    [
      ("short-RTT capacity-bound", 0.010, 400., 1e-7);
      ("long-RTT loss-bound", 0.045, 600., 1e-3);
      ("constrained site", 0.035, 65., 1e-7);
    ]

(* ------------------------------------------------------------------------- *)
(* §6: AMS-IX operational scale.                                             *)
(* ------------------------------------------------------------------------- *)

let amsix () =
  section "§6: AMS-IX-scale operation";
  (* The paper's AMS-IX vBGP: 4 route servers + 2 transits + 235 bilateral
     routers; 2.7M routes from 854 ASes; 21.8 upd/s average, p99 ~400. We
     reproduce the update-stream side at full rate and project the memory
     side from the measured per-route cost. *)
  let routes = 2_700_000 in
  let sample = 100_000 in
  let table, fibs = build_data_plane sample in
  let bytes_per_route =
    float_of_int
      ((Obj.reachable_words (Obj.repr table)
       + Obj.reachable_words (Obj.repr fibs))
      * (Sys.word_size / 8))
    /. float_of_int sample
  in
  Fmt.pr "routes at AMS-IX: %d from 854 ASes (paper)@." routes;
  Fmt.pr
    "projected vBGP memory at 2.7M routes: %.1f GB (%.0f B/route) — fits a \
     commodity 32 GiB server@."
    (float_of_int routes *. bytes_per_route /. 1e9)
    bytes_per_route;
  (* Churn: a 30-minute trace shaped like the paper's (Poisson background +
     path-exploration bursts), pushed through the full pipeline. *)
  let prefixes = List.init 2_000 synth_prefix in
  let params =
    {
      Topo.Updates.default_params with
      rate = 21.8;
      duration = 1800.;
      burst_fraction = 0.03;
      burst_size = 400;
      peers = 235;
    }
  in
  let events =
    Topo.Updates.generate ~params ~prefixes ~origin_asn:(asn 29640) ()
  in
  let avg, p99 = Topo.Updates.rate_stats events in
  Fmt.pr
    "generated churn: %.1f upd/s average (paper: 21.8), p99 %.0f upd/s \
     (paper: ~400)@."
    avg p99;
  let router, neighbor_id = make_bench_router ~experiments:1 ~mesh:false () in
  let t0 = Unix.gettimeofday () in
  List.iter
    (fun e ->
      Vbgp.Router.process_neighbor_update router ~neighbor_id
        (Topo.Updates.to_update ~next_hop:(ip "100.64.0.1") e))
    events;
  let dt = Unix.gettimeofday () -. t0 in
  let n = List.length events in
  Fmt.pr
    "processed %d updates (30 simulated minutes) in %.2f s of CPU — %.4f%% \
     utilization at the paper's average rate@."
    n dt
    (dt /. 1800. *. 100.);
  Fmt.pr "headroom: sustainable rate %.0f upd/s >> p99 burst rate@."
    (float_of_int n /. dt)

(* ------------------------------------------------------------------------- *)
(* Table 1: toolkit functionality.                                           *)
(* ------------------------------------------------------------------------- *)

let table1 () =
  section "Table 1: experiment toolkit functionality";
  let open Peering in
  let platform = Platform.create () in
  let pop = Platform.add_pop platform ~name:"pop01" ~site:Pop.Ixp () in
  let n1 = Pop.add_transit pop ~asn:(asn 100) in
  Neighbor_host.announce n1
    [ (pfx "192.168.0.0/24", Aspath.of_asns [ asn 100 ]) ];
  Platform.run platform ~seconds:5.;
  let grant =
    match
      Platform.submit platform
        (Approval.proposal ~title:"table1" ~team:"bench" ~goals:"table 1"
           ~requested_caps:
             Vbgp.Experiment_caps.(
               default |> with_communities 4 |> with_poisoning 2)
           ())
    with
    | Platform.Granted r -> r.Approval.grant
    | Platform.Denied reason -> failwith reason
  in
  let kit = Toolkit.create ~engine:(Platform.engine platform) ~grant in
  let row category func ok =
    Fmt.pr "  %-18s %-40s %s@." category func (if ok then "[OK]" else "[FAIL]")
  in
  (* OpenVPN rows. *)
  ignore (Toolkit.open_tunnel kit pop);
  row "OpenVPN" "open tunnel" (Toolkit.tunnel kit "pop01" <> None);
  row "OpenVPN" "check tunnel status"
    (match Toolkit.session_status kit with [ _ ] -> true | _ -> false);
  (* BGP/BIRD rows. *)
  Toolkit.start_session kit ~pop:"pop01";
  Platform.run platform ~seconds:10.;
  row "BGP/BIRD" "start v4 sessions" (Toolkit.established kit ~pop:"pop01");
  row "BGP/BIRD" "status of BGP connections"
    (match Toolkit.session_status kit with
    | [ (_, Fsm.Established, true) ] -> true
    | _ -> false);
  row "BGP/BIRD" "access BIRD CLI"
    (String.length (Toolkit.cli kit "show protocols") > 0);
  Toolkit.stop_session kit ~pop:"pop01";
  Platform.run platform ~seconds:5.;
  let stopped = not (Toolkit.established kit ~pop:"pop01") in
  Toolkit.start_session kit ~pop:"pop01";
  Platform.run platform ~seconds:10.;
  row "BGP/BIRD" "stop sessions" stopped;
  (* Prefix management rows. *)
  let prefix = List.hd grant.Vbgp.Control_enforcer.prefixes in
  Toolkit.announce kit prefix;
  Platform.run platform ~seconds:5.;
  row "Prefix mgmt" "announce prefix"
    (Neighbor_host.heard_route n1 prefix <> None);
  Toolkit.withdraw kit prefix;
  Platform.run platform ~seconds:5.;
  row "Prefix mgmt" "withdraw prefix"
    (Neighbor_host.heard_route n1 prefix = None);
  Toolkit.announce kit ~communities:[ Community.make 100 42 ] prefix;
  Platform.run platform ~seconds:5.;
  row "Prefix mgmt" "manipulate community attribute"
    (match Neighbor_host.heard_route n1 prefix with
    | Some attrs -> Attr.has_community (Community.make 100 42) attrs
    | None -> false);
  Toolkit.announce kit ~prepend:2 prefix;
  Platform.run platform ~seconds:5.;
  row "Prefix mgmt" "manipulate the AS-path attribute"
    (match Neighbor_host.heard_route n1 prefix with
    | Some attrs -> (
        match Attr.as_path attrs with
        | Some p -> Aspath.length p = 4
        | None -> false)
    | None -> false)

(* ------------------------------------------------------------------------- *)
(* §4.2: footprint and connectivity census.                                  *)
(* ------------------------------------------------------------------------- *)

let census () =
  section "§4.2: footprint and connectivity";
  let db = Topo.Peeringdb.generate () in
  Fmt.pr "unique peers: %d (paper: 923)@."
    (List.length (Topo.Peeringdb.unique_peers db));
  Fmt.pr "%-12s %-8s %-10s@." "IXP" "peers" "bilateral";
  List.iter
    (fun (ixp, total, bilateral) ->
      Fmt.pr "%-12s %-8d %-10d@." ixp total bilateral)
    (Topo.Peeringdb.by_ixp db);
  Fmt.pr "@.peer types (paper: 33%% transit, 28%% access, 23%% content):@.";
  List.iter
    (fun (kind, count, frac) ->
      Fmt.pr "  %-20s %4d  %4.1f%%@."
        (Topo.As_graph.kind_to_string kind)
        count (frac *. 100.))
    (Topo.Peeringdb.type_census db);
  (* Customer-cone reach of peer announcements: announcements made only to
     peers reach the union of the peers' customer cones (§4.2's "extra
     route diversity"). *)
  let graph =
    Topo.As_graph.generate
      ~params:
        { Topo.As_graph.default_gen with transit = 30; stub = 300; seed = 4 }
      ()
  in
  let asns = List.sort Asn.compare (Topo.As_graph.asns graph) in
  let total = List.length asns in
  let peers = List.filteri (fun i _ -> i mod 5 = 0 && i < 300) asns in
  let cone = Hashtbl.create 256 in
  List.iter
    (fun p ->
      List.iter
        (fun a -> Hashtbl.replace cone a ())
        (Topo.As_graph.customer_cone graph p))
    peers;
  Fmt.pr
    "@.customer-cone reach: announcements to %d peers reach %d/%d ASes \
     (%.0f%%) without any transit@."
    (List.length peers) (Hashtbl.length cone) total
    (100. *. float_of_int (Hashtbl.length cone) /. float_of_int total)

(* ------------------------------------------------------------------------- *)
(* §4.7: security-policy verification matrix.                                *)
(* ------------------------------------------------------------------------- *)

let security () =
  section "§4.7: security policy matrix (with/without capability)";
  let enforcer =
    Vbgp.Control_enforcer.create ~platform_asns:[ asn 47065 ] ()
  in
  let base_grant caps =
    Vbgp.Control_enforcer.grant ~asns:[ asn 61574 ]
      ~prefixes:[ pfx "184.164.224.0/24" ]
      ~prefixes_v6:[ Prefix_v6.of_string_exn "2804:269c:1::/48" ]
      ~caps "matrix"
  in
  let announce ?(path = [ 61574 ]) ?(communities = []) ?(extra = []) () =
    Msg.update
      ~attrs:
        (extra
        @ (Attr.origin_attrs
             ~as_path:(Aspath.of_asns (List.map asn path))
             ~next_hop:(ip "184.164.224.1") ()
          |> Attr.with_communities communities))
      ~announced:[ Msg.nlri (pfx "184.164.224.0/24") ]
      ()
  in
  let attempt name update ~with_cap ~without_cap ~outcome_of =
    let run caps =
      outcome_of
        (Vbgp.Control_enforcer.check enforcer ~now:0. ~pop:"p"
           (base_grant caps) update)
    in
    Fmt.pr "  %-28s without: %-9s with: %-9s@." name (run without_cap)
      (run with_cap)
  in
  let accepted_or_rejected = function
    | Vbgp.Control_enforcer.Accepted _ -> "allowed"
    | Vbgp.Control_enforcer.Rejected _ -> "blocked"
  in
  let open Vbgp.Experiment_caps in
  attempt "AS-path poisoning"
    (announce ~path:[ 61574; 3356; 61574 ] ())
    ~with_cap:(default |> with_poisoning 2)
    ~without_cap:default ~outcome_of:accepted_or_rejected;
  attempt "BGP communities"
    (announce ~communities:[ Community.make 100 42 ] ())
    ~with_cap:(default |> with_communities 4)
    ~without_cap:default
    ~outcome_of:(function
      | Vbgp.Control_enforcer.Accepted u ->
          if Attr.has_community (Community.make 100 42) u.Msg.attrs then
            "allowed"
          else "stripped"
      | Vbgp.Control_enforcer.Rejected _ -> "blocked");
  attempt "optional transitive attrs"
    (announce
       ~extra:
         [
           Attr.Unknown
             {
               flags = Attr.flag_optional lor Attr.flag_transitive;
               code = 99;
               data = "x";
             };
         ]
       ())
    ~with_cap:(default |> with_transitive_attrs)
    ~without_cap:default
    ~outcome_of:(function
      | Vbgp.Control_enforcer.Accepted u ->
          if Attr.unknown_transitive u.Msg.attrs <> [] then "allowed"
          else "stripped"
      | Vbgp.Control_enforcer.Rejected _ -> "blocked");
  attempt "transit announcements"
    (announce ~path:[ 3356; 61574 ] ())
    ~with_cap:(default |> with_transit)
    ~without_cap:default ~outcome_of:accepted_or_rejected;
  (* Invariants no capability unlocks. *)
  let everything =
    default |> with_poisoning 3 |> with_communities 8 |> with_transit
    |> with_transitive_attrs |> with_6to4
  in
  let hijack =
    Msg.update
      ~attrs:
        (Attr.origin_attrs
           ~as_path:(Aspath.of_asns [ asn 61574 ])
           ~next_hop:(ip "8.8.8.1") ())
      ~announced:[ Msg.nlri (pfx "8.8.8.0/24") ]
      ()
  in
  Fmt.pr "  %-28s always:  %s@." "prefix hijack"
    (accepted_or_rejected
       (Vbgp.Control_enforcer.check enforcer ~now:0. ~pop:"p"
          (base_grant everything) hijack));
  Fmt.pr "  %-28s always:  %s@." "foreign origin ASN"
    (accepted_or_rejected
       (Vbgp.Control_enforcer.check enforcer ~now:0. ~pop:"p"
          (base_grant everything)
          (announce ~path:[ 61574; 15169 ] ())))

(* ------------------------------------------------------------------------- *)
(* §4.7: the 144 updates/day rate limit.                                     *)
(* ------------------------------------------------------------------------- *)

let ratelimit () =
  section "§4.7: announcement rate limiting";
  let enforcer =
    Vbgp.Control_enforcer.create ~platform_asns:[ asn 47065 ] ()
  in
  let grant =
    Vbgp.Control_enforcer.grant ~asns:[ asn 61574 ]
      ~prefixes:[ pfx "184.164.224.0/24" ] "rl"
  in
  let update =
    Msg.update
      ~attrs:
        (Attr.origin_attrs
           ~as_path:(Aspath.of_asns [ asn 61574 ])
           ~next_hop:(ip "184.164.224.1") ())
      ~announced:[ Msg.nlri (pfx "184.164.224.0/24") ]
      ()
  in
  let run_day ~pop day =
    let accepted = ref 0 in
    for i = 0 to 199 do
      let now = (day *. 86_400.) +. float_of_int i in
      match Vbgp.Control_enforcer.check enforcer ~now ~pop grant update with
      | Vbgp.Control_enforcer.Accepted _ -> incr accepted
      | Vbgp.Control_enforcer.Rejected _ -> ()
    done;
    !accepted
  in
  Fmt.pr "offered 200 updates at PoP A, day 1: accepted %d (limit 144)@."
    (run_day ~pop:"a" 0.);
  Fmt.pr
    "offered 200 updates at PoP B, day 1: accepted %d (independent budget \
     per PoP)@."
    (run_day ~pop:"b" 0.);
  Fmt.pr
    "offered 200 updates at PoP A, day 2: accepted %d (budget renews \
     daily)@."
    (run_day ~pop:"a" 1.1);
  Fmt.pr
    "average allowed rate: one update per ten minutes per (prefix, PoP)@."

(* ------------------------------------------------------------------------- *)
(* Parallel-experiment scaling: update processing cost vs connected         *)
(* experiments (the platform typically hosts 3-6 concurrently, §4.6).       *)
(* ------------------------------------------------------------------------- *)

let fleet () =
  section "parallel experiments: ingress cost vs fan-out";
  let stream = encoded_updates 10_000 in
  Fmt.pr "%-14s %-18s@." "experiments" "per-update cost";
  let base = ref 0. in
  List.iter
    (fun n_exp ->
      let router, neighbor_id = make_bench_router ~experiments:n_exp ~mesh:false () in
      let t0 = Unix.gettimeofday () in
      Array.iter
        (fun bytes ->
          match Codec.decode_exn bytes with
          | Msg.Update u ->
              Vbgp.Router.process_neighbor_update router ~neighbor_id u
          | _ -> ())
        stream;
      let per = (Unix.gettimeofday () -. t0) /. float_of_int (Array.length stream) in
      if n_exp = 0 then base := per;
      Fmt.pr "%-14d %.2f us%s@." n_exp (per *. 1e6)
        (if n_exp = 0 then "" else Fmt.str "  (%.1fx of 0-experiment cost)" (per /. !base)))
    [ 0; 1; 2; 4; 8; 16 ];
  Fmt.pr
    "cost grows linearly with the ADD-PATH fan-out; at the paper's typical 3-6 concurrent experiments the router keeps >100k upd/s of headroom@."

(* ------------------------------------------------------------------------- *)
(* Ablations: the design choices DESIGN.md calls out, each against its      *)
(* obvious alternative.                                                     *)
(* ------------------------------------------------------------------------- *)

let ablate () =
  section "ablations";
  (* 1. Per-neighbor FIBs (vBGP's design) vs one shared FIB with tagged
     entries. The shared design cannot express per-packet neighbor choice
     at all; the ablation quantifies what the expressiveness costs. *)
  let n = 100_000 in
  let per_neighbor = build_data_plane n in
  let shared =
    let table = build_control_plane n in
    let fib = Rib.Fib.create () in
    for i = 0 to n - 1 do
      Rib.Fib.insert fib
        (synth_prefix (i / neighbors_6a))
        {
          Rib.Fib.next_hop =
            Ipv4.of_int32 (Int32.of_int (0x64400001 + (i mod neighbors_6a)));
          neighbor = i mod neighbors_6a;
        }
    done;
    (table, fib)
  in
  let mb x = words_to_mb (Obj.reachable_words (Obj.repr x)) in
  Fmt.pr
    "1. per-neighbor FIBs: %.1f MB vs shared best-path FIB: %.1f MB at %dk routes — %.0f%% memory buys per-packet egress control@."
    (mb per_neighbor) (mb shared) (n / 1000)
    ((mb per_neighbor /. mb shared -. 1.) *. 100.);
  (* 2. Trie longest-prefix match vs linear scan over the route list. *)
  let entries = List.init 10_000 (fun i -> (synth_prefix i, i)) in
  let trie = Ptrie.V4.of_list entries in
  let addr = Prefix.host (synth_prefix 7321) 1 in
  let time iters f =
    let t0 = Unix.gettimeofday () in
    for _ = 1 to iters do
      ignore (f ())
    done;
    (Unix.gettimeofday () -. t0) /. float_of_int iters *. 1e9
  in
  let t_trie = time 200_000 (fun () -> Ptrie.lookup_v4 addr trie) in
  let t_scan =
    time 200 (fun () ->
        List.fold_left
          (fun best (p, v) ->
            if Prefix.mem addr p then
              match best with
              | Some (bp, _) when Prefix.length bp >= Prefix.length p -> best
              | _ -> Some (p, v)
            else best)
          None entries)
  in
  Fmt.pr
    "2. longest-prefix match over 10k routes: trie %.0f ns vs linear scan %.0f ns (%.0fx)@."
    t_trie t_scan (t_scan /. t_trie);
  (* 3. Decoupled enforcement (the paper's §3.3 design): cost of the
     enforcement chain as policies grow — linear and cheap, which is why
     decoupling from the router costs little. *)
  let grant =
    Vbgp.Control_enforcer.grant ~asns:[ asn 61574 ]
      ~prefixes:[ pfx "184.164.224.0/24" ]
      ~caps:Vbgp.Experiment_caps.(default |> with_update_budget max_int)
      "ablate"
  in
  let update =
    Msg.update
      ~attrs:
        (Attr.origin_attrs
           ~as_path:(Aspath.of_asns [ asn 61574 ])
           ~next_hop:(ip "184.164.224.1") ())
      ~announced:[ Msg.nlri (pfx "184.164.224.0/24") ]
      ()
  in
  List.iter
    (fun extra_platform_asns ->
      let enforcer =
        Vbgp.Control_enforcer.create
          ~platform_asns:(List.init extra_platform_asns (fun i -> asn (47000 + i)))
          ()
      in
      let t =
        time 20_000 (fun () ->
            Vbgp.Control_enforcer.check enforcer ~now:0. ~pop:"p" grant update)
      in
      Fmt.pr "3. enforcement check with %d platform ASNs in policy: %.0f ns@."
        extra_platform_asns t)
    [ 1; 8; 64 ];
  (* 4. MAC-signalled forwarding vs a hypothetical per-packet table lookup
     by next-hop IP (what one would do without the layer-2 trick): the MAC
     gives O(1) table selection. *)
  let router, neighbor_id = make_bench_router ~experiments:0 ~mesh:false () in
  Vbgp.Router.process_neighbor_update router ~neighbor_id
    (Msg.update ~attrs:(synth_attrs 1)
       ~announced:[ Msg.nlri (pfx "192.168.0.0/24") ]
       ());
  let frame =
    {
      Eth.dst =
        (match Vbgp.Router.neighbor router neighbor_id with
        | Some ns -> ns.Vbgp.Router.info.Vbgp.Neighbor.virtual_mac
        | None -> Mac.zero);
      src = Mac.local ~pool:0xe0 1;
      ethertype = Eth.Ipv4;
      payload =
        Ipv4_packet.encode
          (Ipv4_packet.make ~src:(ip "184.164.224.1")
             ~dst:(ip "192.168.0.9") ~protocol:Ipv4_packet.Udp "x");
    }
  in
  let t_forward =
    time 50_000 (fun () ->
        Vbgp.Router.forward_experiment_frame router ~neighbor_id frame)
  in
  Fmt.pr
    "4. full data-plane forward (decode + enforce + MAC-selected FIB): %.0f ns/packet — %.1f Mpps per core@."
    t_forward (1e3 /. t_forward)

(* ------------------------------------------------------------------------- *)
(* Data-plane forwarding throughput: the flow cache vs the record slow     *)
(* path (§3.2.2), with and without a stateful shaper tail (§4.7).          *)
(* ------------------------------------------------------------------------- *)

(* A router with a 10k-route neighbor table for data-plane forwarding
   benchmarks, and a frame generator aimed at it ([flow] selects one of
   64 destination addresses, all covered by the table). *)
let make_fwd_router ?data ?flow_cache () =
  let router, neighbor_id =
    make_bench_router ?data ?flow_cache ~experiments:0 ~mesh:false ()
  in
  for i = 0 to 9_999 do
    Vbgp.Router.process_neighbor_update router ~neighbor_id
      (Msg.update ~attrs:(synth_attrs i)
         ~announced:[ Msg.nlri (synth_prefix i) ]
         ())
  done;
  (router, neighbor_id)

let fwd_frame_to router neighbor_id ~flow =
  {
    Eth.dst =
      (match Vbgp.Router.neighbor router neighbor_id with
      | Some ns -> ns.Vbgp.Router.info.Vbgp.Neighbor.virtual_mac
      | None -> Mac.zero);
    src = Mac.local ~pool:0xe0 1;
    ethertype = Eth.Ipv4;
    payload =
      Ipv4_packet.encode
        (Ipv4_packet.make ~src:(ip "184.164.224.1")
           ~dst:(Prefix.host (synth_prefix (4257 + (flow mod 64))) 9)
           ~protocol:Ipv4_packet.Udp "x");
  }

let fwd () =
  section "data-plane forwarding: flow cache vs slow path";
  let n = if !smoke then 20_000 else 200_000 in
  (* 64 flows cycling over a 10k-route table: every flow misses once and
     then lives in the cache (the platform's traffic is flow-shaped; one
     decision serves the whole flow). *)
  let drive router neighbor_id =
    let frames =
      Array.init 64 (fun flow -> fwd_frame_to router neighbor_id ~flow)
    in
    let t0 = Unix.gettimeofday () in
    for i = 0 to n - 1 do
      Vbgp.Router.forward_experiment_frame router ~neighbor_id
        frames.(i land 63)
    done;
    float_of_int n /. (Unix.gettimeofday () -. t0)
  in
  let cold_router, cold_id = make_fwd_router ~flow_cache:false () in
  let pps_cold = drive cold_router cold_id in
  Fmt.pr "  %-32s %12.0f pps@." "slow path (cache off)" pps_cold;
  let hot_router, hot_id = make_fwd_router () in
  let pps_cached = drive hot_router hot_id in
  Fmt.pr "  %-32s %12.0f pps@." "flow cache" pps_cached;
  let c = Vbgp.Router.counters hot_router in
  let hits = c.Vbgp.Router.flow_hits and misses = c.Vbgp.Router.flow_misses in
  let hit_rate = 100. *. float_of_int hits /. float_of_int (hits + misses) in
  let shaped =
    let d = Vbgp.Data_enforcer.create () in
    Vbgp.Data_enforcer.add_filter d
      (Vbgp.Data_enforcer.shaper ~name:"pop-shaper" ~rate:1e12 ~burst:1e12
         ~key_of:(fun (p : Ipv4_packet.t) -> Ipv4.to_string p.Ipv4_packet.src)
         ());
    d
  in
  let sh_router, sh_id = make_fwd_router ~data:shaped () in
  let pps_shaped = drive sh_router sh_id in
  Fmt.pr "  %-32s %12.0f pps@." "flow cache + shaper tail" pps_shaped;
  let speedup = pps_cached /. pps_cold in
  Fmt.pr "  cached/cold speedup %.2fx, hit rate %.2f%%@." speedup hit_rate;
  (* Each of the 64 flows misses exactly once (99.68% of 20k frames hit);
     the cache must stay at least 3.15x faster than the slow path. *)
  expect (misses = 64 && hits = n - 64)
    "fwd: %d flow-cache misses in %d frames, expected 64" misses n;
  expect (speedup >= 3.15) "fwd: cached/cold speedup %.2fx below 3.15x" speedup

(* ------------------------------------------------------------------------- *)
(* Export-par: the dirty-prefix flush toward neighbors across 1/2/4/8       *)
(* export lanes, with the encode-once wire cache. An experiment             *)
(* re-announces a large prefix set with a fresh MED each pass so every      *)
(* prefix is a genuine Adj-RIB-Out delta; only [flush_reexports] is in      *)
(* the timed window. All lane counts must converge to the same Adj-RIB-Out  *)
(* fingerprint — the bench refuses to report a speedup over divergent       *)
(* state.                                                                   *)
(* ------------------------------------------------------------------------- *)

let export_par () =
  section "control-plane export: parallel flush lanes + encode-once wire cache";
  let nbr_count = 32 in
  let pfx_count = if !smoke then 256 else 2_048 in
  let counts = if !smoke then [ 1; 4 ] else [ 1; 2; 4; 8 ] in
  let neighbor_ip i = Ipv4.of_int32 (Int32.of_int (0x64400001 + i)) in
  (* /24s inside the experiment's 184.160.0.0/13 grant (2048 of them). *)
  let exp_prefix i =
    Prefix.make
      (Ipv4.of_int32 (Int32.logor 0xB8A00000l (Int32.of_int (i lsl 8))))
      24
  in
  let make_router lanes =
    let engine = Sim.Engine.create () in
    let global_pool =
      Vbgp.Addr_pool.create ~base:(pfx "127.127.0.0/16") ~mac_pool:0x7f
    in
    let router =
      Vbgp.Router.create ~engine ~name:"export" ~asn:(asn 47065)
        ~router_id:(ip "10.255.0.1") ~primary_ip:(ip "10.255.0.1")
        ~local_pool:(pfx "127.65.0.0/16") ~global_pool ~lanes ()
    in
    (* Tracing off: the sequential lane logs one entry per (prefix,
       neighbor) delta while worker lanes never log, so leaving the trace
       on would bill ~8k message formats per flush to the 1-lane column
       only and overstate the speedup. *)
    Sim.Trace.set_enabled (Vbgp.Router.trace router) false;
    Vbgp.Router.activate router;
    let ids =
      Array.init nbr_count (fun i ->
          let nip = neighbor_ip i in
          let id, npair =
            Vbgp.Router.add_neighbor router ~asn:(asn (100 + i)) ~ip:nip
              ~kind:Vbgp.Neighbor.Transit ~remote_id:nip ()
          in
          Sim.Bgp_wire.start npair;
          id)
    in
    let caps = Vbgp.Experiment_caps.(default |> with_update_budget max_int) in
    let grant =
      Vbgp.Control_enforcer.grant ~asns:[ asn 61574 ]
        ~prefixes:[ pfx "184.160.0.0/13" ]
        ~caps "export-bench"
    in
    let epair =
      Vbgp.Router.connect_experiment router ~grant
        ~mac:(Mac.local ~pool:0xe0 1) ()
    in
    Sim.Bgp_wire.start epair;
    Sim.Engine.run_until engine 10.;
    (engine, router, ids)
  in
  (* Re-announce the whole set with MED [k]: every prefix becomes a dirty
     Adj-RIB-Out delta toward every neighbor at the next flush. *)
  let announce_pass router k =
    match
      Vbgp.Router.process_experiment_update router ~experiment:"export-bench"
        (Msg.update
           ~attrs:
             (Attr.origin_attrs
                ~as_path:(Aspath.of_asns [ asn 61574 ])
                ~next_hop:(ip "184.160.0.1") ()
             |> Attr.with_med k)
           ~announced:(List.init pfx_count (fun i -> Msg.nlri (exp_prefix i)))
           ())
    with
    | Ok () -> ()
    | Error e -> failwith ("export-par: " ^ String.concat "; " e)
  in
  let adj_out_fingerprint router ids =
    Array.to_list ids
    |> List.concat_map (fun id ->
           List.map
             (fun (p, attrs) -> Fmt.str "%d %a %a" id Prefix.pp p Attr.pp_set attrs)
             (Vbgp.Router.adj_out_routes router ~neighbor_id:id))
    |> List.sort compare |> String.concat "\n" |> Digest.string |> Digest.to_hex
  in
  let run lanes =
    let engine, router, ids = make_router lanes in
    (* Warm-up pass outside the timed window: spawns the worker domains
       and builds the Adj-RIB-Out tables. *)
    announce_pass router 0;
    Vbgp.Router.flush_reexports router;
    Sim.Engine.run_until engine (Sim.Engine.now engine +. 1.);
    let timed k =
      announce_pass router k;
      let t0 = Unix.gettimeofday () in
      Vbgp.Router.flush_reexports router;
      let dt = Unix.gettimeofday () -. t0 in
      Sim.Engine.run_until engine (Sim.Engine.now engine +. 1.);
      float_of_int pfx_count /. dt
    in
    (* Best of five timed passes, each with its own MED version so none
       is short-circuited by the delta check. *)
    let pps =
      List.fold_left (fun best k -> Float.max best (timed k)) 0. [ 1; 2; 3; 4; 5 ]
    in
    let st = Vbgp.Router.export_stats router in
    if st.Vbgp.Router.staged_residual <> 0 then
      failwith
        (Printf.sprintf "export-par: %d-lane run left %d staged sends"
           lanes st.Vbgp.Router.staged_residual);
    let fp = adj_out_fingerprint router ids in
    Vbgp.Router.shutdown_domains router;
    (* Per-lane target-queue high-water marks show whether the neighbor
       hash starved a lane. *)
    Fmt.pr "  %-32s %12.0f prefix-flushes/s (queue high-water %a)@."
      (Printf.sprintf "%d lane%s" lanes
         (if lanes = 1 then "" else "s"))
      pps
      Fmt.(array ~sep:(any " ") int)
      st.Vbgp.Router.lane_depth_max;
    (pps, st, fp)
  in
  let results = List.map (fun d -> (d, run d)) counts in
  let pps_of d = match List.assoc d results with p, _, _ -> p in
  let fp_of d = match List.assoc d results with _, _, f -> f in
  List.iter
    (fun (d, (_, _, fp)) ->
      if not (String.equal fp (fp_of 1)) then
        failwith
          (Printf.sprintf
             "export-par: %d-lane Adj-RIB-Out fingerprint diverges from \
              sequential"
             d))
    results;
  let speedup = pps_of 4 /. pps_of 1 in
  let st4 = match List.assoc 4 results with _, s, _ -> s in
  let wc_total = st4.Vbgp.Router.wire_cache_hits + st4.Vbgp.Router.wire_cache_misses in
  let hit_rate =
    100. *. float_of_int st4.Vbgp.Router.wire_cache_hits
    /. float_of_int (max 1 wc_total)
  in
  Fmt.pr
    "  4-lane speedup %.2fx, wire-cache hit rate %.2f%% (%d blocks encoded \
     for %d messages), %.1f MB on the wire@."
    speedup hit_rate st4.Vbgp.Router.wire_cache_misses wc_total
    (float_of_int st4.Vbgp.Router.wire_bytes_out /. 1e6);
  (* Encode-once: six attribute blocks serve the 4-lane run's 192
     messages (96.875%). The 4-lane flush may cost at most 1/0.54 of the
     sequential one. *)
  expect
    (st4.Vbgp.Router.wire_cache_misses = 6 && wc_total = 192)
    "export-par: %d blocks encoded for %d messages, expected 6 for 192"
    st4.Vbgp.Router.wire_cache_misses wc_total;
  expect (speedup >= 0.54) "export-par: 4-lane flush speedup %.2fx below 0.54x"
    speedup

(* ------------------------------------------------------------------------- *)
(* Fullscale: a full-table control plane — 500k+ routes across O(100)       *)
(* neighbors pushed through the batched-ingest pipeline, then a staged      *)
(* churn replay (withdraw storm, peer flaps, fresh wave). Reports RIB       *)
(* memory, bytes/route, sustained updates/sec and convergence time.         *)
(* ------------------------------------------------------------------------- *)

let fullscale () =
  section "fullscale: full-table batched ingest + churn replay";
  let nbr_count = if !smoke then 16 else 100 in
  let v4_load = if !smoke then 10_000 else 520_000 in
  let v6_count = if !smoke then 128 else 1_024 in
  let engine = Sim.Engine.create () in
  let global_pool =
    Vbgp.Addr_pool.create ~base:(pfx "127.127.0.0/16") ~mac_pool:0x7f
  in
  let router =
    Vbgp.Router.create ~engine ~name:"full" ~asn:(asn 47065)
      ~router_id:(ip "10.255.0.1") ~primary_ip:(ip "10.255.0.1")
      ~local_pool:(pfx "127.65.0.0/16") ~global_pool ()
  in
  Vbgp.Router.activate router;
  let neighbor_ip i = Ipv4.of_int32 (Int32.of_int (0x64400001 + i)) in
  let neighbor_ids =
    Array.init nbr_count (fun i ->
        let nip = neighbor_ip i in
        let id, npair =
          Vbgp.Router.add_neighbor router ~asn:(asn (100 + i)) ~ip:nip
            ~kind:Vbgp.Neighbor.Transit ~remote_id:nip ()
        in
        Sim.Bgp_wire.start npair;
        id)
  in
  let caps = Vbgp.Experiment_caps.(default |> with_update_budget max_int) in
  let grant =
    Vbgp.Control_enforcer.grant ~asns:[ asn 61574 ]
      ~prefixes:[ pfx "184.164.224.0/24" ]
      ~prefixes_v6:[ Prefix_v6.of_string_exn "2804:269c:1::/48" ]
      ~caps "fullscale"
  in
  let epair =
    Vbgp.Router.connect_experiment router ~grant ~mac:(Mac.local ~pool:0xe0 1)
      ()
  in
  Sim.Bgp_wire.start epair;
  Sim.Engine.run_until engine 10.;
  (* Per-peer buffers model the wire: events accumulate and are handed to
     the router as multi-NLRI UPDATEs (consecutive same-kind runs, announce
     runs grouped by shared AS path), with one ingest flush per window —
     the engine-tick cadence of the batched pipeline. *)
  let pending : Topo.Updates.event list array = Array.make nbr_count [] in
  let pending_total = ref 0 in
  let batch_window = 8192 in
  let flush_peer pi =
    match pending.(pi) with
    | [] -> ()
    | evs ->
        let evs = List.rev evs in
        pending.(pi) <- [];
        let nip = neighbor_ip pi in
        let flush_run kind run =
          match (kind : Topo.Updates.kind) with
          | Topo.Updates.Withdraw ->
              Vbgp.Router.process_neighbor_update router
                ~neighbor_id:neighbor_ids.(pi)
                (Msg.update
                   ~withdrawn:
                     (List.rev_map
                        (fun (e : Topo.Updates.event) -> Msg.nlri e.prefix)
                        run)
                   ())
          | Topo.Updates.Announce ->
              let groups = Hashtbl.create 16 and order = ref [] in
              List.iter
                (fun (e : Topo.Updates.event) ->
                  match Hashtbl.find_opt groups e.as_path with
                  | Some l -> l := Msg.nlri e.prefix :: !l
                  | None ->
                      Hashtbl.replace groups e.as_path (ref [ Msg.nlri e.prefix ]);
                      order := e.as_path :: !order)
                (List.rev run);
              List.iter
                (fun ap ->
                  Vbgp.Router.process_neighbor_update router
                    ~neighbor_id:neighbor_ids.(pi)
                    (Msg.update
                       ~attrs:(Attr.origin_attrs ~as_path:ap ~next_hop:nip ())
                       ~announced:(List.rev !(Hashtbl.find groups ap))
                       ()))
                (List.rev !order)
        in
        let rec go run kind = function
          | [] -> if run <> [] then flush_run kind run
          | (e : Topo.Updates.event) :: rest ->
              if run = [] || e.kind = kind then go (e :: run) e.kind rest
              else begin
                flush_run kind run;
                go [ e ] e.kind rest
              end
        in
        go [] Topo.Updates.Announce evs
  in
  let flush_all () =
    for pi = 0 to nbr_count - 1 do
      flush_peer pi
    done;
    pending_total := 0;
    Vbgp.Router.flush_reexports router
  in
  let emit (e : Topo.Updates.event) =
    pending.(e.peer_index) <- e :: pending.(e.peer_index);
    incr pending_total;
    if !pending_total >= batch_window then flush_all ()
  in
  let plan =
    {
      Topo.Updates.stages =
        [
          Topo.Updates.Announce_wave { count = v4_load; rate = 100_000. };
          Topo.Updates.Withdraw_storm { fraction = 0.05; rate = 50_000. };
          Topo.Updates.Peer_flap
            { peers = (if !smoke then 2 else 4); rate = 100_000. };
          Topo.Updates.Announce_wave { count = v4_load / 10; rate = 100_000. };
        ];
      peer_count = nbr_count;
      path_pool = 128;
      prefix_of = Topo.Updates.default_prefix_of;
      origin_asn = asn 65010;
      plan_seed = 47;
    }
  in
  (* Untimed warm-up: a throwaway announce+withdraw wave through the same
     ingress pipeline populates the attribute arena, the decision caches
     and the per-neighbor tables before the clock starts, so the
     sustained-ingest number is not paying one-time cold-start costs.
     Everything announced here is withdrawn again — the final table is
     untouched. *)
  let () =
    let warm = if !smoke then 512 else 4_096 in
    let nip = neighbor_ip 0 in
    let nlris = List.init warm (fun i -> Msg.nlri (synth_prefix i)) in
    Vbgp.Router.process_neighbor_update router ~neighbor_id:neighbor_ids.(0)
      (Msg.update
         ~attrs:
           (Attr.origin_attrs
              ~as_path:(Aspath.of_asns [ asn 65010; asn 100 ])
              ~next_hop:nip ())
         ~announced:nlris ());
    Vbgp.Router.process_neighbor_update router ~neighbor_id:neighbor_ids.(0)
      (Msg.update ~withdrawn:nlris ());
    Vbgp.Router.flush_reexports router
  in
  let c = Vbgp.Router.counters router in
  let eu0 = c.Vbgp.Router.updates_to_experiments in
  let en0 = c.Vbgp.Router.nlri_to_experiments in
  let t0 = Unix.gettimeofday () in
  let stats = Topo.Updates.run ~plan ~emit () in
  (* Convergence: from the last injected event to a fully drained
     control plane (residual buffers + final ingest/re-export flush). *)
  let t_drain = Unix.gettimeofday () in
  flush_all ();
  let t_loaded = Unix.gettimeofday () in
  let convergence = t_loaded -. t_drain in
  let updates_per_sec =
    float_of_int stats.Topo.Updates.events /. (t_loaded -. t0)
  in
  (* IPv6: the experiment announces /64 more-specifics of its /48; the
     re-export toward all neighbors rides MP_REACH_NLRI in chunked
     multi-NLRI updates. *)
  let v6_chunk = 64 in
  for g = 0 to (v6_count / v6_chunk) - 1 do
    let nlri =
      List.init v6_chunk (fun j ->
          ( Prefix_v6.of_string_exn
              (Printf.sprintf "2804:269c:1:%x::/64" ((g * v6_chunk) + j)),
            None ))
    in
    match
      Vbgp.Router.process_experiment_update router ~experiment:"fullscale"
        (Msg.update
           ~attrs:
             [
               Attr.Origin Attr.Igp;
               Attr.As_path (Aspath.of_asns [ asn 61574 ]);
               Attr.Mp_reach
                 { next_hop = Ipv6.of_string_exn "2804:269c:1::1"; nlri };
             ]
           ())
    with
    | Ok () -> ()
    | Error e -> failwith (String.concat "; " e)
  done;
  Vbgp.Router.flush_reexports router;
  (* Export-lane flush at full scale: the experiment re-announces its /24
     and the delta flush toward all neighbors is timed — after one
     untimed warm-up flush, so the number excludes Adj-RIB-Out creation.
     The encode-once wire cache must show exactly one attribute block per
     facing group per flush: one miss and [nbr_count - 1] splice hits. *)
  let announce_med k =
    match
      Vbgp.Router.process_experiment_update router ~experiment:"fullscale"
        (Msg.update
           ~attrs:
             (Attr.origin_attrs
                ~as_path:(Aspath.of_asns [ asn 61574 ])
                ~next_hop:(ip "184.164.224.1") ()
             |> Attr.with_med k)
           ~announced:[ Msg.nlri (pfx "184.164.224.0/24") ]
           ())
    with
    | Ok () -> ()
    | Error e -> failwith (String.concat "; " e)
  in
  announce_med 1;
  Vbgp.Router.flush_reexports router;
  let s1 = Vbgp.Router.export_stats router in
  announce_med 2;
  let tf0 = Unix.gettimeofday () in
  Vbgp.Router.flush_reexports router;
  let flush_ns = (Unix.gettimeofday () -. tf0) *. 1e9 in
  let s2 = Vbgp.Router.export_stats router in
  if
    s2.Vbgp.Router.wire_cache_misses - s1.Vbgp.Router.wire_cache_misses <> 1
    || s2.Vbgp.Router.wire_cache_hits - s1.Vbgp.Router.wire_cache_hits
       <> nbr_count - 1
  then
    failwith
      (Printf.sprintf
         "fullscale: expected one encoded block + %d splices per flush, got \
          %d blocks / %d splices"
         (nbr_count - 1)
         (s2.Vbgp.Router.wire_cache_misses - s1.Vbgp.Router.wire_cache_misses)
         (s2.Vbgp.Router.wire_cache_hits - s1.Vbgp.Router.wire_cache_hits));
  let routes = Vbgp.Router.route_count router in
  let rib_bytes = Vbgp.Router.control_plane_bytes router in
  let bytes_per_route = float_of_int rib_bytes /. float_of_int (max 1 routes) in
  let exp_updates = c.Vbgp.Router.updates_to_experiments - eu0 in
  let exp_nlri = c.Vbgp.Router.nlri_to_experiments - en0 in
  let packing = float_of_int exp_nlri /. float_of_int (max 1 exp_updates) in
  Fmt.pr "churn: %d events (%d announce, %d withdraw) over %d neighbors@."
    stats.Topo.Updates.events stats.Topo.Updates.announce_events
    stats.Topo.Updates.withdraw_events nbr_count;
  Fmt.pr "loaded: %d live v4 routes + %d experiment v6 prefixes@." routes
    v6_count;
  Fmt.pr "RIB memory: %.1f MB (%.0f B/route)@."
    (float_of_int rib_bytes /. 1e6)
    bytes_per_route;
  Fmt.pr "sustained ingest: %.0f updates/s; final-drain convergence %.3f s@."
    updates_per_sec convergence;
  Fmt.pr
    "experiment export fan-out: %d UPDATEs carrying %d NLRI (%.1f \
     routes/UPDATE)@."
    exp_updates exp_nlri packing;
  Fmt.pr
    "neighbor-facing flush: %.0f ns across %d neighbors; %.1f KB on the \
     wire, 1 attribute block per facing group@."
    flush_ns nbr_count
    (float_of_int s2.Vbgp.Router.wire_bytes_out /. 1e3);
  (* The smoke table: 10500 routes in exactly 2555144 B of RIB (243.347
     B/route on a 64-bit runtime), and a sustained ingest of at least 54k
     updates/s. *)
  expect
    (routes = 10_500 && rib_bytes = 2_555_144)
    "fullscale: %d routes in %d B of RIB, expected 10500 in 2555144 B" routes
    rib_bytes;
  expect (updates_per_sec >= 54_000.)
    "fullscale: %.0f updates/s below 54000" updates_per_sec

let experiments =
  [
    ("fig6a", fig6a);
    ("fig6b", fig6b);
    ("throughput", throughput);
    ("amsix", amsix);
    ("table1", table1);
    ("census", census);
    ("security", security);
    ("ratelimit", ratelimit);
    ("fleet", fleet);
    ("ablate", ablate);
    ("fwd", fwd);
    ("export-par", export_par);
    ("fullscale", fullscale);
  ]

let () =
  let rec parse acc = function
    | [] -> List.rev acc
    | "--smoke" :: rest ->
        smoke := true;
        parse acc rest
    | name :: rest -> parse (name :: acc) rest
  in
  let requested =
    match parse [] (List.tl (Array.to_list Sys.argv)) with
    | [] -> List.map fst experiments
    | names -> names
  in
  List.iter
    (fun name ->
      match List.assoc_opt name experiments with
      | Some f -> f ()
      | None ->
          Fmt.epr "unknown experiment %S; available: %s@." name
            (String.concat " " (List.map fst experiments));
          exit 1)
    requested;
  match List.rev !smoke_failures with
  | [] -> ()
  | failures ->
      List.iter (Fmt.epr "smoke check failed: %s@.") failures;
      exit 1
