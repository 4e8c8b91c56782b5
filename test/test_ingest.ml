(* Differential and regression tests for the batched-ingest control plane.
   The dirty-queue batched path (the default) must be observationally
   identical to the legacy eager per-prefix export path: a QCheck property
   drives the same random announce/withdraw/flap sequence through two
   identically-wired routers — one batched, one eager — and compares full
   RIB/FIB/export fingerprints. Alongside it: graceful-restart End-of-RIB
   mark-and-sweep under batching, same-tick coalescing, the
   [Router.ingest_updates] batch entry point, and determinism of the
   staged churn generator. *)

open Netcore
open Bgp
open Vbgp

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checks = Alcotest.(check string)
let asn = Asn.of_int
let ip = Ipv4.of_string_exn
let pfx = Prefix.of_string_exn

let null_handlers =
  {
    Session.on_update = ignore;
    on_established = ignore;
    on_down = ignore;
    on_route_refresh = (fun ~afi:_ ~safi:_ -> ());
  }

(* -- fixture: one router, three neighbors, one listening experiment ------- *)

let n_neighbors = 3
let neighbor_ip i = Ipv4.of_int32 (Int32.of_int (0x64400001 + i))

type fixture = {
  engine : Sim.Engine.t;
  router : Router.t;
  neighbor_ids : int array;
  pairs : Sim.Bgp_wire.pair array;
  heard : (Prefix.t * int option, Attr.set) Hashtbl.t;
      (** the experiment's view, keyed by (prefix, ADD-PATH id) *)
  announces : (Prefix.t * int option) list ref;  (** announce NLRIs heard *)
  withdrawn_seen : int ref;  (** withdraw NLRIs heard *)
  updates_seen : int ref;  (** UPDATEs heard, End-of-RIB excluded *)
}

let make_fixture ?(gr_restart_time = 0) ~ingest_batching () =
  let engine = Sim.Engine.create () in
  let global_pool =
    Addr_pool.create ~base:(pfx "127.127.0.0/16") ~mac_pool:0x7f
  in
  let router =
    Router.create ~engine ~name:"ingest" ~asn:(asn 47065)
      ~router_id:(ip "10.255.0.1") ~primary_ip:(ip "10.255.0.1")
      ~local_pool:(pfx "127.65.0.0/16") ~global_pool ~ingest_batching
      ~gr_restart_time ()
  in
  Router.activate router;
  let both =
    Array.init n_neighbors (fun i ->
        Router.add_neighbor router ~asn:(asn (100 + i)) ~ip:(neighbor_ip i)
          ~kind:Neighbor.Transit ~remote_id:(neighbor_ip i) ())
  in
  let neighbor_ids = Array.map fst both and pairs = Array.map snd both in
  Array.iter Sim.Bgp_wire.start pairs;
  let grant =
    Control_enforcer.grant ~asns:[ asn 61574 ]
      ~prefixes:[ pfx "184.164.224.0/24" ]
      "ingest-diff"
  in
  let epair =
    Router.connect_experiment router ~grant ~mac:(Mac.local ~pool:0xe0 1) ()
  in
  let heard = Hashtbl.create 64 in
  let announces = ref [] and withdrawn_seen = ref 0 and updates_seen = ref 0 in
  Session.set_handlers epair.Sim.Bgp_wire.active
    {
      null_handlers with
      Session.on_update =
        (fun u ->
          if not (Msg.is_end_of_rib u) then begin
            incr updates_seen;
            List.iter
              (fun (n : Msg.nlri) ->
                incr withdrawn_seen;
                Hashtbl.remove heard (n.Msg.prefix, n.Msg.path_id))
              u.Msg.withdrawn;
            List.iter
              (fun (n : Msg.nlri) ->
                announces := (n.Msg.prefix, n.Msg.path_id) :: !announces;
                Hashtbl.replace heard (n.Msg.prefix, n.Msg.path_id) u.Msg.attrs)
              u.Msg.announced
          end);
    };
  Sim.Bgp_wire.start epair;
  Sim.Engine.run_until engine 5.;
  {
    engine;
    router;
    neighbor_ids;
    pairs;
    heard;
    announces;
    withdrawn_seen;
    updates_seen;
  }

let settle fx =
  Router.flush_reexports fx.router;
  Sim.Engine.run_until fx.engine (Sim.Engine.now fx.engine +. 10.)

(* -- canonical, time-independent fingerprint of converged state ----------- *)

let route_line (r : Rib.Route.t) =
  Fmt.str "%a/%s from %a: %a" Prefix.pp r.Rib.Route.prefix
    (match r.Rib.Route.path_id with Some i -> string_of_int i | None -> "-")
    Ipv4.pp r.Rib.Route.source.Rib.Route.peer_ip Attr.pp_set
    (Rib.Route.attrs r)

let fingerprint fx =
  settle fx;
  let ribs =
    Array.to_list fx.neighbor_ids
    |> List.concat_map (fun id ->
           List.map
             (fun r -> Fmt.str "%d %s" id (route_line r))
             (Router.neighbor_routes fx.router ~neighbor_id:id))
    |> List.sort compare
  in
  let fibs =
    let set = Router.fib_set fx.router in
    List.concat_map
      (fun id ->
        match Rib.Fib.Set.find set id with
        | Some fib ->
            Rib.Fib.fold
              (fun p (e : Rib.Fib.entry) acc ->
                Fmt.str "%d %a via %a@%d" id Prefix.pp p Ipv4.pp
                  e.Rib.Fib.next_hop e.Rib.Fib.neighbor
                :: acc)
              fib []
        | None -> [])
      (List.sort compare (Rib.Fib.Set.table_ids set))
    |> List.sort compare
  in
  let heard =
    Hashtbl.fold
      (fun (p, pid) attrs acc ->
        Fmt.str "%a/%s %a" Prefix.pp p
          (match pid with Some i -> string_of_int i | None -> "-")
          Attr.pp_set attrs
        :: acc)
      fx.heard []
    |> List.sort compare
  in
  String.concat "\n" (("rib:" :: ribs) @ ("fib:" :: fibs) @ ("heard:" :: heard))

(* -- random operation sequences ------------------------------------------- *)

type op =
  | Announce of int * int * int  (** neighbor, prefix index, attr variant *)
  | Withdraw of int * int
  | Flap of int  (** transport loss + auto-reconnect on one neighbor *)
  | Tick  (** advance simulated time (flushes the dirty queue) *)

let op_prefix i =
  Prefix.make (Ipv4.of_int32 (Int32.logor 0xC0A80000l (Int32.of_int (i lsl 8)))) 24

let attr_variant ~nbr v =
  Attr.origin_attrs
    ~as_path:(Aspath.of_asns (List.map asn [ 100 + nbr; 900 + v; 65000 ]))
    ~next_hop:(neighbor_ip nbr) ()
  |> Attr.with_med v

let apply fx = function
  | Announce (nbr, p, v) ->
      let s = fx.pairs.(nbr).Sim.Bgp_wire.active in
      if Session.established s then
        Session.send_update s
          (Msg.update ~attrs:(attr_variant ~nbr v)
             ~announced:[ Msg.nlri (op_prefix p) ]
             ())
  | Withdraw (nbr, p) ->
      let s = fx.pairs.(nbr).Sim.Bgp_wire.active in
      if Session.established s then
        Session.send_update s
          (Msg.update ~withdrawn:[ Msg.nlri (op_prefix p) ] ())
  | Flap nbr ->
      let fault = Sim.Fault.create fx.engine in
      Sim.Fault.kill_pair fault
        ~at:(Sim.Engine.now fx.engine +. 0.01)
        fx.pairs.(nbr);
      Sim.Engine.run_until fx.engine (Sim.Engine.now fx.engine +. 10.)
  | Tick -> Sim.Engine.run_until fx.engine (Sim.Engine.now fx.engine +. 1.)

let pp_op = function
  | Announce (n, p, v) -> Printf.sprintf "A(n%d,p%d,v%d)" n p v
  | Withdraw (n, p) -> Printf.sprintf "W(n%d,p%d)" n p
  | Flap n -> Printf.sprintf "F(n%d)" n
  | Tick -> "T"

let gen_op =
  QCheck.Gen.(
    frequency
      [
        ( 6,
          map3
            (fun n p v -> Announce (n, p, v))
            (int_bound (n_neighbors - 1))
            (int_bound 7) (int_bound 2) );
        ( 3,
          map2
            (fun n p -> Withdraw (n, p))
            (int_bound (n_neighbors - 1))
            (int_bound 7) );
        (1, map (fun n -> Flap n) (int_bound (n_neighbors - 1)));
        (2, return Tick);
      ])

let ops_arb =
  QCheck.make
    ~print:(fun ops -> String.concat " " (List.map pp_op ops))
    QCheck.Gen.(list_size (int_range 1 30) gen_op)

let prop_differential =
  QCheck.Test.make
    ~name:"batched ingest is observationally identical to eager" ~count:15
    ops_arb
    (fun ops ->
      let run ~ingest_batching =
        let fx = make_fixture ~ingest_batching () in
        List.iter (apply fx) ops;
        fingerprint fx
      in
      String.equal (run ~ingest_batching:true) (run ~ingest_batching:false))

(* -- graceful restart under batched ingest -------------------------------- *)

(* A GR-aware neighbor flaps and replays only part of its table: the stale
   mark-and-sweep must run against the batched RIB writes — retained routes
   generate zero churn toward the experiment, the missing route exactly one
   withdrawal at End-of-RIB. *)
let test_gr_eor_batched () =
  let fx = make_fixture ~gr_restart_time:120 ~ingest_batching:true () in
  let nbr = 0 in
  let s = fx.pairs.(nbr).Sim.Bgp_wire.active in
  let announce p =
    Session.send_update s
      (Msg.update ~attrs:(attr_variant ~nbr 0)
         ~announced:[ Msg.nlri (op_prefix p) ]
         ())
  in
  announce 0;
  announce 1;
  announce 2;
  Session.send_update s (Msg.update ());
  settle fx;
  checki "experiment heard the initial table" 3 (Hashtbl.length fx.heard);
  (* On re-establishment the neighbor replays p0 and p1 (same attributes)
     but not p2, closing with End-of-RIB. *)
  Session.set_handlers s
    {
      null_handlers with
      Session.on_established =
        (fun () ->
          announce 0;
          announce 1;
          Session.send_update s (Msg.update ()));
    };
  fx.withdrawn_seen := 0;
  fx.announces := [];
  let fault = Sim.Fault.create fx.engine in
  Sim.Fault.kill_pair fault ~at:(Sim.Engine.now fx.engine +. 0.5) fx.pairs.(nbr);
  Sim.Engine.run_until fx.engine (Sim.Engine.now fx.engine +. 30.);
  settle fx;
  let id = fx.neighbor_ids.(nbr) in
  checki "no stale routes after the sweep" 0
    (Router.stale_count fx.router ~neighbor_id:id);
  checki "replayed routes retained" 2
    (List.length (Router.neighbor_routes fx.router ~neighbor_id:id));
  checkb "retained prefix still heard" true
    (Hashtbl.mem fx.heard (op_prefix 0, Some id));
  checkb "swept prefix withdrawn from experiment" false
    (Hashtbl.mem fx.heard (op_prefix 2, Some id));
  checki "exactly one withdrawal (the swept route)" 1 !(fx.withdrawn_seen);
  checki "retained routes generated no announce churn" 0
    (List.length !(fx.announces))

(* A neighbor that replays its whole table (200 routes, each with its own
   attributes) closed by End-of-RIB on every establishment loses its
   session. With graceful restart the routes are retained as stale and
   the replay sweeps nothing, so the experiment hears no UPDATE at all;
   a hard drop storms one withdrawal per route (packed in one UPDATE)
   and then one re-announcement UPDATE per route. Returns the
   (withdrawals, UPDATEs) the experiment heard across the flap. *)
let flap_heard ~gr_restart_time =
  let fx = make_fixture ~gr_restart_time ~ingest_batching:true () in
  let s = fx.pairs.(0).Sim.Bgp_wire.active in
  let replay () =
    for p = 0 to 199 do
      Session.send_update s
        (Msg.update ~attrs:(attr_variant ~nbr:0 p)
           ~announced:[ Msg.nlri (op_prefix p) ]
           ())
    done;
    Session.send_update s (Msg.update ())
  in
  Session.set_handlers s { null_handlers with Session.on_established = replay };
  replay ();
  settle fx;
  fx.withdrawn_seen := 0;
  fx.updates_seen := 0;
  let fault = Sim.Fault.create fx.engine in
  Sim.Fault.kill_pair fault ~at:1.0 fx.pairs.(0);
  Sim.Engine.run_until fx.engine (Sim.Engine.now fx.engine +. 90.);
  settle fx;
  (!(fx.withdrawn_seen), !(fx.updates_seen))

let test_gr_hides_flap () =
  let pin = Alcotest.(check (pair int int)) in
  pin "with graceful restart: withdrawals, UPDATEs" (0, 0)
    (flap_heard ~gr_restart_time:120);
  pin "hard drop: withdrawals, UPDATEs" (200, 201)
    (flap_heard ~gr_restart_time:0)

(* -- same-tick coalescing -------------------------------------------------- *)

(* An announce and its withdraw arriving within one engine tick net out in
   the dirty queue: the transient route must never reach the experiment. *)
let test_batched_coalesces () =
  let fx = make_fixture ~ingest_batching:true () in
  let s = fx.pairs.(0).Sim.Bgp_wire.active in
  fx.announces := [];
  Session.send_update s
    (Msg.update ~attrs:(attr_variant ~nbr:0 0)
       ~announced:[ Msg.nlri (op_prefix 0) ]
       ());
  Session.send_update s (Msg.update ~withdrawn:[ Msg.nlri (op_prefix 0) ] ());
  settle fx;
  checki "router table empty" 0 (Router.route_count fx.router);
  checkb "experiment never saw the prefix" false
    (Hashtbl.mem fx.heard (op_prefix 0, Some fx.neighbor_ids.(0)));
  checki "transient announce suppressed" 0 (List.length !(fx.announces))

(* -- the batch entry point ------------------------------------------------- *)

let announce_wire ~nbr p =
  Router.Wire
    (Codec.encode
       (Msg.Update
          (Msg.update ~attrs:(attr_variant ~nbr 0)
             ~announced:[ Msg.nlri (op_prefix p) ]
             ())))

(* Undecodable wire items are counted, not dropped silently; the valid
   UPDATEs around them are still ingested. *)
let test_decode_errors_counted () =
  let fx = make_fixture ~ingest_batching:true () in
  let garbage =
    [| "\x00\x01"; String.make 19 '\xff'; "not a BGP message at all" |]
  in
  let batch =
    Array.append
      (Array.mapi
         (fun i g -> (fx.neighbor_ids.(i mod n_neighbors), Router.Wire g))
         garbage)
      [| (fx.neighbor_ids.(1), announce_wire ~nbr:1 0) |]
  in
  let c = Router.counters fx.router in
  let updates0 = c.Router.updates_from_neighbors in
  Router.ingest_updates fx.router batch;
  Router.ingest_updates fx.router batch;
  checki "every garbage item counted" (2 * Array.length garbage)
    c.Router.decode_errors;
  checki "the UPDATEs processed" 2 (c.Router.updates_from_neighbors - updates0);
  checki "the announced route installed" 1
    (List.length
       (Router.neighbor_routes fx.router ~neighbor_id:fx.neighbor_ids.(1)))

(* A valid message that is not an UPDATE is neither processed nor counted
   as a decode error. *)
let test_non_update_ignored () =
  let fx = make_fixture ~ingest_batching:true () in
  let c = Router.counters fx.router in
  let updates0 = c.Router.updates_from_neighbors in
  Router.ingest_updates fx.router
    [| (fx.neighbor_ids.(0), Router.Wire (Codec.encode Msg.Keepalive)) |];
  checki "no decode error" 0 c.Router.decode_errors;
  checki "no UPDATE processed" updates0 c.Router.updates_from_neighbors

let test_unknown_neighbor_rejected () =
  let fx = make_fixture ~ingest_batching:true () in
  let bogus = 1 + Array.fold_left max 0 fx.neighbor_ids in
  Alcotest.check_raises "unknown neighbor raises"
    (Invalid_argument "Router.ingest_updates: unknown neighbor") (fun () ->
      Router.ingest_updates fx.router
        [| (bogus, Router.Update (Msg.update ())) |])

(* -- churn generator determinism ------------------------------------------ *)

let small_plan seed =
  Topo.Updates.
    {
      stages =
        [
          Announce_wave { count = 400; rate = 10_000. };
          Withdraw_storm { fraction = 0.25; rate = 5_000. };
          Peer_flap { peers = 2; rate = 10_000. };
          Announce_wave { count = 50; rate = 10_000. };
        ];
      peer_count = 8;
      path_pool = 32;
      prefix_of = Topo.Updates.default_prefix_of;
      origin_asn = asn 65010;
      plan_seed = seed;
    }

let event_line (e : Topo.Updates.event) =
  Fmt.str "%.6f %d %a %s %s" e.Topo.Updates.time e.Topo.Updates.peer_index
    Prefix.pp e.Topo.Updates.prefix
    (match e.Topo.Updates.kind with
    | Topo.Updates.Announce -> "A"
    | Topo.Updates.Withdraw -> "W")
    (Aspath.to_string e.Topo.Updates.as_path)

let collect plan =
  let buf = ref [] in
  let stats = Topo.Updates.run ~plan ~emit:(fun e -> buf := e :: !buf) () in
  (stats, List.rev_map event_line !buf)

let test_churn_determinism () =
  let stats_a, a = collect (small_plan 7) in
  let _, b = collect (small_plan 7) in
  let _, c = collect (small_plan 8) in
  checki "stream length matches stats" stats_a.Topo.Updates.events
    (List.length a);
  checki "kind split sums to total" stats_a.Topo.Updates.events
    (stats_a.Topo.Updates.announce_events
   + stats_a.Topo.Updates.withdraw_events);
  checks "identical seeds, identical streams" (String.concat "\n" a)
    (String.concat "\n" b);
  checkb "different seed, different stream" false
    (List.equal String.equal a c)

let () =
  Alcotest.run "ingest"
    [
      ("differential", [ QCheck_alcotest.to_alcotest prop_differential ]);
      ( "graceful-restart",
        [
          Alcotest.test_case "EoR mark-and-sweep under batched ingest" `Quick
            test_gr_eor_batched;
          Alcotest.test_case "a flap is silent with GR, a storm without" `Quick
            test_gr_hides_flap;
        ] );
      ( "batching",
        [
          Alcotest.test_case "same-tick announce+withdraw coalesces" `Quick
            test_batched_coalesces;
        ] );
      ( "ingest-updates",
        [
          Alcotest.test_case "undecodable wire items are counted" `Quick
            test_decode_errors_counted;
          Alcotest.test_case "a non-UPDATE message is ignored" `Quick
            test_non_update_ignored;
          Alcotest.test_case "unknown neighbor rejected" `Quick
            test_unknown_neighbor_rejected;
        ] );
      ( "churn",
        [
          Alcotest.test_case "generator is deterministic per seed" `Quick
            test_churn_determinism;
        ] );
    ]
