(* Differential and regression tests for the parallel ingest lane.
   A router created with [?lanes:4] hash-partitions wire-format
   UPDATE batches across worker lanes — each lane owns its neighbors'
   decode, attribute intern and Adj-RIB-In writes — and reconciles the
   staged deltas into the FIB + dirty queue on the single writer. That
   path must be bit-identical to the sequential batched path: a QCheck
   property drives the same random announce/withdraw/drain/flap/EoR
   sequence through two identically-wired routers (4 lanes vs inline) and
   compares full RIB/FIB/heard/adj-out fingerprints plus exact counter
   equality, with and without graceful restart in play. Alongside it:
   directed GR End-of-RIB mark-and-sweep riding the parallel lane, a
   mid-churn session kill on a worker-owned neighbor, and the neighbor
   hash-partition spread. *)

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

(* -- fixture: one router, five neighbors, one listening experiment --------- *)

(* Five neighbors over four lanes: at least one lane owns two neighbors,
   so the single-writer replay has to interleave staging queues. *)
let n_neighbors = 5
let neighbor_ip i = Ipv4.of_int32 (Int32.of_int (0x64400001 + i))

type fixture = {
  engine : Sim.Engine.t;
  router : Router.t;
  neighbor_ids : int array;
  pairs : Sim.Bgp_wire.pair array;
  pending : (int * Msg.update) list ref;
      (** buffered (neighbor index, update) items awaiting a Drain *)
  heard : (Prefix.t * int option, Attr.set) Hashtbl.t;
  announces : (Prefix.t * int option) list ref;
  withdrawn_seen : int ref;
}

let make_fixture ?(gr_restart_time = 0) ~lanes () =
  let engine = Sim.Engine.create () in
  let global_pool =
    Addr_pool.create ~base:(pfx "127.127.0.0/16") ~mac_pool:0x7f
  in
  let router =
    Router.create ~engine ~name:"par-ingest" ~asn:(asn 47065)
      ~router_id:(ip "10.255.0.1") ~primary_ip:(ip "10.255.0.1")
      ~local_pool:(pfx "127.65.0.0/16") ~global_pool ~lanes
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
      "par-diff"
  in
  let epair =
    Router.connect_experiment router ~grant ~mac:(Mac.local ~pool:0xe0 1) ()
  in
  let heard = Hashtbl.create 64 in
  let announces = ref [] and withdrawn_seen = ref 0 in
  Session.set_handlers epair.Sim.Bgp_wire.active
    {
      null_handlers with
      Session.on_update =
        (fun u ->
          if not (Msg.is_end_of_rib u) then begin
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
    pending = ref [];
    heard;
    announces;
    withdrawn_seen;
  }

let settle fx =
  Router.flush_reexports fx.router;
  Sim.Engine.run_until fx.engine (Sim.Engine.now fx.engine +. 10.)

(* Feed the buffered items as one wire-format batch through the ingest
   lane. The updates are encoded to bytes so the worker domains (or the
   inline path on a sequential router) own the decode. *)
let drain fx =
  match List.rev !(fx.pending) with
  | [] -> ()
  | items ->
      fx.pending := [];
      Router.ingest_updates fx.router
        (Array.of_list
           (List.map
              (fun (nbr, u) ->
                ( fx.neighbor_ids.(nbr),
                  Router.Wire (Codec.encode (Msg.Update u)) ))
              items))

(* -- canonical, time-independent fingerprint of converged state ----------- *)

let route_line (r : Rib.Route.t) =
  Fmt.str "%a/%s from %a: %a" Prefix.pp r.Rib.Route.prefix
    (match r.Rib.Route.path_id with Some i -> string_of_int i | None -> "-")
    Ipv4.pp r.Rib.Route.source.Rib.Route.peer_ip Attr.pp_set
    (Rib.Route.attrs r)

let counters_line fx =
  let c = Router.counters fx.router in
  Fmt.str
    "from_nbr=%d from_exp=%d from_mesh=%d reexport=%d gr_ret=%d gr_exp=%d \
     to_nbr=%d/%d to_exp=%d/%d to_mesh=%d/%d"
    c.Router.updates_from_neighbors c.Router.updates_from_experiments
    c.Router.updates_from_mesh c.Router.reexport_computations
    c.Router.gr_retentions c.Router.gr_expiries c.Router.updates_to_neighbors
    c.Router.nlri_to_neighbors c.Router.updates_to_experiments
    c.Router.nlri_to_experiments c.Router.updates_to_mesh
    c.Router.nlri_to_mesh

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
  let adj_out =
    Array.to_list fx.neighbor_ids
    |> List.concat_map (fun id ->
           List.map
             (fun (p, attrs) ->
               Fmt.str "%d %a %a" id Prefix.pp p Attr.pp_set attrs)
             (Router.adj_out_routes fx.router ~neighbor_id:id))
    |> List.sort compare
  in
  String.concat "\n"
    (("rib:" :: ribs) @ ("fib:" :: fibs) @ ("heard:" :: heard)
    @ ("adj-out:" :: adj_out)
    @ [ "counters:"; counters_line fx ])

(* -- random operation sequences ------------------------------------------- *)

type op =
  | Announce of int * int * int  (** neighbor, prefix index, attr variant *)
  | Withdraw of int * int
  | Drain  (** feed the buffered items as one ingest batch *)
  | Flap of int  (** transport loss + auto-reconnect on one neighbor *)
  | Eor of int  (** End-of-RIB on one neighbor's session (GR sweep) *)
  | Tick

let op_prefix i =
  Prefix.make
    (Ipv4.of_int32 (Int32.logor 0xC0A80000l (Int32.of_int (i lsl 8))))
    24

let attr_variant ~nbr v =
  Attr.origin_attrs
    ~as_path:(Aspath.of_asns (List.map asn [ 100 + nbr; 900 + v; 65000 ]))
    ~next_hop:(neighbor_ip nbr) ()
  |> Attr.with_med v

let apply fx = function
  | Announce (nbr, p, v) ->
      fx.pending :=
        ( nbr,
          Msg.update ~attrs:(attr_variant ~nbr v)
            ~announced:[ Msg.nlri (op_prefix p) ]
            () )
        :: !(fx.pending)
  | Withdraw (nbr, p) ->
      fx.pending :=
        (nbr, Msg.update ~withdrawn:[ Msg.nlri (op_prefix p) ] ())
        :: !(fx.pending)
  | Drain -> drain fx
  | Flap nbr ->
      let fault = Sim.Fault.create fx.engine in
      Sim.Fault.kill_pair fault
        ~at:(Sim.Engine.now fx.engine +. 0.01)
        fx.pairs.(nbr);
      Sim.Engine.run_until fx.engine (Sim.Engine.now fx.engine +. 10.)
  | Eor nbr ->
      let s = fx.pairs.(nbr).Sim.Bgp_wire.active in
      if Session.established s then Session.send_update s (Msg.update ())
  | Tick -> Sim.Engine.run_until fx.engine (Sim.Engine.now fx.engine +. 1.)

let pp_op = function
  | Announce (n, p, v) -> Printf.sprintf "A(n%d,p%d,v%d)" n p v
  | Withdraw (n, p) -> Printf.sprintf "W(n%d,p%d)" n p
  | Drain -> "D"
  | Flap n -> Printf.sprintf "F(n%d)" n
  | Eor n -> Printf.sprintf "E(n%d)" n
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
        (4, return Drain);
        (1, map (fun n -> Flap n) (int_bound (n_neighbors - 1)));
        (1, map (fun n -> Eor n) (int_bound (n_neighbors - 1)));
        (2, return Tick);
      ])

let ops_arb =
  QCheck.make
    ~print:(fun ops -> String.concat " " (List.map pp_op ops))
    QCheck.Gen.(list_size (int_range 1 30) gen_op)

(* Run one ops sequence to convergence; returns the fingerprint and the
   staging residual (which must be zero once the final drain has run). *)
let run_ops ~lanes ~gr ops =
  let fx = make_fixture ~gr_restart_time:gr ~lanes () in
  List.iter (apply fx) ops;
  apply fx Drain;
  let fp = fingerprint fx in
  let residual = (Router.ingest_stats fx.router).Router.staging_residual in
  Router.shutdown_domains fx.router;
  (fp, residual)

let differential ~name ~gr =
  QCheck.Test.make ~name ~count:12 ops_arb (fun ops ->
      let fp_par, residual = run_ops ~lanes:4 ~gr ops in
      let fp_seq, _ = run_ops ~lanes:1 ~gr ops in
      residual = 0 && String.equal fp_par fp_seq)

let prop_differential =
  differential ~name:"4-lane ingest is bit-identical to sequential" ~gr:0

let prop_differential_gr =
  differential
    ~name:"4-lane ingest is bit-identical under graceful restart" ~gr:120

(* -- directed: GR End-of-RIB mark-and-sweep on the parallel lane ----------- *)

(* A GR-aware neighbor loads its table through the parallel lane, flaps,
   and replays only part of it — again through the lane — before closing
   with End-of-RIB on the session. The worker-side stale unmark and the
   coordinator-side sweep must agree: retained routes generate zero churn
   toward the experiment, the missing route exactly one withdrawal. *)
let test_par_gr_eor () =
  let fx = make_fixture ~gr_restart_time:120 ~lanes:4 () in
  let nbr = 0 in
  let ann p =
    ( fx.neighbor_ids.(nbr),
      Router.Wire
        (Codec.encode
           (Msg.Update
              (Msg.update ~attrs:(attr_variant ~nbr 0)
                 ~announced:[ Msg.nlri (op_prefix p) ]
                 ()))) )
  in
  Router.ingest_updates fx.router [| ann 0; ann 1; ann 2 |];
  settle fx;
  checki "experiment heard the initial table" 3 (Hashtbl.length fx.heard);
  let s = fx.pairs.(nbr).Sim.Bgp_wire.active in
  Session.set_handlers s
    {
      null_handlers with
      Session.on_established =
        (fun () ->
          Router.ingest_updates fx.router [| ann 0; ann 1 |];
          Session.send_update s (Msg.update ()));
    };
  fx.withdrawn_seen := 0;
  fx.announces := [];
  let fault = Sim.Fault.create fx.engine in
  Sim.Fault.kill_pair fault
    ~at:(Sim.Engine.now fx.engine +. 0.5)
    fx.pairs.(nbr);
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
    (List.length !(fx.announces));
  checki "staging queues drained" 0
    (Router.ingest_stats fx.router).Router.staging_residual;
  Router.shutdown_domains fx.router

(* -- directed: mid-churn session kill on a worker-owned neighbor ----------- *)

(* The target a worker sees is captured at drain time, so a session that
   hard-drops between two batches must be reflected in the next drain:
   the relearned table after the kill has to match the sequential path
   exactly. Expressed as a fixed ops script run differentially. *)
let test_par_kill_mid_churn () =
  let wave v =
    List.concat_map
      (fun nbr -> List.init 6 (fun p -> Announce (nbr, p, v)))
      (List.init n_neighbors Fun.id)
  in
  let script =
    wave 0 @ [ Drain; Tick; Flap 2; Tick ] @ wave 1
    @ [ Drain; Tick; Withdraw (2, 1); Withdraw (4, 3); Drain; Tick ]
  in
  let fp_par, residual = run_ops ~lanes:4 ~gr:0 script in
  let fp_seq, _ = run_ops ~lanes:1 ~gr:0 script in
  checki "staging queues drained" 0 residual;
  checks "kill mid-churn converges identically" fp_seq fp_par

(* -- partitioning and plumbing --------------------------------------------- *)

let test_domain_spread () =
  let lanes = 4 in
  let counts = Array.make lanes 0 in
  for nid = 0 to 255 do
    let d = Lanes.of_neighbor ~lanes nid in
    checkb "lane in range" true (d >= 0 && d < lanes);
    counts.(d) <- counts.(d) + 1
  done;
  (* The mix must spread dense small ids: no lane may own less than a
     quarter of its fair share of 256 consecutive neighbors. *)
  Array.iter
    (fun c -> checkb "no starved lane" true (c >= 256 / lanes / 4))
    counts;
  for nid = 0 to 31 do
    checki "single lane folds everything to 0" 0
      (Lanes.of_neighbor ~lanes:1 nid)
  done

(* Lane-count validation lives in [Router.create]; the ingest-specific
   part is the batching requirement of a multi-lane router. *)
let test_create_validation () =
  let engine = Sim.Engine.create () in
  let mk ?(ingest_batching = true) lanes () =
    Router.create ~engine ~name:"v" ~asn:(asn 1) ~router_id:(ip "10.0.0.1")
      ~primary_ip:(ip "10.0.0.1") ~local_pool:(pfx "127.66.0.0/16")
      ~global_pool:
        (Addr_pool.create ~base:(pfx "127.127.0.0/16") ~mac_pool:0x7f)
      ~ingest_batching ~lanes ()
  in
  checkb "lanes 0 rejected" true
    (try
       ignore (mk 0 ());
       false
     with Invalid_argument _ -> true);
  checkb "several lanes require batched ingest" true
    (try
       ignore (mk ~ingest_batching:false 2 ());
       false
     with Invalid_argument _ -> true);
  let r = mk ~ingest_batching:false 1 () in
  checki "one lane is the sequential path" 1 (Router.lanes r)

(* Undecodable wire items are counted, not dropped silently, and the
   count does not depend on the lane count: the sequential path decodes
   on the coordinator's lane, the 4-lane path on each neighbor's lane.
   A valid non-UPDATE message is ignored without counting. *)
let test_decode_errors_counted () =
  let garbage =
    [| "\x00\x01"; String.make 19 '\xff'; "not a BGP message at all" |]
  in
  let run lanes =
    let fx = make_fixture ~lanes () in
    let batch =
      Array.append
        (Array.mapi
           (fun i g -> (fx.neighbor_ids.(i mod n_neighbors), Router.Wire g))
           garbage)
        [|
          (fx.neighbor_ids.(0), Router.Wire (Codec.encode Msg.Keepalive));
          ( fx.neighbor_ids.(1),
            Router.Wire
              (Codec.encode
                 (Msg.Update
                    (Msg.update ~attrs:(attr_variant ~nbr:1 0)
                       ~announced:[ Msg.nlri (op_prefix 0) ]
                       ()))) );
        |]
    in
    Router.ingest_updates fx.router batch;
    Router.ingest_updates fx.router batch;
    let errors = (Router.ingest_stats fx.router).Router.decode_errors in
    let updates = (Router.counters fx.router).Router.updates_from_neighbors in
    Router.shutdown_domains fx.router;
    (errors, updates)
  in
  let e1, u1 = run 1 in
  let e4, u4 = run 4 in
  checki "every garbage item counted, one lane" (2 * Array.length garbage) e1;
  checki "the same count at four lanes" e1 e4;
  checki "only the UPDATEs processed, one lane" 2 u1;
  checki "the same updates at four lanes" u1 u4

let test_unknown_neighbor_rejected () =
  let fx = make_fixture ~lanes:4 () in
  let bogus = 1 + Array.fold_left max 0 fx.neighbor_ids in
  checkb "unknown neighbor raises" true
    (try
       Router.ingest_updates fx.router
         [| (bogus, Router.Update (Msg.update ())) |];
       false
     with Invalid_argument _ -> true);
  Router.shutdown_domains fx.router

let () =
  Alcotest.run "par-ingest"
    [
      ( "differential",
        [
          QCheck_alcotest.to_alcotest prop_differential;
          QCheck_alcotest.to_alcotest prop_differential_gr;
        ] );
      ( "graceful-restart",
        [
          Alcotest.test_case "EoR mark-and-sweep rides the parallel lane"
            `Quick test_par_gr_eor;
        ] );
      ( "faults",
        [
          Alcotest.test_case "mid-churn session kill on a worker's neighbor"
            `Quick test_par_kill_mid_churn;
          Alcotest.test_case "decode errors counted at any lane count" `Quick
            test_decode_errors_counted;
        ] );
      ( "partition",
        [
          Alcotest.test_case "neighbor hash spreads across lanes" `Quick
            test_domain_spread;
          Alcotest.test_case "create validates the lane count" `Quick
            test_create_validation;
          Alcotest.test_case "unknown neighbor rejected" `Quick
            test_unknown_neighbor_rejected;
        ] );
    ]
