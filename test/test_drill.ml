(* Failover drills: kill a whole PoP, watch health-gated degradation
   re-home its announcements onto survivors, restart it, and reconverge
   the platform — BGP state through graceful restart and full-table
   resync, kernel state through the two-phase controller re-apply — back
   to a never-faulted control world's fingerprint. Same control-vs-faulted
   discipline as the chaos suite, across a seed matrix. *)

open Netcore
open Bgp
open Peering

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let pfx = Prefix.of_string_exn

type world = {
  platform : Platform.t;
  pops : Pop.t list;  (** [pop01; pop02] *)
  kit : Toolkit.t;
  prefix : Prefix.t;
}

(* Two PoPs on a backbone mesh against a seed-determined synthetic
   Internet, the experiment attached and announcing its first prefix at
   BOTH sites (so a dead site has somewhere to re-home to), and every
   kernel reconciled to the intent through the two-phase controller. *)
let build_world ~seed () =
  let graph =
    Topo.As_graph.generate
      ~params:{ Topo.As_graph.default_gen with transit = 6; stub = 24; seed }
      ()
  in
  let stubs =
    List.filter
      (fun a ->
        match Topo.As_graph.node graph a with
        | Some n -> n.Topo.As_graph.tier = 3
        | None -> false)
      (Topo.As_graph.asns graph)
    |> List.sort Asn.compare
  in
  let origins =
    Topo.Internet.assign_prefixes
      ~base:(pfx "192.168.0.0/16")
      (List.filteri (fun i _ -> i < 12) stubs)
  in
  let internet = Topo.Internet.create graph ~origins in
  let platform = Platform.create () in
  let pop_a = Platform.add_pop platform ~name:"pop01" ~site:Pop.Ixp () in
  let pop_b = Platform.add_pop platform ~name:"pop02" ~site:Pop.Ixp () in
  ignore
    (Platform.populate_pop platform ~pop:pop_a ~internet ~transits:2 ~peers:1
       ());
  ignore
    (Platform.populate_pop platform ~pop:pop_b ~internet ~transits:2 ~peers:1
       ());
  Platform.connect_backbone platform;
  Platform.run platform ~seconds:10.;
  let grant =
    match
      Platform.submit platform
        (Approval.proposal ~title:"drill" ~team:"drill" ~goals:"failover" ())
    with
    | Platform.Granted r -> r.Approval.grant
    | Platform.Denied reason -> failwith reason
  in
  let kit = Toolkit.create ~engine:(Platform.engine platform) ~grant in
  ignore (Toolkit.open_tunnel kit pop_a);
  ignore (Toolkit.open_tunnel kit pop_b);
  Toolkit.start_session kit ~pop:"pop01";
  Toolkit.start_session kit ~pop:"pop02";
  Platform.run platform ~seconds:10.;
  let prefix = List.hd grant.Vbgp.Control_enforcer.prefixes in
  Toolkit.announce kit prefix;
  Platform.run platform ~seconds:10.;
  (match Failover.reapply platform (Config_model.of_platform platform) with
  | Controller.Multi.Committed_all _ -> ()
  | _ -> failwith "initial intent apply failed");
  { platform; pops = [ pop_a; pop_b ]; kit; prefix }

let run_seconds w s = Platform.run w.platform ~seconds:s
let now w = Sim.Engine.now (Platform.engine w.platform)

(* -- the multi-PoP fingerprint (chaos suite's, across sites) --------------- *)

let route_line (r : Rib.Route.t) =
  Fmt.str "%a/%s from %a: %a" Prefix.pp r.Rib.Route.prefix
    (match r.Rib.Route.path_id with Some i -> string_of_int i | None -> "-")
    Ipv4.pp r.Rib.Route.source.Rib.Route.peer_ip Attr.pp_set
    (Rib.Route.attrs r)

let fingerprint w =
  let exp_rib =
    List.concat_map
      (fun pop ->
        List.map
          (fun r -> Fmt.str "%s %s" (Pop.name pop) (route_line r))
          (Toolkit.routes w.kit ~pop:(Pop.name pop)))
      w.pops
    |> List.sort compare
  in
  let adj_out =
    List.concat_map
      (fun pop ->
        List.concat_map
          (fun h ->
            let id = Neighbor_host.neighbor_id h in
            List.map
              (fun (p, attrs) ->
                Fmt.str "%s %d %a %a" (Pop.name pop) id Prefix.pp p
                  Attr.pp_set attrs)
              (Vbgp.Router.adj_out_routes (Pop.router pop) ~neighbor_id:id))
          (Pop.neighbors pop))
      w.pops
    |> List.sort compare
  in
  let heard =
    List.concat_map
      (fun pop ->
        List.concat_map
          (fun h ->
            Hashtbl.fold
              (fun p attrs acc ->
                Fmt.str "%s %d %a %a" (Pop.name pop)
                  (Neighbor_host.neighbor_id h)
                  Prefix.pp p Attr.pp_set attrs
                :: acc)
              h.Neighbor_host.heard [])
          (Pop.neighbors pop))
      w.pops
    |> List.sort compare
  in
  let fibs =
    List.concat_map
      (fun pop ->
        let set = Vbgp.Router.fib_set (Pop.router pop) in
        List.concat_map
          (fun id ->
            match Rib.Fib.Set.find set id with
            | Some fib ->
                Rib.Fib.fold
                  (fun p (e : Rib.Fib.entry) acc ->
                    Fmt.str "%s %d %a via %a@%d" (Pop.name pop) id Prefix.pp
                      p Ipv4.pp e.Rib.Fib.next_hop e.Rib.Fib.neighbor
                    :: acc)
                  fib []
            | None -> [])
          (List.sort compare (Rib.Fib.Set.table_ids set)))
      w.pops
    |> List.sort compare
  in
  let counts =
    List.map (fun pop -> Vbgp.Router.route_count (Pop.router pop)) w.pops
  in
  (exp_rib, adj_out, heard, fibs, counts)

let check_converged ~seed ~fault control faulted =
  let c_rib, c_adj, c_heard, c_fib, c_counts = fingerprint control in
  let f_rib, f_adj, f_heard, f_fib, f_counts = fingerprint faulted in
  let tag what =
    Printf.sprintf "seed %d: %s matches control\nfault script:\n%s" seed what
      (Sim.Fault.script fault)
  in
  Alcotest.(check (list string)) (tag "experiment RIBs") c_rib f_rib;
  Alcotest.(check (list string)) (tag "Adj-RIB-Outs") c_adj f_adj;
  Alcotest.(check (list string)) (tag "neighbor heard-tables") c_heard f_heard;
  Alcotest.(check (list string)) (tag "per-neighbor FIBs") c_fib f_fib;
  Alcotest.(check (list int)) (tag "router route counts") c_counts f_counts

(* -- the drill -------------------------------------------------------------- *)

(* Kill pop02 outright. Health must detect it within the drill window and
   fire the re-homing actuator (survivors flush the dead site's imports);
   traffic entering the surviving PoP still reaches the experiment; a
   controller apply against the dead site must abort with zero residual;
   after restart plus two-phase re-apply, the world is indistinguishable
   from a control that never faulted. *)
let drill ~seed =
  let control = build_world ~seed () in
  let faulted = build_world ~seed () in
  let health = Health.create faulted.platform in
  Health.start health;
  let fault = Sim.Fault.create ~seed (Platform.engine faulted.platform) in
  let victim = "pop02" in
  let kill_time = now faulted +. 1.25 in
  Sim.Fault.kill_pop fault ~at:1.25 ~pop:victim (fun () ->
      Failover.kill_pop faulted.platform ~kits:[ faulted.kit ] ~name:victim ());
  run_seconds control 15.;
  run_seconds faulted 15.;
  (* Detection: Failed within the drill window, logged with its time. *)
  checkb
    (Printf.sprintf "seed %d: victim declared Failed" seed)
    true
    (Health.status health ~pop:victim = Health.Failed);
  (match
     List.find_opt
       (fun (_, p, s) -> String.equal p victim && s = Health.Failed)
       (Health.transitions health)
   with
  | Some (t, _, _) ->
      (* Three missed 1 s probes: deterministic, so pinned exactly. *)
      Alcotest.(check (float 0.))
        (Printf.sprintf "seed %d: failure detected 2.75 sim s after the kill"
           seed)
        2.75 (t -. kill_time)
  | None -> Alcotest.fail "no Failed transition recorded");
  let survivor = List.hd faulted.pops in
  (* Re-homing: the surviving PoP still announces the experiment prefix
     to its neighbors, and inbound traffic still reaches the experiment. *)
  List.iter
    (fun h ->
      checkb
        (Printf.sprintf "seed %d: survivor neighbor still hears the prefix"
           seed)
        true
        (Neighbor_host.heard_route h faulted.prefix <> None))
    (Pop.neighbors survivor);
  let delivered_before = List.length (Toolkit.received faulted.kit) in
  let prober = List.hd (Pop.neighbors survivor) in
  Neighbor_host.send_packet prober ~src:prober.Neighbor_host.ip
    ~dst:(Prefix.host faulted.prefix 9)
    "re-homed";
  run_seconds faulted 2.;
  run_seconds control 2.;
  checkb
    (Printf.sprintf "seed %d: traffic re-homed through the survivor" seed)
    true
    (List.length (Toolkit.received faulted.kit) > delivered_before);
  (* A config push while the site is dead must abort in prepare and leave
     zero residual on the survivor. *)
  let cfg = Config_model.of_platform faulted.platform in
  let survivor_snapshot = Controller.Kernel.observe (Pop.kernel survivor) in
  (match Failover.reapply faulted.platform cfg with
  | Controller.Multi.Aborted { failed_pop; phase; _ } ->
      Alcotest.(check string)
        (Printf.sprintf "seed %d: dead PoP named" seed)
        victim failed_pop;
      checkb
        (Printf.sprintf "seed %d: failed in prepare" seed)
        true
        (phase = Controller.Multi.Prepare)
  | _ -> Alcotest.fail "apply against a dead PoP must abort");
  checkb
    (Printf.sprintf "seed %d: survivor kernel untouched by the abort" seed)
    true
    (Controller.Kernel.observe (Pop.kernel survivor) = survivor_snapshot);
  (* Restart, let BGP resync and health recover, then re-apply intent. *)
  let restart_time = now faulted +. 1.0 in
  Sim.Fault.restart_pop fault ~at:1.0 ~pop:victim (fun () ->
      Failover.restart_pop faulted.platform ~kits:[ faulted.kit ]
        ~name:victim ());
  run_seconds control 45.;
  run_seconds faulted 45.;
  checkb
    (Printf.sprintf "seed %d: victim Healthy again after restart" seed)
    true
    (Health.status health ~pop:victim = Health.Healthy);
  (* BGP resync plus two good probes, on this restart's probe phase. *)
  (match
     List.find_opt
       (fun (t, p, s) ->
         String.equal p victim && s = Health.Healthy && t > restart_time)
       (Health.transitions health)
   with
  | Some (t, _, _) ->
      Alcotest.(check (float 0.))
        (Printf.sprintf "seed %d: Healthy 3 sim s after the restart" seed)
        3.0 (t -. restart_time)
  | None -> Alcotest.fail "no Healthy transition after the restart");
  (match Failover.reapply faulted.platform cfg with
  | Controller.Multi.Committed_all _ -> ()
  | Controller.Multi.Aborted { failed_pop; error; _ } ->
      Alcotest.fail
        (Printf.sprintf "post-restart reapply aborted at %s: %s" failed_pop
           error)
  | Controller.Multi.Crashed _ -> Alcotest.fail "post-restart reapply crashed");
  checkb
    (Printf.sprintf "seed %d: every kernel converged to intent" seed)
    true
    (Controller.Multi.converged_all (Failover.participants faulted.platform cfg));
  (* The rebuilt kernel is indistinguishable from the control's. *)
  List.iter2
    (fun cp fp ->
      checkb
        (Printf.sprintf "seed %d: %s kernel state matches control" seed
           (Pop.name fp))
        true
        (Controller.Kernel.observe (Pop.kernel cp)
        = Controller.Kernel.observe (Pop.kernel fp)))
    control.pops faulted.pops;
  Health.stop health;
  check_converged ~seed ~fault control faulted

let test_kill_restart_reconverges () = List.iter (fun seed -> drill ~seed) [ 3; 17; 71 ]

(* Degraded mode: every session at the PoP transport-fails at once. The
   health monitor must notice (Degraded), must NOT escalate to Failed —
   the sessions recover through reconnect backoff within a probe or two —
   and must return the PoP to Healthy once they do. *)
let test_degradation_recovers () =
  let w = build_world ~seed:4 () in
  let health = Health.create w.platform in
  Health.start health;
  let fault = Sim.Fault.create ~seed:4 (Platform.engine w.platform) in
  Sim.Fault.degrade_pop fault ~at:1.5 ~pop:"pop01" ~fraction:1.0 (fun () ->
      ignore
        (Failover.degrade_pop w.platform ~name:"pop01" ~fraction:1.0
           ~rng:(Sim.Fault.rng fault) ()));
  run_seconds w 20.;
  let ts = Health.transitions health in
  checkb "degradation observed" true
    (List.exists
       (fun (_, p, s) -> String.equal p "pop01" && s = Health.Degraded)
       ts);
  checkb "never escalated to Failed" true
    (not
       (List.exists
          (fun (_, p, s) -> String.equal p "pop01" && s = Health.Failed)
          ts));
  checkb "back to Healthy" true (Health.status health ~pop:"pop01" = Health.Healthy);
  List.iter
    (fun h ->
      checkb "session recovered on its own" true
        (Neighbor_host.is_established h))
    (Pop.neighbors (List.hd w.pops));
  Health.stop health

(* Two-phase guarantees on a live platform: an apply that cannot reach one
   PoP aborts in prepare with zero residual anywhere; one whose commit
   fails at one PoP rolls the already-committed PoPs back; a clean retry
   then converges everything. *)
let test_two_phase_zero_residual () =
  let w = build_world ~seed:9 () in
  let cfg = Config_model.of_platform w.platform in
  let k1 = Pop.kernel (List.nth w.pops 0) in
  let k2 = Pop.kernel (List.nth w.pops 1) in
  (* Out-of-band drift on both kernels gives every commit real work and
     makes "zero residual" distinguishable from "reconciled". *)
  let drift k =
    match
      Controller.Kernel.apply k
        (Controller.Add_route
           { Controller.table = 9; prefix = Prefix.default; via = Ipv4.of_octets 9 9 9 9 })
    with
    | Ok () -> ()
    | Error e -> Alcotest.fail e
  in
  drift k1;
  drift k2;
  let snap1 = Controller.Kernel.observe k1 in
  let snap2 = Controller.Kernel.observe k2 in
  Controller.Kernel.set_offline k2 true;
  (match Failover.reapply w.platform cfg with
  | Controller.Multi.Aborted { failed_pop; phase; _ } ->
      Alcotest.(check string) "unreachable PoP named" "pop02" failed_pop;
      checkb "aborted in prepare" true (phase = Controller.Multi.Prepare)
  | _ -> Alcotest.fail "expected Aborted in prepare");
  checkb "pop01 untouched" true (Controller.Kernel.observe k1 = snap1);
  checkb "pop02 untouched" true (Controller.Kernel.observe k2 = snap2);
  (* Reachable again, but its kernel rejects the first op: pop01 commits
     first, then the abort must roll pop01 back to its snapshot. *)
  Controller.Kernel.set_offline k2 false;
  Controller.Kernel.inject_failure k2 ~after:0;
  let retry =
    { Controller.Multi.max_attempts = 1; backoff_base = 0.1; backoff_max = 1. }
  in
  (match Failover.reapply ~retry w.platform cfg with
  | Controller.Multi.Aborted { failed_pop; phase; journal; _ } ->
      Alcotest.(check string) "failing PoP named" "pop02" failed_pop;
      checkb "aborted in commit" true (phase = Controller.Multi.Commit);
      checkb "pop01 rolled back" true
        (match Controller.Multi.entry journal "pop01" with
        | Some e -> e.Controller.Multi.status = Controller.Multi.Rolled_back
        | None -> false)
  | _ -> Alcotest.fail "expected Aborted in commit");
  checkb "pop01 restored to pre-apply state" true
    (Controller.Kernel.observe k1 = snap1);
  checkb "pop02 restored to pre-apply state" true
    (Controller.Kernel.observe k2 = snap2);
  (* Nothing in the way now: the drift reconciles away everywhere. *)
  (match Failover.reapply w.platform cfg with
  | Controller.Multi.Committed_all _ -> ()
  | _ -> Alcotest.fail "clean reapply should commit");
  checkb "platform converged to intent" true
    (Controller.Multi.converged_all (Failover.participants w.platform cfg));
  checki "drift reconciled away on pop01" 0
    (List.length
       (List.filter
          (fun (r : Controller.route) -> r.Controller.table = 9)
          (Controller.Kernel.observe k1).Controller.routes))

(* Each site exports its experiment's announcements to the backbone
   mesh: one UPDATE per accepted announcement or withdrawal, and the
   other site imports it for its own neighbors. *)
let test_mesh_export_counted () =
  let w = build_world ~seed:5 () in
  let mesh_updates () =
    List.map
      (fun pop ->
        (Vbgp.Router.counters (Pop.router pop)).Vbgp.Router.updates_to_mesh)
      w.pops
  in
  Alcotest.(check (list int)) "after set-up" [ 37; 37 ] (mesh_updates ());
  let before = mesh_updates () in
  let extra = fst (Prefix.split w.prefix) in
  Toolkit.announce w.kit ~pops:[ "pop01" ] extra;
  run_seconds w 10.;
  Alcotest.(check (list int))
    "one announcement, one mesh UPDATE from pop01"
    [ List.nth before 0 + 1; List.nth before 1 ]
    (mesh_updates ());
  let pop02 = List.nth w.pops 1 in
  checkb "pop02 re-exports the import to its neighbors" true
    (List.exists
       (fun h ->
         List.exists
           (fun (p, _) -> Prefix.equal p extra)
           (Vbgp.Router.adj_out_routes (Pop.router pop02)
              ~neighbor_id:(Neighbor_host.neighbor_id h)))
       (Pop.neighbors pop02));
  Toolkit.withdraw w.kit ~pops:[ "pop01" ] extra;
  run_seconds w 10.;
  Alcotest.(check (list int))
    "one withdrawal, one more mesh UPDATE"
    [ List.nth before 0 + 2; List.nth before 1 ]
    (mesh_updates ())

let () =
  Alcotest.run "drill"
    [
      ( "failover",
        [
          Alcotest.test_case "kill, re-home, restart, reconverge (seed matrix)"
            `Quick test_kill_restart_reconverges;
          Alcotest.test_case "degraded mode recovers without Failed" `Quick
            test_degradation_recovers;
          Alcotest.test_case "two-phase apply leaves zero residual" `Quick
            test_two_phase_zero_residual;
          Alcotest.test_case "experiment routes exported to the mesh" `Quick
            test_mesh_export_counted;
        ] );
    ]
