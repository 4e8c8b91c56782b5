(* The `peering` command-line tool: operator- and experimenter-facing entry
   points to the simulated platform. Mirrors the workflows the paper
   describes — spinning up a testbed, inspecting the census, querying route
   propagation, rendering intent-based configuration, and troubleshooting
   filters — without writing OCaml.

   Usage: dune exec bin/peering_cli.exe -- <command> [options]
*)

open Cmdliner
open Bgp

let asn_of_int = Asn.of_int

(* -- demo: end-to-end platform walkthrough -------------------------------- *)

let run_demo pops_count transits peers seconds =
  let open Peering in
  Fmt.pr "building a %d-PoP platform (%d transits + %d peers per PoP)...@."
    pops_count transits peers;
  let graph =
    Topo.As_graph.generate
      ~params:{ Topo.As_graph.default_gen with transit = 12; stub = 80 }
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
      ~base:(Netcore.Prefix.of_string_exn "192.168.0.0/16")
      (List.filteri (fun i _ -> i < 30) stubs)
  in
  let internet = Topo.Internet.create graph ~origins in
  let platform = Platform.create () in
  let pops =
    List.init pops_count (fun i ->
        let pop =
          Platform.add_pop platform
            ~name:(Printf.sprintf "pop%02d" (i + 1))
            ~site:(if i mod 2 = 0 then Pop.Ixp else Pop.University) ()
        in
        ignore (Platform.populate_pop platform ~pop ~internet ~transits ~peers ());
        pop)
  in
  Platform.run platform ~seconds:10.;
  if pops_count > 1 then Platform.connect_backbone platform;
  Platform.run platform ~seconds:10.;
  List.iter
    (fun pop ->
      Fmt.pr "  %s (%s): %d neighbors, %d routes@." (Pop.name pop)
        (Pop.site_to_string (Pop.site pop))
        (Pop.neighbor_count pop)
        (Vbgp.Router.route_count (Pop.router pop)))
    pops;
  (* One experiment, connected to the first PoP. *)
  match
    Platform.submit platform
      (Approval.proposal ~title:"cli-demo" ~team:"cli" ~goals:"demo" ())
  with
  | Platform.Denied reason -> Fmt.epr "proposal denied: %s@." reason
  | Platform.Granted record ->
      let grant = record.Approval.grant in
      let kit = Toolkit.create ~engine:(Platform.engine platform) ~grant in
      let first = List.hd pops in
      ignore (Toolkit.open_tunnel kit first);
      Toolkit.start_session kit ~pop:(Pop.name first);
      Platform.run platform ~seconds:10.;
      let prefix = List.hd grant.Vbgp.Control_enforcer.prefixes in
      Toolkit.announce kit prefix;
      Platform.run platform ~seconds:seconds;
      Fmt.pr "experiment %s: %d routes visible, %a announced to %d/%d \
              neighbors@."
        grant.Vbgp.Control_enforcer.name
        (Toolkit.route_count kit ~pop:(Pop.name first))
        Netcore.Prefix.pp prefix
        (List.length
           (List.filter
              (fun h -> Neighbor_host.heard_route h prefix <> None)
              (Pop.neighbors first)))
        (Pop.neighbor_count first);
      (* Exchange a little traffic so the attribution table has rows. *)
      (match Pop.neighbors first with
      | h :: _ ->
          Neighbor_host.send_packet h
            ~src:(Netcore.Ipv4.of_string_exn "192.168.0.9")
            ~dst:(Netcore.Prefix.host prefix 1) "hello";
          Platform.run platform ~seconds:2.
      | [] -> ());
      Fmt.pr "@.per-experiment attribution (PlanetFlow-style, §3.1):@.";
      List.iter
        (fun (name, out, bytes, inn) ->
          Fmt.pr "  %-16s out=%d pkts (%d B)  in=%d pkts@." name out bytes inn)
        (Vbgp.Router.attribution (Pop.router first));
      Fmt.pr "@.%s" (Toolkit.cli kit "show protocols");
      let trace = Platform.trace platform in
      let entries = Sim.Trace.entries trace in
      let n = List.length entries in
      Fmt.pr "@.trace tail (%d entries kept, %d dropped at capacity):@." n
        (Sim.Trace.dropped trace);
      List.iteri
        (fun i e ->
          if i >= n - 8 then Fmt.pr "%a@." Sim.Trace.pp_entry e)
        entries

let demo_cmd =
  let pops =
    Arg.(value & opt int 2 & info [ "pops" ] ~doc:"Number of PoPs to build.")
  in
  let transits =
    Arg.(value & opt int 2 & info [ "transits" ] ~doc:"Transits per PoP.")
  in
  let peers =
    Arg.(value & opt int 3 & info [ "peers" ] ~doc:"Bilateral peers per PoP.")
  in
  let seconds =
    Arg.(
      value & opt float 5.
      & info [ "seconds" ] ~doc:"Simulated seconds to run after announcing.")
  in
  Cmd.v
    (Cmd.info "demo" ~doc:"Build a platform, run one experiment end to end.")
    Term.(const run_demo $ pops $ transits $ peers $ seconds)

(* -- census: §4.2 connectivity summary ------------------------------------- *)

let run_census seed =
  let db = Topo.Peeringdb.generate ~seed () in
  Fmt.pr "unique peers: %d@." (List.length (Topo.Peeringdb.unique_peers db));
  Fmt.pr "%-12s %-8s %-10s@." "IXP" "peers" "bilateral";
  List.iter
    (fun (ixp, total, bilateral) ->
      Fmt.pr "%-12s %-8d %-10d@." ixp total bilateral)
    (Topo.Peeringdb.by_ixp db);
  Fmt.pr "@.peer types:@.";
  List.iter
    (fun (kind, count, frac) ->
      Fmt.pr "  %-20s %4d  %4.1f%%@."
        (Topo.As_graph.kind_to_string kind)
        count (frac *. 100.))
    (Topo.Peeringdb.type_census db)

let census_cmd =
  let seed =
    Arg.(value & opt int 3 & info [ "seed" ] ~doc:"Census generation seed.")
  in
  Cmd.v
    (Cmd.info "census" ~doc:"Print the §4.2-style connectivity census.")
    Term.(const run_census $ seed)

(* -- propagate: route propagation queries ----------------------------------- *)

let run_propagate transits stubs seed poison selective =
  let graph =
    Topo.As_graph.generate
      ~params:{ Topo.As_graph.default_gen with transit = transits; stub = stubs; seed }
      ()
  in
  let tier2 =
    List.filter
      (fun a ->
        match Topo.As_graph.node graph a with
        | Some n -> n.Topo.As_graph.tier = 2
        | None -> false)
      (Topo.As_graph.asns graph)
    |> List.sort Asn.compare
  in
  let origin = asn_of_int 47065 in
  Topo.As_graph.add_node graph ~asn:origin ~kind:Topo.As_graph.Education
    ~tier:3;
  Topo.As_graph.add_customer graph ~provider:(List.nth tier2 0)
    ~customer:origin;
  Topo.As_graph.add_customer graph ~provider:(List.nth tier2 1)
    ~customer:origin;
  let total = Topo.As_graph.node_count graph in
  let blocked = List.map asn_of_int poison in
  let scope =
    if selective then Topo.Internet.Only [ List.nth tier2 0 ]
    else Topo.Internet.All_neighbors
  in
  let p = Topo.Internet.propagate graph ~origin ~blocked ~scope in
  Fmt.pr "origin as%a over %d ASes (%d transits, %d stubs)@." Asn.pp origin
    total transits stubs;
  (if poison <> [] then
     Fmt.pr "poisoned: %s@."
       (String.concat ", " (List.map string_of_int poison)));
  if selective then Fmt.pr "announced selectively to as%a only@." Asn.pp (List.nth tier2 0);
  Fmt.pr "reach: %d/%d ASes@." (Topo.Internet.reach_count p - 1) (total - 1);
  (* Path length distribution. *)
  let lengths = Hashtbl.create 8 in
  List.iter
    (fun a ->
      match Topo.Internet.path p a with
      | Some path when List.length path > 1 ->
          let l = List.length path - 1 in
          Hashtbl.replace lengths l
            (1 + Option.value ~default:0 (Hashtbl.find_opt lengths l))
      | _ -> ())
    (Topo.As_graph.asns graph);
  Fmt.pr "AS-path length distribution (hops -> networks):@.";
  Hashtbl.fold (fun l c acc -> (l, c) :: acc) lengths []
  |> List.sort compare
  |> List.iter (fun (l, c) -> Fmt.pr "  %d -> %d@." l c)

let propagate_cmd =
  let transits =
    Arg.(value & opt int 20 & info [ "transits" ] ~doc:"Mid-tier AS count.")
  in
  let stubs =
    Arg.(value & opt int 150 & info [ "stubs" ] ~doc:"Stub AS count.")
  in
  let seed = Arg.(value & opt int 7 & info [ "seed" ] ~doc:"Topology seed.") in
  let poison =
    Arg.(
      value & opt_all int []
      & info [ "poison" ] ~doc:"ASN to poison (repeatable).")
  in
  let selective =
    Arg.(
      value & flag
      & info [ "selective" ] ~doc:"Announce to the first transit only.")
  in
  Cmd.v
    (Cmd.info "propagate"
       ~doc:"Query announcement propagation over a synthetic Internet.")
    Term.(
      const run_propagate $ transits $ stubs $ seed $ poison $ selective)

(* -- render-config: intent-based templating ---------------------------------- *)

let run_render service =
  let open Peering in
  let platform = Platform.create () in
  let pop = Platform.add_pop platform ~name:"pop01" ~site:Pop.Ixp () in
  let n1 = Pop.add_transit pop ~asn:(asn_of_int 100) in
  let _n2 = Pop.add_peer pop ~asn:(asn_of_int 200) in
  ignore n1;
  Platform.run platform ~seconds:5.;
  (match
     Platform.submit platform
       (Approval.proposal ~title:"render" ~team:"cli" ~goals:"render" ())
   with
  | Platform.Granted _ -> ()
  | Platform.Denied r -> failwith r);
  let model = Config_model.of_platform platform in
  let intent = Option.get (Config_model.pop model "pop01") in
  let text =
    match service with
    | "bird" -> Template.render_bird ~version:1 intent
    | "openvpn" -> Template.render_openvpn ~version:1 intent
    | "enforcer" -> Template.render_policy ~version:1 intent
    | other -> Fmt.failwith "unknown service %S (bird|openvpn|enforcer)" other
  in
  print_string text

let render_cmd =
  let service =
    Arg.(
      value & pos 0 string "bird"
      & info [] ~docv:"SERVICE" ~doc:"bird, openvpn, or enforcer.")
  in
  Cmd.v
    (Cmd.info "render-config"
       ~doc:"Render intent-based configuration for a sample PoP.")
    Term.(const run_render $ service)

(* -- troubleshoot: Appendix A filter localization ------------------------------ *)

let run_troubleshoot coverage seed =
  let graph =
    Topo.As_graph.generate
      ~params:{ Topo.As_graph.default_gen with transit = 16; stub = 100; seed }
      ()
  in
  let tier2 =
    List.filter
      (fun a ->
        match Topo.As_graph.node graph a with
        | Some n -> n.Topo.As_graph.tier = 2
        | None -> false)
      (Topo.As_graph.asns graph)
    |> List.sort Asn.compare
  in
  let origin = asn_of_int 47065 in
  Topo.As_graph.add_node graph ~asn:origin ~kind:Topo.As_graph.Education
    ~tier:3;
  Topo.As_graph.add_customer graph ~provider:(List.hd tier2) ~customer:origin;
  (* Inject a fault at a random single-homed stub. *)
  let victim =
    List.find
      (fun a ->
        match Topo.As_graph.node graph a with
        | Some n ->
            n.Topo.As_graph.tier = 3
            && List.length (Topo.As_graph.providers graph a) = 1
            && Topo.As_graph.peers graph a = []
            && not (Asn.equal a origin)
        | None -> false)
      (List.sort Asn.compare (Topo.As_graph.asns graph))
  in
  let bad = List.hd (Topo.As_graph.providers graph victim) in
  let filters = [ (bad, victim) ] in
  let lg = Topo.Looking_glass.create ~coverage ~seed ~filters graph ~origin in
  Fmt.pr "fault: as%a -/-> as%a; looking glasses in %d networks@." Asn.pp bad
    Asn.pp victim
    (Topo.Looking_glass.host_count lg);
  let suspects = Topo.Looking_glass.localize lg ~origin in
  if suspects = [] then
    Fmt.pr
      "no looking glass observed the outage (the victim hosts none) — raise \
       --coverage@."
  else begin
    List.iteri
      (fun i s -> Fmt.pr "%2d. %a@." (i + 1) Topo.Looking_glass.pp_suspect s)
      suspects;
    Fmt.pr "fault covered: %b@."
      (Topo.Looking_glass.covers suspects ~filters)
  end

let troubleshoot_cmd =
  let coverage =
    Arg.(
      value & opt float 0.5
      & info [ "coverage" ] ~doc:"Fraction of ASes hosting looking glasses.")
  in
  let seed = Arg.(value & opt int 41 & info [ "seed" ] ~doc:"Scenario seed.") in
  Cmd.v
    (Cmd.info "troubleshoot"
       ~doc:"Localize a misbehaving route filter with looking glasses.")
    Term.(const run_troubleshoot $ coverage $ seed)

(* -------------------------------------------------------------------------- *)

let main =
  Cmd.group
    (Cmd.info "peering" ~version:"1.0.0"
       ~doc:"PEERING/vBGP testbed tooling (CoNEXT '19 reproduction).")
    [ demo_cmd; census_cmd; propagate_cmd; render_cmd; troubleshoot_cmd ]

let () = exit (Cmd.eval main)
