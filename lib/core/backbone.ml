(* The inter-PoP backbone (paper §4.4): the full mesh of BGP sessions
   between PoP routers, the shared global address pool, and the aliasing
   trick that lets every PoP expose every other PoP's neighbors locally.

   A local alias (IP, MAC) is minted for each remote neighbor; its
   table's next hop is the neighbor's global IP, resolved over the
   backbone segment with ARP — the same destination-MAC table selection
   as the experiment LAN, repeated hop by hop. *)

open Netcore
open Bgp
open Sim
open Router_state

(* Find or create the local alias pseudo-neighbor for a remote neighbor's
   global IP (§4.4). *)
let alias_for_global t ~pop global_ip =
  match Hashtbl.find_opt t.alias_by_global global_ip with
  | Some id -> (Hashtbl.find t.neighbors id, false)
  | None ->
      let id = t.next_neighbor_id in
      t.next_neighbor_id <- t.next_neighbor_id + 1;
      let a =
        Addr_pool.allocate t.local_pool
          (Printf.sprintf "global:%s" (Ipv4.to_string global_ip))
      in
      (* The alias shares the remote neighbor's export id so export-control
         tags mean the same thing at every PoP. *)
      let export_id =
        match Addr_pool.of_ip t.global_pool global_ip with
        | Some g -> g.Addr_pool.index
        | None -> 0
      in
      let info =
        {
          Neighbor.id;
          asn = t.asn;
          ip = global_ip;
          kind = Neighbor.Backbone_alias { remote_pop = pop };
          virtual_ip = a.Addr_pool.ip;
          virtual_mac = a.Addr_pool.mac;
          global_ip = Some global_ip;
        }
      in
      let ns =
        {
          info;
          rib_in = Rib.Table.create ();
          session = None;
          deliver = (fun _ -> ());
          export_id;
          gr = None;
          flows = Flow_table.create ();
        }
      in
      Hashtbl.replace t.neighbors id ns;
      Hashtbl.replace t.by_vmac info.Neighbor.virtual_mac id;
      Hashtbl.replace t.by_vip info.Neighbor.virtual_ip id;
      Hashtbl.replace t.alias_by_global global_ip id;
      (* The alias answers on the experiment LAN like any neighbor. *)
      Lan.attach t.exp_lan info.Neighbor.virtual_mac
        (Data_plane.handle_exp_lan_frame t ~station_neighbor:(Some id));
      log t "alias neighbor %d for global %a (%s)" id Ipv4.pp global_ip pop;
      (ns, true)

(* Put a station for global IP [g] on the backbone segment: it answers ARP
   for [g] and hands arriving packets to [receive] (§4.4). *)
let register_global_station t lan ~g ~receive =
  let gmac =
    match Addr_pool.of_ip t.global_pool g with
    | Some a -> a.Addr_pool.mac
    | None -> Mac.zero
  in
  let station = Arp_client.attach lan ~mac:gmac ~ips:[ g ] in
  Arp_client.set_ip_handler station (fun ~src_mac:_ packet -> receive packet)

(* Backbone delivery toward local neighbor [id]. *)
let backbone_station_for_neighbor t id packet =
  match neighbor t id with
  | Some ns when not (Neighbor.is_alias ns.info) ->
      if packet.Ipv4_packet.ttl <= 1 then
        Data_plane.deliver_inbound t (Data_plane.icmp_ttl_exceeded t packet)
      else begin
        t.counters.packets_to_neighbors <- t.counters.packets_to_neighbors + 1;
        ns.deliver (Ipv4_packet.decrement_ttl packet)
      end
  | _ -> ()

(* Attach this router to the backbone segment shared by all PoPs. *)
let attach_backbone t lan =
  let bb_mac = Mac.local ~pool:0xbb (Hashtbl.hash t.name land 0xffffff) in
  let bb = Arp_client.attach lan ~mac:bb_mac ~ips:[] in
  Arp_client.set_ip_handler bb (fun ~src_mac:_ packet ->
      (* Traffic to one of our neighbors' global MACs or to a local
         experiment arrives here. *)
      Data_plane.deliver_inbound t packet);
  t.bb <- Some bb;
  (* Answer ARP for the global IPs of our local neighbors and deliver
     frames addressed to them straight to the neighbor. *)
  Hashtbl.iter
    (fun g id ->
      register_global_station t lan ~g
        ~receive:(backbone_station_for_neighbor t id))
    t.by_global_ip;
  (* Local experiments also have global identities on the backbone. *)
  Hashtbl.iter
    (fun _ e ->
      register_global_station t lan ~g:e.g_ip
        ~receive:(Data_plane.deliver_inbound t))
    t.experiments

(* Full-table sync toward a freshly established mesh peer: all
   neighbor-learned routes (next hop = the neighbor's global IP) plus
   local experiment announcements (tagged with the internal marker). One
   packed multi-NLRI UPDATE per shared attribute set rather than one
   message per route — at full-table scale the difference is tens of
   thousands of messages per sync. *)
let sync_mesh_session t session =
  let send = send_update_to_mesh t [ session ] in
  List.iter
    (fun ns ->
      match ns.info.Neighbor.global_ip with
      | Some g when not (Neighbor.is_alias ns.info) ->
          let groups = nlri_groups_create () in
          Rib.Table.iter_routes
            (fun (r : Rib.Route.t) ->
              nlri_groups_add groups (Rib.Route.attrs_handle r)
                (Msg.nlri ~path_id:ns.info.Neighbor.id r.prefix))
            ns.rib_in;
          nlri_groups_iter groups (fun h nlris ->
              send
                (Msg.update
                   ~attrs:(Attr.with_next_hop g (Attr_arena.set h))
                   ~announced:nlris ()))
      | _ -> ())
    (neighbor_states t);
  let ctl_asn = control_asn t in
  Hashtbl.iter
    (fun _ e ->
      let groups = nlri_groups_create () in
      Hashtbl.iter
        (fun prefix vs ->
          List.iter
            (fun v ->
              nlri_groups_add groups v.v_attrs
                (Msg.nlri ~path_id:(mesh_path_id e v.v_path_id) prefix))
            !vs)
        e.routes;
      nlri_groups_iter groups (fun h nlris ->
          let attrs =
            Attr_arena.set h
            |> Attr.with_next_hop e.g_ip
            |> Attr.add_community (Export_control.experiment_marker ~ctl_asn)
          in
          send (Msg.update ~attrs ~announced:nlris ())))
    t.experiments;
  (* End-of-RIB (RFC 4724): lets a peer that retained our imports as
     stale across a graceful restart sweep whatever this sync did not
     refresh. Harmless on a first establishment (no stale state). *)
  Session.send_update session (Msg.update ())

(* Establish the backbone BGP mesh session toward another PoP's router.
   [on_update] is the mesh-import processor, [on_eor] the
   graceful-restart stale sweep, [on_peer_down] the session-loss
   dispatcher (Control_out wires all three in — it compiles after this
   module); call once per unordered pair; [Bgp_wire.start] is invoked
   internally. *)
let connect_mesh t other ~on_update ~on_eor ~on_peer_down ?(latency = 0.02) ()
    =
  let config a =
    Session.config ~local_asn:a.asn ~local_id:a.router_id ~hold_time:180
      ~capabilities:(session_capabilities ~add_path:true a)
      ~reconnect:(reconnect_policy a) ()
  in
  let pair =
    Sim.Bgp_wire.make t.engine ~latency ~config_active:(config t)
      ~config_passive:(config other) ()
  in
  let install self peer_name session =
    let mp = { pop_name = peer_name; mesh_session = session; mesh_gr = None } in
    self.mesh <- mp :: self.mesh;
    Session.set_handlers session
      {
        Session.on_route_refresh = (fun ~afi:_ ~safi:_ -> ());
        on_update =
          (fun u ->
            if Msg.is_end_of_rib u then on_eor self ~pop:peer_name
            else on_update self ~pop:peer_name u);
        on_established =
          (fun () ->
            log self "mesh to %s established" peer_name;
            sync_mesh_session self session);
        on_down =
          (fun reason ->
            log self "mesh to %s down: %s" peer_name
              (Fsm.down_reason_to_string reason);
            on_peer_down self ~pop:peer_name reason);
      }
  in
  install t other.name pair.Sim.Bgp_wire.active;
  install other t.name pair.Sim.Bgp_wire.passive;
  Sim.Bgp_wire.start pair;
  pair
