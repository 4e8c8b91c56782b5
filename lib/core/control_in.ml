(* Control plane, inbound (paper §3.2.1, Figure 2a): routes learned from
   each neighbor are stored per neighbor, their BGP next-hop rewritten to
   the neighbor's virtual IP, and exported to every experiment over
   ADD-PATH sessions (path id = the neighbor's table id). The same routes
   go to the backbone mesh with the neighbor's *global* IP as next hop so
   remote PoPs can alias it (§4.4). *)

open Bgp
open Sim
open Router_state

(* -- eager per-prefix export (legacy / reference path) ---------------------- *)

(* These fan one prefix out to every receiver as its own UPDATE. They
   remain the behavior of routers created with [~ingest_batching:false] —
   the reference the differential tests compare the batched flush
   against — and the building blocks the batched path falls back on. *)

(* Export a route learned from neighbor [ns] to all experiments: next hop
   becomes the neighbor's virtual IP, the path id its table id. *)
let export_route_to_experiments t (ns : neighbor_state) prefix attrs =
  let attrs = Attr.with_next_hop ns.info.Neighbor.virtual_ip attrs in
  let update =
    Msg.update ~attrs
      ~announced:[ Msg.nlri ~path_id:ns.info.Neighbor.id prefix ]
      ()
  in
  Hashtbl.iter (fun _ e -> send_update_to_experiment t e update) t.experiments

let export_withdraw_to_experiments t (ns : neighbor_state) prefix =
  let update =
    Msg.update ~withdrawn:[ Msg.nlri ~path_id:ns.info.Neighbor.id prefix ] ()
  in
  Hashtbl.iter (fun _ e -> send_update_to_experiment t e update) t.experiments

(* Neighbor-learned routes go to the mesh with the neighbor's *global* IP
   as next hop, so remote PoPs can alias it (§4.4). *)
let export_route_to_mesh t (ns : neighbor_state) prefix attrs =
  match ns.info.Neighbor.global_ip with
  | None -> ()
  | Some g ->
      let attrs = Attr.with_next_hop g attrs in
      send_update_to_mesh t
        (Msg.update ~attrs
           ~announced:[ Msg.nlri ~path_id:ns.info.Neighbor.id prefix ]
           ())

let export_withdraw_to_mesh t (ns : neighbor_state) prefix =
  if ns.info.Neighbor.global_ip <> None then
    send_update_to_mesh t
      (Msg.update ~withdrawn:[ Msg.nlri ~path_id:ns.info.Neighbor.id prefix ] ())

(* -- batched ingest: the dirty-(neighbor, prefix) queue --------------------- *)

(* Ingest applies RIB-in and FIB writes in-band (the decision process runs
   per touched prefix, so local state is always current), but defers the
   experiment/mesh fan-out: touched (neighbor, prefix) pairs go into
   [t.dirty_in] and one flush per engine tick resolves each pair against
   the RIB — route present means announce, absent means withdraw — so a
   burst coalesces to its net effect and each neighbor's batch leaves as
   packed multi-NLRI UPDATEs grouped by shared attribute set. *)

(* Flush one neighbor's dirty prefixes (sorted). *)
let flush_ingest_neighbor t (ns : neighbor_state) prefixes =
  let info = ns.info in
  (* Alias rows are keyed by the alias's virtual IP (§4.4); real
     neighbors by the peer address. *)
  let peer_ip =
    if Neighbor.is_alias info then info.Neighbor.virtual_ip
    else info.Neighbor.ip
  in
  let nid = info.Neighbor.id in
  let withdrawn = ref [] in
  let groups = nlri_groups_create () in
  List.iter
    (fun prefix ->
      match
        List.find_opt
          (Rib.Route.key_matches ~peer_ip ~path_id:None)
          (Rib.Table.candidates ns.rib_in prefix)
      with
      | None -> withdrawn := Msg.nlri ~path_id:nid prefix :: !withdrawn
      | Some r ->
          nlri_groups_add groups
            (Rib.Route.attrs_handle r)
            (Msg.nlri ~path_id:nid prefix))
    prefixes;
  let withdrawn = List.rev !withdrawn in
  (if withdrawn <> [] then
     let u = Msg.update ~withdrawn () in
     Hashtbl.iter (fun _ e -> send_update_to_experiment t e u) t.experiments);
  nlri_groups_iter groups (fun h nlris ->
      let attrs =
        Attr.with_next_hop info.Neighbor.virtual_ip (Attr_arena.set h)
      in
      let u = Msg.update ~attrs ~announced:nlris () in
      Hashtbl.iter (fun _ e -> send_update_to_experiment t e u) t.experiments);
  (* Mesh export: real neighbors with a global identity only. Alias
     routes came *from* the mesh and must not echo back into it. *)
  if not (Neighbor.is_alias info) then
    match info.Neighbor.global_ip with
    | None -> ()
    | Some g ->
        if withdrawn <> [] then
          send_update_to_mesh t (Msg.update ~withdrawn ());
        nlri_groups_iter groups (fun h nlris ->
            send_update_to_mesh t
              (Msg.update
                 ~attrs:(Attr.with_next_hop g (Attr_arena.set h))
                 ~announced:nlris ()))

(* Drain the ingest queue: per neighbor (deterministic id order), resolve
   each dirty prefix against the RIB and send the packed batch. The queue
   is snapshotted and reset first, like the re-export flush. *)
let flush_ingest t =
  t.ingest_scheduled <- false;
  if Hashtbl.length t.dirty_in > 0 then begin
    let entries = Hashtbl.fold (fun k () acc -> k :: acc) t.dirty_in [] in
    Hashtbl.reset t.dirty_in;
    let by_neighbor = Hashtbl.create 16 in
    List.iter
      (fun (nid, prefix) ->
        match Hashtbl.find_opt by_neighbor nid with
        | Some ps -> ps := prefix :: !ps
        | None -> Hashtbl.replace by_neighbor nid (ref [ prefix ]))
      entries;
    Hashtbl.fold (fun nid ps acc -> (nid, ps) :: acc) by_neighbor []
    |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
    |> List.iter (fun (nid, ps) ->
           match neighbor t nid with
           | None -> ()
           | Some ns ->
               flush_ingest_neighbor t ns
                 (List.sort Netcore.Prefix.compare !ps))
  end

(* Mark one (neighbor, prefix) dirty and arrange a flush at the current
   engine tick (equal-time events run FIFO, so every update processed at
   this timestamp lands before the flush). *)
let mark_ingest_dirty t (ns : neighbor_state) prefix =
  Hashtbl.replace t.dirty_in (ns.info.Neighbor.id, prefix) ();
  if not t.ingest_scheduled then begin
    t.ingest_scheduled <- true;
    Engine.run_after t.engine 0. (fun () -> flush_ingest t)
  end

(* -- experiment full-table sync --------------------------------------------- *)

(* Full-table sync when an experiment session reaches Established: every
   route from every (real and alias) neighbor, with rewritten next hops,
   packed per shared attribute set rather than one UPDATE per route. *)
let sync_experiment t (e : experiment_state) =
  if not e.exp_synced then begin
    e.exp_synced <- true;
    List.iter
      (fun ns ->
        let nid = ns.info.Neighbor.id in
        let groups = nlri_groups_create () in
        Rib.Table.iter_routes
          (fun (r : Rib.Route.t) ->
            nlri_groups_add groups
              (Rib.Route.attrs_handle r)
              (Msg.nlri ~path_id:nid r.prefix))
          ns.rib_in;
        nlri_groups_iter groups (fun h nlris ->
            let attrs =
              Attr.with_next_hop ns.info.Neighbor.virtual_ip (Attr_arena.set h)
            in
            send_update_to_experiment t e
              (Msg.update ~attrs ~announced:nlris ())))
      (neighbor_states t);
    (* End-of-RIB (RFC 4724): an experiment that held our routes as stale
       across a restart sweeps whatever the sync did not refresh. *)
    send_update_to_experiment t e (Msg.update ());
    log t "synced full table to experiment %s" e.grant.Control_enforcer.name
  end

(* -- neighbor route learning ----------------------------------------------- *)

(* A withdrawn route of neighbor [ns] reaches shared state: the dirty-queue
   mark, or on an unbatched router the eager withdraw fan-out. *)
let export_withdraw t (ns : neighbor_state) prefix =
  if t.ingest_batching then mark_ingest_dirty t ns prefix
  else begin
    export_withdraw_to_experiments t ns prefix;
    export_withdraw_to_mesh t ns prefix
  end

(* The FIB remove is unconditional. A batched router marks the prefix
   dirty only when the best route changed; the eager path withdraws
   regardless. *)
let apply_withdraw t (ns : neighbor_state) fib prefix ~best_changed =
  Rib.Fib.remove fib prefix;
  if best_changed || not t.ingest_batching then export_withdraw t ns prefix

let apply_install t (ns : neighbor_state) fib prefix entry attrs =
  Rib.Fib.insert fib prefix entry;
  if t.ingest_batching then mark_ingest_dirty t ns prefix
  else begin
    export_route_to_experiments t ns prefix attrs;
    export_route_to_mesh t ns prefix attrs
  end

(* Process one UPDATE from neighbor [id]: the one ingest step; public so
   benchmarks can drive the pipeline without sessions.

   The GR unmark fires for *every* NLRI: a re-announcement identical to
   the installed route (same key, same attributes) refreshes the stale
   mark even though it installs nothing. Those re-announcements are
   absorbed silently: after a graceful restart the neighbor replays its
   full table, and the dedup keeps that resync off the experiment and
   mesh wires entirely. *)
let process_neighbor_update t ~neighbor_id (u : Msg.update) =
  match neighbor t neighbor_id with
  | None -> invalid_arg "Router.process_neighbor_update: unknown neighbor"
  | Some ns ->
      t.counters.updates_from_neighbors <-
        t.counters.updates_from_neighbors + 1;
      let fib = Rib.Fib.Set.table t.fibs neighbor_id in
      let peer_ip = ns.info.Neighbor.ip in
      List.iter
        (fun (n : Msg.nlri) ->
          gr_unmark ns.gr n.prefix;
          let best_changed =
            match
              Rib.Table.withdraw ns.rib_in ~prefix:n.prefix ~peer_ip
                ~path_id:None
            with
            | Rib.Table.Best_changed _ -> true
            | Rib.Table.Unchanged -> false
          in
          apply_withdraw t ns fib n.prefix ~best_changed)
        u.withdrawn;
      if u.announced <> [] then begin
        (* Per-NLRI constants hoisted out of the loop: one intern for the
           whole list (the unchanged check becomes O(1) and installed
           routes share the canonical set) and one FIB entry. *)
        let source =
          Rib.Route.source ~peer_ip ~peer_asn:ns.info.Neighbor.asn ()
        in
        let attrs_h = Attr_arena.intern u.attrs in
        let entry = { Rib.Fib.next_hop = peer_ip; neighbor = neighbor_id } in
        let now = Engine.now t.engine in
        List.iter
          (fun (n : Msg.nlri) ->
            gr_unmark ns.gr n.prefix;
            let unchanged =
              List.exists
                (fun (r : Rib.Route.t) ->
                  Rib.Route.key_matches ~peer_ip ~path_id:None r
                  && Attr_arena.equal (Rib.Route.attrs_handle r) attrs_h)
                (Rib.Table.candidates ns.rib_in n.prefix)
            in
            if not unchanged then begin
              ignore
                (Rib.Table.update ns.rib_in
                   (Rib.Route.make_h ~learned_at:now ~prefix:n.prefix
                      ~attrs_h ~source ()));
              apply_install t ns fib n.prefix entry u.attrs
            end)
          u.announced
      end

type payload = Wire of string | Update of Msg.update

(* Ingest a batch of updates in batch order. Non-UPDATE messages are
   ignored; undecodable bytes are counted as decode errors. *)
let ingest_updates t batch =
  Array.iter
    (fun (nid, payload) ->
      if not (Hashtbl.mem t.neighbors nid) then
        invalid_arg "Router.ingest_updates: unknown neighbor";
      match payload with
      | Update u -> process_neighbor_update t ~neighbor_id:nid u
      | Wire bytes -> (
          match Codec.decode bytes with
          | Ok (Msg.Update u) -> process_neighbor_update t ~neighbor_id:nid u
          | Ok _ -> ()
          | Error _ ->
              t.counters.decode_errors <- t.counters.decode_errors + 1))
    batch

(* -- session loss: hard drop, stale retention, resync ----------------------- *)

(* The pre-GR teardown: drop the whole Adj-RIB-In, clear the FIB, and
   storm withdrawals — now reserved for non-graceful downs and expired
   restart windows. *)
let hard_drop_neighbor t (ns : neighbor_state) =
  (match ns.gr with
  | Some h ->
      h.cancel_expiry ();
      ns.gr <- None
  | None -> ());
  let changes = Rib.Table.drop_peer ns.rib_in ~peer_ip:ns.info.Neighbor.ip in
  Rib.Fib.clear (Rib.Fib.Set.table t.fibs ns.info.Neighbor.id);
  List.iter
    (function
      | Rib.Table.Best_changed (prefix, None) -> export_withdraw t ns prefix
      | _ -> ())
    changes

(* Withdraw one stale route (sweep or window expiry). *)
let drop_stale_route t (ns : neighbor_state) prefix =
  ignore
    (Rib.Table.withdraw ns.rib_in ~prefix ~peer_ip:ns.info.Neighbor.ip
       ~path_id:None);
  Rib.Fib.remove (Rib.Fib.Set.table t.fibs ns.info.Neighbor.id) prefix;
  export_withdraw t ns prefix

(* Graceful down: keep the Adj-RIB-In and FIB (forwarding state is
   preserved, RFC 4724), mark every prefix stale, and fall back to the
   hard drop if the restart window expires before the peer returns. *)
let gr_retain_neighbor t (ns : neighbor_state) ~window =
  let prefixes =
    Rib.Table.fold (fun prefix _ acc -> prefix :: acc) ns.rib_in []
  in
  match ns.gr with
  | Some h ->
      (* A repeat loss while the window is already running (e.g. half-open
         reconnects hold-expiring during a long outage) re-marks what is
         installed but must not extend the deadline: RFC 4724 counts the
         restart time from the first loss. *)
      List.iter (fun p -> Hashtbl.replace h.stale p ()) prefixes
  | None ->
      let hold = gr_hold_of_keys prefixes in
      ns.gr <- Some hold;
      t.counters.gr_retentions <- t.counters.gr_retentions + 1;
      hold.cancel_expiry <-
        Engine.schedule t.engine window (fun () ->
            match ns.gr with
            | Some h when h == hold ->
                t.counters.gr_expiries <- t.counters.gr_expiries + 1;
                log t "neighbor %d restart window expired" ns.info.Neighbor.id;
                hard_drop_neighbor t ns
            | _ -> ());
      log t "neighbor %d retaining %d routes as stale (window %.0fs)"
        ns.info.Neighbor.id (List.length prefixes) window

(* End-of-RIB after a restart: everything the peer did not re-announce is
   genuinely gone — withdraw exactly that. *)
let gr_sweep_neighbor t (ns : neighbor_state) =
  match ns.gr with
  | None -> ()
  | Some h ->
      h.cancel_expiry ();
      ns.gr <- None;
      let stale = Hashtbl.fold (fun p () acc -> p :: acc) h.stale [] in
      List.iter
        (drop_stale_route t ns)
        (List.sort Netcore.Prefix.compare stale);
      if stale <> [] then
        log t "neighbor %d sweep: %d stale routes withdrawn"
          ns.info.Neighbor.id (List.length stale)

(* Re-establishment: replay our view of the neighbor's Adj-RIB-Out (the
   group table overlaid with its overrides, which kept accumulating
   intent while the session was down) and close with End-of-RIB so the
   peer can run its own mark-and-sweep. *)
let resync_neighbor t (ns : neighbor_state) =
  match ns.session with
  | Some s when Session.established s ->
      (* Group the replay by interned outbound set so it leaves as one
         packed multi-NLRI UPDATE per shared attribute set. *)
      let groups = Hashtbl.create 8 in
      let order = ref [] in
      List.iter
        (fun (p, h) ->
          let fid = Attr_arena.id h in
          match Hashtbl.find_opt groups fid with
          | Some (_, nlris) -> nlris := Msg.nlri p :: !nlris
          | None ->
              Hashtbl.replace groups fid (h, ref [ Msg.nlri p ]);
              order := fid :: !order)
        (Export_pool.routes t.export_pool ~nid:ns.info.Neighbor.id);
      List.iter
        (fun fid ->
          match Hashtbl.find_opt groups fid with
          | None -> ()
          | Some (h, nlris) ->
              send_update_to_neighbor t ns
                (Msg.update ~attrs:(Attr_arena.set h)
                   ~announced:(List.rev !nlris) ()))
        (List.rev !order);
      Session.send_update s (Msg.update ())
  | _ -> ()

(* -- neighbor wiring -------------------------------------------------------- *)

(* Register a real BGP neighbor. Returns (neighbor id, session pair); the
   caller drives the remote (active) side of the pair. *)
let add_neighbor t ~asn ~ip ~kind ~remote_id ?(latency = 0.002)
    ?(deliver = fun _ -> ()) () =
  let id = t.next_neighbor_id in
  t.next_neighbor_id <- t.next_neighbor_id + 1;
  let local =
    Addr_pool.allocate t.local_pool (Printf.sprintf "neighbor:%d" id)
  in
  let global =
    Addr_pool.allocate t.global_pool
      (Printf.sprintf "%s/neighbor:%d" t.name id)
  in
  let info =
    {
      Neighbor.id;
      asn;
      ip;
      kind;
      virtual_ip = local.Addr_pool.ip;
      virtual_mac = local.Addr_pool.mac;
      global_ip = Some global.Addr_pool.ip;
    }
  in
  let config_router =
    Session.config ~local_asn:t.asn ~local_id:t.router_id
      ~capabilities:(session_capabilities t) ~reconnect:(reconnect_policy t) ()
  in
  let config_remote =
    Session.config ~local_asn:asn ~local_id:remote_id
      ~capabilities:
        [
          Capability.Multiprotocol
            { afi = Capability.afi_ipv4; safi = Capability.safi_unicast };
          Capability.As4 asn;
          Capability.Graceful_restart
            {
              restart_time = t.gr_restart_time;
              afis = [ (Capability.afi_ipv4, Capability.safi_unicast) ];
            };
        ]
      ~reconnect:(reconnect_policy t) ()
  in
  let pair =
    Sim.Bgp_wire.make t.engine ~latency ~config_active:config_remote
      ~config_passive:config_router ()
  in
  let ns =
    {
      info;
      rib_in = Rib.Table.create ();
      session = Some pair.Sim.Bgp_wire.passive;
      deliver;
      export_id = global.Addr_pool.index;
      gr = None;
      flows = Flow_table.create ();
    }
  in
  Hashtbl.replace t.neighbors id ns;
  Hashtbl.replace t.by_vmac info.Neighbor.virtual_mac id;
  Hashtbl.replace t.by_vip info.Neighbor.virtual_ip id;
  Hashtbl.replace t.by_global_ip global.Addr_pool.ip id;
  (* If the backbone is already attached, expose the new neighbor there. *)
  (match t.bb with
  | Some bb ->
      Backbone.register_global_station t bb.Arp_client.lan
        ~g:global.Addr_pool.ip
        ~receive:(Backbone.backbone_station_for_neighbor t id)
  | None -> ());
  (* The neighbor's virtual MAC is a station on the experiment LAN; frames
     sent to it are routed through the neighbor's table. *)
  Lan.attach t.exp_lan info.Neighbor.virtual_mac
    (Data_plane.handle_exp_lan_frame t ~station_neighbor:(Some id));
  Session.set_handlers pair.Sim.Bgp_wire.passive
    {
      Session.on_route_refresh = (fun ~afi:_ ~safi:_ -> ());
      on_update =
        (fun u ->
          if Msg.is_end_of_rib u then gr_sweep_neighbor t ns
          else process_neighbor_update t ~neighbor_id:id u);
      on_established =
        (fun () ->
          log t "neighbor %d (as%a) established" id Asn.pp asn;
          resync_neighbor t ns);
      on_down =
        (fun reason ->
          log t "neighbor %d down: %s" id (Fsm.down_reason_to_string reason);
          let window =
            if Fsm.graceful reason then
              Option.bind ns.session Session.gr_restart_time
            else None
          in
          match window with
          | Some w when w > 0. -> gr_retain_neighbor t ns ~window:w
          | _ -> hard_drop_neighbor t ns);
    };
  (id, pair)

let set_neighbor_deliver t ~neighbor_id deliver =
  match neighbor t neighbor_id with
  | Some ns -> ns.deliver <- deliver
  | None -> invalid_arg "Router.set_neighbor_deliver"
