(* The vBGP data plane (paper §3.2.2): each neighbor owns a virtual MAC
   and a forwarding table; the destination MAC of a frame from an
   experiment selects the table, so an experiment's per-packet routing
   decision rides in the layer-2 header with no encapsulation. Frames
   toward experiments carry the delivering neighbor's virtual MAC as
   source, giving experiments per-packet ingress visibility.

   The per-packet fast path works on {!Ipv4_packet.View}s — the frame's
   own string, validated in place and never copied to be read — and
   memoizes the composite forwarding decision (enforcement verdict,
   ingress attribution, FIB entry, egress action) in a per-neighbor flow
   table ({!Flow_table}) keyed by (source MAC, src, dst) as unboxed ints,
   so a probe allocates nothing. Entries are stamped with three
   generations — the neighbor FIB's, the enforcement chain's, and the
   owner table's — and self-invalidate when any source of the decision
   changes; no explicit flush exists. Every mutation that changes a
   binding bumps its generation, and only those: every
   entry of a neighbor's FIB is the neighbor itself, so re-announcements
   that move only the AS path, MED or communities write nothing and the
   neighbor's flows stay cached through them. Stateful filters (the
   token-bucket shaper) still run on every packet via the enforcement
   chain's stateless-head/stateful-tail split; a hit materializes the
   frame as a record at most once, for the tail and delivery together,
   and decrements that record's TTL in place: one copy of the payload
   per forwarded frame. *)

open Netcore
open Sim
open Router_state

(* A flow cache never outgrows this; on overflow the whole table resets
   (decisions are cheap to re-resolve, eviction bookkeeping is not). *)
let flow_cache_capacity = 4096

let send_frame_on_exp_lan t ~src ~dst payload =
  Lan.send t.exp_lan { Eth.dst; src; ethertype = Eth.Ipv4; payload }

(* Deliver wire bytes to a local experiment, rewriting the source MAC to
   the virtual MAC of the neighbor that brought it (paper §3.2.2). *)
let deliver_wire_to_local_experiment t ~via_mac exp_name wire =
  match experiment t exp_name with
  | None -> t.counters.packets_dropped <- t.counters.packets_dropped + 1
  | Some e ->
      t.counters.packets_to_experiments <-
        t.counters.packets_to_experiments + 1;
      e.att_packets_in <- e.att_packets_in + 1;
      send_frame_on_exp_lan t ~src:via_mac ~dst:e.exp_mac wire

let deliver_to_local_experiment t ~via_mac exp_name packet =
  deliver_wire_to_local_experiment t ~via_mac exp_name
    (Ipv4_packet.encode packet)

(* The quote is the expired packet's header and first 8 payload bytes
   (RFC 792), written from the record without encoding the rest. *)
let icmp_ttl_exceeded t (expired : Ipv4_packet.t) =
  let original = Ipv4_packet.encode_head expired ~payload:8 in
  t.counters.icmp_sent <- t.counters.icmp_sent + 1;
  Ipv4_packet.make ~src:t.primary_ip ~dst:expired.src
    ~protocol:Ipv4_packet.Icmp
    (Icmp.encode (Icmp.Ttl_exceeded { original }))

(* Forward a packet over the backbone toward [global_ip] (ARP on the
   backbone segment, then a frame to the owning PoP; §4.4). *)
let forward_over_backbone t ~global_ip packet =
  match t.bb with
  | None -> t.counters.packets_dropped <- t.counters.packets_dropped + 1
  | Some bb ->
      t.counters.packets_over_backbone <-
        t.counters.packets_over_backbone + 1;
      Arp_client.send_ip bb ~next_hop:global_ip packet

(* An inbound packet destined to experiment space, arriving from local
   neighbor [via] (or from the backbone when [via] is None). *)
let deliver_inbound t ?via packet =
  let dst = packet.Ipv4_packet.dst in
  match owner_lookup t dst with
  | Some (Local_exp exp_name) ->
      let via_mac =
        match via with
        | Some ns -> ns.info.Neighbor.virtual_mac
        | None -> t.router_mac
      in
      deliver_to_local_experiment t ~via_mac exp_name packet
  | Some (Remote_exp { via_global; _ }) ->
      forward_over_backbone t ~global_ip:via_global packet
  | None -> t.counters.packets_dropped <- t.counters.packets_dropped + 1

(* [deliver_inbound] for a view: local delivery reuses the wire bytes
   verbatim (no decode, no re-encode); only the backbone path — which
   hands records to the ARP client — materializes one. *)
let deliver_inbound_view t view =
  match owner_lookup t (Ipv4_packet.View.dst view) with
  | Some (Local_exp exp_name) ->
      deliver_wire_to_local_experiment t ~via_mac:t.router_mac exp_name
        (Ipv4_packet.View.to_wire view)
  | Some (Remote_exp { via_global; _ }) ->
      forward_over_backbone t ~global_ip:via_global
        (Ipv4_packet.View.to_packet view)
  | None -> t.counters.packets_dropped <- t.counters.packets_dropped + 1

(* Entry point for packets handed to us by a real neighbor (traffic from
   the Internet toward experiment prefixes). *)
let inject_from_neighbor t ~neighbor_id packet =
  match neighbor t neighbor_id with
  | None -> invalid_arg "Router.inject_from_neighbor: unknown neighbor"
  | Some ns -> deliver_inbound t ~via:ns packet

let attribute_out exp bytes =
  match exp with
  | Some e ->
      e.att_packets_out <- e.att_packets_out + 1;
      e.att_bytes_out <- e.att_bytes_out + bytes
  | None -> ()

let ingress_of ~sender ~src_mac =
  match sender with
  | Some name -> name
  | None -> Printf.sprintf "unknown:%s" (Mac.to_string src_mac)

(* Hand a forwarded packet to the neighbor table's choice: over the
   backbone when the table belongs to a remote PoP's neighbor (an alias),
   straight to the neighbor otherwise. *)
let send_to_neighbor t ~ns (entry : Rib.Fib.entry) packet =
  if Neighbor.is_alias ns.info then
    forward_over_backbone t ~global_ip:entry.next_hop packet
  else begin
    t.counters.packets_to_neighbors <- t.counters.packets_to_neighbors + 1;
    ns.deliver packet
  end

(* The record-path continuation for a packet the enforcement chain
   allowed: TTL handling, the neighbor table, delivery. Shared by the
   slow path and by cache hits whose stateful tail rewrote the packet
   (the rewrite may have changed the destination, so the FIB lookup is
   redone here on the rewritten record). The packet may belong to a
   filter that rewrote it, so the TTL is decremented on a copy. *)
let forward_allowed_packet t ~ns ~fib packet =
  if packet.Ipv4_packet.ttl <= 1 then
    deliver_inbound t (icmp_ttl_exceeded t packet)
  else
    let packet = Ipv4_packet.decrement_ttl packet in
    match Rib.Fib.lookup fib packet.Ipv4_packet.dst with
    | None -> t.counters.packets_dropped <- t.counters.packets_dropped + 1
    | Some entry -> send_to_neighbor t ~ns entry packet

(* Resolve a frame through the full enforcement chain on the record slow
   path; when [store] is set and the verdict was flow-determined,
   memoize it (stamped with the current generations) for later hits.
   The sender is looked up here only: a hit carries it in its entry. *)
let resolve_and_forward t ~ns ~fib ~now ~src_mac ~store view =
  let sender = Hashtbl.find_opt t.by_exp_mac src_mac in
  let exp = match sender with Some n -> experiment t n | None -> None in
  let ingress = ingress_of ~sender ~src_mac in
  let packet = Ipv4_packet.View.to_packet view in
  (* Stamps are read before resolving so a mutation racing in during
     resolution could only make the entry stale, never mask itself. *)
  let f_fib_gen = Rib.Fib.generation fib in
  let f_enf_gen = Data_enforcer.generation t.data in
  let f_owner_gen = Dcache.generation t.owner_cache in
  let decision, resolution =
    Data_enforcer.check_resolve t.data ~now ~meta:{ Data_enforcer.ingress }
      packet
  in
  (if store then
     match resolution with
     | Data_enforcer.Uncacheable -> ()
     | Data_enforcer.Cacheable_block _ | Data_enforcer.Cacheable_allow ->
         let f_action =
           match resolution with
           | Data_enforcer.Cacheable_block (f, reason) -> Fblock (f, reason)
           | _ -> (
               match Rib.Fib.lookup fib (Ipv4_packet.View.dst view) with
               | Some entry -> Fforward entry
               | None -> Fnofib)
         in
         if Flow_table.length ns.flows >= flow_cache_capacity then
           Flow_table.reset ns.flows;
         Flow_table.replace ns.flows ~mac:(Mac.to_int src_mac)
           ~src:(Ipv4_packet.View.src_bits view)
           ~dst:(Ipv4_packet.View.dst_bits view)
           { f_action; f_exp = exp; f_ingress = ingress; f_fib_gen;
             f_enf_gen; f_owner_gen });
  match decision with
  | Data_enforcer.Blocked _ ->
      t.counters.packets_dropped <- t.counters.packets_dropped + 1
  | Data_enforcer.Allowed packet ->
      attribute_out exp
        (Ipv4_packet.header_size + String.length packet.Ipv4_packet.payload);
      forward_allowed_packet t ~ns ~fib packet

(* The record a cache hit forwards: the one the stateful tail already
   built, or else one read out of the wire bytes. Either is this hit's
   own. *)
let hit_packet view = function
  | Some packet -> packet
  | None -> Ipv4_packet.View.to_packet view

(* Serve one frame from a memoized flow decision. The stateless head is
   replayed as counter/trace bookkeeping; the stateful tail still runs
   on the packet. The frame is materialized as a record at most once,
   and only where it leaves: for the ICMP error or for delivery. When a
   tail ran, the record it built is the one forwarded, its TTL
   decremented in place; a memoized no-route verdict is counted without
   building one. *)
let execute_cached t ~ns ~fib ~now view fe =
  match fe.f_action with
  | Fblock (f, reason) ->
      Data_enforcer.replay_block t.data ~now f reason;
      t.counters.packets_dropped <- t.counters.packets_dropped + 1
  | (Fforward _ | Fnofib) as action -> (
      match
        Data_enforcer.check_tail t.data ~now
          ~meta:{ Data_enforcer.ingress = fe.f_ingress }
          view
      with
      | Data_enforcer.Tail_blocked _ ->
          t.counters.packets_dropped <- t.counters.packets_dropped + 1
      | Data_enforcer.Tail_rewritten packet ->
          attribute_out fe.f_exp
            (Ipv4_packet.header_size
            + String.length packet.Ipv4_packet.payload);
          forward_allowed_packet t ~ns ~fib packet
      | Data_enforcer.Tail_pass tailed -> (
          attribute_out fe.f_exp (Ipv4_packet.View.total_length view);
          if Ipv4_packet.View.ttl view <= 1 then
            deliver_inbound t (icmp_ttl_exceeded t (hit_packet view tailed))
          else
            match action with
            | Fforward entry ->
                let packet = hit_packet view tailed in
                packet.Ipv4_packet.ttl <- packet.Ipv4_packet.ttl - 1;
                send_to_neighbor t ~ns entry packet
            | Fnofib ->
                t.counters.packets_dropped <- t.counters.packets_dropped + 1
            | Fblock _ -> assert false))

(* Forward a frame an experiment put on the wire: the destination MAC
   picks the neighbor table (the heart of §3.2.2). Cheap rejections
   first — unknown station, then a malformed packet — before any
   per-frame work; the clock is read once per frame. The flow-table
   probe allocates nothing. *)
let forward_experiment_frame t ~neighbor_id (frame : Eth.t) =
  match neighbor t neighbor_id with
  | None -> t.counters.packets_dropped <- t.counters.packets_dropped + 1
  | Some ns -> (
      match Ipv4_packet.View.of_string frame.payload with
      | Error _ ->
          t.counters.packets_dropped <- t.counters.packets_dropped + 1
      | Ok view -> (
          let now = Engine.now t.engine in
          let fib = Rib.Fib.Set.table t.fibs ns.info.Neighbor.id in
          if not t.flow_cache_enabled then
            resolve_and_forward t ~ns ~fib ~now ~src_mac:frame.src
              ~store:false view
          else
            match
              Flow_table.find ns.flows ~mac:(Mac.to_int frame.src)
                ~src:(Ipv4_packet.View.src_bits view)
                ~dst:(Ipv4_packet.View.dst_bits view)
            with
            | Some fe
              when fe.f_fib_gen = Rib.Fib.generation fib
                   && fe.f_enf_gen = Data_enforcer.generation t.data
                   && fe.f_owner_gen = Dcache.generation t.owner_cache ->
                t.counters.flow_hits <- t.counters.flow_hits + 1;
                execute_cached t ~ns ~fib ~now view fe
            | _ ->
                t.counters.flow_misses <- t.counters.flow_misses + 1;
                resolve_and_forward t ~ns ~fib ~now ~src_mac:frame.src
                  ~store:true view))

(* Handle a frame arriving on the experiment LAN addressed to one of our
   stations (a neighbor's virtual MAC or the router itself). *)
let handle_exp_lan_frame t ~station_neighbor (frame : Eth.t) =
  match frame.ethertype with
  | Eth.Arp -> (
      match Arp.decode frame.payload with
      | Ok ({ op = Arp.Request; _ } as a) -> (
          (* Answer for the virtual IP this station owns. *)
          match Hashtbl.find_opt t.by_vip a.target_ip with
          | Some id when station_neighbor = Some id -> (
              match neighbor t id with
              | Some ns ->
                  Lan.send t.exp_lan
                    {
                      Eth.dst = a.sender_mac;
                      src = ns.info.Neighbor.virtual_mac;
                      ethertype = Eth.Arp;
                      payload =
                        Arp.encode
                          (Arp.reply ~sender_mac:ns.info.Neighbor.virtual_mac
                             ~sender_ip:a.target_ip ~target_mac:a.sender_mac
                             ~target_ip:a.sender_ip);
                    }
              | None -> ())
          | _ ->
              (* The router answers for its own primary address. *)
              if
                station_neighbor = None
                && Ipv4.equal a.target_ip t.primary_ip
              then
                Lan.send t.exp_lan
                  {
                    Eth.dst = a.sender_mac;
                    src = t.router_mac;
                    ethertype = Eth.Arp;
                    payload =
                      Arp.encode
                        (Arp.reply ~sender_mac:t.router_mac
                           ~sender_ip:t.primary_ip ~target_mac:a.sender_mac
                           ~target_ip:a.sender_ip);
                  })
      | Ok _ | Error _ -> ())
  | Eth.Ipv4 -> (
      match station_neighbor with
      | Some id -> forward_experiment_frame t ~neighbor_id:id frame
      | None -> (
          (* Addressed to the router itself: experiment-to-experiment or
             diagnostic traffic; route it like inbound, on the wire bytes
             (local delivery never decodes). *)
          match Ipv4_packet.View.of_string frame.payload with
          | Ok view -> deliver_inbound_view t view
          | Error _ -> ()))
  | Eth.Ipv6 | Eth.Other _ -> ()

(* The router's own station on the experiment LAN (answers for the primary
   address, receives router-addressed traffic). Call after creation. *)
let activate t =
  Lan.attach t.exp_lan t.router_mac
    (handle_exp_lan_frame t ~station_neighbor:None)
