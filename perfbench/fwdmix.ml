(* forward-mix: the data plane in both directions (paper §3.2.2).

   Four transit neighbors each hold a table of 65,536 routes (262,144 in
   all), and four experiments own a /16 each. Every tick is one burst:
   experiments send frames to neighbor virtual MACs (a pool of long-lived
   flows the flow cache serves, plus a fixed share of fresh flows that
   take the enforcer + FIB miss path) and neighbors inject packets toward
   experiment space. Half the flows carry smallest-size packets and half
   MTU-size ones (the fresh share and the size split are arbitrary), and
   one experiment sits behind a token-bucket shaper in the enforcement
   chain's stateful tail. Before each burst a trickle of
   neighbor UPDATEs moves routes under live flows — the FIB's writes
   beside its reads, which also retire the neighbor's flow-cache entries
   through their generation stamps. *)

open Netcore
open Bgp
module R = Vbgp.Router
module D = Vbgp.Data_enforcer

type scale = {
  neighbors : int;
  prefixes : int;  (** each neighbor holds all of them *)
  experiments : int;
  long_lived : int;
  inject_pool : int;
  burst_forward : int;
  burst_fresh : int;  (** of [burst_forward], fresh flows *)
  burst_inject : int;
  trickle : int;  (** prefixes moved per tick *)
  ticks : int;  (** even: trickle moves alternate with restorations *)
}

let scale =
  {
    neighbors = 4;
    prefixes = 65_536;
    experiments = 4;
    long_lived = 512;
    inject_pool = 128;
    burst_forward = 192;
    burst_fresh = 16;
    burst_inject = 64;
    trickle = 8;
    ticks = 1024;
  }

(* The shaper sees only [exp]'s packets; rate and burst are far above the
   offered load, so it debits tokens on every packet and never drops. *)
let shaper_tail ~exp =
  let inner = D.create () in
  D.add_filter inner
    (D.shaper ~name:"exp-shaper" ~rate:1e12 ~burst:1e15
       ~key_of:(fun _ -> exp)
       ());
  D.filter ~name:"shaper-tail" (fun ~now ~meta packet ->
      if String.equal meta.D.ingress exp then
        match D.check inner ~now ~meta packet with
        | D.Allowed _ -> D.Allow
        | D.Blocked reason -> D.Block reason
      else D.Allow)

let chain router enforcer ~shaped =
  D.add_filter enforcer
    (D.source_validation ~owner_of:(R.allocation_owner_of router) ());
  D.add_filter enforcer (shaper_tail ~exp:shaped)

let setup ~seed =
  let rng = Random.State.make [| seed; 3 |] in
  let w = World.create ~name:"fwdmix" () in
  let r = w.World.router in
  let ids = Array.init scale.neighbors (World.add_neighbor w) in
  let exp_name e = Printf.sprintf "exp%d" e in
  let exp_asn e = World.asn (61574 + e) in
  let exp_space e =
    Prefix.make (Ipv4.of_int32 (Int32.of_int (0xB8A40000 + (e lsl 16)))) 16
  in
  let exp_mac e = Mac.local ~pool:0xe0 (e + 1) in
  (* Experiments need no BGP session here: they announce through the
     router's entry point, and their traffic rides the LAN. *)
  for e = 0 to scale.experiments - 1 do
    World.add_experiment w ~name:(exp_name e) ~exp_asn:(exp_asn e)
      ~prefix:(exp_space e) ~mac:(exp_mac e) ~session:false
  done;
  World.establish w;
  chain r (R.data_enforcer r) ~shaped:(exp_name 0);
  let replay_enforcer = D.create () in
  chain r replay_enforcer ~shaped:(exp_name 0);
  let paths =
    Array.init 64 (fun i ->
        List.init (1 + (i mod 3)) (fun _ ->
            World.asn (1000 + Random.State.int rng 9000)))
  in
  let attrs n pi =
    Attr.origin_attrs
      ~as_path:(Aspath.of_asns (World.neighbor_asn n :: paths.(pi)))
      ~next_hop:(World.neighbor_ip n) ()
  in
  let prefix = Topo.Updates.default_prefix_of in
  let path =
    Array.init scale.neighbors (fun _ ->
        Array.init scale.prefixes (fun _ -> Random.State.int rng 64))
  in
  let load =
    List.init scale.neighbors (fun n ->
        World.announce ids.(n) ~attrs:(attrs n)
          (List.init scale.prefixes (fun i -> (prefix i, path.(n).(i)))))
  in
  let live = scale.neighbors * scale.prefixes in
  (* Packets: smallest size (46-byte IPv4 datagrams) or MTU (1500). *)
  let payload_small = String.make 26 's' in
  let payload_mtu = String.make 1480 'm' in
  let payload i = if i mod 2 = 0 then payload_small else payload_mtu in
  let forward ~e ~host ~n ~dst_prefix ~size =
    let packet =
      Ipv4_packet.make
        ~src:(Prefix.host (exp_space e) host)
        ~dst:(Prefix.host (prefix dst_prefix) 9)
        ~protocol:Ipv4_packet.Udp (payload size)
    in
    let vmac =
      match R.neighbor r ids.(n) with
      | Some ns -> ns.R.info.Vbgp.Neighbor.virtual_mac
      | None -> assert false
    in
    let frame =
      { Eth.dst = vmac; src = exp_mac e; ethertype = Eth.Ipv4;
        payload = Ipv4_packet.encode packet }
    in
    ((ids.(n), frame), (exp_name e, packet, ids.(n)))
  in
  let long_lived =
    Array.init scale.long_lived (fun i ->
        forward ~size:i
          ~e:(Random.State.int rng scale.experiments)
          ~host:(1 + Random.State.int rng 1000)
          ~n:(Random.State.int rng scale.neighbors)
          ~dst_prefix:(Random.State.int rng scale.prefixes))
  in
  let injects =
    Array.init scale.inject_pool (fun i ->
        let n = Random.State.int rng scale.neighbors in
        let e = Random.State.int rng scale.experiments in
        ( ids.(n),
          Ipv4_packet.make
            ~src:(Prefix.host (prefix (Random.State.int rng scale.prefixes)) 7)
            ~dst:(Prefix.host (exp_space e) (1 + Random.State.int rng 60000))
            ~protocol:Ipv4_packet.Udp (payload i) ))
  in
  (* Fresh flows use source hosts above the long-lived ones, each once per
     cycle. *)
  let fresh_host = ref 1000 in
  let burst () =
    let forwards =
      Array.init scale.burst_forward (fun i ->
          if i < scale.burst_fresh then begin
            incr fresh_host;
            forward ~size:i
              ~e:(Random.State.int rng scale.experiments)
              ~host:(1000 + (!fresh_host mod 64000))
              ~n:(Random.State.int rng scale.neighbors)
              ~dst_prefix:(Random.State.int rng scale.prefixes)
          end
          else long_lived.(Random.State.int rng scale.long_lived))
    in
    ( Array.map fst forwards,
      Array.map snd forwards,
      Array.init scale.burst_inject (fun _ ->
          injects.(Random.State.int rng scale.inject_pool)) )
  in
  (* The trickle: tick 2j moves a group (half of it under live flows) of
     one neighbor's routes to other paths; tick 2j+1 moves it back. *)
  let flow_prefixes =
    Array.map (fun (_, ((_, (p : Ipv4_packet.t), _))) -> p.dst) long_lived
  in
  let trickle_group () =
    List.init scale.trickle (fun i ->
        if i mod 2 = 0 then
          let dst = flow_prefixes.(Random.State.int rng scale.long_lived) in
          (* the /24 holding the flow's destination *)
          let base = Int32.to_int (Ipv4.to_int32 dst) land 0x0fffff00 in
          (base lsr 8) land 0xfffff
        else Random.State.int rng scale.prefixes)
    |> List.sort_uniq Int.compare
  in
  let cycle =
    Array.concat
      (List.init (scale.ticks / 2) (fun j ->
           let n = j mod scale.neighbors in
           let group = trickle_group () in
           let shift = 1 + Random.State.int rng 63 in
           let move ~to_path =
             World.announce ids.(n) ~attrs:(attrs n)
               (List.map (fun i -> (prefix i, to_path path.(n).(i))) group)
           in
           let tick wire =
             let frames, replay, injects = burst () in
             Workload.tick ~wire ~frames ~replay ~injects
               ~ops:(Array.length frames + Array.length injects)
               ~nlri_in:(List.length group) ~live ()
           in
           [|
             tick (move ~to_path:(fun pi -> (pi + shift) mod 64));
             tick (move ~to_path:Fun.id);
           |]))
  in
  World.load w load;
  (* Each experiment announces its /16, so injected packets find an
     owner. *)
  for e = 0 to scale.experiments - 1 do
    match
      R.process_experiment_update r ~experiment:(exp_name e)
        (Msg.update
           ~attrs:
             (Attr.origin_attrs
                ~as_path:(Aspath.of_asns [ exp_asn e ])
                ~next_hop:(Prefix.host (exp_space e) 1)
                ())
           ~announced:[ Msg.nlri (exp_space e) ]
           ())
    with
    | Ok () -> ()
    | Error errors -> failwith (String.concat "; " errors)
  done;
  R.flush_reexports r;
  World.deliver w;
  { Workload.world = w; cycle; replay_enforcer = Some replay_enforcer }
