(* experiment-fanout: the experiment -> neighbor path (paper §3.2.1, §4.6).

   About a hundred transit neighbors sit over a modest background table
   loaded in setup, and five experiments are attached with an unlimited
   update budget. Each tick one to three experiments announce,
   re-announce (changed MED, prepends, export-control tags) or withdraw
   a slot of prefixes from their allocation, and the flush fans every
   change out to up to a hundred neighbors. Whitelist and blacklist tags
   give different neighbor-facing variants. Every 40th tick every
   experiment withdraws its whole allocation, returning the router to the
   state the cycle starts from; these mass withdrawals are 2.5% of ticks,
   so p99 lands inside that class rather than on the edge of the regular
   ticks' tail. Decode and neighbor ingest stay idle. *)

open Netcore
open Bgp
module R = Vbgp.Router

type scale = {
  neighbors : int;
  background : int;
  experiments : int;
  per_experiment : int;  (** /24s in each allocation *)
  variants : int;
  segment : int;  (** regular ticks before each mass withdrawal *)
  segments : int;  (** segments per cycle *)
}

let scale =
  {
    neighbors = 100;
    background = 4096;
    experiments = 5;
    per_experiment = 64;
    variants = 12;
    segment = 39;
    segments = 8;
  }

let setup ~seed =
  let rng = Random.State.make [| seed; 2 |] in
  let w = World.create ~name:"fanout" () in
  let ids = Array.init scale.neighbors (World.add_neighbor w) in
  let exp_name e = Printf.sprintf "exp%d" e in
  let exp_asn e = World.asn (61574 + e) in
  let exp_prefix e i =
    Prefix.make
      (Ipv4.of_int32 (Int32.of_int (0xB8A00000 + (e lsl 16) + (i lsl 8))))
      24
  in
  for e = 0 to scale.experiments - 1 do
    World.add_experiment w ~name:(exp_name e) ~exp_asn:(exp_asn e)
      ~prefix:(Prefix.make (Prefix.network (exp_prefix e 0)) 18)
      ~mac:(Mac.local ~pool:0xe0 (e + 1))
      ~session:true
  done;
  World.establish w;
  (* Background: prefix i held by 1 + (i mod 3) neighbors over a 64-path
     pool. *)
  let paths =
    Array.init 64 (fun i ->
        List.init (1 + (i mod 3)) (fun _ ->
            World.asn (1000 + Random.State.int rng 9000)))
  in
  let table = Array.make scale.neighbors [] in
  for i = scale.background - 1 downto 0 do
    let chosen = Hashtbl.create 4 in
    while Hashtbl.length chosen < 1 + (i mod 3) do
      Hashtbl.replace chosen (Random.State.int rng scale.neighbors) ()
    done;
    Hashtbl.iter
      (fun n () ->
        table.(n) <-
          (Topo.Updates.default_prefix_of i, Random.State.int rng 64)
          :: table.(n))
      chosen
  done;
  let load =
    List.init scale.neighbors (fun n ->
        World.announce ids.(n)
          ~attrs:(fun pi ->
            Attr.origin_attrs
              ~as_path:(Aspath.of_asns (World.neighbor_asn n :: paths.(pi)))
              ~next_hop:(World.neighbor_ip n) ())
          table.(n))
  in
  let live = Array.fold_left (fun acc t -> acc + List.length t) 0 table in
  (* Variants: MED, own-AS prepends, and export-control tags naming random
     neighbors by their platform-global export id. Of every four variants
     one whitelists 8, 16 or 24 neighbors, one blacklists 4, 8 or 12, and
     two carry no tags, whatever the seed: an arbitrary mix, as no figure
     on how experiments use export-control tags is at hand. *)
  let ctl_asn = R.control_asn w.World.router in
  let export_ids =
    Array.map (fun id -> R.export_id w.World.router ~neighbor_id:id) ids
  in
  let some_neighbors k =
    let a = Array.copy export_ids in
    for i = 0 to k - 1 do
      let j = i + Random.State.int rng (Array.length a - i) in
      let x = a.(i) in
      a.(i) <- a.(j);
      a.(j) <- x
    done;
    List.sort Int.compare (Array.to_list (Array.sub a 0 k))
  in
  let variants e =
    Array.init scale.variants (fun v ->
        let step = 1 + (v / 4 mod 3) in
        let tags =
          match v mod 4 with
          | 0 ->
              List.map
                (Vbgp.Export_control.announce_to ~ctl_asn)
                (some_neighbors (min scale.neighbors (8 * step)))
          | 1 ->
              List.map (Vbgp.Export_control.block ~ctl_asn)
                (some_neighbors (min scale.neighbors (4 * step)))
          | _ -> []
        in
        Attr.origin_attrs
          ~as_path:
            (Aspath.of_asns (List.init (1 + (v mod 3)) (fun _ -> exp_asn e)))
          ~next_hop:(Prefix.host (exp_prefix e 0) 1)
          ()
        |> Attr.with_med v |> Attr.with_communities tags)
  in
  let variants = Array.init scale.experiments variants in
  (* Each allocation is cut into slots of 4, 8, 12, 16 and 24 prefixes.
     Every update takes the experiment's next slot in turn and moves it one
     step through announce -> re-announce -> re-announce -> withdraw; each
     announcement takes the experiment's next variant in turn. So every
     update changes what neighbors hear, and the work per tick is the same
     for every seed: ticks carry 1, 2 and 3 updates in turn, from the
     experiments in turn; the seed only picks the tagged neighbors. *)
  let slot_size = [| 4; 8; 12; 16; 24 |] in
  let slot_first = [| 0; 4; 12; 24; 40 |] in
  let slots = Array.length slot_size in
  let next_slot = Array.make scale.experiments 0 in
  let phase = Array.make_matrix scale.experiments slots 0 in
  let announcements = Array.make scale.experiments 0 in
  let update e =
    let s = next_slot.(e) in
    next_slot.(e) <- (s + 1) mod slots;
    let nlri =
      List.init slot_size.(s) (fun i ->
          Msg.nlri (exp_prefix e (slot_first.(s) + i)))
    in
    let ph = phase.(e).(s) in
    phase.(e).(s) <- (ph + 1) mod 4;
    if ph = 3 then (exp_name e, Msg.update ~withdrawn:nlri ())
    else begin
      let k = announcements.(e) in
      announcements.(e) <- k + 1;
      let v = variants.(e).(k mod scale.variants) in
      (exp_name e, Msg.update ~attrs:v ~announced:nlri ())
    end
  in
  let exp_tick updates =
    let nlri =
      List.fold_left
        (fun acc (_, (u : Msg.update)) ->
          acc + List.length u.announced + List.length u.withdrawn)
        0 updates
    in
    Workload.tick ~exp_updates:(Array.of_list updates) ~ops:nlri ~nlri_in:0
      ~live ()
  in
  let next_exp = ref 0 in
  let regular_tick j =
    exp_tick
      (List.init (1 + (j mod 3)) (fun _ ->
           let e = !next_exp in
           next_exp := (e + 1) mod scale.experiments;
           update e))
  in
  let reset_tick =
    List.init scale.experiments (fun e ->
        ( exp_name e,
          Msg.update
            ~withdrawn:
              (List.init scale.per_experiment (fun i ->
                   Msg.nlri (exp_prefix e i)))
            () ))
    |> exp_tick
  in
  let segment _ =
    let ticks = Array.init scale.segment regular_tick in
    Array.iter (fun p -> Array.fill p 0 slots 0) phase;
    Array.append ticks [| reset_tick |]
  in
  let cycle = Array.concat (List.init scale.segments segment) in
  World.load w load;
  { Workload.world = w; cycle; replay_enforcer = None }
