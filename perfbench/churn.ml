(* table-churn: the neighbor -> experiment path (paper §3.2.1, Fig. 6b).

   Tens of transit neighbors hold overlapping tables — most prefixes have
   several candidate paths — drawn from a bounded AS-path pool, and two
   experiments are connected over ADD-PATH. The timed window replays a
   cycle of churn episodes as pre-encoded wire UPDATEs, one batch per
   tick: withdraw storms, whole-peer flaps and re-announce waves onto
   other paths. Every episode is two ticks (the change, then the
   restoration of the baseline), so the cycle can repeat indefinitely and
   the live-route count after every tick is known in advance. Nothing is
   forwarded and nothing goes out to neighbors. *)

open Netcore
open Bgp

type scale = {
  neighbors : int;
  experiments : int;
  prefixes : int;
  paths : int;
  max_holders : int;
  episodes : int;
}

let scale =
  {
    neighbors = 24;
    experiments = 2;
    prefixes = 16_384;
    paths = 256;
    max_holders = 6;
    episodes = 200;
  }

let ctick wire ~nlri ~live =
  Workload.tick ~wire ~ops:nlri ~nlri_in:nlri ~live ()

let setup ~seed =
  let rng = Random.State.make [| seed; 1 |] in
  let w = World.create ~name:"churn" () in
  let ids = Array.init scale.neighbors (World.add_neighbor w) in
  for e = 0 to scale.experiments - 1 do
    World.add_experiment w
      ~name:(Printf.sprintf "exp%d" e)
      ~exp_asn:(World.asn (61574 + e))
      ~prefix:
        (Prefix.make
           (Ipv4.of_int32 (Int32.of_int (0xB8A40000 + (e lsl 8))))
           24)
      ~mac:(Mac.local ~pool:0xe0 (e + 1))
      ~session:true
  done;
  World.establish w;
  (* The AS-path pool: 1-4 transit hops toward one of a few origins. *)
  let paths =
    Array.init scale.paths (fun i ->
        let hops = 1 + (i mod 4) in
        List.init hops (fun _ -> World.asn (1000 + Random.State.int rng 9000))
        @ [ World.asn (65000 + Random.State.int rng 64) ])
  in
  let attrs ni pi =
    Attr.origin_attrs
      ~as_path:(Aspath.of_asns (World.neighbor_asn ni :: paths.(pi)))
      ~next_hop:(World.neighbor_ip ni) ()
  in
  (* Baseline: prefix i is held by 1 + (i mod max_holders) distinct
     neighbors, each with its own path from the pool, so every seed loads
     the same number of routes. [table.(n)] is neighbor n's table. *)
  let table = Array.init scale.neighbors (fun _ -> ref []) in
  for i = scale.prefixes - 1 downto 0 do
    let p = Topo.Updates.default_prefix_of i in
    let chosen = Array.make scale.neighbors false in
    let holders = ref (1 + (i mod scale.max_holders)) in
    while !holders > 0 do
      let n = Random.State.int rng scale.neighbors in
      if not chosen.(n) then begin
        chosen.(n) <- true;
        decr holders;
        table.(n) := (p, Random.State.int rng scale.paths) :: !(table.(n))
      end
    done
  done;
  let table = Array.map (fun r -> Array.of_list !r) table in
  let base_live = Array.fold_left (fun acc t -> acc + Array.length t) 0 table in
  let announce n routes ~path =
    World.announce ids.(n) ~attrs:(attrs n)
      (Array.to_list (Array.map (fun (p, pi) -> (p, path pi)) routes))
  in
  let withdraw n routes =
    World.withdraw ids.(n) (Array.to_list (Array.map fst routes))
  in
  let load =
    List.init scale.neighbors (fun n -> announce n table.(n) ~path:Fun.id)
  in
  (* [k] random routes of neighbor n. *)
  let subset n k =
    let t = Array.copy table.(n) in
    let len = Array.length t in
    let k = min len k in
    for i = 0 to k - 1 do
      let j = i + Random.State.int rng (len - i) in
      let x = t.(i) in
      t.(i) <- t.(j);
      t.(j) <- x
    done;
    Array.sub t 0 k
  in
  (* The episode mix is the same for every seed — per 20 episodes, 10
     withdraw storms, 7 re-announce waves and 3 peer flaps, with storm and
     wave sizes stepping through fixed ladders — so seeds differ only in
     which neighbors and prefixes the episodes touch. The mix is an
     arbitrary choice, not measured traffic; each ladder spans 16x, near
     the AMS-IX ratio of p99 to average update rate (400 / 21.8). *)
  let kinds = "SWSWFSWSWSFSWSWSFSWS" in
  let storms = ref 0 and waves = ref 0 in
  let ladder lo hi step = lo + ((hi - lo) * (step mod 16) / 15) in
  let cycle =
    List.concat
      (List.init scale.episodes (fun j ->
           let n = Random.State.int rng scale.neighbors in
           match kinds.[j mod String.length kinds] with
           | 'S' ->
               (* withdraw storm, then the routes come back *)
               let s = subset n (ladder 32 512 !storms) in
               incr storms;
               let k = Array.length s in
               [
                 ctick (withdraw n s) ~nlri:k ~live:(base_live - k);
                 ctick (announce n s ~path:Fun.id) ~nlri:k ~live:base_live;
               ]
           | 'W' ->
               (* re-announce wave onto other paths, then back *)
               let s = subset n (ladder 64 1024 !waves) in
               incr waves;
               let k = Array.length s in
               let shift = 1 + Random.State.int rng (scale.paths - 1) in
               [
                 ctick
                   (announce n s ~path:(fun pi -> (pi + shift) mod scale.paths))
                   ~nlri:k ~live:base_live;
                 ctick (announce n s ~path:Fun.id) ~nlri:k ~live:base_live;
               ]
           | _ ->
               (* whole-peer flap: everything withdrawn, then re-announced *)
               let s = table.(n) in
               let k = Array.length s in
               [
                 ctick (withdraw n s) ~nlri:k ~live:(base_live - k);
                 ctick (announce n s ~path:Fun.id) ~nlri:k ~live:base_live;
               ]))
    |> Array.of_list
  in
  World.load w load;
  { Workload.world = w; cycle; replay_enforcer = None }
