(* The Control_out export flush and its lanes ({!Lanes}): each lane
   owns the export-control filtering, Adj-RIB-Out delta, multi-NLRI
   packing, and wire encoding for a fixed subset of neighbors, feeding
   the single-writer send replay. A one-lane pool is the sequential
   flush itself.

   Design in one paragraph: a flush hash-partitions the neighbor targets
   across the lanes by neighbor id, so each neighbor's Adj-RIB-Out is
   mutated by exactly one lane. The coordinator computes the
   dirty-prefix snapshot — the sorted array of each prefix with its
   exportable variants, every variant paired with its export filter
   compiled once per flush ([Export_control.compile]) — from live
   router state and hands it (with the facing closure) to the lanes as
   the run context; workers then run the per-(prefix, neighbor) delta
   loop — the first variant whose filter permits the neighbor, then the
   Adj-RIB-Out delta — bucket announcements into update-groups keyed by
   the interned facing set, and encode the outgoing messages
   themselves: the path-attribute block of each facing group is encoded
   once per lane per flush ([Codec.encode_attrs_block]) and spliced into
   every packed message ([Codec.encode_update_spliced]) — the
   encode-once wire cache. Fully encoded messages are staged; after the
   run the coordinator replays the staged sends in neighbor-id order
   through [Session.send_encoded] and folds the lane-local facing/block
   novelty sets into counters, so [reexport_computations] and the
   wire-cache hit/miss stats are independent of the lane count.

   Determinism (what the differential suite pins): per-neighbor message
   order is per-lane FIFO (withdraw pieces, then facing groups in
   first-seen order over the sorted prefix snapshot — the same order the
   sequential flush produces), the global send order is a stable sort by
   neighbor id (matching the sequential flush's sorted-id drain), facing
   handles are canonical arena values so cross-lane equality checks
   agree, and the facing/block computation counts are deduplicated
   across lanes at consume time. Adj-RIB-Out tables are resolved by the
   coordinator before dispatch (their lazy creation stays
   single-writer). *)

open Netcore
open Bgp

(* -- what flows through the lane --------------------------------------------- *)

(* Per-flush view of one neighbor, captured by the coordinator from live
   router state immediately before the workers run (so session kills and
   establishment between flushes are always reflected). [xt_out] is the
   live Adj-RIB-Out table: the owning worker mutates it directly —
   exactly one domain touches a given neighbor's table, and the
   coordinator resolves it up front so its lazy creation never races. *)
type target = {
  xt_id : int;
  xt_export_id : int;
  xt_out : Attr_arena.handle Prefix.Tbl.t;
  xt_params : Codec.params option;
      (** [Some] iff the session is established: the negotiated encoding
          parameters; [None] suppresses packing (the Adj-RIB-Out delta
          still applies, exactly as on the sequential path) *)
}

(* A fully encoded staged send: the coordinator replays these through
   [Session.send_encoded] after re-checking the session. The decoded
   update rides along for the per-message NLRI accounting. *)
type staged = { sg_nid : int; sg_update : Msg.update; sg_bytes : string }

(* A wire-cache key: facing arena id plus the encoding parameters the
   block was rendered under (ADD-PATH changes NLRI encoding, AS4 changes
   AS_PATH bytes). *)
type block_key = int * bool * bool

(* -- per-lane state ----------------------------------------------------------- *)

type lane = {
  l_facing : (int, Attr_arena.handle) Hashtbl.t;
      (** variant arena id -> facing handle; reset every flush *)
  l_blocks : (block_key, string) Hashtbl.t;
      (** encoded attribute blocks; reset every flush *)
  mutable l_faced : int list;
      (** variant ids first faced by this lane this flush *)
  mutable l_block_keys : block_key list;
      (** block keys first encoded by this lane this flush *)
  mutable l_announce_pieces : int;
      (** announce messages spliced this flush (block-bearing) *)
  mutable l_staged : staged list;  (** reversed; drained on [consume] *)
  mutable l_staged_n : int;
}

(* The inputs of one flush, handed to every lane as the run context.
   [facing] runs on worker domains, so it may only touch domain-safe
   state (the striped arena). *)
type inputs = {
  f_prefixes :
    (Prefix.t * (Attr_arena.handle * Export_control.filter) list) array;
  f_facing : Attr_arena.handle -> Attr_arena.handle;
  f_log : (announce:bool -> int -> Prefix.t -> unit) option;
      (** per-delta trace hook; only on the coordinator-inline lane
          ([lanes = 1]) — tracing is not domain-safe *)
}

type t = {
  lanes : (lane, target, inputs) Lanes.t;
  (* Cumulative wire-cache stats, folded by the coordinator on consume. *)
  mutable hits : int;
  mutable misses : int;
  mutable bytes_out : int;
}

(* -- worker: one neighbor ---------------------------------------------------- *)

(* The facing set for variant [v], computed at most once per lane per
   flush. The first computation of a variant id records it in [l_faced];
   [consume] counts the cross-lane union, which equals exactly the
   sequential flush's facing-cache misses. *)
let facing_of inp l v =
  let vid = Attr_arena.id v in
  match Hashtbl.find_opt l.l_facing vid with
  | Some f -> f
  | None ->
      let f = inp.f_facing v in
      Hashtbl.replace l.l_facing vid f;
      l.l_faced <- vid :: l.l_faced;
      f

(* The encoded attribute block for [facing], rendered at most once per
   lane per flush — the encode-once wire cache. *)
let block_of l ~params facing =
  let key =
    (Attr_arena.id facing, params.Codec.add_path, params.Codec.as4)
  in
  match Hashtbl.find_opt l.l_blocks key with
  | Some b -> b
  | None ->
      let b = Codec.encode_attrs_block ~params (Attr_arena.set facing) in
      Hashtbl.replace l.l_blocks key b;
      l.l_block_keys <- key :: l.l_block_keys;
      b

let stage l sg =
  l.l_staged <- sg :: l.l_staged;
  l.l_staged_n <- l.l_staged_n + 1

(* One neighbor's share of the flush: the delta loop over the sorted
   prefix snapshot (buffering withdrawals and bucketing announcements
   into facing groups in first-seen order), then — for an established
   session — packing and encoding. The Adj-RIB-Out mutation happens
   even when the session is down. *)
let process inp l tg =
  let pend_withdrawn = ref [] in
  let groups : (int, Attr_arena.handle * Msg.nlri list ref) Hashtbl.t =
    Hashtbl.create 8
  in
  let order = ref [] in
  Array.iter
    (fun (prefix, variants) ->
      let previously = Prefix.Tbl.find_opt tg.xt_out prefix in
      match
        (Export_control.first_permitted tg.xt_export_id variants, previously)
      with
      | None, None -> ()
      | None, Some _ ->
          Prefix.Tbl.remove tg.xt_out prefix;
          pend_withdrawn := Msg.nlri prefix :: !pend_withdrawn;
          (match inp.f_log with
          | Some log -> log ~announce:false tg.xt_id prefix
          | None -> ())
      | Some v, _ ->
          let facing = facing_of inp l v in
          let changed =
            match previously with
            | Some old -> not (Attr_arena.equal old facing)
            | None -> true
          in
          if changed then begin
            Prefix.Tbl.replace tg.xt_out prefix facing;
            let fid = Attr_arena.id facing in
            (match Hashtbl.find_opt groups fid with
            | Some (_, nlris) -> nlris := Msg.nlri prefix :: !nlris
            | None ->
                Hashtbl.replace groups fid (facing, ref [ Msg.nlri prefix ]);
                order := fid :: !order);
            match inp.f_log with
            | Some log -> log ~announce:true tg.xt_id prefix
            | None -> ()
          end)
    inp.f_prefixes;
  match tg.xt_params with
  | None -> ()
  | Some params ->
      (match List.rev !pend_withdrawn with
      | [] -> ()
      | withdrawn ->
          List.iter
            (fun (piece : Msg.update) ->
              stage l
                {
                  sg_nid = tg.xt_id;
                  sg_update = piece;
                  sg_bytes =
                    Codec.encode_update_spliced ~params ~attrs_block:"" piece;
                })
            (Codec.split_update ~params ~attrs_size:0 (Msg.update ~withdrawn ())));
      List.iter
        (fun fid ->
          match Hashtbl.find_opt groups fid with
          | None -> ()
          | Some (facing, nlris) ->
              let block = block_of l ~params facing in
              let u =
                Msg.update ~attrs:(Attr_arena.set facing)
                  ~announced:(List.rev !nlris) ()
              in
              List.iter
                (fun (piece : Msg.update) ->
                  l.l_announce_pieces <- l.l_announce_pieces + 1;
                  stage l
                    {
                      sg_nid = tg.xt_id;
                      sg_update = piece;
                      sg_bytes =
                        Codec.encode_update_spliced ~params ~attrs_block:block
                          piece;
                    })
                (Codec.split_update ~params ~attrs_size:(String.length block) u))
        (List.rev !order)

(* -- the pool ----------------------------------------------------------------- *)

let dummy_target =
  {
    xt_id = -1;
    xt_export_id = -1;
    xt_out = Prefix.Tbl.create 1;
    xt_params = None;
  }

let create ~lanes () =
  {
    lanes =
      Lanes.create ~lanes ~dummy:dummy_target
        ~init:(fun _ ->
          {
            l_facing = Hashtbl.create 16;
            l_blocks = Hashtbl.create 16;
            l_faced = [];
            l_block_keys = [];
            l_announce_pieces = 0;
            l_staged = [];
            l_staged_n = 0;
          })
        ~work:process;
    hits = 0;
    misses = 0;
    bytes_out = 0;
  }

(* Run one export flush: queue [targets] on their lanes and process
   everything to completion with the snapshot and the facing closure as
   the run context. The caller must quiesce control mutation for the
   duration: workers run concurrently with each other, never with the
   engine or session callbacks. [log] is kept only on the single-lane
   path (tracing is not domain-safe); multi-lane flushes skip per-delta
   trace lines — a trace-only divergence the fingerprints never see. *)
let flush t ~prefixes ~targets ~facing ?log () =
  let lanes = Lanes.count t.lanes in
  List.iter
    (fun tg -> Lanes.push t.lanes (Lanes.of_neighbor ~lanes tg.xt_id) tg)
    targets;
  Lanes.run t.lanes
    {
      f_prefixes = prefixes;
      f_facing = facing;
      f_log = (if lanes = 1 then log else None);
    }

(* -- reconciliation ---------------------------------------------------------- *)

(* Replay the flush's staged sends on the coordinator and fold counters.
   [send] re-checks the session and returns whether the bytes actually
   went out (they always do today — the flush is synchronous, so
   establishment cannot change under it — but the check keeps the lane
   honest if that ever changes). The facing/block novelty sets are
   deduplicated across lanes here, so [computations] receives exactly
   the sequential flush's facing-cache miss count and the wire-cache
   hit/miss split is lane-count-independent. Send order is a stable sort
   by neighbor id over per-lane FIFOs — the same order as the sequential
   flush's sorted-id drain. *)
let consume t ~send ~computations =
  let faced = Hashtbl.create 16 in
  let blocks = Hashtbl.create 16 in
  let pieces = ref 0 in
  Lanes.iter
    (fun l ->
      Hashtbl.reset l.l_facing;
      Hashtbl.reset l.l_blocks;
      List.iter (fun vid -> Hashtbl.replace faced vid ()) l.l_faced;
      l.l_faced <- [];
      List.iter (fun k -> Hashtbl.replace blocks k ()) l.l_block_keys;
      l.l_block_keys <- [];
      pieces := !pieces + l.l_announce_pieces;
      l.l_announce_pieces <- 0)
    t.lanes;
  computations (Hashtbl.length faced);
  let fresh = Hashtbl.length blocks in
  t.misses <- t.misses + fresh;
  t.hits <- t.hits + (!pieces - fresh);
  let staged =
    Lanes.fold
      (fun acc l ->
        let s = List.rev l.l_staged in
        l.l_staged <- [];
        l.l_staged_n <- 0;
        s :: acc)
      [] t.lanes
    |> List.rev |> List.concat
    |> List.stable_sort (fun a b -> Int.compare a.sg_nid b.sg_nid)
  in
  List.iter
    (fun sg ->
      if send ~nid:sg.sg_nid ~update:sg.sg_update ~bytes:sg.sg_bytes then
        t.bytes_out <- t.bytes_out + String.length sg.sg_bytes)
    staged

let shutdown t = Lanes.shutdown t.lanes

(* -- observability ----------------------------------------------------------- *)

type stats = {
  wire_cache_hits : int;
  wire_cache_misses : int;
  wire_bytes_out : int;
  staged_residual : int;
  lane_depth_max : int array;
}

let stats t =
  {
    wire_cache_hits = t.hits;
    wire_cache_misses = t.misses;
    wire_bytes_out = t.bytes_out;
    staged_residual = Lanes.fold (fun acc l -> acc + l.l_staged_n) 0 t.lanes;
    lane_depth_max = Lanes.depth_max t.lanes;
  }
