(* The parallel Control_out export lane (the wire-side complement of
   [Ingest_pool]): N worker domains, each owning the export-control
   filtering, Adj-RIB-Out delta, multi-NLRI packing, and wire encoding
   for a fixed subset of neighbors, feeding the single-writer send
   replay.

   Design in one paragraph: a flush hash-partitions the neighbor targets
   across per-domain queues by neighbor id, so each neighbor's
   Adj-RIB-Out is mutated by exactly one domain. The coordinator
   computes the dirty-prefix snapshot — the sorted array of each prefix
   with its exportable variants, every variant paired with its export
   filter compiled once per flush ([Export_control.compile]) — from live
   router state and publishes it (with the facing closure) to all lanes
   before waking them; workers then run the same per-(prefix, neighbor)
   delta loop as the sequential flush — the first variant whose filter
   permits the neighbor, then the Adj-RIB-Out delta — bucket
   announcements into update-groups keyed by the interned facing set,
   and encode the outgoing messages themselves: the path-attribute
   block of each facing group is encoded once per lane per flush
   ([Codec.encode_attrs_block]) and spliced into every packed message
   ([Codec.encode_update_spliced]) — the encode-once wire cache.
   Fully encoded messages are staged; after the done-handshake (the same
   Mutex/Condition parking protocol as [Shard]/[Ingest_pool], whose lock
   transitions publish all worker writes) the coordinator replays the
   staged sends in neighbor-id order through [Session.send_encoded] and
   folds the lane-local facing/block novelty sets into counters, so
   [reexport_computations] and the wire-cache hit/miss stats are
   independent of the lane count.

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

(* -- partitioning ------------------------------------------------------------ *)

(* Deterministic hash of a neighbor id onto a domain index — the same
   mix as [Ingest_pool.domain_of_neighbor], so a neighbor's ingest and
   export affinity agree. *)
let domain_of_neighbor ~workers nid =
  if workers <= 1 then 0
  else begin
    let h = (nid + 0x61c88647) * 0x9e3779b1 in
    (h lxor (h lsr 16)) land max_int mod workers
  end

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

(* -- per-domain state -------------------------------------------------------- *)

type dom = {
  mutable d_q : target array;
  mutable d_qlen : int;
  mutable d_qmax : int;  (** lifetime high-water mark (diagnostics) *)
  l_facing : (int, Attr_arena.handle) Hashtbl.t;
      (** variant arena id -> facing handle; reset every flush *)
  l_blocks : (block_key, string) Hashtbl.t;
      (** encoded attribute blocks; reset every flush *)
  mutable d_faced : int list;
      (** variant ids first faced by this lane this flush *)
  mutable d_block_keys : block_key list;
      (** block keys first encoded by this lane this flush *)
  mutable d_announce_pieces : int;
      (** announce messages spliced this flush (block-bearing) *)
  mutable d_staged : staged list;  (** reversed; drained on [consume] *)
  mutable d_staged_n : int;
}

(* Worker parking protocol — identical to [Ingest_pool]: persistent
   domains sleep on [cond] between flushes; all [w_state] transitions
   happen under [lock], which doubles as the happens-before edge for the
   plain per-domain fields and the published flush inputs. *)
type wstate = W_idle | W_work | W_done | W_quit

type t = {
  workers : int;
  doms : dom array;
  lock : Mutex.t;
  cond : Condition.t;
  w_state : wstate array;  (** one slot per worker, [workers - 1] long *)
  mutable handles : unit Domain.t array;  (** [ [||] ] = not spawned *)
  (* Inputs of the flush in progress, published before the workers wake.
     [cur_facing] runs on worker domains, so it may only touch
     domain-safe state (the striped arena). *)
  mutable cur_prefixes :
    (Prefix.t * (Attr_arena.handle * Export_control.filter) list) array;
  mutable cur_facing : Attr_arena.handle -> Attr_arena.handle;
  mutable cur_log : (announce:bool -> int -> Prefix.t -> unit) option;
      (** per-delta trace hook; only retained on the coordinator-inline
          lane ([workers = 1]) — tracing is not domain-safe *)
  (* Cumulative wire-cache stats, folded by the coordinator on consume. *)
  mutable hits : int;
  mutable misses : int;
  mutable bytes_out : int;
}

let dummy_target =
  {
    xt_id = -1;
    xt_export_id = -1;
    xt_out = Prefix.Tbl.create 1;
    xt_params = None;
  }

let make_dom () =
  {
    d_q = Array.make 64 dummy_target;
    d_qlen = 0;
    d_qmax = 0;
    l_facing = Hashtbl.create 16;
    l_blocks = Hashtbl.create 16;
    d_faced = [];
    d_block_keys = [];
    d_announce_pieces = 0;
    d_staged = [];
    d_staged_n = 0;
  }

let create ~workers () =
  if workers < 1 then invalid_arg "Export_pool.create: workers must be >= 1";
  {
    workers;
    doms = Array.init workers (fun _ -> make_dom ());
    lock = Mutex.create ();
    cond = Condition.create ();
    w_state = Array.make (workers - 1) W_idle;
    handles = [||];
    cur_prefixes = [||];
    cur_facing = (fun v -> v);
    cur_log = None;
    hits = 0;
    misses = 0;
    bytes_out = 0;
  }

let worker_count t = t.workers

(* -- dispatch ---------------------------------------------------------------- *)

let push d tg =
  if d.d_qlen = Array.length d.d_q then begin
    let bigger = Array.make (2 * Array.length d.d_q) dummy_target in
    Array.blit d.d_q 0 bigger 0 d.d_qlen;
    d.d_q <- bigger
  end;
  d.d_q.(d.d_qlen) <- tg;
  d.d_qlen <- d.d_qlen + 1;
  if d.d_qlen > d.d_qmax then d.d_qmax <- d.d_qlen

(* -- worker: one neighbor ---------------------------------------------------- *)

(* The facing set for variant [v], computed at most once per lane per
   flush. The first computation of a variant id records it in [d_faced];
   [consume] counts the cross-lane union, which equals exactly the
   sequential flush's facing-cache misses. *)
let facing_of t d v =
  let vid = Attr_arena.id v in
  match Hashtbl.find_opt d.l_facing vid with
  | Some f -> f
  | None ->
      let f = t.cur_facing v in
      Hashtbl.replace d.l_facing vid f;
      d.d_faced <- vid :: d.d_faced;
      f

(* The encoded attribute block for [facing], rendered at most once per
   lane per flush — the encode-once wire cache. *)
let block_of d ~params facing =
  let key =
    (Attr_arena.id facing, params.Codec.add_path, params.Codec.as4)
  in
  match Hashtbl.find_opt d.l_blocks key with
  | Some b -> b
  | None ->
      let b = Codec.encode_attrs_block ~params (Attr_arena.set facing) in
      Hashtbl.replace d.l_blocks key b;
      d.d_block_keys <- key :: d.d_block_keys;
      b

let stage d sg =
  d.d_staged <- sg :: d.d_staged;
  d.d_staged_n <- d.d_staged_n + 1

(* Replay of the sequential flush's per-neighbor work: the delta loop
   over the sorted prefix snapshot (buffering withdrawals and bucketing
   announcements into facing groups in first-seen order), then — for an
   established session — packing and encoding. Per-delta behavior must
   stay exactly in step with the sequential path, including the
   unconditional Adj-RIB-Out mutation when the session is down. *)
let process t d tg =
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
          (match t.cur_log with
          | Some log -> log ~announce:false tg.xt_id prefix
          | None -> ())
      | Some v, _ ->
          let facing = facing_of t d v in
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
            match t.cur_log with
            | Some log -> log ~announce:true tg.xt_id prefix
            | None -> ()
          end)
    t.cur_prefixes;
  match tg.xt_params with
  | None -> ()
  | Some params ->
      (match List.rev !pend_withdrawn with
      | [] -> ()
      | withdrawn ->
          List.iter
            (fun (piece : Msg.update) ->
              stage d
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
              let block = block_of d ~params facing in
              let u =
                Msg.update ~attrs:(Attr_arena.set facing)
                  ~announced:(List.rev !nlris) ()
              in
              List.iter
                (fun (piece : Msg.update) ->
                  d.d_announce_pieces <- d.d_announce_pieces + 1;
                  stage d
                    {
                      sg_nid = tg.xt_id;
                      sg_update = piece;
                      sg_bytes =
                        Codec.encode_update_spliced ~params ~attrs_block:block
                          piece;
                    })
                (Codec.split_update ~params ~attrs_size:(String.length block) u))
        (List.rev !order)

let worker t d =
  Hashtbl.reset d.l_facing;
  Hashtbl.reset d.l_blocks;
  for i = 0 to d.d_qlen - 1 do
    process t d d.d_q.(i)
  done;
  (* Drop target references so the queue doesn't pin Adj-RIB-Outs of
     removed neighbors alive. *)
  Array.fill d.d_q 0 d.d_qlen dummy_target;
  d.d_qlen <- 0

let worker_loop t i =
  let d = t.doms.(i + 1) in
  Mutex.lock t.lock;
  let rec loop () =
    match t.w_state.(i) with
    | W_idle | W_done ->
        Condition.wait t.cond t.lock;
        loop ()
    | W_quit -> Mutex.unlock t.lock
    | W_work ->
        Mutex.unlock t.lock;
        worker t d;
        Mutex.lock t.lock;
        t.w_state.(i) <- W_done;
        Condition.broadcast t.cond;
        loop ()
  in
  loop ()

(* -- flush ------------------------------------------------------------------- *)

(* Run one export flush: dispatch [targets] across the lanes, publish
   the snapshot and the facing closure, and process everything to
   completion. The caller must quiesce control mutation for the
   duration: workers run concurrently with each other, never with the
   engine or session callbacks. [log] is retained only on the
   single-lane path (tracing is not domain-safe); multi-lane flushes
   skip per-delta trace lines — a trace-only divergence the fingerprints
   never see. *)
let flush t ~prefixes ~targets ~facing ?log () =
  t.cur_prefixes <- prefixes;
  t.cur_facing <- facing;
  t.cur_log <- (if t.workers = 1 then log else None);
  List.iter
    (fun tg -> push t.doms.(domain_of_neighbor ~workers:t.workers tg.xt_id) tg)
    targets;
  if t.workers = 1 then worker t t.doms.(0)
  else begin
    if Array.length t.handles = 0 then
      t.handles <-
        Array.init (t.workers - 1) (fun i ->
            Domain.spawn (fun () -> worker_loop t i));
    Mutex.lock t.lock;
    for i = 0 to t.workers - 2 do
      t.w_state.(i) <- W_work
    done;
    Condition.broadcast t.cond;
    Mutex.unlock t.lock;
    worker t t.doms.(0);
    Mutex.lock t.lock;
    for i = 0 to t.workers - 2 do
      while t.w_state.(i) <> W_done do
        Condition.wait t.cond t.lock
      done;
      t.w_state.(i) <- W_idle
    done;
    Mutex.unlock t.lock
  end;
  (* Release the snapshot and closures: they capture router state. *)
  t.cur_prefixes <- [||];
  t.cur_facing <- (fun v -> v);
  t.cur_log <- None

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
  Array.iter
    (fun d ->
      List.iter (fun vid -> Hashtbl.replace faced vid ()) d.d_faced;
      d.d_faced <- [];
      List.iter (fun k -> Hashtbl.replace blocks k ()) d.d_block_keys;
      d.d_block_keys <- [];
      pieces := !pieces + d.d_announce_pieces;
      d.d_announce_pieces <- 0)
    t.doms;
  computations (Hashtbl.length faced);
  let fresh = Hashtbl.length blocks in
  t.misses <- t.misses + fresh;
  t.hits <- t.hits + (!pieces - fresh);
  let staged =
    Array.to_list t.doms
    |> List.concat_map (fun d ->
           let s = List.rev d.d_staged in
           d.d_staged <- [];
           d.d_staged_n <- 0;
           s)
    |> List.stable_sort (fun a b -> Int.compare a.sg_nid b.sg_nid)
  in
  List.iter
    (fun sg ->
      if send ~nid:sg.sg_nid ~update:sg.sg_update ~bytes:sg.sg_bytes then
        t.bytes_out <- t.bytes_out + String.length sg.sg_bytes)
    staged

(* -- shutdown ---------------------------------------------------------------- *)

(* Join the worker domains (each live domain counts against the runtime's
   limit). Idempotent; the next multi-worker [flush] respawns
   transparently — queues and staging live in [doms] and survive. *)
let shutdown t =
  if Array.length t.handles > 0 then begin
    Mutex.lock t.lock;
    Array.iteri (fun i _ -> t.w_state.(i) <- W_quit) t.w_state;
    Condition.broadcast t.cond;
    Mutex.unlock t.lock;
    Array.iter Domain.join t.handles;
    t.handles <- [||];
    Array.iteri (fun i _ -> t.w_state.(i) <- W_idle) t.w_state
  end

(* -- observability ----------------------------------------------------------- *)

type stats = {
  wire_cache_hits : int;
  wire_cache_misses : int;
  wire_bytes_out : int;
  staged_residual : int;
  lane_depth_max : int array;
}

let stats t =
  let residual = ref 0 in
  Array.iter (fun d -> residual := !residual + d.d_staged_n) t.doms;
  {
    wire_cache_hits = t.hits;
    wire_cache_misses = t.misses;
    wire_bytes_out = t.bytes_out;
    staged_residual = !residual;
    lane_depth_max = Array.map (fun d -> d.d_qmax) t.doms;
  }
