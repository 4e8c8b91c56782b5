(* The Control_out export flush, its shared Adj-RIB-Out, and its lanes
   ({!Lanes}). A one-lane pool is the sequential flush itself.

   The Adj-RIB-Out is kept as update-groups (paper §3.2.1: export is
   opt-in per neighbor, so most neighbors hear the same thing). One group
   table holds, for each prefix, what a neighbor that no export-control
   tag names hears. Sparse per-(prefix, neighbor) overrides record the
   neighbors whose outcome differs from the group's. An override is
   dropped as soon as its neighbor agrees with the group again, so
   rejoining the group is per prefix and needs no other state. A
   neighbor's view is the group table overlaid with its overrides; it
   keeps accumulating intent while the session is down, and the resync
   on re-establishment replays it.

   A flush runs in three steps:
   1. Deltas, on the coordinator. For each dirty prefix the group's
      choice is computed once — the first exportable variant with no
      whitelist — and per-neighbor outcomes only for the neighbors the
      prefix's tags name and those already holding an override there.
      Each neighbor's delta list is the group's delta list with its own
      exceptions spliced in, so neighbors with equal exceptions share a
      delta list. Facing sets are resolved here, once per variant per
      flush, and only here: the coordinator is the one domain that
      interns.
   2. Packing and encoding, on the lanes. Neighbors with equal delta
      lists under equal [Codec.params] share one job: one packing
      ([Codec.split_update]) and one encoding, each attribute block
      encoded once per lane per flush ([Codec.encode_attrs_block]) and
      spliced into every message ([Codec.encode_update_spliced]). Every
      neighbor is queued on its [Lanes.of_neighbor] lane; the lowest-id
      established member of a job encodes it, so each job has one
      writer.
   3. Replay, on the coordinator: every member of a job is sent the
      job's byte strings (immutable, so sharing them is free) in
      neighbor-id order through the caller's sink.

   What the differential suites pin: per-neighbor wire bytes equal the
   old per-neighbor Adj-RIB-Out flush's (packing is a function of the
   delta list and the params alone), whatever the lane count. The
   counters stay per member send: a member's announce message that
   reuses an already-encoded block is a wire-cache hit, and a miss is a
   distinct (facing set, params) block, deduplicated across lanes. *)

open Netcore
open Bgp

(* -- inputs ------------------------------------------------------------------- *)

type target = {
  xt_id : int;
  xt_export_id : int;
  xt_params : Codec.params option;
      (** [Some] iff the session is established: the negotiated encoding
          parameters; [None] sends nothing (the view still changes) *)
}

(* A neighbor's change at one prefix: none, or its new outcome (a facing
   set, or [None] for a withdrawal). *)
type delta = Keep | Set of Attr_arena.handle option

(* One packing and encoding, shared by every member: a delta list in
   prefix order under one [Codec.params]. [j_out] is written once, by
   the lane of the job's leader. *)
type job = {
  j_params : Codec.params;
  j_withdrawn : Msg.nlri list;
  j_groups : (Attr_arena.handle * Msg.nlri list) list;
      (** announcements by facing set, in first-seen order *)
  mutable j_out : (Msg.update * string) list;
  mutable j_announces : int;  (** announce messages in [j_out] *)
}

(* A wire-cache key: facing arena id plus the encoding parameters the
   block was rendered under (ADD-PATH changes NLRI encoding, AS4 changes
   AS_PATH bytes). *)
type block_key = int * bool * bool

type lane = {
  l_blocks : (block_key, string) Hashtbl.t;
      (** encoded attribute blocks; reset every flush *)
  mutable l_block_keys : block_key list;
      (** block keys first encoded by this lane this flush *)
}

type t = {
  lanes : (lane, job option) Lanes.t;
  group : Attr_arena.handle Prefix.Tbl.t;
  overrides : (int * Attr_arena.handle option) list Prefix.Tbl.t;
      (** per prefix, sorted by neighbor id; never an empty list *)
  mutable pending : (int * job) list;
      (** this flush's sends, by neighbor id; drained by [consume] *)
  mutable selected : int;  (** distinct variants heard this flush *)
  (* Cumulative stats, folded by the coordinator on consume. *)
  mutable hits : int;
  mutable misses : int;
  mutable bytes_out : int;
  mutable encoded : int;
}

let same a b =
  match (a, b) with
  | None, None -> true
  | Some x, Some y -> Attr_arena.equal x y
  | _ -> false

let same_delta a b =
  match (a, b) with
  | Keep, Keep -> true
  | Set x, Set y -> same x y
  | _ -> false

(* -- the shared Adj-RIB-Out --------------------------------------------------- *)

let overrides_at t prefix =
  match Prefix.Tbl.find_opt t.overrides prefix with Some os -> os | None -> []

let set_overrides t prefix = function
  | [] -> Prefix.Tbl.remove t.overrides prefix
  | os -> Prefix.Tbl.replace t.overrides prefix os

let set_group t prefix = function
  | Some h -> Prefix.Tbl.replace t.group prefix h
  | None -> Prefix.Tbl.remove t.group prefix

let set_view t ~nid prefix outcome =
  let others = List.remove_assoc nid (overrides_at t prefix) in
  set_overrides t prefix
    (if same outcome (Prefix.Tbl.find_opt t.group prefix) then others
     else
       List.merge
         (fun (a, _) (b, _) -> Int.compare a b)
         others
         [ (nid, outcome) ])

let routes t ~nid =
  let acc =
    Prefix.Tbl.fold
      (fun p h acc ->
        match List.assoc_opt nid (overrides_at t p) with
        | Some (Some o) -> (p, o) :: acc
        | Some None -> acc
        | None -> (p, h) :: acc)
      t.group []
  in
  Prefix.Tbl.fold
    (fun p os acc ->
      match List.assoc_opt nid os with
      | Some (Some o) when not (Prefix.Tbl.mem t.group p) -> (p, o) :: acc
      | _ -> acc)
    t.overrides acc
  |> List.sort (fun (a, _) (b, _) -> Prefix.compare a b)

let entries t =
  Prefix.Tbl.fold
    (fun _ os n -> n + List.length os)
    t.overrides (Prefix.Tbl.length t.group)

(* -- step 2, on the lanes: packing and encoding ------------------------------- *)

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

(* Pack and encode one job: the withdrawals, then one packed run per
   facing set — the message order the per-neighbor flush always had. *)
let encode l j =
  let params = j.j_params in
  let out = ref [] in
  (match j.j_withdrawn with
  | [] -> ()
  | withdrawn ->
      List.iter
        (fun (piece : Msg.update) ->
          out :=
            (piece, Codec.encode_update_spliced ~params ~attrs_block:"" piece)
            :: !out)
        (Codec.split_update ~params ~attrs_size:0 (Msg.update ~withdrawn ())));
  List.iter
    (fun (facing, nlris) ->
      let block = block_of l ~params facing in
      List.iter
        (fun (piece : Msg.update) ->
          j.j_announces <- j.j_announces + 1;
          out :=
            ( piece,
              Codec.encode_update_spliced ~params ~attrs_block:block piece )
            :: !out)
        (Codec.split_update ~params ~attrs_size:(String.length block)
           (Msg.update ~attrs:(Attr_arena.set facing) ~announced:nlris ())))
    j.j_groups;
  j.j_out <- List.rev !out

let create ~lanes () =
  {
    lanes =
      Lanes.create ~lanes ~dummy:None
        ~init:(fun _ -> { l_blocks = Hashtbl.create 16; l_block_keys = [] })
        ~work:(fun l -> function Some j -> encode l j | None -> ());
    group = Prefix.Tbl.create 64;
    overrides = Prefix.Tbl.create 64;
    pending = [];
    selected = 0;
    hits = 0;
    misses = 0;
    bytes_out = 0;
    encoded = 0;
  }

(* -- step 1, on the coordinator: deltas --------------------------------------- *)

(* One neighbor during a flush: [s_exc] holds, by snapshot index, the
   prefixes where its delta differs from the group's. *)
type slot = {
  s_tg : target;
  mutable s_seen : int;  (** last snapshot index it was visited at *)
  mutable s_exc : (int * delta) list;  (** reversed *)
}

(* Neighbors with equal exception lists have equal delta lists. *)
let hash_exc exc =
  List.fold_left
    (fun h (i, d) ->
      let c =
        match d with
        | Keep -> -1
        | Set None -> -2
        | Set (Some f) -> Attr_arena.id f
      in
      (((h * 31) + i) * 31) + c)
    17 exc

let rec equal_exc a b =
  match (a, b) with
  | [], [] -> true
  | (i, d) :: a, (i', d') :: b -> i = i' && same_delta d d' && equal_exc a b
  | _ -> false

(* Walk one neighbor's delta list in prefix order: the group's changes
   [gd] with its exceptions [exc] spliced in, both by snapshot index. *)
let iter_deltas f gd exc =
  let rec go gd exc =
    match (gd, exc) with
    | [], [] -> ()
    | (i, o) :: gd', [] ->
        f i o;
        go gd' []
    | (i, o) :: gd', (k, _) :: _ when i < k ->
        f i o;
        go gd' exc
    | _, (k, d) :: exc' ->
        (match d with Set o -> f k o | Keep -> ());
        go (match gd with (i, _) :: gd' when i = k -> gd' | _ -> gd) exc'
  in
  go gd exc

(* A delta list as a job; [None] when it sends nothing. *)
let job_of ~params prefixes gd exc =
  let withdrawn = ref [] and groups = Hashtbl.create 4 and order = ref [] in
  iter_deltas
    (fun i o ->
      let n = Msg.nlri (fst prefixes.(i)) in
      match o with
      | None -> withdrawn := n :: !withdrawn
      | Some f -> (
          let fid = Attr_arena.id f in
          match Hashtbl.find_opt groups fid with
          | Some (_, nlris) -> nlris := n :: !nlris
          | None ->
              Hashtbl.replace groups fid (f, ref [ n ]);
              order := fid :: !order))
    gd exc;
  if !withdrawn = [] && !order = [] then None
  else
    Some
      {
        j_params = params;
        j_withdrawn = List.rev !withdrawn;
        j_groups =
          List.rev_map
            (fun fid ->
              let f, nlris = Hashtbl.find groups fid in
              (f, List.rev !nlris))
            !order;
        j_out = [];
        j_announces = 0;
      }

let flush t ~prefixes ~targets ~facing ?log () =
  let memo = Hashtbl.create 16 and selected = Hashtbl.create 16 in
  let resolve ~heard v =
    let vid = Attr_arena.id v in
    if heard then Hashtbl.replace selected vid ();
    match Hashtbl.find_opt memo vid with
    | Some f -> f
    | None ->
        let f = facing v in
        Hashtbl.replace memo vid f;
        f
  in
  let slots =
    List.map (fun tg -> { s_tg = tg; s_seen = -1; s_exc = [] }) targets
  in
  let n_targets = List.length slots in
  let by_id = Hashtbl.create 128 and by_export = Hashtbl.create 128 in
  List.iter
    (fun s ->
      Hashtbl.replace by_id s.s_tg.xt_id s;
      Hashtbl.add by_export s.s_tg.xt_export_id s)
    slots;
  let gd = ref [] in
  Array.iteri
    (fun i (prefix, variants) ->
      (* The neighbors the tags name, then the override holders. *)
      let affected = ref [] and named = ref 0 in
      let visit ~is_named s =
        if s.s_seen <> i then begin
          s.s_seen <- i;
          if is_named then incr named;
          affected := s :: !affected
        end
      in
      List.iter
        (fun (_, f) ->
          Export_control.iter_named
            (fun id ->
              List.iter (visit ~is_named:true) (Hashtbl.find_all by_export id))
            f)
        variants;
      let held = overrides_at t prefix in
      List.iter
        (fun (nid, _) ->
          match Hashtbl.find_opt by_id nid with
          | Some s -> visit ~is_named:false s
          | None -> ())
        held;
      let g_old = Prefix.Tbl.find_opt t.group prefix in
      let g_new =
        Option.map
          (resolve ~heard:(!named < n_targets))
          (Export_control.first_untagged variants)
      in
      let g_delta = if same g_old g_new then Keep else Set g_new in
      (match g_delta with
      | Keep -> ()
      | Set _ ->
          set_group t prefix g_new;
          gd := (i, g_new) :: !gd);
      if !affected <> [] || held <> [] then begin
        let os =
          List.filter_map
            (fun s ->
              let before =
                match List.assoc_opt s.s_tg.xt_id held with
                | Some o -> o
                | None -> g_old
              in
              let out =
                Option.map (resolve ~heard:true)
                  (Export_control.first_permitted s.s_tg.xt_export_id variants)
              in
              let d = if same before out then Keep else Set out in
              if not (same_delta d g_delta) then s.s_exc <- (i, d) :: s.s_exc;
              if same out g_new then None else Some (s.s_tg.xt_id, out))
            !affected
        in
        set_overrides t prefix
          (List.sort (fun (a, _) (b, _) -> Int.compare a b) os)
      end)
    prefixes;
  t.selected <- Hashtbl.length selected;
  let gd = List.rev !gd in
  (* The per-delta trace hook, in the order the per-neighbor flush
     logged: neighbors by id, each one's deltas by prefix. *)
  (match log with
  | Some log ->
      List.iter
        (fun s ->
          iter_deltas
            (fun i o ->
              log ~announce:(Option.is_some o) s.s_tg.xt_id (fst prefixes.(i)))
            gd (List.rev s.s_exc))
        slots
  | None -> ());
  (* Step 2: one job per distinct (delta list, params); the lowest-id
     established member leads it. *)
  let classes = Hashtbl.create 8 in
  let lanes = Lanes.count t.lanes in
  let pending =
    List.filter_map
      (fun s ->
        let job, leads =
          match s.s_tg.xt_params with
          | None -> (None, false)
          | Some params -> (
              let exc = List.rev s.s_exc in
              let key = (hash_exc exc, params) in
              let known = Hashtbl.find_all classes key in
              match List.find_opt (fun (e, _) -> equal_exc e exc) known with
              | Some (_, j) -> (j, false)
              | None ->
                  let j = job_of ~params prefixes gd exc in
                  Hashtbl.add classes key (exc, j);
                  if Option.is_some j then t.encoded <- t.encoded + 1;
                  (j, true))
        in
        Lanes.push t.lanes
          (Lanes.of_neighbor ~lanes s.s_tg.xt_id)
          (if leads then job else None);
        Option.map (fun j -> (s.s_tg.xt_id, j)) job)
      slots
  in
  t.pending <- pending;
  Lanes.run t.lanes

(* -- step 3, on the coordinator: replay --------------------------------------- *)

let consume t ~send ~computations =
  let blocks = Hashtbl.create 16 in
  Lanes.iter
    (fun l ->
      Hashtbl.reset l.l_blocks;
      List.iter (fun k -> Hashtbl.replace blocks k ()) l.l_block_keys;
      l.l_block_keys <- [])
    t.lanes;
  computations t.selected;
  let fresh = Hashtbl.length blocks in
  let announces =
    List.fold_left (fun n (_, j) -> n + j.j_announces) 0 t.pending
  in
  t.misses <- t.misses + fresh;
  t.hits <- t.hits + (announces - fresh);
  let pending = t.pending in
  t.pending <- [];
  List.iter
    (fun (nid, j) ->
      List.iter
        (fun (update, bytes) ->
          if send ~nid ~update ~bytes then
            t.bytes_out <- t.bytes_out + String.length bytes)
        j.j_out)
    pending

let shutdown t = Lanes.shutdown t.lanes

(* -- observability ----------------------------------------------------------- *)

type stats = {
  wire_cache_hits : int;
  wire_cache_misses : int;
  wire_bytes_out : int;
  delta_lists_encoded : int;
  staged_residual : int;
  lane_depth_max : int array;
}

let stats t =
  {
    wire_cache_hits = t.hits;
    wire_cache_misses = t.misses;
    wire_bytes_out = t.bytes_out;
    delta_lists_encoded = t.encoded;
    staged_residual =
      List.fold_left (fun n (_, j) -> n + List.length j.j_out) 0 t.pending;
    lane_depth_max = Lanes.depth_max t.lanes;
  }
