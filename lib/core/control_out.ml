(* Control plane, outbound (paper §3.2.1 + §3.3 + §4.7): experiment
   announcements pass through the control-plane enforcement engine, then
   propagate to the neighbors selected by export-control communities, to
   the backbone mesh, and onward to neighbors at remote PoPs (§4.4).

   Re-export is batched: instead of recomputing every neighbor's view of
   a prefix on every update that touches it, updates mark the prefix
   dirty and one flush per engine tick drains the queue. A burst of
   updates to one prefix costs a single variant recomputation per
   neighbor; deltas are still computed against the per-neighbor
   Adj-RIB-Out, so the wire sees exactly the final state. *)

open Netcore
open Bgp
open Sim
open Router_state

(* -- variant selection ------------------------------------------------------ *)

(* All live announcement variants for [prefix], local and remote, as
   interned handles. [rev_map]/[rev_append] keep the accumulation linear
   (naive [List.map ... @ acc] inside the fold is quadratic in the
   number of variants). *)
let variants_for_prefix t prefix =
  let local =
    Hashtbl.fold
      (fun _ e acc ->
        match Hashtbl.find_opt e.routes prefix with
        | Some vs ->
            List.rev_append (List.rev_map (fun v -> v.v_attrs) !vs) acc
        | None -> acc)
      t.experiments []
  in
  Hashtbl.fold
    (fun _ (p, h, _) acc -> if Prefix.equal p prefix then h :: acc else acc)
    t.remote_exp_routes local

(* Recompute [prefix]'s traffic owner with local-first precedence: a
   locally attached experiment always wins (delivery here beats a
   backbone detour — and two PoPs each deferring to the other would
   bounce packets between them until TTL death), any surviving mesh
   import is the fallback, and with no candidate the entry goes away.
   Called whenever either candidate set changes, so a local withdrawal
   re-homes traffic onto a remote PoP and vice versa. *)
let refresh_owner t prefix =
  let local =
    Hashtbl.fold
      (fun name e acc ->
        match acc with
        | Some _ -> acc
        | None -> if Hashtbl.mem e.routes prefix then Some name else None)
      t.experiments None
  in
  match local with
  | Some exp_name -> owner_insert t prefix (Local_exp exp_name)
  | None -> (
      let remote =
        Hashtbl.fold
          (fun (pop, _) (p, _, g) acc ->
            match acc with
            | Some _ -> acc
            | None ->
                if Prefix.equal p prefix then
                  Some (Remote_exp { pop; via_global = g })
                else None)
          t.remote_exp_routes None
      in
      match remote with
      | Some owner -> owner_insert t prefix owner
      | None -> owner_remove t prefix)

let variants_for_prefix_v6 t prefix =
  Hashtbl.fold
    (fun _ e acc ->
      match Hashtbl.find_opt e.routes_v6 prefix with
      | Some vs ->
          List.rev_append (List.rev_map (fun v -> v.v_attrs) !vs) acc
      | None -> acc)
    t.experiments []

(* Attributes as announced to a real eBGP neighbor: platform ASN prepended,
   next hop set to our interface, control communities and iBGP-only
   attributes stripped. *)
let neighbor_facing_attrs t attrs =
  let _control, attrs =
    Control_enforcer.split_control_communities t.control attrs
  in
  let path =
    match Attr.as_path attrs with Some p -> p | None -> Aspath.empty
  in
  attrs
  |> Attr.with_as_path (Aspath.prepend t.asn path)
  |> Attr.with_next_hop t.primary_ip
  |> Attr.remove_code 5 (* LOCAL_PREF is iBGP-only *)

(* The variants of one prefix that may leave the platform, in order,
   each paired with its export filter. A filter is compiled once per
   variant per flush ([filters] memoizes it by arena id), so deciding
   for each neighbor costs an id scan, not a community-list walk. The
   well-known NO_EXPORT (RFC 1997) keeps a variant inside the platform,
   so it is dropped here for every neighbor at once; a neighbor hears
   the first remaining variant whose filter permits its export id. *)
let exportable ~ctl_asn filters variants =
  List.filter_map
    (fun h ->
      let id = Attr_arena.id h in
      let f =
        match Hashtbl.find_opt filters id with
        | Some f -> f
        | None ->
            let communities = Attr.communities (Attr_arena.set h) in
            let f =
              if List.exists (Community.equal Community.no_export) communities
              then None
              else Some (Export_control.compile ~ctl_asn communities)
            in
            Hashtbl.replace filters id f;
            f
      in
      Option.map (fun f -> (h, f)) f)
    variants

(* -- the v4 export flush through the lane pool ------------------------------- *)

(* The neighbors selecting a given variant form an update-group in the
   FRR sense: they share capabilities and next-hop treatment, so the
   neighbor-facing attribute set is a function of the variant alone.
   [Export_pool] keeps the Adj-RIB-Out as one group table (what every
   untagged neighbor hears) plus per-neighbor overrides, computes each
   facing set once per variant per flush, and packs and encodes each
   distinct delta list once for all the neighbors that share it.

   The coordinator snapshots the variants of every dirty prefix and
   captures a target per real neighbor; the pool computes the deltas,
   its lanes (one inline lane by default, [?lanes:n]) pack and encode,
   and [consume] replays the sends in neighbor-id order and folds the
   counters, so the wire is the same at any lane count. *)

let targets t =
  List.map
    (fun (ns : neighbor_state) ->
      {
        Export_pool.xt_id = ns.info.Neighbor.id;
        xt_export_id = ns.export_id;
        xt_params =
          (match ns.session with
          | Some s when Session.established s -> Some (Session.send_params s)
          | _ -> None);
      })
    (real_neighbors t)

let facing t v = Attr_arena.intern (neighbor_facing_attrs t (Attr_arena.set v))

let flush_v4 t prefixes =
  let ctl_asn = control_asn t in
  let filters = Hashtbl.create 16 in
  let snapshot =
    Array.of_list
      (List.map
         (fun p -> (p, exportable ~ctl_asn filters (variants_for_prefix t p)))
         prefixes)
  in
  (* The per-delta hook only when tracing: a disabled trace formats
     nothing, but the call through [ikfprintf] still costs per pair. *)
  let log =
    if Trace.enabled t.trace then
      Some
        (fun ~announce nid prefix ->
          if announce then
            log t "announce %a to neighbor %d" Prefix.pp prefix nid
          else log t "withdraw %a from neighbor %d" Prefix.pp prefix nid)
    else None
  in
  Export_pool.flush t.export_pool ~prefixes:snapshot ~targets:(targets t)
    ~facing:(facing t) ?log ();
  Export_pool.consume t.export_pool
    ~send:(fun ~nid ~update ~bytes ->
      (* Messages and NLRI are accounted per wire message and per
         member, exactly as the per-neighbor flush did per split piece. *)
      match neighbor t nid with
      | Some { session = Some s; _ } when Session.established s ->
          t.counters.updates_to_neighbors <-
            t.counters.updates_to_neighbors + 1;
          t.counters.nlri_to_neighbors <-
            t.counters.nlri_to_neighbors
            + List.length update.Msg.announced
            + List.length update.Msg.withdrawn;
          Session.send_encoded s update bytes;
          true
      | _ -> false)
    ~computations:(fun n ->
      t.counters.reexport_computations <- t.counters.reexport_computations + n)

(* A neighbor added after experiments announced starts at the group's
   view; it needs an override at each live prefix whose tags name its
   export id and give it another outcome. Prefixes still dirty are
   settled by the next flush like any other. *)
let seed_neighbor t ~neighbor_id =
  match neighbor t neighbor_id with
  | Some ns when not (Neighbor.is_alias ns.info) ->
      let ctl_asn = control_asn t in
      let filters = Hashtbl.create 16 in
      let live = Prefix.Tbl.create 64 in
      let add p = Prefix.Tbl.replace live p () in
      Hashtbl.iter
        (fun _ e -> Hashtbl.iter (fun p _ -> add p) e.routes)
        t.experiments;
      Hashtbl.iter (fun _ (p, _, _) -> add p) t.remote_exp_routes;
      Prefix.Tbl.iter
        (fun p () ->
          let variants =
            exportable ~ctl_asn filters (variants_for_prefix t p)
          in
          if
            List.exists
              (fun (_, f) -> Export_control.names f ns.export_id)
              variants
          then
            Export_pool.set_view t.export_pool ~nid:neighbor_id p
              (Option.map (facing t)
                 (Export_control.first_permitted ns.export_id variants)))
        live
  | _ -> ()

(* -- IPv6 (MP-BGP) experiment announcements: control plane only ----------- *)

(* Like the v4 flush, the v6 pass runs as update-groups: the facing base
   set is computed once per variant per flush, and each neighbor's batch
   leaves as one MP_UNREACH update plus one MP_REACH update per facing
   group (NLRI lists chunked so no message outgrows the 4096-byte
   boundary; MP NLRIs ride in the attribute, out of reach of
   [Codec.split_update]). *)

type pending_v6 = {
  mutable p6_unreach : (Prefix_v6.t * int option) list;  (* reversed *)
  p6_groups : (int, Attr.set * (Prefix_v6.t * int option) list ref) Hashtbl.t;
      (* variant arena id -> (facing base set, reversed NLRIs) *)
  mutable p6_order : int list;  (* variant arena ids, reversed first-seen *)
}

let mp_chunk_size = 256

(* Split [l] into chunks of at most [n]. Tail-recursive in the chunk
   list: a full-table v6 withdraw storm hands this a few hundred
   thousand NLRIs, and the previous [chunk :: chunked rest n] recursion
   (one stack frame per chunk) was a stack-overflow risk. *)
let chunked l n =
  if n <= 0 then invalid_arg "Control_out.chunked: chunk size must be > 0";
  let rec take acc k rest =
    match rest with
    | [] -> (List.rev acc, [])
    | _ when k = 0 -> (List.rev acc, rest)
    | x :: tl -> take (x :: acc) (k - 1) tl
  in
  let rec go acc = function
    | [] -> List.rev acc
    | rest ->
        let chunk, rest = take [] n rest in
        go (chunk :: acc) rest
  in
  go [] l

let flush_v6 t prefixes =
  let ctl_asn = control_asn t in
  let filters = Hashtbl.create 8 in
  let facing_cache = Hashtbl.create 8 in
  let by_neighbor = Hashtbl.create 8 in
  let pending_for (ns : neighbor_state) =
    let id = ns.info.Neighbor.id in
    match Hashtbl.find_opt by_neighbor id with
    | Some p -> p
    | None ->
        let p =
          { p6_unreach = []; p6_groups = Hashtbl.create 4; p6_order = [] }
        in
        Hashtbl.replace by_neighbor id p;
        p
  in
  let neighbors = real_neighbors t in
  List.iter
    (fun prefix ->
      let variants =
        exportable ~ctl_asn filters (variants_for_prefix_v6 t prefix)
      in
      List.iter
        (fun (ns : neighbor_state) ->
          match Export_control.first_permitted ns.export_id variants with
          | None ->
              let p = pending_for ns in
              p.p6_unreach <- (prefix, None) :: p.p6_unreach
          | Some v -> (
              let vid = Attr_arena.id v in
              let facing =
                match Hashtbl.find_opt facing_cache vid with
                | Some f -> f
                | None ->
                    t.counters.reexport_computations <-
                      t.counters.reexport_computations + 1;
                    let f =
                      neighbor_facing_attrs t (Attr_arena.set v)
                      |> Attr.remove_code 3
                      (* v4 NEXT_HOP is meaningless here *)
                    in
                    Hashtbl.replace facing_cache vid f;
                    f
              in
              let p = pending_for ns in
              match Hashtbl.find_opt p.p6_groups vid with
              | Some (_, nlris) -> nlris := (prefix, None) :: !nlris
              | None ->
                  Hashtbl.replace p.p6_groups vid (facing, ref [ (prefix, None) ]);
                  p.p6_order <- vid :: p.p6_order))
        neighbors)
    prefixes;
  Hashtbl.fold (fun id p acc -> (id, p) :: acc) by_neighbor []
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
  |> List.iter (fun (id, p) ->
         match neighbor t id with
         | Some { session = Some s; _ } when Session.established s ->
             List.iter
               (fun nlri ->
                 Session.send_update s
                   (Msg.update ~attrs:[ Attr.Mp_unreach nlri ] ()))
               (chunked (List.rev p.p6_unreach) mp_chunk_size);
             List.iter
               (fun vid ->
                 match Hashtbl.find_opt p.p6_groups vid with
                 | None -> ()
                 | Some (facing, nlris) ->
                     List.iter
                       (fun nlri ->
                         let attrs =
                           Attr.set_attr
                             (Attr.Mp_reach
                                { next_hop = t.v6_next_hop; nlri })
                             facing
                         in
                         Session.send_update s (Msg.update ~attrs ()))
                       (chunked (List.rev !nlris) mp_chunk_size))
               (List.rev p.p6_order)
         | _ -> ())

(* -- the dirty-prefix re-export queue -------------------------------------- *)

(* Drain the queue: recompute every dirty prefix once per neighbor. The
   queue is snapshotted and reset first so sends that dirty further
   prefixes (none do today, but sessions are free to) land in the next
   flush rather than an unbounded loop. The batched-ingest queue drains
   first so direct-driving callers get both with one call. *)
let flush_reexports t =
  Control_in.flush_ingest t;
  t.reexport_scheduled <- false;
  if Hashtbl.length t.dirty > 0 then begin
    let v4 = Hashtbl.fold (fun p () acc -> p :: acc) t.dirty [] in
    Hashtbl.reset t.dirty;
    (* One flush spans the whole batch: facing sets and their wire
       attribute blocks are computed once per variant across all dirty
       prefixes, and each neighbor receives the batch as packed
       multi-NLRI UPDATEs — fanned across the export lanes when the
       router was created with [?lanes:n > 1]. *)
    flush_v4 t (List.sort Prefix.compare v4)
  end;
  if Hashtbl.length t.dirty_v6 > 0 then begin
    let v6 = Hashtbl.fold (fun p () acc -> p :: acc) t.dirty_v6 [] in
    Hashtbl.reset t.dirty_v6;
    flush_v6 t (List.sort Prefix_v6.compare v6)
  end

(* Arrange for one flush at the current engine tick. Every update
   processed at the same timestamp lands before the flush (equal-time
   events run FIFO), so a burst dedupes into a single recomputation. *)
let schedule_flush t =
  if not t.reexport_scheduled then begin
    t.reexport_scheduled <- true;
    Engine.run_after t.engine 0. (fun () -> flush_reexports t)
  end

let request_reexport t prefix =
  Hashtbl.replace t.dirty prefix ();
  schedule_flush t

let request_reexport_v6 t prefix =
  Hashtbl.replace t.dirty_v6 prefix ();
  schedule_flush t

(* -- experiment announcements ---------------------------------------------- *)

(* Without mesh peers there is no one to build the UPDATE for. *)
let export_exp_route_to_mesh t (e : experiment_state) prefix (v : variant) =
  if t.mesh <> [] then begin
    let ctl_asn = control_asn t in
    let attrs =
      Attr_arena.set v.v_attrs
      |> Attr.with_next_hop e.g_ip
      |> Attr.add_community (Export_control.experiment_marker ~ctl_asn)
    in
    send_update_to_mesh t
      (Msg.update ~attrs
         ~announced:[ Msg.nlri ~path_id:(mesh_path_id e v.v_path_id) prefix ]
         ())
  end

let export_exp_withdraw_to_mesh t (e : experiment_state) prefix v_path_id =
  send_update_to_mesh t
    (Msg.update
       ~withdrawn:[ Msg.nlri ~path_id:(mesh_path_id e v_path_id) prefix ]
       ())

(* Record/withdraw the v6 NLRI of an accepted experiment update. *)
let process_experiment_v6 t (e : experiment_state) (u : Msg.update) =
  List.iter
    (fun attr ->
      match attr with
      | Attr.Mp_unreach nlri ->
          List.iter
            (fun (prefix, path_id) ->
              let pid = match path_id with Some p -> p | None -> 0 in
              gr_unmark e.exp_gr_v6 (prefix, pid);
              (match Hashtbl.find_opt e.routes_v6 prefix with
              | Some vs ->
                  vs := List.filter (fun v -> v.v_path_id <> pid) !vs;
                  if !vs = [] then Hashtbl.remove e.routes_v6 prefix
              | None -> ());
              request_reexport_v6 t prefix)
            nlri
      | Attr.Mp_reach { nlri; _ } ->
          let base_h = Attr_arena.intern (Attr.remove_code 14 u.Msg.attrs) in
          List.iter
            (fun (prefix, path_id) ->
              let pid = match path_id with Some p -> p | None -> 0 in
              gr_unmark e.exp_gr_v6 (prefix, pid);
              let unchanged =
                match Hashtbl.find_opt e.routes_v6 prefix with
                | Some vs ->
                    List.exists
                      (fun v ->
                        v.v_path_id = pid && Attr_arena.equal v.v_attrs base_h)
                      !vs
                | None -> false
              in
              if not unchanged then begin
                let v = { v_path_id = pid; v_attrs = base_h } in
                let vs =
                  match Hashtbl.find_opt e.routes_v6 prefix with
                  | Some vs -> vs
                  | None ->
                      let vs = ref [] in
                      Hashtbl.replace e.routes_v6 prefix vs;
                      vs
                in
                vs := v :: List.filter (fun v -> v.v_path_id <> pid) !vs;
                request_reexport_v6 t prefix
              end)
            nlri
      | _ -> ())
    u.Msg.attrs

(* Process one UPDATE from experiment [name] through the enforcement
   engine; public for direct benchmarking of the security pipeline. *)
let process_experiment_update t ~experiment:exp_name (u : Msg.update) =
  match experiment t exp_name with
  | None -> invalid_arg "Router.process_experiment_update: unknown experiment"
  | Some e -> (
      t.counters.updates_from_experiments <-
        t.counters.updates_from_experiments + 1;
      let now = Engine.now t.engine in
      match Control_enforcer.check t.control ~now ~pop:t.name e.grant u with
      | Control_enforcer.Rejected reasons ->
          log t "rejected update from %s: %s" exp_name
            (String.concat "; " reasons);
          Error reasons
      | Control_enforcer.Accepted u ->
          (* Withdrawals: remove the matching variant. *)
          List.iter
            (fun (n : Msg.nlri) ->
              let pid = match n.path_id with Some p -> p | None -> 0 in
              gr_unmark e.exp_gr (n.prefix, pid);
              match Hashtbl.find_opt e.routes n.prefix with
              | None -> ()
              | Some vs ->
                  vs := List.filter (fun v -> v.v_path_id <> pid) !vs;
                  if !vs = [] then begin
                    Hashtbl.remove e.routes n.prefix;
                    refresh_owner t n.prefix
                  end;
                  export_exp_withdraw_to_mesh t e n.prefix pid;
                  request_reexport t n.prefix)
            u.withdrawn;
          (* Announcements: record/replace the variant. A re-announcement
             identical to the recorded variant (same path id, same
             attributes) is absorbed silently — it clears any stale mark
             but triggers no mesh export or re-export, which keeps a
             graceful-restart resync off the wires. The attribute set is
             interned once for the whole NLRI list, so the unchanged
             check is O(1) per variant. *)
          let attrs_h = lazy (Attr_arena.intern u.attrs) in
          List.iter
            (fun (n : Msg.nlri) ->
              let pid = match n.path_id with Some p -> p | None -> 0 in
              gr_unmark e.exp_gr (n.prefix, pid);
              let attrs_h = Lazy.force attrs_h in
              let unchanged =
                match Hashtbl.find_opt e.routes n.prefix with
                | Some vs ->
                    List.exists
                      (fun v ->
                        v.v_path_id = pid && Attr_arena.equal v.v_attrs attrs_h)
                      !vs
                | None -> false
              in
              if not unchanged then begin
                let v = { v_path_id = pid; v_attrs = attrs_h } in
                let vs =
                  match Hashtbl.find_opt e.routes n.prefix with
                  | Some vs -> vs
                  | None ->
                      let vs = ref [] in
                      Hashtbl.replace e.routes n.prefix vs;
                      vs
                in
                vs := v :: List.filter (fun v -> v.v_path_id <> pid) !vs;
                owner_insert t n.prefix (Local_exp exp_name);
                export_exp_route_to_mesh t e n.prefix v;
                request_reexport t n.prefix
              end)
            u.announced;
          process_experiment_v6 t e u;
          Ok ())

(* -- experiment session loss: hard drop vs graceful retention --------------- *)

(* Withdraw everything experiment [e] announced, v4 and v6: the
   non-graceful down path and the restart-window expiry. *)
let hard_drop_experiment t (e : experiment_state) =
  (match e.exp_gr with Some h -> h.cancel_expiry () | None -> ());
  (match e.exp_gr_v6 with Some h -> h.cancel_expiry () | None -> ());
  e.exp_gr <- None;
  e.exp_gr_v6 <- None;
  (* Clear the experiment's state first so the re-export pass sees no
     live variants. *)
  let announced =
    Hashtbl.fold (fun prefix vs acc -> (prefix, !vs) :: acc) e.routes []
  in
  Hashtbl.reset e.routes;
  List.iter
    (fun (prefix, vs) ->
      List.iter
        (fun v -> export_exp_withdraw_to_mesh t e prefix v.v_path_id)
        vs;
      refresh_owner t prefix;
      request_reexport t prefix)
    announced;
  let announced_v6 =
    Hashtbl.fold (fun prefix _ acc -> prefix :: acc) e.routes_v6 []
  in
  Hashtbl.reset e.routes_v6;
  List.iter (request_reexport_v6 t) announced_v6;
  e.exp_synced <- false

(* Graceful down: keep every recorded variant (neighbors continue to hear
   the experiment's announcements, RFC 4724 forwarding preservation),
   mark them stale, and fall back to the hard drop if the restart window
   expires before the experiment reconnects. *)
let gr_retain_experiment t (e : experiment_state) ~window =
  let keys =
    Hashtbl.fold
      (fun prefix vs acc ->
        List.fold_left (fun acc v -> (prefix, v.v_path_id) :: acc) acc !vs)
      e.routes []
  in
  let keys_v6 =
    Hashtbl.fold
      (fun prefix vs acc ->
        List.fold_left (fun acc v -> (prefix, v.v_path_id) :: acc) acc !vs)
      e.routes_v6 []
  in
  match e.exp_gr with
  | Some h ->
      (* Repeat loss inside the window: re-mark, keep the first deadline
         (RFC 4724 counts the restart time from the first loss). *)
      List.iter (fun k -> Hashtbl.replace h.stale k ()) keys;
      (match e.exp_gr_v6 with
      | Some h6 -> List.iter (fun k -> Hashtbl.replace h6.stale k ()) keys_v6
      | None -> e.exp_gr_v6 <- Some (gr_hold_of_keys keys_v6));
      e.exp_synced <- false
  | None ->
      let hold = gr_hold_of_keys keys in
      e.exp_gr <- Some hold;
      e.exp_gr_v6 <- Some (gr_hold_of_keys keys_v6);
      e.exp_synced <- false;
      t.counters.gr_retentions <- t.counters.gr_retentions + 1;
      (* One expiry timer governs both families; the hard drop clears both. *)
      hold.cancel_expiry <-
        Engine.schedule t.engine window (fun () ->
            match e.exp_gr with
            | Some h when h == hold ->
                t.counters.gr_expiries <- t.counters.gr_expiries + 1;
                log t "experiment %s restart window expired"
                  e.grant.Control_enforcer.name;
                hard_drop_experiment t e
            | _ -> ());
      log t "experiment %s retaining %d variants as stale (window %.0fs)"
        e.grant.Control_enforcer.name
        (List.length keys + List.length keys_v6)
        window

(* End-of-RIB after the experiment's restart: every variant it did not
   re-announce is genuinely gone — withdraw exactly that. *)
let gr_sweep_experiment t (e : experiment_state) =
  (match e.exp_gr with
  | None -> ()
  | Some hold ->
      hold.cancel_expiry ();
      e.exp_gr <- None;
      let stale = Hashtbl.fold (fun k () acc -> k :: acc) hold.stale [] in
      List.iter
        (fun (prefix, pid) ->
          (match Hashtbl.find_opt e.routes prefix with
          | Some vs ->
              vs := List.filter (fun v -> v.v_path_id <> pid) !vs;
              if !vs = [] then begin
                Hashtbl.remove e.routes prefix;
                refresh_owner t prefix
              end
          | None -> ());
          export_exp_withdraw_to_mesh t e prefix pid;
          request_reexport t prefix)
        (List.sort compare stale);
      if stale <> [] then
        log t "experiment %s sweep: %d stale variants withdrawn"
          e.grant.Control_enforcer.name (List.length stale));
  match e.exp_gr_v6 with
  | None -> ()
  | Some hold ->
      hold.cancel_expiry ();
      e.exp_gr_v6 <- None;
      let stale = Hashtbl.fold (fun k () acc -> k :: acc) hold.stale [] in
      List.iter
        (fun (prefix, pid) ->
          (match Hashtbl.find_opt e.routes_v6 prefix with
          | Some vs ->
              vs := List.filter (fun v -> v.v_path_id <> pid) !vs;
              if !vs = [] then Hashtbl.remove e.routes_v6 prefix
          | None -> ());
          request_reexport_v6 t prefix)
        (List.sort compare stale)

(* -- mesh import ------------------------------------------------------------ *)

let mesh_peer_for t ~pop =
  List.find_opt (fun mp -> String.equal mp.pop_name pop) t.mesh

let process_mesh_update t ~pop (u : Msg.update) =
  t.counters.updates_from_mesh <- t.counters.updates_from_mesh + 1;
  let now = Engine.now t.engine in
  let ctl_asn = control_asn t in
  let mesh_gr =
    match mesh_peer_for t ~pop with Some mp -> mp.mesh_gr | None -> None
  in
  (* Withdrawals are resolved through the import map. *)
  List.iter
    (fun (n : Msg.nlri) ->
      let pid = match n.path_id with Some p -> p | None -> 0 in
      gr_unmark mesh_gr (pid, n.prefix);
      match Hashtbl.find_opt t.mesh_imports (pop, pid) with
      | Some (Ialias { alias_id }) -> (
          match neighbor t alias_id with
          | Some ns ->
              let change =
                Rib.Table.withdraw ns.rib_in ~prefix:n.prefix
                  ~peer_ip:ns.info.Neighbor.virtual_ip ~path_id:None
              in
              Rib.Fib.remove (Rib.Fib.Set.table t.fibs alias_id) n.prefix;
              if t.ingest_batching then begin
                match change with
                | Rib.Table.Best_changed _ ->
                    Control_in.mark_ingest_dirty t ns n.prefix
                | Rib.Table.Unchanged -> ()
              end
              else Control_in.export_withdraw_to_experiments t ns n.prefix
          | None -> ())
      | Some (Iremote_exp { prefix }) ->
          Hashtbl.remove t.remote_exp_routes (pop, pid);
          refresh_owner t prefix;
          request_reexport t prefix
      | None -> ())
    u.withdrawn;
  if u.announced <> [] then begin
    let next_hop = Attr.next_hop u.attrs in
    let is_exp =
      List.exists
        (Export_control.is_marker ~ctl_asn)
        (Attr.communities u.attrs)
    in
    match next_hop with
    | None -> ()
    | Some g when not is_exp ->
        (* A remote neighbor's route: alias it and expose to experiments. *)
        let ns, _created = Backbone.alias_for_global t ~pop g in
        let fib = Rib.Fib.Set.table t.fibs ns.info.Neighbor.id in
        let source =
          Rib.Route.source ~peer_ip:ns.info.Neighbor.virtual_ip ~peer_asn:t.asn
            ~ebgp:false ()
        in
        let attrs_h = Attr_arena.intern u.attrs in
        List.iter
          (fun (n : Msg.nlri) ->
            let pid = match n.path_id with Some p -> p | None -> 0 in
            gr_unmark mesh_gr (pid, n.prefix);
            Hashtbl.replace t.mesh_imports (pop, pid)
              (Ialias { alias_id = ns.info.Neighbor.id });
            (* A resync replaying the identical route is absorbed
               silently (graceful-restart mark-and-sweep). *)
            let unchanged =
              List.exists
                (fun (r : Rib.Route.t) ->
                  Rib.Route.key_matches
                    ~peer_ip:ns.info.Neighbor.virtual_ip ~path_id:None r
                  && Attr_arena.equal (Rib.Route.attrs_handle r) attrs_h)
                (Rib.Table.candidates ns.rib_in n.prefix)
            in
            if not unchanged then begin
              let route =
                Rib.Route.make_h ~learned_at:now ~prefix:n.prefix ~attrs_h
                  ~source ()
              in
              ignore (Rib.Table.update ns.rib_in route);
              Rib.Fib.insert fib n.prefix
                { Rib.Fib.next_hop = g; neighbor = ns.info.Neighbor.id };
              if t.ingest_batching then
                Control_in.mark_ingest_dirty t ns n.prefix
              else
                Control_in.export_route_to_experiments t ns n.prefix
                  (Attr_arena.set attrs_h)
            end)
          u.announced
    | Some g ->
        (* A remote experiment's announcement: remember it for neighbor
           export here, and route its traffic toward the remote PoP. *)
        let attrs_h =
          Attr_arena.intern
            (Attr.remove_communities
               ~keep:(fun c -> not (Export_control.is_marker ~ctl_asn c))
               u.attrs)
        in
        List.iter
          (fun (n : Msg.nlri) ->
            let pid = match n.path_id with Some p -> p | None -> 0 in
            gr_unmark mesh_gr (pid, n.prefix);
            let unchanged =
              match Hashtbl.find_opt t.remote_exp_routes (pop, pid) with
              | Some (p, a, _) ->
                  Prefix.equal p n.prefix && Attr_arena.equal a attrs_h
              | None -> false
            in
            Hashtbl.replace t.mesh_imports (pop, pid)
              (Iremote_exp { prefix = n.prefix });
            if not unchanged then begin
              Hashtbl.replace t.remote_exp_routes (pop, pid)
                (n.prefix, attrs_h, g);
              refresh_owner t n.prefix;
              request_reexport t n.prefix
            end)
          u.announced
  end

(* -- mesh session loss: hard drop vs graceful retention --------------------- *)

(* Drop every route an alias pseudo-neighbor holds (they all came over
   the mesh) and storm withdrawals to local experiments. *)
let drop_alias_routes t (ns : neighbor_state) =
  let changes =
    Rib.Table.drop_peer ns.rib_in ~peer_ip:ns.info.Neighbor.virtual_ip
  in
  Rib.Fib.clear (Rib.Fib.Set.table t.fibs ns.info.Neighbor.id);
  List.iter
    (function
      | Rib.Table.Best_changed (prefix, None) ->
          if t.ingest_batching then Control_in.mark_ingest_dirty t ns prefix
          else Control_in.export_withdraw_to_experiments t ns prefix
      | _ -> ())
    changes

(* Forget everything imported from [pop]: the non-graceful mesh-down path
   and the restart-window expiry. *)
let drop_pop_imports t ~pop =
  let entries =
    Hashtbl.fold
      (fun (p, pid) imp acc ->
        if String.equal p pop then (pid, imp) :: acc else acc)
      t.mesh_imports []
  in
  List.iter
    (fun (pid, imp) ->
      Hashtbl.remove t.mesh_imports (pop, pid);
      match imp with
      | Ialias { alias_id } -> (
          match neighbor t alias_id with
          | Some ns -> drop_alias_routes t ns
          | None -> ())
      | Iremote_exp { prefix } ->
          Hashtbl.remove t.remote_exp_routes (pop, pid);
          refresh_owner t prefix;
          request_reexport t prefix)
    (List.sort compare entries)

(* Graceful mesh down: keep every import (aliased rib-in rows and
   remote-experiment records) marked stale; the peer's post-restart sync
   plus End-of-RIB sweeps what is genuinely gone. *)
let gr_retain_mesh t (mp : mesh_peer) ~window =
  let pop = mp.pop_name in
  let keys =
    Hashtbl.fold
      (fun (p, pid) imp acc ->
        if not (String.equal p pop) then acc
        else
          match imp with
          | Ialias { alias_id } -> (
              match neighbor t alias_id with
              | Some ns ->
                  Rib.Table.fold
                    (fun prefix _ acc -> (pid, prefix) :: acc)
                    ns.rib_in acc
              | None -> acc)
          | Iremote_exp { prefix } -> (pid, prefix) :: acc)
      t.mesh_imports []
  in
  match mp.mesh_gr with
  | Some h ->
      (* Repeat loss inside the window: re-mark, keep the first deadline
         (RFC 4724 counts the restart time from the first loss). *)
      List.iter (fun k -> Hashtbl.replace h.stale k ()) keys
  | None ->
      let hold = gr_hold_of_keys keys in
      mp.mesh_gr <- Some hold;
      t.counters.gr_retentions <- t.counters.gr_retentions + 1;
      hold.cancel_expiry <-
        Engine.schedule t.engine window (fun () ->
            match mp.mesh_gr with
            | Some h when h == hold ->
                mp.mesh_gr <- None;
                t.counters.gr_expiries <- t.counters.gr_expiries + 1;
                log t "mesh to %s restart window expired" pop;
                drop_pop_imports t ~pop
            | _ -> ());
      log t "mesh to %s retaining %d imports as stale (window %.0fs)" pop
        (List.length keys) window

(* The peer's End-of-RIB after a mesh restart: drop exactly the imports
   its resync did not refresh. *)
let process_mesh_eor t ~pop =
  match mesh_peer_for t ~pop with
  | None -> ()
  | Some mp -> (
      match mp.mesh_gr with
      | None -> ()
      | Some hold ->
          hold.cancel_expiry ();
          mp.mesh_gr <- None;
          let stale = Hashtbl.fold (fun k () acc -> k :: acc) hold.stale [] in
          List.iter
            (fun (pid, prefix) ->
              match Hashtbl.find_opt t.mesh_imports (pop, pid) with
              | Some (Ialias { alias_id }) -> (
                  match neighbor t alias_id with
                  | Some ns ->
                      let change =
                        Rib.Table.withdraw ns.rib_in ~prefix
                          ~peer_ip:ns.info.Neighbor.virtual_ip ~path_id:None
                      in
                      Rib.Fib.remove
                        (Rib.Fib.Set.table t.fibs alias_id)
                        prefix;
                      if t.ingest_batching then begin
                        match change with
                        | Rib.Table.Best_changed _ ->
                            Control_in.mark_ingest_dirty t ns prefix
                        | Rib.Table.Unchanged -> ()
                      end
                      else
                        Control_in.export_withdraw_to_experiments t ns prefix
                  | None -> ())
              | Some (Iremote_exp { prefix = rp }) ->
                  Hashtbl.remove t.remote_exp_routes (pop, pid);
                  Hashtbl.remove t.mesh_imports (pop, pid);
                  refresh_owner t rp;
                  request_reexport t rp
              | None -> ())
            (List.sort compare stale);
          if stale <> [] then
            log t "mesh to %s sweep: %d stale imports dropped" pop
              (List.length stale))

(* Mesh session loss: retain when both sides negotiated graceful restart,
   hard-drop otherwise. *)
let process_mesh_down t ~pop reason =
  match mesh_peer_for t ~pop with
  | None -> ()
  | Some mp -> (
      let window =
        if Fsm.graceful reason then Session.gr_restart_time mp.mesh_session
        else None
      in
      match window with
      | Some w when w > 0. -> gr_retain_mesh t mp ~window:w
      | _ ->
          (match mp.mesh_gr with Some h -> h.cancel_expiry () | None -> ());
          mp.mesh_gr <- None;
          drop_pop_imports t ~pop)

(* An out-of-band verdict that [pop] is dead (the health monitor's Failed
   transition): forget its imports now rather than letting the
   graceful-restart window run out — remote experiment announcements are
   withdrawn from our neighbors, re-homing their traffic onto the PoPs
   still carrying the prefix. Idempotent; a later mesh resync simply
   re-imports. *)
let flush_mesh_peer t ~pop =
  match mesh_peer_for t ~pop with
  | None -> ()
  | Some mp ->
      (match mp.mesh_gr with Some h -> h.cancel_expiry () | None -> ());
      mp.mesh_gr <- None;
      drop_pop_imports t ~pop

(* -- experiment wiring ------------------------------------------------------ *)

(* Connect an experiment: BGP over a VPN-like link, data over the
   experiment LAN. Returns the client-side session (ADD-PATH capable);
   start it with [Bgp_wire.start] via the returned pair. *)
let connect_experiment t ~grant ~mac ?(latency = 0.03) () =
  let exp_name = grant.Control_enforcer.name in
  if Hashtbl.mem t.experiments exp_name then
    invalid_arg "Router.connect_experiment: already connected";
  let g =
    Addr_pool.allocate t.global_pool
      (Printf.sprintf "%s/experiment:%s" t.name exp_name)
  in
  let client_asn =
    match grant.Control_enforcer.asns with
    | a :: _ -> a
    | [] -> invalid_arg "Router.connect_experiment: grant has no ASN"
  in
  let client_id =
    match grant.Control_enforcer.prefixes with
    | p :: _ -> Prefix.host p 1
    | [] -> Ipv4.of_string_exn "192.0.2.1"
  in
  let config_router =
    Session.config ~local_asn:t.asn ~local_id:t.router_id
      ~capabilities:(session_capabilities ~add_path:true t)
      ~reconnect:(reconnect_policy t) ()
  in
  let config_client =
    Session.config ~local_asn:client_asn ~local_id:client_id
      ~capabilities:
        [
          Capability.Multiprotocol
            { afi = Capability.afi_ipv4; safi = Capability.safi_unicast };
          Capability.As4 client_asn;
          Capability.Add_path
            [
              ( Capability.afi_ipv4,
                Capability.safi_unicast,
                Capability.Send_receive );
            ];
          Capability.Graceful_restart
            {
              restart_time = t.gr_restart_time;
              afis = [ (Capability.afi_ipv4, Capability.safi_unicast) ];
            };
        ]
      ~reconnect:(reconnect_policy t) ()
  in
  let pair =
    Sim.Bgp_wire.make t.engine ~latency ~config_active:config_client
      ~config_passive:config_router ()
  in
  let e =
    {
      grant;
      exp_session = pair.Sim.Bgp_wire.passive;
      exp_mac = mac;
      g_ip = g.Addr_pool.ip;
      g_idx = g.Addr_pool.index;
      routes = Hashtbl.create 8;
      routes_v6 = Hashtbl.create 4;
      exp_synced = false;
      exp_gr = None;
      exp_gr_v6 = None;
      att_packets_out = 0;
      att_bytes_out = 0;
      att_packets_in = 0;
    }
  in
  Hashtbl.replace t.experiments exp_name e;
  Hashtbl.replace t.by_exp_mac mac exp_name;
  (* Attachment changes ingress attribution (by_exp_mac) and allocation
     ownership (source validation consults the grant set); bump the owner
     generation so stamped flow-cache entries stop being served. *)
  Dcache.invalidate t.owner_cache;
  (match t.bb with
  | Some bb ->
      Backbone.register_global_station t bb.Arp_client.lan ~g:e.g_ip
        ~receive:(Data_plane.deliver_inbound t)
  | None -> ());
  Session.set_handlers pair.Sim.Bgp_wire.passive
    {
      Session.on_route_refresh =
        (fun ~afi:_ ~safi:_ ->
          (* RFC 2918: the experiment asked for the table again. *)
          log t "route refresh from experiment %s" exp_name;
          e.exp_synced <- false;
          Control_in.sync_experiment t e);
      on_update =
        (fun u ->
          if Msg.is_end_of_rib u then gr_sweep_experiment t e
          else ignore (process_experiment_update t ~experiment:exp_name u));
      on_established =
        (fun () ->
          log t "experiment %s established" exp_name;
          Control_in.sync_experiment t e);
      on_down =
        (fun reason ->
          log t "experiment %s down: %s" exp_name
            (Fsm.down_reason_to_string reason);
          let window =
            if Fsm.graceful reason then
              Session.gr_restart_time pair.Sim.Bgp_wire.passive
            else None
          in
          match window with
          | Some w when w > 0. -> gr_retain_experiment t e ~window:w
          | _ -> hard_drop_experiment t e);
    };
  pair
