(* The Control_in ingest step and its parallel lane: the per-update RIB
   work every ingest path runs, and N lanes ({!Lanes}) that run it for a
   fixed subset of neighbors each, feeding the single-writer tick
   reconciliation.

   Design in one paragraph: [ingest_update] is the one per-update step —
   GR unmark, withdraw, one intern per update, the unchanged-route check
   and the RIB install — and it hands every route delta to a sink. The
   sequential path ([Control_in.process_neighbor_update]) passes a sink
   that writes the FIB and the dirty queue; the lane passes a staging
   sink. Updates are dispatched to per-lane queues by hashing the
   neighbor id, so every update from a neighbor lands on the same lane
   and all per-neighbor state — the Adj-RIB-In table, the GR stale set —
   stays single-writer by construction. Before the lanes run, the
   coordinator captures a {!target} per queued neighbor (table, peer
   identity, current stale set), which is also the point where a
   mid-churn session kill or GR retention becomes visible to the lane.
   Each worker decodes the wire message, runs [ingest_update] with its
   lane-local {!Attr_arena.Front} cache as the intern (so the striped
   arena lock is rarely touched) and stages the deltas; {!consume} then
   replays staging in lane order through the same sink the sequential
   path uses — everything that touches shared router state stays on the
   single writer.

   Determinism (what the differential suite pins): per-neighbor update
   order is preserved (same lane, FIFO queue), per-neighbor RIB/GR state
   is disjoint across lanes, the FIB replay applies a neighbor's deltas
   in its processing order, and the dirty queue is a set whose flush
   sorts by (neighbor id, prefix) — so the RIB/FIB/heard/export
   fingerprints and every counter are bit-identical to the sequential
   batched path, whatever the interleaving of lanes. Arena ids may be
   assigned in a different order across runs, but no fingerprint depends
   on id values. *)

open Netcore
open Bgp

type payload = Wire of string | Update of Msg.update

type target = {
  tg_id : int;
  tg_peer_ip : Ipv4.t;
  tg_peer_asn : Asn.t;
  tg_rib : Rib.Table.t;
  tg_gr : (Prefix.t, unit) Hashtbl.t option;
}

type delta = D_withdraw of bool | D_install of Rib.Fib.entry

(* -- the per-update ingest step ---------------------------------------------- *)

let withdraw_best = D_withdraw true
let withdraw_other = D_withdraw false

let gr_unmark tg prefix =
  match tg.tg_gr with Some stale -> Hashtbl.remove stale prefix | None -> ()

(* The GR unmark fires for *every* NLRI (a re-announcement identical to
   the installed route refreshes the stale mark even though it installs
   nothing), and every withdrawn NLRI yields a delta: the FIB remove is
   unconditional, only the dirty mark depends on the best route. *)
let ingest_update ~intern ~apply ~now tg (u : Msg.update) =
  let peer_ip = tg.tg_peer_ip in
  List.iter
    (fun (n : Msg.nlri) ->
      gr_unmark tg n.prefix;
      match
        Rib.Table.withdraw tg.tg_rib ~prefix:n.prefix ~peer_ip ~path_id:None
      with
      | Rib.Table.Best_changed _ -> apply n.prefix withdraw_best
      | Rib.Table.Unchanged -> apply n.prefix withdraw_other)
    u.withdrawn;
  if u.announced <> [] then begin
    (* Per-NLRI constants hoisted out of the loop: one intern for the
       whole list (the unchanged check becomes O(1) and installed routes
       share the canonical set) and one install delta. *)
    let source = Rib.Route.source ~peer_ip ~peer_asn:tg.tg_peer_asn () in
    let attrs_h = intern u.attrs in
    let install =
      D_install { Rib.Fib.next_hop = peer_ip; neighbor = tg.tg_id }
    in
    List.iter
      (fun (n : Msg.nlri) ->
        gr_unmark tg n.prefix;
        let unchanged =
          List.exists
            (fun (r : Rib.Route.t) ->
              Rib.Route.key_matches ~peer_ip ~path_id:None r
              && Attr_arena.equal (Rib.Route.attrs_handle r) attrs_h)
            (Rib.Table.candidates tg.tg_rib n.prefix)
        in
        if not unchanged then begin
          ignore
            (Rib.Table.update tg.tg_rib
               (Rib.Route.make_h ~learned_at:now ~prefix:n.prefix ~attrs_h
                  ~source ()));
          apply n.prefix install
        end)
      u.announced
  end

(* -- the lane ------------------------------------------------------------------ *)

type staged = { sg_nid : int; sg_prefix : Prefix.t; sg_delta : delta }

type lane = {
  l_front : Attr_arena.Front.cache;
  l_targets : (int, target) Hashtbl.t;
      (** rebuilt by the coordinator before every run *)
  mutable l_staged : staged list;  (** reversed; drained on [consume] *)
  mutable l_staged_n : int;
  mutable l_updates : int;  (** UPDATEs processed this run *)
  mutable l_decode_errors : int;  (** cumulative *)
}

(* A lane processes its queued (neighbor id, payload) items at the
   run's clock. *)
type t = (lane, int * payload, float) Lanes.t

let decode_on l = function
  | Update u -> Some u
  | Wire bytes -> (
      match Codec.decode bytes with
      | Ok (Msg.Update u) -> Some u
      | Ok _ -> None
      | Error _ ->
          l.l_decode_errors <- l.l_decode_errors + 1;
          None)

(* Lane 0 is the coordinator's, so the sequential path counts its decode
   errors there. *)
let decode t payload = decode_on (Lanes.state t 0) payload

let process now l (nid, payload) =
  match decode_on l payload with
  | None -> ()
  | Some u ->
      l.l_updates <- l.l_updates + 1;
      ingest_update
        ~intern:(Attr_arena.Front.intern l.l_front)
        ~apply:(fun prefix delta ->
          l.l_staged <-
            { sg_nid = nid; sg_prefix = prefix; sg_delta = delta }
            :: l.l_staged;
          l.l_staged_n <- l.l_staged_n + 1)
        ~now (Hashtbl.find l.l_targets nid) u

let create ~lanes () =
  Lanes.create ~lanes
    ~dummy:(-1, Update (Msg.update ()))
    ~init:(fun _ ->
      {
        l_front = Attr_arena.Front.create ();
        l_targets = Hashtbl.create 16;
        l_staged = [];
        l_staged_n = 0;
        l_updates = 0;
        l_decode_errors = 0;
      })
    ~work:process

(* Ingest one batch on the lanes. Every neighbor in the batch is resolved
   to a target from *live* router state before anything is queued (an
   unknown id raises and queues nothing, as on the sequential path). *)
let run t ~now ~resolve batch =
  let lanes = Lanes.count t in
  Lanes.iter (fun l -> Hashtbl.reset l.l_targets) t;
  Array.iter
    (fun (nid, _) ->
      let l = Lanes.state t (Lanes.of_neighbor ~lanes nid) in
      if not (Hashtbl.mem l.l_targets nid) then
        match resolve nid with
        | Some tg -> Hashtbl.replace l.l_targets nid tg
        | None -> invalid_arg "Router.ingest_updates: unknown neighbor")
    batch;
  Array.iter
    (fun ((nid, _) as item) -> Lanes.push t (Lanes.of_neighbor ~lanes nid) item)
    batch;
  Lanes.run t now

let consume t ~apply ~updates =
  let upd = ref 0 in
  Lanes.iter
    (fun l ->
      upd := !upd + l.l_updates;
      l.l_updates <- 0;
      List.iter
        (fun sg -> apply ~nid:sg.sg_nid ~prefix:sg.sg_prefix sg.sg_delta)
        (List.rev l.l_staged);
      l.l_staged <- [];
      l.l_staged_n <- 0)
    t;
  if !upd > 0 then updates !upd

let shutdown = Lanes.shutdown

(* -- observability ----------------------------------------------------------- *)

type stats = {
  front_hits : int;
  front_misses : int;
  decode_errors : int;
  staging_residual : int;
  queue_depth_max : int array;
}

let stats t =
  let sum f = Lanes.fold (fun acc l -> acc + f l) 0 t in
  {
    front_hits = sum (fun l -> Attr_arena.Front.hits l.l_front);
    front_misses = sum (fun l -> Attr_arena.Front.misses l.l_front);
    decode_errors = sum (fun l -> l.l_decode_errors);
    staging_residual = sum (fun l -> l.l_staged_n);
    queue_depth_max = Lanes.depth_max t;
  }
