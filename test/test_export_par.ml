(* Differential and regression tests for the export flush and its lane.
   The flush keeps the Adj-RIB-Out as update-groups (one group table
   plus per-neighbor overrides), computes the deltas on the coordinator
   and packs and encodes each distinct delta list once, on the lane of
   its lowest-id neighbor; a router created with [?lanes:4] must be
   byte-identical to the sequential one. A QCheck property drives the
   same random announce/withdraw/flap/EoR sequence from an experiment
   through two identically-wired routers (4 lanes vs 1, both with
   batched or both with eager ingest) and compares
   Adj-RIB-Out fingerprints, exact counters, per-neighbor heard state,
   and per-neighbor wire-byte transcripts (every byte each neighbor's
   link delivered), with and without graceful restart in play; it also
   checks each run against itself, every neighbor's Adj-RIB-Out and
   heard state against a naive recomputation from the live variants.
   Alongside it: three fixed scripts (a GR End-of-RIB sweep, a
   mid-churn neighbor kill, tagged churn) whose per-neighbor transcript
   digests are pinned to what the per-neighbor Adj-RIB-Out flush sent,
   the encode-once wire-cache accounting, one encoding per delta list
   on 100 neighbors, the flush's neighbor placement, the
   [Control_out.chunked] regression, and create-time validation. *)

open Netcore
open Bgp
open Vbgp

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checks = Alcotest.(check string)
let asn = Asn.of_int
let ip = Ipv4.of_string_exn
let pfx = Prefix.of_string_exn

let null_handlers =
  {
    Session.on_update = ignore;
    on_established = ignore;
    on_down = ignore;
    on_route_refresh = (fun ~afi:_ ~safi:_ -> ());
  }

(* -- fixture: one router, six listening neighbors, one experiment ---------- *)

(* Six neighbors over four lanes: at least one lane owns two neighbors,
   and the jobs their delta lists share are encoded on whichever lane
   owns the lowest-id member. *)
let n_neighbors = 6
let neighbor_ip i = Ipv4.of_int32 (Int32.of_int (0x64400001 + i))

(* Eight /24s inside the experiment's /21 grant. *)
let op_prefix i =
  Prefix.make
    (Ipv4.of_int32 (Int32.logor 0xB8A4E000l (Int32.of_int (i lsl 8))))
    24

type fixture = {
  engine : Sim.Engine.t;
  router : Router.t;
  neighbor_ids : int array;
  pairs : Sim.Bgp_wire.pair array;
  epair : Sim.Bgp_wire.pair;
  taps : Buffer.t array;  (** per-neighbor wire-byte transcripts *)
  heard : (int * Prefix.t, Attr.set) Hashtbl.t;  (** (neighbor idx, prefix) *)
  withdrawn_seen : int ref;
  announces : int ref;
}

let make_fixture ?(gr_restart_time = 0) ?(ingest_batching = true)
    ?(n = n_neighbors) ~lanes () =
  let engine = Sim.Engine.create () in
  let global_pool =
    Addr_pool.create ~base:(pfx "127.127.0.0/16") ~mac_pool:0x7f
  in
  let router =
    Router.create ~engine ~name:"par-export" ~asn:(asn 47065)
      ~router_id:(ip "10.255.0.1") ~primary_ip:(ip "10.255.0.1")
      ~local_pool:(pfx "127.65.0.0/16") ~global_pool ~lanes ~ingest_batching
      ~gr_restart_time ()
  in
  Router.activate router;
  let both =
    Array.init n (fun i ->
        Router.add_neighbor router ~asn:(asn (100 + i)) ~ip:(neighbor_ip i)
          ~kind:Neighbor.Transit ~remote_id:(neighbor_ip i) ())
  in
  let neighbor_ids = Array.map fst both and pairs = Array.map snd both in
  let taps = Array.init n (fun _ -> Buffer.create 256) in
  let heard = Hashtbl.create 64 in
  let withdrawn_seen = ref 0 and announces = ref 0 in
  Array.iteri
    (fun i pair ->
      (* Record every byte the router sends this neighbor (the active,
         remote side sits at link endpoint A) before forwarding it into
         the session — the transcript the differential compares. *)
      Sim.Link.attach pair.Sim.Bgp_wire.link Sim.Link.A (fun data ->
          Buffer.add_string taps.(i) data;
          Session.receive_bytes pair.Sim.Bgp_wire.active data);
      (* A neighbor drops what it heard when its session goes down; the
         router's resync replays its whole view. *)
      let forget () =
        Hashtbl.filter_map_inplace
          (fun (j, _) attrs -> if j = i then None else Some attrs)
          heard
      in
      Session.set_handlers pair.Sim.Bgp_wire.active
        {
          null_handlers with
          Session.on_down = (fun _ -> forget ());
          on_update =
            (fun u ->
              if not (Msg.is_end_of_rib u) then begin
                List.iter
                  (fun (n : Msg.nlri) ->
                    incr withdrawn_seen;
                    Hashtbl.remove heard (i, n.Msg.prefix))
                  u.Msg.withdrawn;
                List.iter
                  (fun (n : Msg.nlri) ->
                    incr announces;
                    Hashtbl.replace heard (i, n.Msg.prefix) u.Msg.attrs)
                  u.Msg.announced
              end);
        })
    pairs;
  Array.iter Sim.Bgp_wire.start pairs;
  let grant =
    Control_enforcer.grant ~asns:[ asn 61574 ]
      ~prefixes:[ pfx "184.164.224.0/21" ]
      ~caps:
        Experiment_caps.(
          default |> with_communities 16 |> with_update_budget 10000)
      "par-exp"
  in
  let epair =
    Router.connect_experiment router ~grant ~mac:(Mac.local ~pool:0xe0 1) ()
  in
  Sim.Bgp_wire.start epair;
  Sim.Engine.run_until engine 5.;
  {
    engine;
    router;
    neighbor_ids;
    pairs;
    epair;
    taps;
    heard;
    withdrawn_seen;
    announces;
  }

let settle fx =
  Router.flush_reexports fx.router;
  Sim.Engine.run_until fx.engine (Sim.Engine.now fx.engine +. 10.)

(* Experiment announcement variants: MED, prepending, and export-control
   tags all vary so flushes mix facing groups, update-group merges, and
   per-neighbor filtering. *)
let attr_variant fx v =
  let path = if v land 1 = 0 then [ 61574 ] else [ 61574; 61574 ] in
  let ctl = Router.control_asn fx.router in
  let tagged_id =
    Router.export_id fx.router ~neighbor_id:fx.neighbor_ids.(v mod n_neighbors)
  in
  let communities =
    match (v lsr 1) mod 4 with
    | 0 -> []
    | 1 -> [ Export_control.announce_to ~ctl_asn:ctl tagged_id ]
    | 2 -> [ Export_control.block ~ctl_asn:ctl tagged_id ]
    | _ -> [ Community.no_export ]
  in
  Attr.origin_attrs
    ~as_path:(Aspath.of_asns (List.map asn path))
    ~next_hop:(ip "184.164.224.1") ()
  |> Attr.with_med (v land 3)
  |> Attr.with_communities communities

(* -- canonical, time-independent fingerprint of converged state ----------- *)

let counters_line fx =
  let c = Router.counters fx.router in
  Fmt.str
    "from_nbr=%d from_exp=%d from_mesh=%d reexport=%d gr_ret=%d gr_exp=%d \
     to_nbr=%d/%d to_exp=%d/%d to_mesh=%d/%d"
    c.Router.updates_from_neighbors c.Router.updates_from_experiments
    c.Router.updates_from_mesh c.Router.reexport_computations
    c.Router.gr_retentions c.Router.gr_expiries c.Router.updates_to_neighbors
    c.Router.nlri_to_neighbors c.Router.updates_to_experiments
    c.Router.nlri_to_experiments c.Router.updates_to_mesh c.Router.nlri_to_mesh

(* Every byte each neighbor's link delivered, as length and MD5 per
   neighbor. *)
let wire_digests fx =
  Array.to_list
    (Array.mapi
       (fun i buf ->
         Fmt.str "n%d %d bytes %s" i (Buffer.length buf)
           (Digest.to_hex (Digest.string (Buffer.contents buf))))
       fx.taps)

let fingerprint fx =
  settle fx;
  let adj_out =
    Array.to_list fx.neighbor_ids
    |> List.concat_map (fun id ->
           List.map
             (fun (p, attrs) ->
               Fmt.str "%d %a %a" id Prefix.pp p Attr.pp_set attrs)
             (Router.adj_out_routes fx.router ~neighbor_id:id))
    |> List.sort compare
  in
  let heard =
    Hashtbl.fold
      (fun (i, p) attrs acc ->
        Fmt.str "n%d %a %a" i Prefix.pp p Attr.pp_set attrs :: acc)
      fx.heard []
    |> List.sort compare
  in
  String.concat "\n"
    (("adj-out:" :: adj_out) @ ("heard:" :: heard)
    @ ("wire:" :: wire_digests fx)
    @ [ "counters:"; counters_line fx ])

(* -- single-run check: each neighbor's view against a naive model ---------- *)

(* What neighbor [i] should hear, recomputed from the live variants alone:
   per prefix, the neighbor-facing set of the first exportable variant
   whose tags admit its export id, or nothing. No update-group, override
   or delta is involved. *)
let naive_view fx i =
  let ctl_asn = Router.control_asn fx.router in
  let export_id =
    Router.export_id fx.router ~neighbor_id:fx.neighbor_ids.(i)
  in
  List.filter_map
    (fun k ->
      let prefix = op_prefix k in
      Control_out.variants_for_prefix fx.router prefix
      |> List.find_opt (fun h ->
             let cs = Attr.communities (Attr_arena.set h) in
             (not (List.exists (Community.equal Community.no_export) cs))
             && Export_control.allows ~ctl_asn ~export_id cs)
      |> Option.map (fun h ->
             ( prefix,
               Control_out.neighbor_facing_attrs fx.router (Attr_arena.set h) )))
    (List.init 8 Fun.id)

let show_view view =
  List.map
    (fun (p, attrs) ->
      Fmt.str "%a %a" Prefix.pp p Attr.pp_set (Attr_arena.intern_set attrs))
    view
  |> List.sort compare

(* Every neighbor's Adj-RIB-Out and decoded heard state against
   [naive_view], after [fingerprint] has settled the run. Returns the
   mismatches. *)
let view_mismatches fx =
  List.concat
    (List.init (Array.length fx.neighbor_ids) (fun i ->
         let want = show_view (naive_view fx i) in
         let adj_out =
           show_view
             (Router.adj_out_routes fx.router ~neighbor_id:fx.neighbor_ids.(i))
         in
         let heard =
           show_view
             (Hashtbl.fold
                (fun (j, p) attrs acc -> if j = i then (p, attrs) :: acc else acc)
                fx.heard [])
         in
         (if adj_out = want then []
          else [ Fmt.str "n%d adj-out [%s]" i (String.concat "; " adj_out) ])
         @
         if heard = want then []
         else [ Fmt.str "n%d heard [%s]" i (String.concat "; " heard) ]))

(* -- random operation sequences ------------------------------------------- *)

type op =
  | Announce of int * int  (** prefix index, attr variant *)
  | Withdraw of int
  | Flap of int  (** transport loss + auto-reconnect on one neighbor *)
  | ExpFlap  (** kill the experiment session (GR retention or hard drop) *)
  | ExpEor  (** End-of-RIB from the experiment (GR stale sweep) *)
  | Tick

let send_exp fx u =
  let s = fx.epair.Sim.Bgp_wire.active in
  if Session.established s then Session.send_update s u

let apply fx = function
  | Announce (p, v) ->
      send_exp fx
        (Msg.update ~attrs:(attr_variant fx v)
           ~announced:[ Msg.nlri (op_prefix p) ]
           ())
  | Withdraw p ->
      send_exp fx (Msg.update ~withdrawn:[ Msg.nlri (op_prefix p) ] ())
  | Flap nbr ->
      let fault = Sim.Fault.create fx.engine in
      Sim.Fault.kill_pair fault
        ~at:(Sim.Engine.now fx.engine +. 0.01)
        fx.pairs.(nbr);
      Sim.Engine.run_until fx.engine (Sim.Engine.now fx.engine +. 10.)
  | ExpFlap ->
      let fault = Sim.Fault.create fx.engine in
      Sim.Fault.kill_pair fault
        ~at:(Sim.Engine.now fx.engine +. 0.01)
        fx.epair;
      Sim.Engine.run_until fx.engine (Sim.Engine.now fx.engine +. 10.)
  | ExpEor -> send_exp fx (Msg.update ())
  | Tick -> Sim.Engine.run_until fx.engine (Sim.Engine.now fx.engine +. 1.)

let pp_op = function
  | Announce (p, v) -> Printf.sprintf "A(p%d,v%d)" p v
  | Withdraw p -> Printf.sprintf "W(p%d)" p
  | Flap n -> Printf.sprintf "F(n%d)" n
  | ExpFlap -> "XF"
  | ExpEor -> "XE"
  | Tick -> "T"

let gen_op =
  QCheck.Gen.(
    frequency
      [
        (6, map2 (fun p v -> Announce (p, v)) (int_bound 7) (int_bound 11));
        (3, map (fun p -> Withdraw p) (int_bound 7));
        (1, map (fun n -> Flap n) (int_bound (n_neighbors - 1)));
        (1, return ExpFlap);
        (1, return ExpEor);
        (3, return Tick);
      ])

let ops_arb =
  QCheck.make
    ~print:(fun ops -> String.concat " " (List.map pp_op ops))
    QCheck.Gen.(list_size (int_range 1 30) gen_op)

(* Run one ops sequence to convergence; returns the fingerprint, the
   staged-send residual (which must be zero once the flush has run), the
   per-neighbor wire digests and the single-run view mismatches. *)
let run_ops ?ingest_batching ~lanes ~gr ops =
  let fx = make_fixture ~gr_restart_time:gr ?ingest_batching ~lanes () in
  List.iter (apply fx) ops;
  let fp = fingerprint fx in
  let residual = (Router.export_stats fx.router).Router.staged_residual in
  Router.shutdown_domains fx.router;
  (fp, residual, wire_digests fx, view_mismatches fx)

(* Both runs share the ingest mode: eager ingest is a supported setting
   at any lane count. *)
let differential ~name ~gr =
  QCheck.Test.make ~name ~count:12 (QCheck.pair QCheck.bool ops_arb)
    (fun (ingest_batching, ops) ->
      let fp_par, residual, _, bad_par =
        run_ops ~ingest_batching ~lanes:4 ~gr ops
      in
      let fp_seq, _, _, bad_seq = run_ops ~ingest_batching ~lanes:1 ~gr ops in
      match bad_par @ bad_seq with
      | [] -> residual = 0 && String.equal fp_par fp_seq
      | bad -> QCheck.Test.fail_report (String.concat "\n" bad))

let prop_differential =
  differential ~name:"4-lane export is byte-identical to sequential" ~gr:0

let prop_differential_gr =
  differential
    ~name:"4-lane export is byte-identical under graceful restart" ~gr:120

(* -- pinned wire transcripts ------------------------------------------------- *)

(* Per-neighbor transcript digests of the two fixed scripts below, as the
   per-neighbor Adj-RIB-Out flush produced them before the flush moved to
   update-groups. Packing is a deterministic function of a neighbor's
   delta list and its session parameters, so any export path must
   reproduce these bytes exactly. *)
let gr_eor_wires =
  List.init n_neighbors (fun i ->
      Printf.sprintf "n%d 234 bytes 3c6771f554ccc528e63587be5937a6cc" i)

let kill_mid_churn_wires =
  [
    "n0 376 bytes 8584cb7eee32a09ca3e3aede637f6ad1";
    "n1 376 bytes 8584cb7eee32a09ca3e3aede637f6ad1";
    "n2 585 bytes 48a666ca5318f70590ef63e3307300fc";
    "n3 376 bytes 8584cb7eee32a09ca3e3aede637f6ad1";
    "n4 376 bytes 8584cb7eee32a09ca3e3aede637f6ad1";
    "n5 479 bytes 32940cba83914aa7b5c1fdb38423fe61";
  ]

let tagged_churn_wires =
  [
    "n0 735 bytes c70f3fed18593086c56d42b6c912f133";
    "n1 735 bytes c70f3fed18593086c56d42b6c912f133";
    "n2 851 bytes 6734cc15031e107704a1df969cb22ce4";
    "n3 921 bytes 227cfca737e4002d633380ca73ac9ef1";
    "n4 1097 bytes e55809ae12076c6eb174e5a4e87b0bfa";
    "n5 847 bytes 792cdc7114ff3a11b59cf84ccb01e8aa";
  ]

let check_wires what expected got =
  Alcotest.(check (list string)) what expected got

(* -- directed: GR End-of-RIB sweep rides the export lanes ------------------ *)

(* The experiment loads three prefixes, its session drops gracefully, and
   on reconnect it replays only two before closing with End-of-RIB. The
   sweep's withdrawal toward every neighbor is staged and encoded on the
   lanes like any other delta: retained prefixes generate zero churn, the
   missing prefix exactly one withdrawal per neighbor. *)
let test_par_gr_eor () =
  let fx = make_fixture ~gr_restart_time:120 ~lanes:4 () in
  let ann p = apply fx (Announce (p, 0)) in
  ann 0;
  ann 1;
  ann 2;
  settle fx;
  checki "all neighbors heard the initial table" (3 * n_neighbors)
    (Hashtbl.length fx.heard);
  let s = fx.epair.Sim.Bgp_wire.active in
  Session.set_handlers s
    {
      null_handlers with
      Session.on_established =
        (fun () ->
          ann 0;
          ann 1;
          apply fx ExpEor);
    };
  fx.withdrawn_seen := 0;
  fx.announces := 0;
  apply fx ExpFlap;
  Sim.Engine.run_until fx.engine (Sim.Engine.now fx.engine +. 30.);
  settle fx;
  checki "swept prefix withdrawn from every neighbor" n_neighbors
    !(fx.withdrawn_seen);
  checki "retained prefixes generated no announce churn" 0 !(fx.announces);
  Array.iteri
    (fun i _ ->
      checkb "retained prefix still heard" true
        (Hashtbl.mem fx.heard (i, op_prefix 0));
      checkb "swept prefix gone" false (Hashtbl.mem fx.heard (i, op_prefix 2)))
    fx.pairs;
  checki "staged sends all replayed" 0
    (Router.export_stats fx.router).Router.staged_residual;
  check_wires "EoR sweep transcripts" gr_eor_wires (wire_digests fx);
  Router.shutdown_domains fx.router

(* -- directed: mid-churn neighbor kill as a fixed differential script ------ *)

(* A neighbor session that hard-drops between flushes must be reflected
   in the next flush's target capture: its Adj-RIB-Out is rebuilt by the
   resync and later deltas re-stage toward it. Expressed as a fixed ops
   script run differentially, transcripts included. *)
let test_par_kill_mid_churn () =
  let wave v = List.init 8 (fun p -> Announce (p, v)) in
  let script =
    wave 0
    @ [ Tick; Flap 2; Tick ]
    @ wave 1
    @ [ Tick; Withdraw 1; Withdraw 3; Tick; Flap 5 ]
    @ wave 2 @ [ Tick ]
  in
  let fp_par, residual, wires_par, bad_par = run_ops ~lanes:4 ~gr:0 script in
  let fp_seq, _, wires_seq, bad_seq = run_ops ~lanes:1 ~gr:0 script in
  checki "staged sends all replayed" 0 residual;
  checks "kill mid-churn converges byte-identically" fp_seq fp_par;
  Alcotest.(check (list string)) "views match the model" [] (bad_par @ bad_seq);
  check_wires "kill mid-churn transcripts, sequential" kill_mid_churn_wires
    wires_seq;
  check_wires "kill mid-churn transcripts, 4 lanes" kill_mid_churn_wires
    wires_par

(* -- directed: export-control tags under churn, pinned ---------------------- *)

(* Every prefix carries its own variant, so one flush mixes untagged,
   whitelisted, blacklisted and NO_EXPORT announcements; later waves move
   the tags to other neighbors, withdraw some prefixes and flap a tagged
   neighbor, so neighbors leave and rejoin the untagged majority prefix
   by prefix. *)
let test_tagged_churn () =
  let wave k = List.init 8 (fun p -> Announce (p, (p + k) mod 12)) in
  let script =
    wave 0 @ [ Tick ] @ wave 3
    @ [ Tick; Withdraw 2; Withdraw 5; Flap 4; Tick ]
    @ wave 6 @ [ Tick; Announce (2, 2); Announce (5, 5) ] @ wave 9 @ [ Tick ]
  in
  let fp_par, residual, wires_par, bad_par = run_ops ~lanes:4 ~gr:0 script in
  let fp_seq, _, wires_seq, bad_seq = run_ops ~lanes:1 ~gr:0 script in
  checki "staged sends all replayed" 0 residual;
  checks "tagged churn converges byte-identically" fp_seq fp_par;
  Alcotest.(check (list string)) "views match the model" [] (bad_par @ bad_seq);
  check_wires "tagged churn transcripts, sequential" tagged_churn_wires
    wires_seq;
  check_wires "tagged churn transcripts, 4 lanes" tagged_churn_wires wires_par

(* -- the encode-once wire cache -------------------------------------------- *)

(* One flush of eight same-attribute prefixes toward six neighbors packs
   into one UPDATE per neighbor, all six spliced from a single encoded
   attribute block: 1 miss, 5 hits — whatever the lane count, because
   hit/miss accounting deduplicates blocks across lanes. A second flush
   with a different MED encodes one fresh block. *)
let wire_cache_counts ~lanes () =
  let fx = make_fixture ~lanes () in
  let announce v =
    ignore
      (Router.process_experiment_update fx.router ~experiment:"par-exp"
         (Msg.update ~attrs:(attr_variant fx v)
            ~announced:(List.init 8 (fun p -> Msg.nlri (op_prefix p)))
            ()))
  in
  announce 0;
  Router.flush_reexports fx.router;
  let s1 = Router.export_stats fx.router in
  checki "one attribute block encoded" 1 s1.Router.wire_cache_misses;
  checki "five messages spliced from it" (n_neighbors - 1)
    s1.Router.wire_cache_hits;
  announce 1;
  Router.flush_reexports fx.router;
  let s2 = Router.export_stats fx.router in
  checki "fresh attrs encode one fresh block" 2 s2.Router.wire_cache_misses;
  checki "hits accumulate per flush" (2 * (n_neighbors - 1))
    s2.Router.wire_cache_hits;
  checkb "wire bytes accounted" true (s2.Router.wire_bytes_out > 0);
  checki "staged sends all replayed" 0 s2.Router.staged_residual;
  checki "one depth slot per lane" lanes
    (Array.length s2.Router.lane_depth_max);
  Router.shutdown_domains fx.router

let test_wire_cache_seq () = wire_cache_counts ~lanes:1 ()
let test_wire_cache_par () = wire_cache_counts ~lanes:4 ()

(* -- update-groups: one packing and encoding per distinct delta list ------ *)

(* A hundred neighbors, three announcements, each flushed alone. Every
   neighbor an announcement reaches hears the same delta list, so each
   costs one packing and encoding however many neighbors it is sent to;
   the neighbors it skips are sent nothing. The Adj-RIB-Out holds one
   group entry per announcement an untagged neighbor hears plus an
   override per tagged neighbor: 1, 9 and 14 entries, where one table
   per neighbor held 100, 108 and 204. *)
let update_group_counts ~lanes () =
  let fx = make_fixture ~n:100 ~lanes () in
  let ctl_asn = Router.control_asn fx.router in
  let export_id i =
    Router.export_id fx.router ~neighbor_id:fx.neighbor_ids.(i)
  in
  let step what ~prefix ~communities ~encoded ~receivers ~entries =
    let before = Router.export_stats fx.router in
    let sent_before = Array.map Buffer.length fx.taps in
    ignore
      (Router.process_experiment_update fx.router ~experiment:"par-exp"
         (Msg.update
            ~attrs:(attr_variant fx 0 |> Attr.with_communities communities)
            ~announced:[ Msg.nlri (op_prefix prefix) ]
            ()));
    Router.flush_reexports fx.router;
    Sim.Engine.run_until fx.engine (Sim.Engine.now fx.engine +. 1.);
    let after = Router.export_stats fx.router in
    checki (what ^ ": delta lists encoded") encoded
      (after.Router.delta_lists_encoded - before.Router.delta_lists_encoded);
    checki (what ^ ": attribute blocks encoded") encoded
      (after.Router.wire_cache_misses - before.Router.wire_cache_misses);
    checki
      (what ^ ": messages spliced from them")
      (receivers - encoded)
      (after.Router.wire_cache_hits - before.Router.wire_cache_hits);
    let sent = ref 0 in
    Array.iteri
      (fun i buf -> if Buffer.length buf > sent_before.(i) then incr sent)
      fx.taps;
    checki (what ^ ": neighbors sent to") receivers !sent;
    checki
      (what ^ ": Adj-RIB-Out entries")
      entries
      (Export_pool.entries fx.router.Router_state.export_pool)
  in
  step "untagged" ~prefix:0 ~communities:[] ~encoded:1 ~receivers:100
    ~entries:1;
  step "whitelist naming 8" ~prefix:1
    ~communities:
      (List.init 8 (fun i -> Export_control.announce_to ~ctl_asn (export_id i)))
    ~encoded:1 ~receivers:8 ~entries:(1 + 8);
  step "blacklist naming 4" ~prefix:2
    ~communities:
      (List.init 4 (fun i -> Export_control.block ~ctl_asn (export_id (10 + i))))
    ~encoded:1 ~receivers:96 ~entries:(1 + 8 + 1 + 4);
  checki "views stay exact" 0 (List.length (view_mismatches fx));
  Router.shutdown_domains fx.router

let test_update_groups_seq () = update_group_counts ~lanes:1 ()
let test_update_groups_par () = update_group_counts ~lanes:4 ()

(* -- partitioning and plumbing --------------------------------------------- *)

(* A flush queues each neighbor on its [Lanes.of_neighbor] lane: the
   per-lane target-queue depths are exactly the hash's placement of the
   six neighbor ids. *)
let test_domain_spread () =
  let lanes = 4 in
  let fx = make_fixture ~lanes () in
  ignore
    (Router.process_experiment_update fx.router ~experiment:"par-exp"
       (Msg.update ~attrs:(attr_variant fx 0)
          ~announced:[ Msg.nlri (op_prefix 0) ]
          ()));
  Router.flush_reexports fx.router;
  let placed = Array.make lanes 0 in
  Array.iter
    (fun nid ->
      let l = Lanes.of_neighbor ~lanes nid in
      placed.(l) <- placed.(l) + 1)
    fx.neighbor_ids;
  Alcotest.(check (array int))
    "lane depths follow the neighbor hash" placed
    (Router.export_stats fx.router).Router.lane_depth_max;
  checkb "more than one lane used" true
    (Array.fold_left (fun n c -> if c > 0 then n + 1 else n) 0 placed > 1);
  Router.shutdown_domains fx.router

(* Lane-count validation lives in [Router.create]. The lanes are
   control-plane only, so a multi-lane router may run without the flow
   cache. *)
let test_create_validation () =
  let engine = Sim.Engine.create () in
  let mk ?(flow_cache = true) lanes () =
    Router.create ~engine ~name:"v" ~asn:(asn 1) ~router_id:(ip "10.0.0.1")
      ~primary_ip:(ip "10.0.0.1") ~local_pool:(pfx "127.66.0.0/16")
      ~global_pool:
        (Addr_pool.create ~base:(pfx "127.127.0.0/16") ~mac_pool:0x7f)
      ~flow_cache ~lanes ()
  in
  checkb "lanes 0 rejected" true
    (try
       ignore (mk 0 ());
       false
     with Invalid_argument _ -> true);
  let several = mk ~flow_cache:false 2 () in
  checki "several lanes without the flow cache accepted" 2
    (Router.lanes several);
  let r = mk ~flow_cache:false 1 () in
  checki "one lane is the sequential flush" 1 (Router.lanes r)

(* -- the chunked regression ------------------------------------------------ *)

(* [Control_out.chunked] feeds the v6 MP-attribute packer; it must be
   tail-recursive (a full-table withdraw sweep chunks hundreds of
   thousands of prefixes) and reject nonsensical chunk sizes. *)
let test_chunked () =
  Alcotest.(check (list (list int)))
    "exact chunks" [ [ 1; 2 ]; [ 3; 4 ]; [ 5 ] ]
    (Control_out.chunked [ 1; 2; 3; 4; 5 ] 2);
  Alcotest.(check (list (list int))) "empty" [] (Control_out.chunked [] 3);
  Alcotest.(check (list (list int)))
    "single oversized chunk" [ [ 1; 2 ] ]
    (Control_out.chunked [ 1; 2 ] 10);
  let big = List.init 300_000 Fun.id in
  let chunks = Control_out.chunked big 256 in
  checki "no stack overflow on a full-table sweep"
    ((300_000 + 255) / 256)
    (List.length chunks);
  checki "content preserved" 300_000 (List.length (List.concat chunks));
  checkb "chunk size 0 rejected" true
    (try
       ignore (Control_out.chunked [ 1 ] 0);
       false
     with Invalid_argument _ -> true)

let () =
  Alcotest.run "par-export"
    [
      ( "differential",
        [
          QCheck_alcotest.to_alcotest prop_differential;
          QCheck_alcotest.to_alcotest prop_differential_gr;
        ] );
      ( "graceful-restart",
        [
          Alcotest.test_case "EoR sweep withdrawals ride the lanes" `Quick
            test_par_gr_eor;
        ] );
      ( "faults",
        [
          Alcotest.test_case "mid-churn neighbor kill converges identically"
            `Quick test_par_kill_mid_churn;
          Alcotest.test_case "tagged churn matches pinned transcripts" `Quick
            test_tagged_churn;
        ] );
      ( "wire-cache",
        [
          Alcotest.test_case "encode-once accounting, sequential" `Quick
            test_wire_cache_seq;
          Alcotest.test_case "encode-once accounting, 4 lanes" `Quick
            test_wire_cache_par;
          Alcotest.test_case "one encoding per delta list, sequential" `Quick
            test_update_groups_seq;
          Alcotest.test_case "one encoding per delta list, 4 lanes" `Quick
            test_update_groups_par;
        ] );
      ( "partition",
        [
          Alcotest.test_case "neighbor hash spreads across lanes" `Quick
            test_domain_spread;
          Alcotest.test_case "create validates the lane count" `Quick
            test_create_validation;
          Alcotest.test_case "chunked is tail-recursive and total" `Quick
            test_chunked;
        ] );
    ]
