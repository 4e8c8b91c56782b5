(* The domain-sharded data plane: N lanes ({!Lanes}), each owning a
   lane-local per-neighbor flow cache and FIB destination cache,
   forwarding against an immutable control-plane snapshot.

   Design in one paragraph: the control plane (which stays single-domain)
   publishes a {!snapshot} — per-neighbor persistent FIB tries, the
   experiment MAC table, and the enforcement chain split into a shared
   stateless head and per-lane-replicated stateful tail — stamped with
   a generation. Frames are dispatched to per-lane queues by hashing the
   flow key (source MAC, IPv4 source, IPv4 destination), so every packet
   of a flow lands on the same lane and all per-flow state — cached
   verdicts, shaper buckets keyed per flow — stays single-writer. A
   drain first reconciles every lane with the snapshot generation
   (resetting the lane-local caches on mismatch), then hands the
   snapshot to the lanes as the run context; no locks anywhere on the
   hot path. Workers buffer externally-visible effects (deliveries,
   ICMP, backbone sends) and count everything in lane-local fields;
   after the run, {!consume} folds those into the router's registry
   from the coordinating domain.

   The worker fast path mirrors [Data_plane.forward_experiment_frame]
   exactly — same verdicts, same per-filter accounting, same delivered
   records, same shaper debits (per-flow keys + flow affinity make the
   debits bit-identical) — which the parallel-vs-sequential differential
   suite pins down. The one deliberate divergence: a flow entry carries a
   single snapshot generation instead of the sequential path's three
   stamps, so invalidation is coarser and hit/miss counts may differ
   across equivalent runs (never verdicts). *)

open Netcore

(* A flow cache never outgrows this per lane; on overflow the table
   resets (same policy as the sequential cache). *)
let flow_cache_capacity = 4096

(* -- flow-to-lane placement ------------------------------------------------ *)

(* Deterministic hash of the flow key onto a domain index. Mixing uses
   two odd multiplicative constants; determinism matters (the
   differential suite and shaper-debit exactness both rely on stable
   placement), quality only needs to spread the handful of bits that
   differ between flows. *)
let domain_of_flow ~domains ~src_mac ~src ~dst =
  if domains <= 1 then 0
  else begin
    let h = Mac.to_int src_mac in
    let h = (h lxor Ipv4.hash src) * 0x9e3779b1 in
    let h = (h lxor Ipv4.hash dst) * 0x85ebca77 in
    (h lxor (h lsr 17)) land max_int mod domains
  end

(* -- the published control snapshot ---------------------------------------- *)

(* Per-neighbor slice of a snapshot. [sn_trie] is the neighbor FIB's
   persistent trie root: immutable, so safe to walk from any domain. *)
type nsnap = {
  sn_id : int;
  sn_alias : bool;  (** remote neighbor: egress goes over the backbone *)
  sn_trie : Rib.Fib.entry Ptrie.V4.t;
}

type snapshot = {
  snap_gen : int;
  snap_vmac : (Mac.t, nsnap) Hashtbl.t;
      (** virtual MAC -> neighbor slice; built fresh per publication and
          never mutated after, so concurrent reads are safe *)
  snap_exp_mac : (Mac.t, string) Hashtbl.t;
      (** experiment station MAC -> experiment name (ingress attribution) *)
  snap_head : Data_enforcer.filter array;
      (** shared stateless head, in chain order; workers never touch its
          counters (per-lane arrays instead) *)
  snap_tail : Data_enforcer.filter array;
      (** stateful tail originals; workers run per-lane replicas *)
}

let empty_snapshot =
  {
    snap_gen = 0;
    snap_vmac = Hashtbl.create 1;
    snap_exp_mac = Hashtbl.create 1;
    snap_head = [||];
    snap_tail = [||];
  }

(* -- per-lane state --------------------------------------------------------- *)

(* Flow-cache key with mutable fields: each lane keeps one reusable
   probe record so cache hits allocate nothing for the lookup (the
   sequential path's tuple key allocates per frame). *)
module Fkey = struct
  type t = { mutable k_mac : Mac.t; mutable k_src : Ipv4.t; mutable k_dst : Ipv4.t }

  let equal a b =
    Mac.equal a.k_mac b.k_mac
    && Ipv4.equal a.k_src b.k_src
    && Ipv4.equal a.k_dst b.k_dst

  let hash k =
    ((((Mac.hash k.k_mac * 31) + Ipv4.hash k.k_src) * 31)
    + Ipv4.hash k.k_dst)
    land max_int
end

module Ftbl = Hashtbl.Make (Fkey)

(* The memoized per-flow action. A head block stores the blocking
   filter's index into [snap_head] (the replay credits filters before it,
   exactly like [Data_enforcer.replay_block]). *)
type action =
  | Sblock of int * string
  | Sforward of Rib.Fib.entry
  | Snofib

type flow = {
  fl_action : action;
  fl_exp : string option;  (** sending experiment, for attribution *)
  fl_ingress : string;  (** memoized ingress label *)
}

(* Externally-visible effects a worker may not perform itself (they touch
   shared router state — the owner trie, the backbone ARP client, global
   counters); buffered and applied by the coordinator on [consume]. *)
type outcome =
  | O_icmp of Ipv4_packet.t  (** TTL expired: answer with ICMP inbound *)
  | O_backbone of Ipv4.t * Ipv4_packet.t
      (** forward over the backbone toward the global IP *)

type dom = {
  mutable d_gen : int;  (** generation the lane caches were built for *)
  d_flows : (int, flow Ftbl.t) Hashtbl.t;  (** neighbor id -> flow cache *)
  d_dcaches : (int, Rib.Fib.entry Dcache.t) Hashtbl.t;
      (** neighbor id -> destination cache over the snapshot trie *)
  d_probe : Fkey.t;  (** reusable lookup key: no alloc per hit *)
  mutable d_head_allowed : int array;  (** per-head-filter, this lane *)
  mutable d_head_blocked : int array;
  mutable d_tail : Data_enforcer.filter list;
      (** private tail replicas; persist across generations (shaper state
          must survive control churn), appended to when the chain grows *)
  (* Forwarding counters, folded into the router registry on [consume]. *)
  mutable d_hits : int;
  mutable d_misses : int;
  mutable d_to_neighbors : int;
  mutable d_dropped : int;
  (* Cumulative enforcer chain totals (mirror of [Data_enforcer.stats]);
     never reset — read by [enforcer_stats]. *)
  mutable d_allowed : int;
  mutable d_blocked : int;
  (* Buffered effects, reversed (consed); drained on [consume]. *)
  mutable d_deliv : (int * Ipv4_packet.t) list;
  mutable d_outcomes : outcome list;
  d_attr : (string, int ref * int ref) Hashtbl.t;
      (** experiment -> (packets, bytes) out, this drain *)
}

(* A lane forwards its queued frames against the snapshot and clock of
   the drain. *)
type t = {
  lanes : (dom, Eth.t, snapshot * float) Lanes.t;
  mutable current : snapshot;
}

let generation t = t.current.snap_gen
let queue_depth_max t = Lanes.depth_max t.lanes

(* -- publication ------------------------------------------------------------ *)

(* Publish a new snapshot. The tables must be freshly built (never
   mutated after this call); lanes only see it through the next drain's
   run context. *)
let publish t ~vmac ~exp_mac ~head ~tail =
  t.current <-
    {
      snap_gen = t.current.snap_gen + 1;
      snap_vmac = vmac;
      snap_exp_mac = exp_mac;
      snap_head = Array.of_list head;
      snap_tail = Array.of_list tail;
    }

(* -- dispatch --------------------------------------------------------------- *)

(* Queue one frame on its flow's home lane. The IPv4 addresses are read
   straight from the payload bytes (the full header validation happens on
   the worker); a runt frame lands on lane 0, whose worker drops it the
   same way the sequential path would. *)
let dispatch t (frame : Eth.t) =
  let domains = Lanes.count t.lanes in
  let d =
    if domains = 1 then 0
    else if String.length frame.Eth.payload >= Ipv4_packet.header_size then
      domain_of_flow ~domains ~src_mac:frame.Eth.src
        ~src:(Ipv4.of_int32 (String.get_int32_be frame.Eth.payload 12))
        ~dst:(Ipv4.of_int32 (String.get_int32_be frame.Eth.payload 16))
    else 0
  in
  Lanes.push t.lanes d frame

(* -- lane cache maintenance ------------------------------------------------- *)

(* Reconcile a lane with the snapshot generation: on mismatch the
   lane-local caches reset (flow memos and destination caches are derived
   from snapshot state), the head counter arrays grow to match the chain
   (the chain is append-only, so indices remain stable), and tail
   replicas are created for any filters appended since
   ([Data_enforcer.replicate] — existing replicas persist, carrying
   shaper state across control churn). *)
let sync_caches d snap =
  if d.d_gen <> snap.snap_gen then begin
    Hashtbl.iter (fun _ tbl -> Ftbl.reset tbl) d.d_flows;
    Hashtbl.iter (fun _ c -> Dcache.invalidate c) d.d_dcaches;
    let hl = Array.length snap.snap_head in
    if Array.length d.d_head_allowed < hl then begin
      let grow a =
        let b = Array.make hl 0 in
        Array.blit a 0 b 0 (Array.length a);
        b
      in
      d.d_head_allowed <- grow d.d_head_allowed;
      d.d_head_blocked <- grow d.d_head_blocked
    end;
    let have = List.length d.d_tail in
    let want = Array.length snap.snap_tail in
    if have < want then
      d.d_tail <-
        d.d_tail
        @ List.init (want - have) (fun i ->
              Data_enforcer.replicate snap.snap_tail.(have + i));
    d.d_gen <- snap.snap_gen
  end

let flows_of d nid =
  match Hashtbl.find_opt d.d_flows nid with
  | Some tbl -> tbl
  | None ->
      let tbl = Ftbl.create 256 in
      Hashtbl.replace d.d_flows nid tbl;
      tbl

let dcache_of d nid =
  match Hashtbl.find_opt d.d_dcaches nid with
  | Some c -> c
  | None ->
      let c = Dcache.create () in
      Hashtbl.replace d.d_dcaches nid c;
      c

(* FIB lookup against the snapshot trie through the lane-local
   destination cache — the sharded analog of [Rib.Fib.lookup]. *)
let fib_lookup d (ns : nsnap) addr =
  let c = dcache_of d ns.sn_id in
  match Dcache.find c addr with
  | Some cached -> cached
  | None ->
      let result =
        match Ptrie.lookup_v4 addr ns.sn_trie with
        | Some (_, e) -> Some e
        | None -> None
      in
      Dcache.store c addr result;
      result

(* -- worker: forwarding ------------------------------------------------------ *)

let attribute d exp bytes =
  match exp with
  | None -> ()
  | Some name ->
      let packets, total =
        match Hashtbl.find_opt d.d_attr name with
        | Some pb -> pb
        | None ->
            let pb = (ref 0, ref 0) in
            Hashtbl.replace d.d_attr name pb;
            pb
      in
      incr packets;
      total := !total + bytes

(* Hand a forwarded record to its egress: the backbone for a remote
   neighbor, the delivery buffer otherwise. *)
let egress d (ns : nsnap) (entry : Rib.Fib.entry) packet =
  if ns.sn_alias then
    d.d_outcomes <- O_backbone (entry.Rib.Fib.next_hop, packet) :: d.d_outcomes
  else begin
    d.d_to_neighbors <- d.d_to_neighbors + 1;
    d.d_deliv <- (ns.sn_id, packet) :: d.d_deliv
  end

(* The record-path continuation for an allowed packet — the mirror of
   [Data_plane.forward_allowed_packet]: TTL, FIB lookup on the (possibly
   rewritten) destination, egress. ICMP generation and backbone sends
   touch shared router state, so they surface as outcomes. *)
let forward_allowed d (ns : nsnap) (packet : Ipv4_packet.t) =
  if packet.Ipv4_packet.ttl <= 1 then
    d.d_outcomes <- O_icmp packet :: d.d_outcomes
  else begin
    let packet = Ipv4_packet.decrement_ttl packet in
    match fib_lookup d ns packet.Ipv4_packet.dst with
    | None -> d.d_dropped <- d.d_dropped + 1
    | Some entry -> egress d ns entry packet
  end

(* The lane's replicas of the stateful tail on one cache-hit packet — the
   mirror of [Data_enforcer.check_tail]: a record is built only when a
   tail exists, and a pass hands that record on. *)
let check_tail d ~now ~ingress view =
  match d.d_tail with
  | [] -> Data_enforcer.Tail_pass None
  | tail -> (
      let packet = Ipv4_packet.View.to_packet view in
      match
        Data_enforcer.run_replica_chain ~now
          ~meta:{ Data_enforcer.ingress }
          packet tail
      with
      | Data_enforcer.Allowed p when p == packet ->
          Data_enforcer.Tail_pass (Some packet)
      | Data_enforcer.Allowed p -> Data_enforcer.Tail_rewritten p
      | Data_enforcer.Blocked reason -> Data_enforcer.Tail_blocked reason)

let hit_packet view = function
  | Some packet -> packet
  | None -> Ipv4_packet.View.to_packet view

(* Serve one frame from a memoized flow decision — the mirror of
   [Data_plane.execute_cached], with shared-head accounting in the
   per-lane arrays and the stateful tail run on this lane's replicas.
   The frame becomes a record at most once: the one the tail built, or
   else one read out of the wire bytes where it leaves. *)
let execute_cached d snap ~now (ns : nsnap) view (fl : flow) =
  match fl.fl_action with
  | Sblock (i, _reason) ->
      (* Replay the memoized head block: filters before the blocker
         allowed the packet, the blocker blocked it. *)
      for j = 0 to i - 1 do
        d.d_head_allowed.(j) <- d.d_head_allowed.(j) + 1
      done;
      d.d_head_blocked.(i) <- d.d_head_blocked.(i) + 1;
      d.d_blocked <- d.d_blocked + 1;
      d.d_dropped <- d.d_dropped + 1
  | (Sforward _ | Snofib) as action -> (
      for j = 0 to Array.length snap.snap_head - 1 do
        d.d_head_allowed.(j) <- d.d_head_allowed.(j) + 1
      done;
      match check_tail d ~now ~ingress:fl.fl_ingress view with
      | Data_enforcer.Tail_blocked _ ->
          d.d_blocked <- d.d_blocked + 1;
          d.d_dropped <- d.d_dropped + 1
      | Data_enforcer.Tail_rewritten p ->
          (* The destination may have changed: back to the record path,
             FIB lookup redone on the rewrite. *)
          d.d_allowed <- d.d_allowed + 1;
          attribute d fl.fl_exp
            (Ipv4_packet.header_size + String.length p.Ipv4_packet.payload);
          forward_allowed d ns p
      | Data_enforcer.Tail_pass tailed -> (
          d.d_allowed <- d.d_allowed + 1;
          attribute d fl.fl_exp (Ipv4_packet.View.total_length view);
          if Ipv4_packet.View.ttl view <= 1 then
            d.d_outcomes <- O_icmp (hit_packet view tailed) :: d.d_outcomes
          else
            match action with
            | Sforward entry ->
                egress d ns entry
                  (Ipv4_packet.decrement_ttl (hit_packet view tailed))
            | Snofib -> d.d_dropped <- d.d_dropped + 1
            | Sblock _ -> assert false))

(* Full resolution on a cache miss — the mirror of
   [Data_plane.resolve_and_forward]: walk the shared head with per-lane
   accounting, classify cacheability, memoize, run the tail replicas,
   forward. *)
let resolve d snap ~now (ns : nsnap) ~src_mac ~sender view =
  let ingress =
    match sender with
    | Some name -> name
    | None -> Printf.sprintf "unknown:%s" (Mac.to_string src_mac)
  in
  let meta = { Data_enforcer.ingress } in
  let packet = Ipv4_packet.View.to_packet view in
  let hl = Array.length snap.snap_head in
  let run_tail packet =
    match d.d_tail with
    | [] ->
        d.d_allowed <- d.d_allowed + 1;
        Data_enforcer.Allowed packet
    | tail -> (
        match Data_enforcer.run_replica_chain ~now ~meta packet tail with
        | Data_enforcer.Allowed _ as a ->
            d.d_allowed <- d.d_allowed + 1;
            a
        | Data_enforcer.Blocked _ as b ->
            d.d_blocked <- d.d_blocked + 1;
            b)
  in
  (* The uncacheable continuation after a head Transform: finish the
     remaining head and the tail as one walk. *)
  let rec uncacheable i packet =
    if i >= hl then run_tail packet
    else
      match Data_enforcer.apply_filter snap.snap_head.(i) ~now ~meta packet with
      | Data_enforcer.Allow ->
          d.d_head_allowed.(i) <- d.d_head_allowed.(i) + 1;
          uncacheable (i + 1) packet
      | Data_enforcer.Block reason ->
          d.d_head_blocked.(i) <- d.d_head_blocked.(i) + 1;
          d.d_blocked <- d.d_blocked + 1;
          Data_enforcer.Blocked reason
      | Data_enforcer.Transform packet ->
          d.d_head_allowed.(i) <- d.d_head_allowed.(i) + 1;
          uncacheable (i + 1) packet
  in
  let rec head_walk i packet =
    if i >= hl then (run_tail packet, `Cacheable_allow)
    else
      match Data_enforcer.apply_filter snap.snap_head.(i) ~now ~meta packet with
      | Data_enforcer.Allow ->
          d.d_head_allowed.(i) <- d.d_head_allowed.(i) + 1;
          head_walk (i + 1) packet
      | Data_enforcer.Block reason ->
          d.d_head_blocked.(i) <- d.d_head_blocked.(i) + 1;
          d.d_blocked <- d.d_blocked + 1;
          (Data_enforcer.Blocked reason, `Cacheable_block (i, reason))
      | Data_enforcer.Transform packet ->
          d.d_head_allowed.(i) <- d.d_head_allowed.(i) + 1;
          (uncacheable (i + 1) packet, `Uncacheable)
  in
  let decision, resolution = head_walk 0 packet in
  (match resolution with
  | `Uncacheable -> ()
  | `Cacheable_block _ | `Cacheable_allow ->
      let fl_action =
        match resolution with
        | `Cacheable_block (i, reason) -> Sblock (i, reason)
        | _ -> (
            match fib_lookup d ns (Ipv4_packet.View.dst view) with
            | Some entry -> Sforward entry
            | None -> Snofib)
      in
      let tbl = flows_of d ns.sn_id in
      if Ftbl.length tbl >= flow_cache_capacity then Ftbl.reset tbl;
      Ftbl.replace tbl
        {
          Fkey.k_mac = src_mac;
          k_src = Ipv4_packet.View.src view;
          k_dst = Ipv4_packet.View.dst view;
        }
        { fl_action; fl_exp = sender; fl_ingress = ingress });
  match decision with
  | Data_enforcer.Blocked _ -> d.d_dropped <- d.d_dropped + 1
  | Data_enforcer.Allowed packet ->
      attribute d sender
        (Ipv4_packet.header_size + String.length packet.Ipv4_packet.payload);
      forward_allowed d ns packet

(* One frame, on its home lane — the mirror of
   [Data_plane.forward_experiment_frame]'s cached path. *)
let forward_frame (snap, now) d (frame : Eth.t) =
  match Hashtbl.find_opt snap.snap_vmac frame.Eth.dst with
  | None -> d.d_dropped <- d.d_dropped + 1
  | Some ns -> (
      match Ipv4_packet.View.of_string frame.Eth.payload with
      | Error _ -> d.d_dropped <- d.d_dropped + 1
      | Ok view -> (
          let tbl = flows_of d ns.sn_id in
          let probe = d.d_probe in
          probe.Fkey.k_mac <- frame.Eth.src;
          probe.Fkey.k_src <- Ipv4_packet.View.src view;
          probe.Fkey.k_dst <- Ipv4_packet.View.dst view;
          match Ftbl.find tbl probe with
          | fl ->
              d.d_hits <- d.d_hits + 1;
              execute_cached d snap ~now ns view fl
          | exception Not_found ->
              d.d_misses <- d.d_misses + 1;
              let sender = Hashtbl.find_opt snap.snap_exp_mac frame.Eth.src in
              resolve d snap ~now ns ~src_mac:frame.Eth.src ~sender view))

(* -- the pool ---------------------------------------------------------------- *)

let make_dom _i =
  {
    d_gen = -1;
    d_flows = Hashtbl.create 8;
    d_dcaches = Hashtbl.create 8;
    d_probe = { Fkey.k_mac = Mac.zero; k_src = Ipv4.any; k_dst = Ipv4.any };
    d_head_allowed = [||];
    d_head_blocked = [||];
    d_tail = [];
    d_hits = 0;
    d_misses = 0;
    d_to_neighbors = 0;
    d_dropped = 0;
    d_allowed = 0;
    d_blocked = 0;
    d_deliv = [];
    d_outcomes = [];
    d_attr = Hashtbl.create 4;
  }

let dummy_frame =
  { Eth.dst = Mac.zero; src = Mac.zero; ethertype = Eth.Other 0; payload = "" }

let create ~lanes () =
  {
    lanes =
      Lanes.create ~lanes ~dummy:dummy_frame ~init:make_dom
        ~work:forward_frame;
    current = empty_snapshot;
  }

(* Forward everything queued. The control plane is quiesced for the
   duration of the drain, so the lanes' caches are reconciled with the
   snapshot here on the coordinator before they run. *)
let drain t ~now =
  let snap = t.current in
  Lanes.iter (fun d -> sync_caches d snap) t.lanes;
  Lanes.run t.lanes (snap, now)

let shutdown t = Lanes.shutdown t.lanes

(* -- aggregation ------------------------------------------------------------- *)

(* Fold the drain's buffered effects and counters into the caller's
   sinks, in lane order (deliveries within a lane stay in forwarding
   order — per-flow order is preserved end to end). *)
let consume t ~deliver ~outcome ~attribute ~counters =
  let hits = ref 0 and misses = ref 0 in
  let to_neighbors = ref 0 and dropped = ref 0 in
  Lanes.iter
    (fun d ->
      hits := !hits + d.d_hits;
      d.d_hits <- 0;
      misses := !misses + d.d_misses;
      d.d_misses <- 0;
      to_neighbors := !to_neighbors + d.d_to_neighbors;
      d.d_to_neighbors <- 0;
      dropped := !dropped + d.d_dropped;
      d.d_dropped <- 0;
      List.iter (fun (nid, packet) -> deliver nid packet) (List.rev d.d_deliv);
      d.d_deliv <- [];
      List.iter outcome (List.rev d.d_outcomes);
      d.d_outcomes <- [];
      Hashtbl.iter
        (fun name (packets, bytes) -> attribute name ~packets:!packets ~bytes:!bytes)
        d.d_attr;
      Hashtbl.reset d.d_attr)
    t.lanes;
  counters ~hits:!hits ~misses:!misses ~to_neighbors:!to_neighbors
    ~dropped:!dropped

(* -- enforcer aggregation (tests, diagnostics) ------------------------------- *)

(* Chain-global (allowed, blocked) summed across lanes — the sharded
   analog of [Data_enforcer.stats]. Call between drains. *)
let enforcer_stats t =
  Lanes.fold (fun (a, b) d -> (a + d.d_allowed, b + d.d_blocked)) (0, 0) t.lanes

(* Per-filter (name, allowed, blocked) in chain order, summed across
   lanes — the sharded analog of [Data_enforcer.filter_stats]. Head
   counts come from the per-lane arrays, tail counts from the replicas
   (positions align because the chain is append-only). *)
let filter_stats t =
  let sum f =
    Lanes.fold
      (fun (a, b) d ->
        let x, y = f d in
        (a + x, b + y))
      (0, 0) t.lanes
  in
  let head =
    Array.to_list
      (Array.mapi
         (fun i f ->
           let a, b =
             sum (fun d ->
                 if i < Array.length d.d_head_allowed then
                   (d.d_head_allowed.(i), d.d_head_blocked.(i))
                 else (0, 0))
           in
           (Data_enforcer.filter_name f, a, b))
         t.current.snap_head)
  in
  let tail =
    Array.to_list
      (Array.mapi
         (fun j f ->
           let a, b =
             sum (fun d ->
                 match List.nth_opt d.d_tail j with
                 | Some replica -> Data_enforcer.filter_counts replica
                 | None -> (0, 0))
           in
           (Data_enforcer.filter_name f, a, b))
         t.current.snap_tail)
  in
  head @ tail
