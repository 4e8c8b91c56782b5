(* The data-plane enforcement engine (paper §3.3): the eBPF-analog filter
   chain that inspects every experiment packet before it reaches the
   Internet. Filters can be stateless or stateful (they keep their own
   state, like an eBPF map) and return a verdict per packet. The built-in
   policies mirror PEERING's: source-address validation (no spoofing, no
   transiting foreign traffic) and per-PoP/per-neighbor traffic shaping.

   The chain is split for the data plane's flow cache: the maximal
   leading run of [stateless] filters (the "head") produces a verdict
   that depends only on the flow key — source MAC, source and destination
   address, ingress attribution — and filter config, so it can be
   memoized per flow. Everything from the first stateful filter onward
   (the "tail", e.g. the token-bucket shaper) must run on every packet,
   cache hit or not. [check_resolve] reports whether the head's verdict
   is cacheable; [check_tail]/[replay_block] are the per-hit halves. *)

open Netcore

type verdict =
  | Allow
  | Block of string
  | Transform of Ipv4_packet.t  (** rewrite, then continue down the chain *)

(* Where a packet entered the platform; filters use it for attribution
   (e.g. matching the source address against the sending experiment). *)
type meta = { ingress : string }

type filter = {
  name : string;
  stateless : bool;
  apply : now:float -> meta:meta -> Ipv4_packet.t -> verdict;
  mutable f_allowed : int;
  mutable f_blocked : int;
  fresh : (unit -> filter) option;
      (** build an independent instance with private state (sharded data
          plane); [None] means the apply closure holds no mutable state
          and may be shared across replicas *)
}

let filter ?(stateless = false) ?fresh ~name apply =
  { name; stateless; apply; f_allowed = 0; f_blocked = 0; fresh }

let filter_name f = f.name
let filter_is_stateless f = f.stateless
let filter_counts f = (f.f_allowed, f.f_blocked)
let apply_filter f = f.apply

(* An independent instance of [f] for a worker domain: private state
   (via the filter's [fresh] constructor when it has one), zeroed
   per-filter counters. A stateful filter built without [~fresh] falls
   back to sharing the apply closure — correct for pure-but-per-packet
   filters like [ttl_guard]'s shape, unsafe for closures with interior
   mutable state, which is why the built-in stateful filters here all
   provide [fresh]. *)
let replicate f =
  match f.fresh with
  | Some make -> make ()
  | None -> { f with f_allowed = 0; f_blocked = 0 }

type t = {
  mutable rev_filters : filter list;  (** newest first: O(1) insertion *)
  mutable ordered : filter list;  (** insertion order; rebuilt lazily *)
  mutable head : filter list;  (** maximal stateless prefix of [ordered] *)
  mutable tail : filter list;  (** first stateful filter onward *)
  mutable chain_dirty : bool;
  mutable generation : int;  (** bumped on every chain change *)
  trace : Sim.Trace.t option;
  mutable allowed : int;
  mutable blocked : int;
}

let create ?trace () =
  {
    rev_filters = [];
    ordered = [];
    head = [];
    tail = [];
    chain_dirty = false;
    generation = 0;
    trace;
    allowed = 0;
    blocked = 0;
  }

(* Filters accumulate newest-first (appending to the ordered list per add
   is quadratic in chain length); the ordered chain and its
   stateless-head/stateful-tail split are rebuilt once per change. *)
let refresh t =
  if t.chain_dirty then begin
    let ordered = List.rev t.rev_filters in
    let rec split acc = function
      | f :: rest when f.stateless -> split (f :: acc) rest
      | rest -> (List.rev acc, rest)
    in
    let head, tail = split [] ordered in
    t.ordered <- ordered;
    t.head <- head;
    t.tail <- tail;
    t.chain_dirty <- false
  end

let add_filter t f =
  t.rev_filters <- f :: t.rev_filters;
  t.chain_dirty <- true;
  t.generation <- t.generation + 1

let filters t =
  refresh t;
  List.map (fun f -> f.name) t.ordered

let stats t = (t.allowed, t.blocked)

let head_filters t =
  refresh t;
  t.head

let tail_filters t =
  refresh t;
  t.tail

let filter_stats t =
  refresh t;
  List.map (fun f -> (f.name, f.f_allowed, f.f_blocked)) t.ordered

let generation t = t.generation

(* Anti-spoofing: the source address must belong to the experiment sending
   the packet (which also prevents transiting foreign traffic). [owner_of]
   maps an address to the owning experiment, if any; the ingress metadata
   identifies the sender. The verdict depends only on the source address
   and the ingress — both flow-key fields — so it is stateless. *)
let source_validation ~owner_of () =
  filter ~stateless:true ~name:"source-validation"
    (fun ~now:_ ~meta (p : Ipv4_packet.t) ->
      match owner_of p.src with
      | None ->
          Block
            (Fmt.str "spoofed source %a: not experiment space" Ipv4.pp p.src)
      | Some owner ->
          if String.equal meta.ingress owner then Allow
          else
            Block
              (Fmt.str "source %a belongs to %s, not sender %s" Ipv4.pp p.src
                 owner meta.ingress))

(* Token-bucket traffic shaping (bytes/second with a burst allowance),
   keyed by an arbitrary packet classifier: one bucket per PoP, neighbor,
   or experiment as desired. Stateful by nature — it must debit tokens on
   every packet, cached flow or not.

   Buckets idle longer than [idle_horizon] seconds are evicted when a new
   key first appears (an idle bucket is at full burst anyway, which is
   exactly the state a fresh one starts in), so a churning key space —
   one bucket per experiment flow, say — no longer grows the table
   forever. *)
let shaper ~name ~rate ~burst ?(idle_horizon = 300.) ~key_of () =
  (* The bucket table lives inside [make] so every replica (one per
     worker domain under sharding) owns a private one; with per-flow keys
     and flow-to-domain affinity each bucket still has a single writer. *)
  let rec make () =
    let buckets : (string, float ref * float ref) Hashtbl.t =
      Hashtbl.create 16
    in
    let evict_idle now =
      let dead =
        Hashtbl.fold
          (fun key (_, last) acc ->
            if now -. !last > idle_horizon then key :: acc else acc)
          buckets []
      in
      List.iter (Hashtbl.remove buckets) dead
    in
    filter ~name ~fresh:make (fun ~now ~meta:_ (p : Ipv4_packet.t) ->
        let key = key_of p in
        let tokens, last =
          match Hashtbl.find_opt buckets key with
          | Some b -> b
          | None ->
              evict_idle now;
              let b = (ref burst, ref now) in
              Hashtbl.replace buckets key b;
              b
        in
        tokens := Float.min burst (!tokens +. ((now -. !last) *. rate));
        last := now;
        let size =
          float_of_int (Ipv4_packet.header_size + String.length p.payload)
        in
        if !tokens >= size then begin
          tokens := !tokens -. size;
          Allow
        end
        else Block (Fmt.str "rate limit exceeded for %s" key))
  in
  make ()

(* TTL sanity: refuse packets that would expire inside the platform. Keeps
   no state, but the verdict depends on the TTL — which is not part of the
   flow key — so it must run per packet and is NOT flagged stateless. *)
let ttl_guard ?(min_ttl = 2) () =
  filter ~name:"ttl-guard" (fun ~now:_ ~meta:_ (p : Ipv4_packet.t) ->
      if p.ttl < min_ttl then Block (Fmt.str "ttl %d too small" p.ttl)
      else Allow)

type decision = Allowed of Ipv4_packet.t | Blocked of string

type resolution =
  | Cacheable_allow
  | Cacheable_block of filter * string
  | Uncacheable

type tail_decision =
  | Tail_pass of Ipv4_packet.t option
  | Tail_rewritten of Ipv4_packet.t
  | Tail_blocked of string

let log t ~now reason =
  match t.trace with
  | Some trace ->
      Sim.Trace.record trace ~time:now ~category:"data" "blocked: %s" reason
  | None -> ()

(* Run [chain] to a decision, bumping the global and per-filter counters
   exactly as the historical single-chain [check] did (a Transform counts
   as that filter allowing the packet onward). *)
let rec run_chain t ~now ~meta packet = function
  | [] ->
      t.allowed <- t.allowed + 1;
      Allowed packet
  | f :: rest -> (
      match f.apply ~now ~meta packet with
      | Allow ->
          f.f_allowed <- f.f_allowed + 1;
          run_chain t ~now ~meta packet rest
      | Block reason ->
          f.f_blocked <- f.f_blocked + 1;
          t.blocked <- t.blocked + 1;
          log t ~now reason;
          Blocked reason
      | Transform packet ->
          f.f_allowed <- f.f_allowed + 1;
          run_chain t ~now ~meta packet rest)

let check t ~now ~meta packet =
  refresh t;
  run_chain t ~now ~meta packet t.ordered

(* [check], plus a report of whether the stateless head alone determined
   the flow's fate: a head block is cacheable (replayed per hit via
   [replay_block]); a head pass is cacheable (the tail re-runs per hit);
   a head Transform rewrites the packet based on per-packet content, so
   nothing about the flow may be memoized. *)
let check_resolve t ~now ~meta packet =
  refresh t;
  let rec head_walk packet = function
    | [] -> (run_chain t ~now ~meta packet t.tail, Cacheable_allow)
    | f :: rest -> (
        match f.apply ~now ~meta packet with
        | Allow ->
            f.f_allowed <- f.f_allowed + 1;
            head_walk packet rest
        | Block reason ->
            f.f_blocked <- f.f_blocked + 1;
            t.blocked <- t.blocked + 1;
            log t ~now reason;
            (Blocked reason, Cacheable_block (f, reason))
        | Transform packet ->
            f.f_allowed <- f.f_allowed + 1;
            (* The rare uncacheable path: finish the remaining head and
               the tail as one chain (the append only happens here). *)
            (run_chain t ~now ~meta packet (rest @ t.tail), Uncacheable))
  in
  head_walk packet t.head

(* Replay a memoized head block for one cache hit: identical counter and
   trace effects to the head walk that produced it — the filters before
   the blocker allowed the packet, the blocker blocked it. *)
let replay_block t ~now blocker reason =
  refresh t;
  let rec credit = function
    | f :: rest when f != blocker ->
        f.f_allowed <- f.f_allowed + 1;
        credit rest
    | _ -> ()
  in
  credit t.head;
  blocker.f_blocked <- blocker.f_blocked + 1;
  t.blocked <- t.blocked + 1;
  log t ~now reason

(* The per-hit half of a memoized head pass: credit the head filters and
   run the stateful tail. The packet record is only materialized when a
   tail actually exists, and a pass hands it back so the caller forwards
   it instead of materializing a second one; a fully stateless chain
   touches nothing but counters. A tail Transform surfaces as
   [Tail_rewritten] so the caller can fall back to the slow path (the
   rewrite may change the flow's destination). *)
let check_tail t ~now ~meta view =
  refresh t;
  List.iter (fun f -> f.f_allowed <- f.f_allowed + 1) t.head;
  match t.tail with
  | [] ->
      t.allowed <- t.allowed + 1;
      Tail_pass None
  | tail -> (
      let packet = Ipv4_packet.View.to_packet view in
      match run_chain t ~now ~meta packet tail with
      | Allowed p when p == packet -> Tail_pass (Some packet)
      | Allowed p -> Tail_rewritten p
      | Blocked reason -> Tail_blocked reason)

(* Run a standalone (replica) filter list to a decision, crediting the
   replicas' own per-filter counters — the worker-domain analog of
   [run_chain], minus the chain-global counters and trace (those are
   aggregated by the shard layer on snapshot). *)
let rec run_replica_chain ~now ~meta packet = function
  | [] -> Allowed packet
  | f :: rest -> (
      match f.apply ~now ~meta packet with
      | Allow ->
          f.f_allowed <- f.f_allowed + 1;
          run_replica_chain ~now ~meta packet rest
      | Block reason ->
          f.f_blocked <- f.f_blocked + 1;
          Blocked reason
      | Transform packet ->
          f.f_allowed <- f.f_allowed + 1;
          run_replica_chain ~now ~meta packet rest)
