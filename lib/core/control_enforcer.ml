(* The control-plane enforcement engine (paper §3.3, policies from §4.7).

   It interposes between experiments and the routing engine: every
   experiment announcement is validated against the experiment's allocation
   and capability grant, transformed where policy says to strip rather than
   reject, and rate-limited. The engine fails closed: if flagged overloaded
   it blocks all experiment announcements rather than risk leaking one. *)

open Netcore
open Bgp

type grant = {
  name : string;
  asns : Asn.t list;  (** ASNs the experiment may originate from *)
  prefixes : Prefix.t list;  (** IPv4 allocation *)
  prefixes_v6 : Prefix_v6.t list;  (** IPv6 allocation *)
  caps : Experiment_caps.t;
}

let grant ?(asns = []) ?(prefixes = []) ?(prefixes_v6 = [])
    ?(caps = Experiment_caps.default) name =
  { name; asns; prefixes; prefixes_v6; caps }

let owns_prefix g p = List.exists (fun a -> Prefix.subset ~sub:p ~super:a) g.prefixes

let owns_prefix_v6 g p =
  List.exists (fun a -> Prefix_v6.subset ~sub:p ~super:a) g.prefixes_v6

let owns_address g ip = List.exists (Prefix.mem ip) g.prefixes

type outcome =
  | Accepted of Msg.update  (** possibly transformed (attributes stripped) *)
  | Rejected of string list

(* The rate limiter's key: the budget is per experiment, prefix and PoP. *)
type limit_key = string * Prefix.t * string

type t = {
  platform_asns : Asn.t list;
      (** PEERING's own ASNs; legitimate in any experiment path *)
  control_community_asn : int;
      (** communities in this 16-bit namespace steer per-neighbor export and
          are always permitted (and consumed by the router, never leaked) *)
  limiter : limit_key Rate_limiter.t;
  trace : Sim.Trace.t option;
  mutable fail_closed : bool;
  mutable accepted : int;
  mutable rejected : int;
}

let create ?(platform_asns = []) ?(control_community_asn = 47065)
    ?(limiter = Rate_limiter.peering_default ()) ?trace () =
  {
    platform_asns;
    control_community_asn;
    limiter;
    trace;
    fail_closed = false;
    accepted = 0;
    rejected = 0;
  }

let set_fail_closed t v = t.fail_closed <- v
let stats t = (t.accepted, t.rejected)
let control_community_asn t = t.control_community_asn
let is_control_community t c = Community.asn c = t.control_community_asn

let log t ~now fmt =
  match t.trace with
  | Some trace -> Sim.Trace.record trace ~time:now ~category:"control" fmt
  | None -> Format.ikfprintf (fun _ -> ()) Format.str_formatter fmt

(* 2002::/16: 6to4-mapped space needs its own capability (paper §4.7). *)
let six_to_four = Prefix_v6.make (Ipv6.of_string_exn "2002::") 16

(* Validate the AS path of an announcement. *)
let check_path (g : grant) platform_asns attrs errors =
  match Attr.as_path attrs with
  | None -> "announcement without AS_PATH" :: errors
  | Some path ->
      let errors =
        match Aspath.origin path with
        | Some o when List.exists (Asn.equal o) g.asns -> errors
        | Some o ->
            Fmt.str "origin AS %a not authorized for experiment %s" Asn.pp o
              g.name
            :: errors
        | None -> "AS path has no origin AS" :: errors
      in
      let errors =
        match Aspath.first path with
        | Some f
          when List.exists (Asn.equal f) g.asns
               || List.exists (Asn.equal f) platform_asns ->
            errors
        | Some _ when g.caps.Experiment_caps.allow_transit -> errors
        | Some f ->
            Fmt.str
              "path does not start with an experiment AS (as%a): transit \
               requires the transit capability"
              Asn.pp f
            :: errors
        | None -> errors
      in
      (* Foreign ASNs in the path count against the poisoning budget —
         unless the experiment legitimately transits routes, in which case
         the path carries the transited route's ASes by design. *)
      if g.caps.Experiment_caps.allow_transit then errors
      else
        let foreign =
          Aspath.to_asns path
          |> List.filter (fun a ->
                 (not (List.exists (Asn.equal a) platform_asns))
                 && not (List.exists (Asn.equal a) g.asns))
          |> List.sort_uniq Asn.compare
        in
        if List.length foreign > g.caps.Experiment_caps.max_poisoned then
          Fmt.str "%d poisoned ASes exceeds capability limit of %d"
            (List.length foreign) g.caps.Experiment_caps.max_poisoned
          :: errors
        else errors

(* Enforce community capabilities: control communities always pass; others
   are stripped when the capability is absent and rejected when over the
   granted budget. *)
let check_communities t (g : grant) attrs errors =
  let communities = Attr.communities attrs in
  let control, other = List.partition (is_control_community t) communities in
  let max = g.caps.Experiment_caps.max_communities in
  if other = [] then (attrs, errors)
  else if max = 0 then
    (Attr.with_communities control attrs, errors)
  else if List.length other > max then
    ( attrs,
      Fmt.str "%d communities exceeds capability limit of %d"
        (List.length other) max
      :: errors )
  else (attrs, errors)

let check_large_communities (g : grant) attrs errors =
  let larges = Attr.large_communities attrs in
  let max = g.caps.Experiment_caps.max_large_communities in
  if larges = [] then (attrs, errors)
  else if max = 0 then (Attr.remove_code 32 attrs, errors)
  else if List.length larges > max then
    ( attrs,
      Fmt.str "%d large communities exceeds capability limit of %d"
        (List.length larges) max
      :: errors )
  else (attrs, errors)

let check_transitive (g : grant) attrs errors =
  let unknown = Attr.unknown_transitive attrs in
  if unknown = [] || g.caps.Experiment_caps.allow_transitive_attrs then
    (attrs, errors)
  else
    ( List.filter
        (fun a ->
          match a with
          | Attr.Unknown _ -> not (Attr.is_optional_transitive a)
          | _ -> true)
        attrs,
      errors )

(* Validate one experiment update at [pop]. *)
let check t ~now ~pop (g : grant) (update : Msg.update) : outcome =
  if t.fail_closed then begin
    t.rejected <- t.rejected + 1;
    log t ~now "reject %s: enforcement engine failed closed" g.name;
    Rejected [ "enforcement engine is failing closed" ]
  end
  else begin
    let errors = [] in
    (* Address-space ownership for both directions of the update. *)
    let errors =
      List.fold_left
        (fun errors (n : Msg.nlri) ->
          if owns_prefix g n.prefix then errors
          else
            Fmt.str "prefix %a outside experiment allocation (hijack)"
              Prefix.pp n.prefix
            :: errors)
        errors
        (update.announced @ update.withdrawn)
    in
    (* IPv6 NLRI carried in MP attributes. *)
    let errors =
      List.fold_left
        (fun errors attr ->
          match attr with
          | Attr.Mp_reach { nlri; _ } | Attr.Mp_unreach nlri ->
              List.fold_left
                (fun errors (p, _) ->
                  if not (owns_prefix_v6 g p) then
                    Fmt.str "IPv6 prefix %a outside experiment allocation"
                      Prefix_v6.pp p
                    :: errors
                  else if
                    Prefix_v6.subset ~sub:p ~super:six_to_four
                    && not g.caps.Experiment_caps.allow_6to4
                  then
                    Fmt.str "6to4 prefix %a requires the 6to4 capability"
                      Prefix_v6.pp p
                    :: errors
                  else errors)
                errors nlri
          | _ -> errors)
        errors update.attrs
    in
    (* Path validation only applies when something is announced. *)
    let errors =
      if update.announced <> [] then
        check_path g t.platform_asns update.attrs errors
      else errors
    in
    let attrs, errors = check_communities t g update.attrs errors in
    let attrs, errors = check_large_communities g attrs errors in
    let attrs, errors = check_transitive g attrs errors in
    (* Rate limit: one token per touched (prefix, pop). Consume only when
       otherwise valid so probing rejects does not burn budget. *)
    let errors =
      if errors <> [] then errors
      else
        List.fold_left
          (fun errors (n : Msg.nlri) ->
            let key = (g.name, n.prefix, pop) in
            let budget = g.caps.Experiment_caps.daily_update_budget in
            if Rate_limiter.allow ~limit:budget t.limiter ~now key then errors
            else
              Fmt.str "update budget exhausted for %a at %s (limit %d/day)"
                Prefix.pp n.prefix pop budget
              :: errors)
          errors
          (update.announced @ update.withdrawn)
    in
    match errors with
    | [] ->
        t.accepted <- t.accepted + 1;
        Accepted { update with attrs }
    | errors ->
        t.rejected <- t.rejected + 1;
        List.iter (fun e -> log t ~now "reject %s: %s" g.name e) errors;
        Rejected (List.rev errors)
  end

(* Split an update's communities into (control, upstream-visible): the
   router consumes control communities for export decisions and must not
   leak them to the Internet. *)
let split_control_communities t attrs =
  let control, other =
    List.partition (is_control_community t) (Attr.communities attrs)
  in
  (control, Attr.with_communities other attrs)
