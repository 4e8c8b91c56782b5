(* Tests for the RIB library: the decision process, routing tables with
   incremental best-path maintenance, and FIBs. *)

open Netcore
open Bgp

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let asn = Asn.of_int
let ip = Ipv4.of_string_exn
let pfx = Prefix.of_string_exn

let route ?(prefix = pfx "10.0.0.0/24") ?(peer = "1.1.1.1") ?(peer_asn = 100)
    ?(path = [ 100; 200 ]) ?(lp = 100) ?(med = 0) ?(origin = Attr.Igp)
    ?(ebgp = true) ?(path_id = None) ?(learned_at = 0.) () =
  let attrs =
    Attr.origin_attrs ~origin
      ~as_path:(Aspath.of_asns (List.map asn path))
      ~next_hop:(ip peer) ()
    |> Attr.with_local_pref lp |> Attr.with_med med
  in
  Rib.Route.make ~path_id ~learned_at ~prefix ~attrs
    ~source:(Rib.Route.source ~ebgp ~peer_ip:(ip peer) ~peer_asn:(asn peer_asn) ())
    ()

let prefer name a b =
  checkb name true (Rib.Decision.compare a b < 0);
  checkb (name ^ " (antisymmetric)") true (Rib.Decision.compare b a > 0)

(* -- decision process -------------------------------------------------------- *)

let test_decision_local_pref () =
  prefer "higher local pref wins"
    (route ~lp:300 ~path:[ 100; 200; 300 ] ())
    (route ~peer:"2.2.2.2" ~lp:100 ~path:[ 100 ] ())

let test_decision_path_length () =
  prefer "shorter path wins"
    (route ~path:[ 100 ] ())
    (route ~peer:"2.2.2.2" ~path:[ 100; 200 ] ());
  (* AS sets count one regardless of size. *)
  let a =
    route ()
    |> fun r ->
    Rib.Route.with_attrs r
      (Attr.with_as_path
         [ Aspath.Seq [ asn 1 ]; Aspath.Set [ asn 2; asn 3; asn 4 ] ]
         (Rib.Route.attrs r))
  in
  let b = route ~peer:"2.2.2.2" ~path:[ 1; 2; 3 ] () in
  checkb "set counts as one" true
    (Aspath.length (Rib.Route.as_path a) < Aspath.length (Rib.Route.as_path b))

let test_decision_origin () =
  prefer "igp beats egp"
    (route ~origin:Attr.Igp ())
    (route ~peer:"2.2.2.2" ~origin:Attr.Egp ());
  prefer "egp beats incomplete"
    (route ~origin:Attr.Egp ())
    (route ~peer:"2.2.2.2" ~origin:Attr.Incomplete ())

let test_decision_med () =
  (* Same neighbor AS: lower MED wins. *)
  prefer "lower med wins (same neighbor)"
    (route ~med:5 ())
    (route ~peer:"2.2.2.2" ~med:50 ());
  (* Different neighbor AS: MED not compared; falls through to peer id. *)
  let a = route ~path:[ 100; 900 ] ~med:50 () in
  let b = route ~peer:"2.2.2.2" ~path:[ 200; 900 ] ~med:5 () in
  checkb "med skipped across neighbors; lower peer id wins" true
    (Rib.Decision.compare a b < 0);
  (* With always_compare_med, MED applies across neighbors. *)
  let config =
    { Rib.Decision.default_config with always_compare_med = true }
  in
  checkb "always_compare_med flips it" true
    (Rib.Decision.compare ~config b a < 0)

let test_decision_ebgp_over_ibgp () =
  prefer "ebgp wins"
    (route ~ebgp:true ())
    (route ~peer:"2.2.2.2" ~ebgp:false ())

let test_decision_age_and_id () =
  let config = { Rib.Decision.default_config with prefer_oldest = true } in
  let old = route ~learned_at:1. () in
  let young = route ~peer:"0.0.0.2" ~learned_at:100. () in
  checkb "older wins when enabled" true
    (Rib.Decision.compare ~config old young < 0);
  (* Without the age tiebreak, the lower peer id wins. *)
  checkb "lower peer id wins by default" true
    (Rib.Decision.compare young old < 0)

let test_decision_best_and_rank () =
  let r1 = route ~peer:"3.3.3.3" ~path:[ 1; 2; 3 ] () in
  let r2 = route ~peer:"2.2.2.2" ~path:[ 1 ] () in
  let r3 = route ~peer:"1.1.1.1" ~path:[ 1; 2 ] () in
  checkb "best is shortest" true
    (match Rib.Decision.best [ r1; r2; r3 ] with
    | Some b -> Ipv4.equal b.Rib.Route.source.peer_ip (ip "2.2.2.2")
    | None -> false);
  let ranked = Rib.Decision.rank [ r1; r2; r3 ] in
  checkb "rank sorted" true
    (List.map (fun r -> Aspath.length (Rib.Route.as_path r)) ranked = [ 1; 2; 3 ]);
  checkb "best of empty" true (Rib.Decision.best [] = None)

(* -- table --------------------------------------------------------------------- *)

let test_table_update_withdraw () =
  let t = Rib.Table.create () in
  let r1 = route ~peer:"1.1.1.1" ~path:[ 1; 2 ] () in
  let r2 = route ~peer:"2.2.2.2" ~path:[ 1 ] () in
  checkb "first insert changes best" true
    (match Rib.Table.update t r1 with
    | Rib.Table.Best_changed (_, Some _) -> true
    | _ -> false);
  checkb "better route changes best" true
    (match Rib.Table.update t r2 with
    | Rib.Table.Best_changed (_, Some b) ->
        Ipv4.equal b.Rib.Route.source.peer_ip (ip "2.2.2.2")
    | _ -> false);
  checki "two candidates" 2 (Rib.Table.route_count t);
  checki "one prefix" 1 (Rib.Table.prefix_count t);
  (* Withdrawing the best promotes the other. *)
  (match
     Rib.Table.withdraw t ~prefix:(pfx "10.0.0.0/24") ~peer_ip:(ip "2.2.2.2")
       ~path_id:None
   with
  | Rib.Table.Best_changed (_, Some b) ->
      checkb "fallback to r1" true
        (Ipv4.equal b.Rib.Route.source.peer_ip (ip "1.1.1.1"))
  | _ -> Alcotest.fail "expected best change");
  (* Withdrawing the last empties the entry. *)
  (match
     Rib.Table.withdraw t ~prefix:(pfx "10.0.0.0/24") ~peer_ip:(ip "1.1.1.1")
       ~path_id:None
   with
  | Rib.Table.Best_changed (_, None) -> ()
  | _ -> Alcotest.fail "expected unreachable");
  checki "empty" 0 (Rib.Table.route_count t)

let test_table_implicit_withdraw () =
  let t = Rib.Table.create () in
  ignore (Rib.Table.update t (route ~path:[ 1; 2; 3 ] ()));
  ignore (Rib.Table.update t (route ~path:[ 9 ] ()));
  (* Same (peer, path_id): replaces, not accumulates. *)
  checki "replaced" 1 (Rib.Table.route_count t);
  checkb "new attrs live" true
    (match Rib.Table.best t (pfx "10.0.0.0/24") with
    | Some b -> Aspath.length (Rib.Route.as_path b) = 1
    | None -> false)

let test_table_add_path_keys () =
  let t = Rib.Table.create () in
  ignore (Rib.Table.update t (route ~path_id:(Some 1) ~path:[ 1 ] ()));
  ignore (Rib.Table.update t (route ~path_id:(Some 2) ~path:[ 1; 2 ] ()));
  (* Same peer, distinct path ids: both kept (ADD-PATH). *)
  checki "both variants" 2 (Rib.Table.route_count t)

let test_table_unchanged_event () =
  let t = Rib.Table.create () in
  ignore (Rib.Table.update t (route ~peer:"1.1.1.1" ~path:[ 1 ] ()));
  let change = Rib.Table.update t (route ~peer:"2.2.2.2" ~path:[ 1; 2 ] ()) in
  checkb "worse route does not change best" true (change = Rib.Table.Unchanged);
  let change =
    Rib.Table.withdraw t ~prefix:(pfx "10.0.0.0/24") ~peer_ip:(ip "2.2.2.2")
      ~path_id:None
  in
  checkb "withdrawing a loser is silent" true (change = Rib.Table.Unchanged)

let test_table_drop_peer () =
  let t = Rib.Table.create () in
  ignore (Rib.Table.update t (route ~peer:"1.1.1.1" ~path:[ 1 ] ()));
  ignore
    (Rib.Table.update t
       (route ~prefix:(pfx "10.1.0.0/24") ~peer:"1.1.1.1" ~path:[ 1 ] ()));
  ignore (Rib.Table.update t (route ~peer:"2.2.2.2" ~path:[ 1; 2 ] ()));
  let changes = Rib.Table.drop_peer t ~peer_ip:(ip "1.1.1.1") in
  checki "two best changes" 2 (List.length changes);
  checki "one route left" 1 (Rib.Table.route_count t)

let test_table_lookup () =
  let t = Rib.Table.create () in
  ignore (Rib.Table.update t (route ~prefix:(pfx "10.0.0.0/8") ~path:[ 1; 2 ] ()));
  ignore
    (Rib.Table.update t (route ~prefix:(pfx "10.1.0.0/16") ~path:[ 1 ] ()));
  checkb "longest prefix wins" true
    (match Rib.Table.lookup t (ip "10.1.2.3") with
    | Some r -> Prefix.equal r.Rib.Route.prefix (pfx "10.1.0.0/16")
    | None -> false);
  checkb "fallback" true
    (match Rib.Table.lookup t (ip "10.2.0.1") with
    | Some r -> Prefix.equal r.Rib.Route.prefix (pfx "10.0.0.0/8")
    | None -> false);
  checki "lookup_all sees both entries" 2
    (List.length (Rib.Table.lookup_all t (ip "10.1.2.3")))

(* -- fib -------------------------------------------------------------------------- *)

let test_fib_basics () =
  let f = Rib.Fib.create () in
  Rib.Fib.insert f (pfx "10.0.0.0/8") { Rib.Fib.next_hop = ip "1.1.1.1"; neighbor = 1 };
  Rib.Fib.insert f (pfx "10.1.0.0/16") { Rib.Fib.next_hop = ip "2.2.2.2"; neighbor = 2 };
  checki "entries" 2 (Rib.Fib.entry_count f);
  checkb "lpm" true
    (match Rib.Fib.lookup f (ip "10.1.9.9") with
    | Some e -> e.Rib.Fib.neighbor = 2
    | None -> false);
  Rib.Fib.remove f (pfx "10.1.0.0/16");
  checki "after remove" 1 (Rib.Fib.entry_count f);
  (* Re-inserting the same prefix replaces, not duplicates. *)
  Rib.Fib.insert f (pfx "10.0.0.0/8") { Rib.Fib.next_hop = ip "3.3.3.3"; neighbor = 3 };
  checki "replace keeps count" 1 (Rib.Fib.entry_count f);
  Rib.Fib.clear f;
  checki "cleared" 0 (Rib.Fib.entry_count f)

let test_fib_set () =
  let s = Rib.Fib.Set.create () in
  let f1 = Rib.Fib.Set.table s 1 in
  let f2 = Rib.Fib.Set.table s 2 in
  checkb "same table returned" true (Rib.Fib.Set.table s 1 == f1);
  Rib.Fib.insert f1 (pfx "10.0.0.0/8") { Rib.Fib.next_hop = ip "1.1.1.1"; neighbor = 1 };
  Rib.Fib.insert f2 (pfx "10.0.0.0/8") { Rib.Fib.next_hop = ip "2.2.2.2"; neighbor = 2 };
  checki "total entries across tables" 2 (Rib.Fib.Set.total_entries s);
  checki "table count" 2 (Rib.Fib.Set.table_count s);
  (* Per-neighbor isolation: same prefix, different next hops. *)
  checkb "isolated" true
    (match (Rib.Fib.lookup f1 (ip "10.0.0.1"), Rib.Fib.lookup f2 (ip "10.0.0.1")) with
    | Some a, Some b -> a.Rib.Fib.neighbor = 1 && b.Rib.Fib.neighbor = 2
    | _ -> false)

let test_fib_memory_grows () =
  let f = Rib.Fib.create () in
  let before = Rib.Fib.memory_bytes f in
  for i = 0 to 999 do
    Rib.Fib.insert f
      (Prefix.make (Ipv4.of_int32 (Int32.of_int (i * 65536))) 24)
      { Rib.Fib.next_hop = ip "1.1.1.1"; neighbor = 1 }
  done;
  checkb "memory grows with entries" true (Rib.Fib.memory_bytes f > before)

(* The destination cache never serves a stale result: every mutation
   (insert of a more-specific, remove, clear) must be visible to the very
   next lookup of an address whose answer it changes. *)
let test_fib_cache_invalidation () =
  let f = Rib.Fib.create () in
  let neighbor_at addr =
    match Rib.Fib.lookup f (ip addr) with
    | Some e -> e.Rib.Fib.neighbor
    | None -> -1
  in
  Rib.Fib.insert f (pfx "10.0.0.0/8")
    { Rib.Fib.next_hop = ip "1.1.1.1"; neighbor = 1 };
  (* Prime the cache on the /8, then shadow it with a more-specific. *)
  checki "primed via /8" 1 (neighbor_at "10.1.2.3");
  Rib.Fib.insert f (pfx "10.1.0.0/16")
    { Rib.Fib.next_hop = ip "2.2.2.2"; neighbor = 2 };
  checki "insert invalidates" 2 (neighbor_at "10.1.2.3");
  Rib.Fib.remove f (pfx "10.1.0.0/16");
  checki "remove invalidates" 1 (neighbor_at "10.1.2.3");
  (* Negative results are cached too, and must also be invalidated. *)
  checki "miss" (-1) (neighbor_at "11.0.0.1");
  Rib.Fib.insert f (pfx "11.0.0.0/8")
    { Rib.Fib.next_hop = ip "3.3.3.3"; neighbor = 3 };
  checki "cached miss invalidated by insert" 3 (neighbor_at "11.0.0.1");
  Rib.Fib.clear f;
  checki "clear invalidates" (-1) (neighbor_at "10.1.2.3")

(* A destination-cache hit returns the stored outcome, positive or
   negative, and allocates nothing. The two addresses sit in different
   cache slots; the empty interval calibrates the measurement itself. *)
let test_fib_hit_allocates_nothing () =
  let f = Rib.Fib.create () in
  Rib.Fib.insert f (pfx "10.0.0.0/8")
    { Rib.Fib.next_hop = ip "1.1.1.1"; neighbor = 1 };
  let routed = ip "10.1.2.3" and unrouted = ip "11.0.0.2" in
  let lookups () =
    for _ = 1 to 1_000 do
      ignore (Sys.opaque_identity (Rib.Fib.lookup f routed));
      ignore (Sys.opaque_identity (Rib.Fib.lookup f unrouted))
    done
  in
  lookups ();
  let words f =
    let before = Gc.minor_words () in
    f ();
    Gc.minor_words () -. before
  in
  let empty = words ignore in
  let hits = words lookups in
  checki "0 words per cached hit" 0 (int_of_float (hits -. empty));
  checkb "the hits return the stored outcomes" true
    (match (Rib.Fib.lookup f routed, Rib.Fib.lookup f unrouted) with
    | Some e, None -> e.Rib.Fib.neighbor = 1
    | _ -> false)

(* A write that changes no binding is a no-op: re-inserting an equal
   entry (a fresh record, same next hop and neighbor — what every
   attribute-only re-announcement writes) keeps the count and the
   generation, so caches stamped with it stay warm; a different entry
   still bumps the generation. The generation moves exactly when the trie
   does, so it alone witnesses the no-op. *)
let test_fib_equal_insert_noop () =
  let f = Rib.Fib.create () in
  let entry nh n = { Rib.Fib.next_hop = ip nh; neighbor = n } in
  Rib.Fib.insert f (pfx "10.0.0.0/8") (entry "1.1.1.1" 1);
  Rib.Fib.insert f (pfx "10.1.0.0/16") (entry "1.1.1.1" 1);
  let gen = Rib.Fib.generation f in
  Rib.Fib.insert f (pfx "10.1.0.0/16") (entry "1.1.1.1" 1);
  Rib.Fib.insert f (pfx "10.0.0.0/8") (entry "1.1.1.1" 1);
  checki "equal insert keeps generation" gen (Rib.Fib.generation f);
  checki "equal insert keeps count" 2 (Rib.Fib.entry_count f);
  Rib.Fib.insert f (pfx "10.1.0.0/16") (entry "2.2.2.2" 1);
  checkb "new next hop bumps generation" true (Rib.Fib.generation f > gen);
  checki "replacement keeps count" 2 (Rib.Fib.entry_count f);
  let gen = Rib.Fib.generation f in
  Rib.Fib.insert f (pfx "10.1.0.0/16") (entry "2.2.2.2" 2);
  checkb "new neighbor bumps generation" true (Rib.Fib.generation f > gen);
  let gen = Rib.Fib.generation f in
  Rib.Fib.insert f (pfx "10.2.0.0/16") (entry "2.2.2.2" 2);
  checkb "new prefix bumps generation" true (Rib.Fib.generation f > gen);
  checki "new prefix bumps count" 3 (Rib.Fib.entry_count f)

(* -- properties --------------------------------------------------------------------- *)

let arbitrary_route =
  QCheck.map
    (fun (peer, lp, pathlen, med) ->
      route
        ~peer:(Printf.sprintf "1.1.1.%d" (1 + (peer mod 200)))
        ~lp:(lp mod 500)
        ~path:(List.init (1 + (pathlen mod 5)) (fun i -> 100 + i))
        ~med:(med mod 100) ())
    QCheck.(quad small_nat small_nat small_nat small_nat)

let prop_best_is_minimal =
  QCheck.Test.make ~name:"best route is minimal under compare" ~count:200
    (QCheck.list_of_size (QCheck.Gen.int_range 1 10) arbitrary_route)
    (fun routes ->
      match Rib.Decision.best routes with
      | None -> false
      | Some b -> List.for_all (fun r -> Rib.Decision.compare b r <= 0) routes)

let prop_compare_transitive_sample =
  QCheck.Test.make ~name:"decision order is transitive (sampled)" ~count:200
    (QCheck.triple arbitrary_route arbitrary_route arbitrary_route)
    (fun (a, b, c) ->
      let ( <<= ) x y = Rib.Decision.compare x y <= 0 in
      (not (a <<= b && b <<= c)) || a <<= c)

let prop_table_count_invariant =
  (* Random update/withdraw sequences keep route_count equal to a model. *)
  QCheck.Test.make ~name:"table count matches model" ~count:100
    (QCheck.list
       (QCheck.triple QCheck.bool (QCheck.int_bound 3) (QCheck.int_bound 3)))
    (fun ops ->
      let t = Rib.Table.create () in
      let model = Hashtbl.create 8 in
      List.iter
        (fun (is_update, peer_i, prefix_i) ->
          let peer = Printf.sprintf "9.9.9.%d" (1 + peer_i) in
          let prefix = pfx (Printf.sprintf "10.%d.0.0/16" prefix_i) in
          let key = (peer, Prefix.to_string prefix) in
          if is_update then begin
            ignore (Rib.Table.update t (route ~peer ~prefix ()));
            Hashtbl.replace model key ()
          end
          else begin
            ignore
              (Rib.Table.withdraw t ~prefix ~peer_ip:(ip peer) ~path_id:None);
            Hashtbl.remove model key
          end)
        ops;
      Rib.Table.route_count t = Hashtbl.length model)

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [ prop_best_is_minimal; prop_compare_transitive_sample; prop_table_count_invariant ]

let () =
  Alcotest.run "rib"
    [
      ( "decision",
        [
          Alcotest.test_case "local pref" `Quick test_decision_local_pref;
          Alcotest.test_case "path length" `Quick test_decision_path_length;
          Alcotest.test_case "origin" `Quick test_decision_origin;
          Alcotest.test_case "med" `Quick test_decision_med;
          Alcotest.test_case "ebgp over ibgp" `Quick test_decision_ebgp_over_ibgp;
          Alcotest.test_case "age and router id" `Quick test_decision_age_and_id;
          Alcotest.test_case "best and rank" `Quick test_decision_best_and_rank;
        ] );
      ( "table",
        [
          Alcotest.test_case "update/withdraw" `Quick test_table_update_withdraw;
          Alcotest.test_case "implicit withdraw" `Quick test_table_implicit_withdraw;
          Alcotest.test_case "add-path keys" `Quick test_table_add_path_keys;
          Alcotest.test_case "unchanged events" `Quick test_table_unchanged_event;
          Alcotest.test_case "drop peer" `Quick test_table_drop_peer;
          Alcotest.test_case "lookup" `Quick test_table_lookup;
        ] );
      ( "fib",
        [
          Alcotest.test_case "basics" `Quick test_fib_basics;
          Alcotest.test_case "per-neighbor set" `Quick test_fib_set;
          Alcotest.test_case "memory accounting" `Quick test_fib_memory_grows;
          Alcotest.test_case "cache invalidation" `Quick
            test_fib_cache_invalidation;
          Alcotest.test_case "equal insert is a no-op" `Quick
            test_fib_equal_insert_noop;
          Alcotest.test_case "a cached hit allocates nothing" `Quick
            test_fib_hit_allocates_nothing;
        ] );
      ("properties", qcheck_cases);
    ]
