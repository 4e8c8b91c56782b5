(* Tests for the hash-consing attribute arena: physical uniqueness,
   GC-backed reclamation, and the differential property that interned and
   plain attribute sets are observationally identical (accessors, codec
   round-trip, decision ordering). *)

open Netcore
open Bgp

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checks = Alcotest.(check string)

let asn = Asn.of_int
let ip = Ipv4.of_string_exn
let pfx = Prefix.of_string_exn

let attrs ?(path = [ 100; 200 ]) ?(nh = "10.0.0.1") ?(lp = None) ?(med = None)
    ?(comms = []) () =
  let base =
    Attr.origin_attrs
      ~as_path:(Aspath.of_asns (List.map asn path))
      ~next_hop:(ip nh) ()
  in
  let base = match lp with Some l -> Attr.with_local_pref l base | None -> base in
  let base = match med with Some m -> Attr.with_med m base | None -> base in
  if comms = [] then base else Attr.with_communities comms base

(* A synthetic feed: route [i] gets the [i mod distinct]-th attribute set
   (three-hop path, next hop and MED derived from the index), the shape
   of a real table where many routes repeat the same path attributes. *)
let synth_attrs ?(distinct = max_int) i =
  let i = i mod distinct in
  Attr.origin_attrs
    ~as_path:
      (Aspath.of_asns
         [ asn (1000 + (i mod 977)); asn (2000 + (i mod 499));
           asn (3000 + (i mod 211)) ])
    ~next_hop:(Ipv4.of_int32 (Int32.of_int (0x0a000000 lor (i land 0xffffff))))
    ()
  |> Attr.with_med (i mod 100)

let feed_routes = 20_000
let feed_distinct = 1024

(* -- arena basics ----------------------------------------------------------- *)

let test_intern_physically_equal () =
  let arena = Attr_arena.create () in
  let a = Attr_arena.intern ~arena (attrs ()) in
  let b = Attr_arena.intern ~arena (attrs ()) in
  checkb "same set interns to the same handle" true (a == b);
  checkb "Attr_arena.equal agrees" true (Attr_arena.equal a b);
  checki "same id" (Attr_arena.id a) (Attr_arena.id b);
  let c = Attr_arena.intern ~arena (attrs ~path:[ 100 ] ()) in
  checkb "different set is a different handle" false (Attr_arena.equal a c);
  let stats = Attr_arena.stats ~arena () in
  checki "two misses" 2 stats.Attr_arena.misses;
  checki "one hit" 1 stats.Attr_arena.hits

let test_intern_canonicalizes_order () =
  let arena = Attr_arena.create () in
  (* Same attributes, scrambled order: one canonical handle. *)
  let sorted = Attr.sort (attrs ~lp:(Some 200) ~med:(Some 7) ()) in
  let scrambled = List.rev sorted in
  let a = Attr_arena.intern ~arena sorted in
  let b = Attr_arena.intern ~arena scrambled in
  checkb "order-insensitive interning" true (Attr_arena.equal a b);
  checkb "handle set is sorted" true (Attr_arena.set a = Attr.sort sorted)

let test_arena_survives_gc () =
  let arena = Attr_arena.create () in
  let keep = Attr_arena.intern ~arena (attrs ()) in
  (* Intern a batch of distinct sets without retaining the handles. *)
  for i = 1 to 64 do
    ignore (Attr_arena.intern ~arena (attrs ~med:(Some i) ()))
  done;
  let before = (Attr_arena.stats ~arena ()).Attr_arena.live in
  checkb "all entries live before GC" true (before >= 65);
  Gc.full_major ();
  Gc.full_major ();
  let after = (Attr_arena.stats ~arena ()).Attr_arena.live in
  checkb "unreferenced entries reclaimed" true (after < before);
  (* The retained handle must still be canonical after the collection. *)
  let again = Attr_arena.intern ~arena (attrs ()) in
  checkb "retained handle survives GC" true (Attr_arena.equal keep again)

(* -- striped locks and the per-domain front cache ---------------------------- *)

let test_striped_counters () =
  let arena = Attr_arena.create () in
  (* Retain the handles so weak reclamation can't perturb the counts. *)
  let keep =
    List.init 100 (fun i ->
        Attr_arena.intern ~arena (attrs ~med:(Some (i mod 10)) ()))
  in
  ignore (Sys.opaque_identity keep);
  let st = Attr_arena.stats ~arena () in
  checki "every intern takes exactly one stripe lock" 100 st.Attr_arena.locks;
  checki "sequential interning never contends" 0 st.Attr_arena.contended;
  checki "hits + misses = interns" 100
    (st.Attr_arena.hits + st.Attr_arena.misses);
  checki "ten distinct sets missed" 10 st.Attr_arena.misses;
  Attr_arena.reset_stats ~arena ();
  let st = Attr_arena.stats ~arena () in
  checki "reset clears lock counters" 0 (st.Attr_arena.locks + st.Attr_arena.contended);
  (* The 20k-route feed over 1024 sets: each set misses once, every other
     intern hits (94.88%), and each takes exactly one uncontended lock. *)
  let arena = Attr_arena.create () in
  let keep =
    Array.init feed_routes (fun i ->
        Attr_arena.intern ~arena (synth_attrs ~distinct:feed_distinct i))
  in
  ignore (Sys.opaque_identity keep);
  let st = Attr_arena.stats ~arena () in
  checki "feed: one miss per distinct set" feed_distinct st.Attr_arena.misses;
  checki "feed: every other intern hits" 18_976 st.Attr_arena.hits;
  checki "feed: one lock per intern" feed_routes st.Attr_arena.locks;
  checki "feed: no lock contended" 0 st.Attr_arena.contended

let test_front_cache () =
  let arena = Attr_arena.create () in
  let front = Attr_arena.Front.create ~arena () in
  let a = Attr_arena.Front.intern front (attrs ()) in
  let b = Attr_arena.Front.intern front (attrs ()) in
  checkb "front returns the canonical handle" true (a == b);
  checki "second intern hits the front cache" 1 (Attr_arena.Front.hits front);
  checki "first intern missed through to the arena" 1
    (Attr_arena.Front.misses front);
  (* A front hit must not touch the arena stripes at all. *)
  let st = Attr_arena.stats ~arena () in
  checki "arena saw exactly one intern" 1 st.Attr_arena.locks;
  let c = Attr_arena.intern ~arena (attrs ()) in
  checkb "front and direct intern agree on the handle" true
    (Attr_arena.equal a c);
  (* The 20k-route feed through a fresh front cache: 75.085% of interns
     never reach the arena's stripes. *)
  let arena = Attr_arena.create () in
  let front = Attr_arena.Front.create ~arena () in
  let keep =
    Array.init feed_routes (fun i ->
        Attr_arena.Front.intern front (synth_attrs ~distinct:feed_distinct i))
  in
  ignore (Sys.opaque_identity keep);
  checki "feed: front hits" 15_017 (Attr_arena.Front.hits front);
  checki "feed: front misses" 4_983 (Attr_arena.Front.misses front);
  checki "feed: only misses reach the stripes" 4_983
    (Attr_arena.stats ~arena ()).Attr_arena.locks

(* The feed stored in a RIB (8 peers, distinct /24s): with every route
   holding its own attribute set the table costs 517 B/route; folded onto
   1024 interned sets, 213 B/route. Word counts are exact on a 64-bit
   runtime. *)
let test_sharing_shrinks_table () =
  let table attrs_of =
    let t = Rib.Table.create () in
    for i = 0 to feed_routes - 1 do
      let peer = i mod 8 in
      ignore
        (Rib.Table.update t
           (Rib.Route.make
              ~prefix:
                (Prefix.make
                   (Ipv4.of_int32 (Int32.of_int (((i / 8) lsl 8) lor 0x40000000)))
                   24)
              ~attrs:(attrs_of i)
              ~source:
                (Rib.Route.source
                   ~peer_ip:(Ipv4.of_int32 (Int32.of_int (0x64400001 + peer)))
                   ~peer_asn:(asn (100 + peer)) ())
              ()))
    done;
    Obj.reachable_words (Obj.repr t)
  in
  checki "words, every route its own attrs" 1_292_508
    (table (synth_attrs ?distinct:None));
  checki "words, attrs shared via the arena" 533_468
    (table (synth_attrs ~distinct:feed_distinct))

(* -- differential: interned vs plain ---------------------------------------- *)

let test_differential_accessors () =
  let plain =
    attrs ~path:[ 47065; 263842 ] ~nh:"172.16.9.9" ~lp:(Some 150)
      ~med:(Some 42)
      ~comms:[ Community.make 65000 7; Community.make 100 1 ]
      ()
  in
  let interned = Attr_arena.intern_set plain in
  checkb "as_path" true (Attr.as_path plain = Attr.as_path interned);
  checkb "next_hop" true (Attr.next_hop plain = Attr.next_hop interned);
  checkb "local_pref" true (Attr.local_pref plain = Attr.local_pref interned);
  checkb "med" true (Attr.med plain = Attr.med interned);
  checkb "origin" true (Attr.origin plain = Attr.origin interned);
  checkb "communities" true
    (Attr.communities plain = Attr.communities interned);
  checkb "equal_set both ways" true
    (Attr.equal_set plain interned && Attr.equal_set interned plain)

let test_differential_codec () =
  let plain =
    attrs ~path:[ 61574; 263842 ] ~lp:(Some 120)
      ~comms:[ Community.make 47065 1000 ]
      ()
  in
  let interned = Attr_arena.intern_set plain in
  let encode a =
    Codec.encode
      (Msg.Update (Msg.update ~attrs:a ~announced:[ Msg.nlri (pfx "184.164.224.0/24") ] ()))
  in
  (* Canonical sorting means the interned set encodes byte-identically. *)
  checks "byte-identical wire encoding" (encode (Attr.sort plain))
    (encode interned);
  match Codec.decode_exn (encode interned) with
  | Msg.Update u ->
      checkb "round-trip preserves equality" true
        (Attr.equal_set u.Msg.attrs plain)
  | _ -> Alcotest.fail "expected UPDATE"

let test_differential_decision () =
  let source = Rib.Route.source ~peer_ip:(ip "1.1.1.1") ~peer_asn:(asn 100) () in
  let source2 =
    Rib.Route.source ~peer_ip:(ip "2.2.2.2") ~peer_asn:(asn 200) ()
  in
  let prefix = pfx "10.0.0.0/24" in
  let a_plain = attrs ~path:[ 100 ] ~lp:(Some 300) () in
  let b_plain = attrs ~path:[ 200; 300 ] ~lp:(Some 100) () in
  let mk attrs source = Rib.Route.make ~prefix ~attrs ~source () in
  let plain_cmp =
    Rib.Decision.compare (mk a_plain source) (mk b_plain source2)
  in
  let interned_cmp =
    Rib.Decision.compare
      (mk (Attr_arena.intern_set a_plain) source)
      (mk (Attr_arena.intern_set b_plain) source2)
  in
  checkb "decision ordering unchanged by interning" true
    (plain_cmp = interned_cmp && plain_cmp < 0)

let () =
  Alcotest.run "arena"
    [
      ( "arena",
        [
          Alcotest.test_case "intern is physically unique" `Quick
            test_intern_physically_equal;
          Alcotest.test_case "intern canonicalizes order" `Quick
            test_intern_canonicalizes_order;
          Alcotest.test_case "weak arena survives gc" `Quick
            test_arena_survives_gc;
          Alcotest.test_case "stripe lock counters" `Quick
            test_striped_counters;
          Alcotest.test_case "front cache fronts the stripes" `Quick
            test_front_cache;
          Alcotest.test_case "sharing shrinks a 20k-route table" `Quick
            test_sharing_shrinks_table;
        ] );
      ( "differential",
        [
          Alcotest.test_case "accessors identical" `Quick
            test_differential_accessors;
          Alcotest.test_case "codec identical" `Quick test_differential_codec;
          Alcotest.test_case "decision ordering identical" `Quick
            test_differential_decision;
        ] );
    ]
