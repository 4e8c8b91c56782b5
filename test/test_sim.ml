(* Tests for the simulator: event engine, links, LAN segments, flow-level
   TCP models, and tracing. *)

open Netcore
open Sim

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checkf = Alcotest.(check (float 1e-9))

(* -- engine --------------------------------------------------------------------- *)

let test_engine_ordering () =
  let e = Engine.create () in
  let log = ref [] in
  Engine.run_after e 3.0 (fun () -> log := "c" :: !log);
  Engine.run_after e 1.0 (fun () -> log := "a" :: !log);
  Engine.run_after e 2.0 (fun () -> log := "b" :: !log);
  ignore (Engine.run e);
  checkb "time order" true (List.rev !log = [ "a"; "b"; "c" ]);
  checkf "clock at last event" 3.0 (Engine.now e)

let test_engine_fifo_same_time () =
  let e = Engine.create () in
  let log = ref [] in
  for i = 1 to 5 do
    Engine.run_after e 1.0 (fun () -> log := i :: !log)
  done;
  ignore (Engine.run e);
  checkb "fifo at equal timestamps" true (List.rev !log = [ 1; 2; 3; 4; 5 ])

let test_engine_cancel () =
  let e = Engine.create () in
  let fired = ref false in
  let cancel = Engine.schedule e 1.0 (fun () -> fired := true) in
  cancel ();
  ignore (Engine.run e);
  checkb "cancelled event does not fire" false !fired

let test_engine_run_until () =
  let e = Engine.create () in
  let fired = ref 0 in
  Engine.run_after e 1.0 (fun () -> incr fired);
  Engine.run_after e 5.0 (fun () -> incr fired);
  Engine.run_until e 2.0;
  checki "only early event" 1 !fired;
  checkf "clock exactly at limit" 2.0 (Engine.now e);
  Engine.run_until e 10.0;
  checki "late event eventually" 2 !fired

let test_engine_nested_scheduling () =
  let e = Engine.create () in
  let log = ref [] in
  Engine.run_after e 1.0 (fun () ->
      log := "outer" :: !log;
      Engine.run_after e 1.0 (fun () -> log := "inner" :: !log));
  ignore (Engine.run e);
  checkb "nested" true (List.rev !log = [ "outer"; "inner" ]);
  checkf "clock" 2.0 (Engine.now e)

let test_engine_negative_delay () =
  let e = Engine.create () in
  Alcotest.check_raises "negative delay"
    (Invalid_argument "Engine.schedule: negative delay") (fun () ->
      let (_ : unit -> unit) = Engine.schedule e (-1.0) ignore in
      ())

(* -- link ---------------------------------------------------------------------- *)

let test_link_latency () =
  let e = Engine.create () in
  let link = Link.create ~latency:0.5 e in
  let arrival = ref nan in
  Link.attach link Link.B (fun _ -> arrival := Engine.now e);
  Link.send link ~from:Link.A "hello";
  ignore (Engine.run e);
  checkf "one-way latency" 0.5 !arrival

let test_link_serialization () =
  let e = Engine.create () in
  (* 100 bytes/s: a 100-byte message takes 1s to serialize. *)
  let link = Link.create ~latency:0.0 ~bandwidth:100.0 e in
  let arrivals = ref [] in
  Link.attach link Link.B (fun _ -> arrivals := Engine.now e :: !arrivals);
  Link.send link ~from:Link.A (String.make 100 'x');
  Link.send link ~from:Link.A (String.make 100 'y');
  ignore (Engine.run e);
  (match List.rev !arrivals with
  | [ t1; t2 ] ->
      checkf "first after serialization" 1.0 t1;
      checkf "second queues behind first" 2.0 t2
  | _ -> Alcotest.fail "expected two arrivals");
  checki "bytes accounted" 200 (Link.bytes_carried link Link.A)

let test_link_down () =
  let e = Engine.create () in
  let link = Link.create e in
  let got = ref 0 in
  Link.attach link Link.B (fun _ -> incr got);
  Link.set_up link false;
  Link.send link ~from:Link.A "dropped";
  ignore (Engine.run e);
  checki "down link drops" 0 !got;
  Link.set_up link true;
  Link.send link ~from:Link.A "delivered";
  ignore (Engine.run e);
  checki "up link delivers" 1 !got

let test_link_loss () =
  let e = Engine.create () in
  let link = Link.create ~loss:0.5 ~seed:7 e in
  let got = ref 0 in
  Link.attach link Link.B (fun _ -> incr got);
  for _ = 1 to 200 do
    Link.send link ~from:Link.A "x"
  done;
  ignore (Engine.run e);
  checkb "some delivered" true (!got > 50);
  checkb "some lost" true (!got < 150)

(* A closed transport is signalled to the remote endpoint one link latency
   later, so a BGP peer learns of teardown without waiting for its hold
   timer. *)
let test_link_close_signals_peer () =
  let e = Engine.create () in
  let link = Link.create ~latency:0.5 e in
  let transport_b = Link.transport link Link.B ~session_up:ignore in
  let torn = ref nan in
  Link.set_teardown link Link.A (fun () -> torn := Engine.now e);
  transport_b.Bgp.Session.close ();
  ignore (Engine.run e);
  checkf "remote learns one latency later" 0.5 !torn

(* -- fault injection ------------------------------------------------------------ *)

let test_fault_link_down () =
  let e = Engine.create () in
  let f = Fault.create e in
  let link = Link.create e in
  Fault.link_down f ~at:1.0 ~duration:2.0 link;
  checkb "up before" true (Link.is_up link);
  Engine.run_until e 1.5;
  checkb "down during" false (Link.is_up link);
  Engine.run_until e 5.0;
  checkb "healed after" true (Link.is_up link)

let test_fault_flap_link () =
  let e = Engine.create () in
  let f = Fault.create e in
  let link = Link.create e in
  (* Three 1s-down/1s-up cycles starting at t=1: down at 1, 3, 5. *)
  Fault.flap_link f ~at:1.0 ~count:3 ~down_for:1.0 ~up_for:1.0 link;
  let probe at expected =
    Engine.run_until e at;
    checkb (Printf.sprintf "state at %.1f" at) expected (Link.is_up link)
  in
  probe 1.5 false;
  probe 2.5 true;
  probe 3.5 false;
  probe 4.5 true;
  probe 5.5 false;
  probe 7.0 true;
  checki "six transitions logged" 6 (List.length (Fault.events f))

let test_fault_kill_pair () =
  let e = Engine.create () in
  let config base id =
    Bgp.Session.config
      ~local_asn:(Bgp.Asn.of_int base)
      ~local_id:(Ipv4.of_string_exn id)
      ()
  in
  let pair =
    Bgp_wire.make e
      ~config_active:(config 1 "10.0.0.1")
      ~config_passive:(config 2 "10.0.0.2")
      ()
  in
  Bgp_wire.start pair;
  Engine.run_until e 5.;
  checkb "established" true (Bgp.Session.established pair.Bgp_wire.active);
  let f = Fault.create e in
  Fault.kill_pair f ~at:1.0 pair;
  Engine.run_until e 10.;
  checkb "active down" false (Bgp.Session.established pair.Bgp_wire.active);
  checkb "passive down" false (Bgp.Session.established pair.Bgp_wire.passive);
  (* Both endpoints saw a transport loss — the gracefully-restartable
     failure shape — not an administrative stop. *)
  checkb "transport failure recorded" true
    (Bgp.Session.last_error pair.Bgp_wire.active = Some "connection failed"
    && Bgp.Session.last_error pair.Bgp_wire.passive
       = Some "connection failed")

let test_fault_log_and_jitter () =
  let e = Engine.create () in
  let f = Fault.create ~seed:3 e in
  Fault.at f ~at:2.0 "second" ignore;
  Fault.at f ~at:1.0 "first" ignore;
  ignore (Engine.run e);
  (match Fault.events f with
  | [
   { Fault.time = t1; kind = Fault.Custom "first"; _ };
   { Fault.time = t2; kind = Fault.Custom "second"; _ };
  ] ->
      checkf "first at 1" 1.0 t1;
      checkf "second at 2" 2.0 t2
  | _ -> Alcotest.fail "expected a chronological two-entry log");
  Alcotest.(check string)
    "events print as a replayable script" "t=1.000 first\nt=2.000 second"
    (Fault.script f);
  for _ = 1 to 100 do
    let d = Fault.jittered f 10. in
    checkb "jitter within [7.5, 12.5)" true (d >= 7.5 && d < 12.5)
  done

(* -- lan ----------------------------------------------------------------------- *)

let mac i = Mac.local ~pool:1 i

let test_lan_unicast () =
  let e = Engine.create () in
  let lan = Lan.create e in
  let got1 = ref 0 and got2 = ref 0 in
  Lan.attach lan (mac 1) (fun _ -> incr got1);
  Lan.attach lan (mac 2) (fun _ -> incr got2);
  Lan.send lan { Eth.dst = mac 2; src = mac 1; ethertype = Eth.Ipv4; payload = "" };
  ignore (Engine.run e);
  checki "addressee receives" 1 !got2;
  checki "others do not" 0 !got1

let test_lan_broadcast () =
  let e = Engine.create () in
  let lan = Lan.create e in
  let got = Array.make 4 0 in
  for i = 0 to 3 do
    Lan.attach lan (mac i) (fun _ -> got.(i) <- got.(i) + 1)
  done;
  Lan.send lan
    { Eth.dst = Mac.broadcast; src = mac 0; ethertype = Eth.Arp; payload = "" };
  ignore (Engine.run e);
  checki "sender excluded" 0 got.(0);
  checkb "everyone else" true (got.(1) = 1 && got.(2) = 1 && got.(3) = 1)

let test_lan_detach () =
  let e = Engine.create () in
  let lan = Lan.create e in
  let got = ref 0 in
  Lan.attach lan (mac 1) (fun _ -> incr got);
  Lan.detach lan (mac 1);
  checki "no stations" 0 (List.length (Lan.stations lan));
  Lan.send lan { Eth.dst = mac 1; src = mac 2; ethertype = Eth.Ipv4; payload = "" };
  ignore (Engine.run e);
  (* Unknown unicast floods, but the station is gone. *)
  checki "detached station silent" 0 !got

(* -- flow ---------------------------------------------------------------------- *)

let mbps x = x *. 1e6 /. 8.

let test_mathis () =
  (* rate = mss/rtt * C/sqrt(loss); spot check monotonicity and a value. *)
  let r1 = Flow.mathis ~rtt:0.1 ~loss:0.01 () in
  let r2 = Flow.mathis ~rtt:0.1 ~loss:0.0001 () in
  checkb "lower loss, higher rate" true (r2 > r1);
  let r3 = Flow.mathis ~rtt:0.2 ~loss:0.01 () in
  checkb "higher rtt, lower rate" true (r3 < r1);
  checkb "zero loss unbounded" true (Flow.mathis ~rtt:0.1 ~loss:0. () = infinity)

let test_max_min_equal_share () =
  let l = Flow.link ~capacity:(mbps 100.) ~id:1 in
  let flows = [ Flow.flow [ l ]; Flow.flow [ l ] ] in
  match Flow.max_min_rates flows with
  | [ a; b ] ->
      checkf "equal shares a" (mbps 50.) a;
      checkf "equal shares b" (mbps 50.) b
  | _ -> Alcotest.fail "expected two rates"

let test_max_min_demand_limited () =
  let l = Flow.link ~capacity:(mbps 100.) ~id:1 in
  let flows = [ Flow.flow ~demand:(mbps 10.) [ l ]; Flow.flow [ l ] ] in
  match Flow.max_min_rates flows with
  | [ a; b ] ->
      checkf "demand-limited flow" (mbps 10.) a;
      checkf "leftover to the other" (mbps 90.) b
  | _ -> Alcotest.fail "expected two rates"

let test_max_min_distinct_bottlenecks () =
  let thin = Flow.link ~capacity:(mbps 10.) ~id:1 in
  let fat = Flow.link ~capacity:(mbps 100.) ~id:2 in
  (* Flow A crosses thin+fat, flow B crosses only fat. *)
  let flows = [ Flow.flow [ thin; fat ]; Flow.flow [ fat ] ] in
  match Flow.max_min_rates flows with
  | [ a; b ] ->
      checkf "A limited by thin link" (mbps 10.) a;
      checkf "B takes the rest of fat" (mbps 90.) b
  | _ -> Alcotest.fail "expected two rates"

let test_tcp_throughput_min () =
  let path = [ Flow.link ~capacity:(mbps 50.) ~id:1 ] in
  (* With tiny loss the Mathis bound exceeds capacity: capacity wins. *)
  let r = Flow.tcp_throughput ~rtt:0.01 ~loss:1e-9 path in
  checkf "capacity bound" (mbps 50.) r;
  (* With heavy loss the Mathis bound dominates. *)
  let r = Flow.tcp_throughput ~rtt:0.1 ~loss:0.1 path in
  checkb "loss bound below capacity" true (r < mbps 50.)

(* -- trace ----------------------------------------------------------------------- *)

let test_trace () =
  let t = Trace.create ~capacity:100 () in
  Trace.record t ~time:1.0 ~category:"a" "first %d" 1;
  Trace.record t ~time:2.0 ~category:"b" "second";
  Trace.record t ~time:3.0 ~category:"a" "third";
  checki "total" 3 (List.length (Trace.entries t));
  checki "by category" 2 (Trace.count t ~category:"a");
  checkb "oldest first" true
    ((List.hd (Trace.entries t)).Trace.message = "first 1");
  Trace.set_enabled t false;
  Trace.record t ~time:4.0 ~category:"a" "ignored";
  checki "disabled" 3 (List.length (Trace.entries t));
  Trace.clear t;
  checki "cleared" 0 (List.length (Trace.entries t))

let test_trace_eviction () =
  let t = Trace.create ~capacity:10 () in
  for i = 1 to 25 do
    Trace.record t ~time:(float_of_int i) ~category:"x" "%d" i
  done;
  let entries = Trace.entries t in
  checkb "bounded" true (List.length entries <= 11);
  (* Newest entries survive. *)
  checkb "newest kept" true
    (List.exists (fun e -> e.Trace.message = "25") entries)

(* Eviction is counted, not silent: every entry recorded is either still
   held or counted as dropped. *)
let test_trace_dropped () =
  let t = Trace.create ~capacity:10 () in
  for i = 1 to 10 do
    Trace.record t ~time:(float_of_int i) ~category:"x" "%d" i
  done;
  checki "at capacity, nothing dropped" 0 (Trace.dropped t);
  Trace.record t ~time:11. ~category:"x" "11";
  checki "first eviction drops the oldest" 6 (Trace.dropped t);
  checki "the newest half kept" 5 (List.length (Trace.entries t));
  checkb "oldest kept is 7" true
    ((List.hd (Trace.entries t)).Trace.message = "7");
  for i = 12 to 40 do
    Trace.record t ~time:(float_of_int i) ~category:"x" "%d" i
  done;
  checki "recorded = held + dropped" 40
    (List.length (Trace.entries t) + Trace.dropped t);
  Trace.set_enabled t false;
  Trace.record t ~time:41. ~category:"x" "ignored";
  checki "disabled records drop nothing" 40
    (List.length (Trace.entries t) + Trace.dropped t);
  let held = List.length (Trace.entries t) in
  Trace.clear t;
  checki "clear keeps the drop count" (40 - held) (Trace.dropped t)

(* -- tcp ----------------------------------------------------------------------- *)

let test_tcp_clean_transfer () =
  let engine = Engine.create () in
  (* 100 Mbit/s, 20 ms RTT, no loss: a 20 MB transfer should approach the
     link capacity once past slow start. *)
  match
    Tcp.run engine ~latency:0.01 ~bandwidth:12.5e6 ~bytes:20_000_000 ()
  with
  | None -> Alcotest.fail "transfer did not finish"
  | Some s ->
      checkb "no retransmits on a clean link" true (s.Tcp.retransmits = 0);
      checkb "goodput approaches capacity" true
        (s.Tcp.goodput > 0.7 *. 12.5e6 && s.Tcp.goodput <= 12.5e6 *. 1.01);
      checkb "all bytes acked" true (s.Tcp.bytes_acked >= 20_000_000)

let test_tcp_loss_hurts () =
  let run loss =
    let engine = Engine.create () in
    match
      Tcp.run engine ~latency:0.02 ~bandwidth:12.5e6 ~loss ~seed:5
        ~bytes:5_000_000 ()
    with
    | Some s -> s
    | None -> Alcotest.fail "transfer did not finish"
  in
  let clean = run 0.0 in
  let lossy = run 0.02 in
  checkb "losses cause retransmissions" true (lossy.Tcp.retransmits > 0);
  checkb "loss reduces goodput" true (lossy.Tcp.goodput < clean.Tcp.goodput)

let test_tcp_rtt_hurts () =
  let run latency =
    let engine = Engine.create () in
    match Tcp.run engine ~latency ~bandwidth:125e6 ~bytes:2_000_000 () with
    | Some s -> s.Tcp.goodput
    | None -> Alcotest.fail "transfer did not finish"
  in
  (* Short transfers are ramp-dominated: more RTT, slower ramp. *)
  checkb "higher rtt, lower goodput" true (run 0.1 < run 0.005)

(* Property: events fire in timestamp order regardless of insertion
   order, FIFO at ties. *)
let prop_engine_ordering =
  QCheck.Test.make ~name:"heap fires in time order" ~count:200
    (QCheck.list (QCheck.int_bound 1000))
    (fun delays ->
      let e = Engine.create () in
      let fired = ref [] in
      List.iter
        (fun d ->
          Engine.run_after e (float_of_int d) (fun () ->
              fired := Engine.now e :: !fired))
        delays;
      ignore (Engine.run e);
      let times = List.rev !fired in
      List.sort compare times = times
      && List.length times = List.length delays)

let sim_props = List.map QCheck_alcotest.to_alcotest [ prop_engine_ordering ]

let () =
  Alcotest.run "sim"
    [
      ( "engine",
        [
          Alcotest.test_case "ordering" `Quick test_engine_ordering;
          Alcotest.test_case "fifo same time" `Quick test_engine_fifo_same_time;
          Alcotest.test_case "cancel" `Quick test_engine_cancel;
          Alcotest.test_case "run_until" `Quick test_engine_run_until;
          Alcotest.test_case "nested scheduling" `Quick test_engine_nested_scheduling;
          Alcotest.test_case "negative delay" `Quick test_engine_negative_delay;
        ] );
      ( "link",
        [
          Alcotest.test_case "latency" `Quick test_link_latency;
          Alcotest.test_case "serialization" `Quick test_link_serialization;
          Alcotest.test_case "down" `Quick test_link_down;
          Alcotest.test_case "loss" `Quick test_link_loss;
          Alcotest.test_case "close signals peer" `Quick
            test_link_close_signals_peer;
        ] );
      ( "fault",
        [
          Alcotest.test_case "link down heals" `Quick test_fault_link_down;
          Alcotest.test_case "flap cycles" `Quick test_fault_flap_link;
          Alcotest.test_case "kill pair" `Quick test_fault_kill_pair;
          Alcotest.test_case "log and jitter" `Quick test_fault_log_and_jitter;
        ] );
      ( "lan",
        [
          Alcotest.test_case "unicast" `Quick test_lan_unicast;
          Alcotest.test_case "broadcast" `Quick test_lan_broadcast;
          Alcotest.test_case "detach" `Quick test_lan_detach;
        ] );
      ( "flow",
        [
          Alcotest.test_case "mathis" `Quick test_mathis;
          Alcotest.test_case "max-min equal share" `Quick test_max_min_equal_share;
          Alcotest.test_case "max-min demand limited" `Quick
            test_max_min_demand_limited;
          Alcotest.test_case "max-min distinct bottlenecks" `Quick
            test_max_min_distinct_bottlenecks;
          Alcotest.test_case "tcp throughput" `Quick test_tcp_throughput_min;
        ] );
      ( "trace",
        [
          Alcotest.test_case "basics" `Quick test_trace;
          Alcotest.test_case "eviction" `Quick test_trace_eviction;
          Alcotest.test_case "dropped entries counted" `Quick test_trace_dropped;
        ] );
      ( "tcp",
        [
          Alcotest.test_case "clean transfer" `Quick test_tcp_clean_transfer;
          Alcotest.test_case "loss hurts" `Quick test_tcp_loss_hurts;
          Alcotest.test_case "rtt hurts" `Quick test_tcp_rtt_hurts;
        ] );
      ("properties", sim_props);
    ]
