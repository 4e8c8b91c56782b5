(* Tests for [Lanes], the worker-lane pool under the export lane: a
   one-lane pool runs inline and spawns nothing, every lane drains its
   own queue in FIFO order on its own domain, shutdown is idempotent and
   a later run respawns, queue high-water marks survive runs, a lane
   count below one is rejected, and an exception raised by [work] on any
   lane reaches the caller only after every queue is empty. *)

open Vbgp

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

(* Each lane logs (run tag, item, domain that ran it), newest first; the
   caller sets the tag before each run. *)
let tag = ref ""

let make lanes =
  Lanes.create ~lanes ~dummy:(-1)
    ~init:(fun _ -> ref [])
    ~work:(fun log item ->
      log := (!tag, item, (Domain.self () :> int)) :: !log)

let run_tagged l t =
  tag := t;
  Lanes.run l

let self () = (Domain.self () :> int)

let test_one_lane_inline () =
  let l = make 1 in
  for i = 1 to 5 do
    Lanes.push l 0 i
  done;
  run_tagged l "a";
  checki "no domain spawned" 0 (Lanes.spawned l);
  checkb "items ran on the caller, in FIFO order" true
    (List.rev !(Lanes.state l 0)
    = List.init 5 (fun i -> ("a", i + 1, self ())));
  run_tagged l "b";
  checki "a run empties the queue" 5 (List.length !(Lanes.state l 0));
  Lanes.shutdown l;
  checki "shutdown of a one-lane pool is a no-op" 0 (Lanes.spawned l)

(* The one-lane run is the sequential path of every tick's export flush:
   with a [work] that allocates nothing, neither may [run]. The empty
   interval calibrates the measurement itself. *)
let test_one_lane_allocates_nothing () =
  let l =
    Lanes.create ~lanes:1 ~dummy:0
      ~init:(fun _ -> ref 0)
      ~work:(fun sum item -> sum := !sum + item)
  in
  let words f =
    let before = Gc.minor_words () in
    f ();
    Gc.minor_words () -. before
  in
  Lanes.push l 0 1;
  Lanes.run l;
  Lanes.push l 0 2;
  let empty = words (fun () -> ()) in
  let run = words (fun () -> Lanes.run l) in
  checki "the item ran" 3 !(Lanes.state l 0);
  checki "no words allocated" 0 (int_of_float (run -. empty))

(* Lane [i] gets items [10 i .. 10 i + i]. *)
let fill l =
  for lane = 0 to Lanes.count l - 1 do
    for j = 0 to lane do
      Lanes.push l lane ((10 * lane) + j)
    done
  done

let ran l ~tag lane =
  List.filter_map
    (fun (t, item, dom) -> if t = tag then Some (item, dom) else None)
    (List.rev !(Lanes.state l lane))

let check_run l ~tag =
  for lane = 0 to Lanes.count l - 1 do
    let items = ran l ~tag lane in
    checkb
      (Printf.sprintf "%s: lane %d drained its own queue in order" tag lane)
      true
      (List.map fst items = List.init (lane + 1) (fun j -> (10 * lane) + j));
    checkb
      (Printf.sprintf "%s: lane %d ran %s" tag lane
         (if lane = 0 then "on the caller" else "off the caller"))
      true
      (List.for_all (fun (_, dom) -> (dom = self ()) = (lane = 0)) items)
  done

let test_shutdown_respawn () =
  let l = make 3 in
  fill l;
  run_tagged l "first";
  checki "two workers spawned" 2 (Lanes.spawned l);
  check_run l ~tag:"first";
  Lanes.shutdown l;
  checki "shutdown joins the workers" 0 (Lanes.spawned l);
  Lanes.shutdown l;
  checki "a second shutdown is a no-op" 0 (Lanes.spawned l);
  fill l;
  run_tagged l "second";
  checki "a later run respawns" 2 (Lanes.spawned l);
  check_run l ~tag:"second";
  Lanes.shutdown l

let test_depth_max () =
  let l = make 2 in
  for i = 1 to 100 do
    Lanes.push l 1 i
  done;
  Lanes.run l;
  checki "lane 1 kept all 100 items past the initial capacity" 100
    (List.length !(Lanes.state l 1));
  for i = 1 to 3 do
    Lanes.push l 0 i
  done;
  Lanes.push l 1 0;
  Lanes.run l;
  checki "each item ran once" 104
    (List.length !(Lanes.state l 0) + List.length !(Lanes.state l 1));
  Alcotest.(check (array int))
    "high-water marks survive runs" [| 3; 100 |] (Lanes.depth_max l);
  Lanes.shutdown l

let test_rejects_zero () =
  Alcotest.check_raises "lanes 0"
    (Invalid_argument "Lanes.create: lanes must be >= 1") (fun () ->
      ignore (make 0))

exception Boom

(* [work] raises on item 13, queued on lane [failing] among other items
   on both lanes. [run] must re-raise it, and the next run must see only
   its own items: no leftover from the failed run, no hang. *)
let test_work_raises ~failing () =
  let l =
    Lanes.create ~lanes:2 ~dummy:(-1)
      ~init:(fun _ -> ref [])
      ~work:(fun log item ->
        if item = 13 then raise Boom;
        log := (!tag, item) :: !log)
  in
  let other = 1 - failing in
  List.iter (Lanes.push l failing) [ 11; 13; 15 ];
  List.iter (Lanes.push l other) [ 21; 22 ];
  Alcotest.check_raises "run re-raises the lane's exception" Boom (fun () ->
      run_tagged l "bad");
  let ran lane tag =
    List.rev
      (List.filter_map
         (fun (t, item) -> if t = tag then Some item else None)
         !(Lanes.state l lane))
  in
  Alcotest.(check (list int))
    "the failing lane ran up to the exception" [ 11 ] (ran failing "bad");
  Alcotest.(check (list int))
    "the other lane finished its queue" [ 21; 22 ] (ran other "bad");
  Lanes.push l failing 1;
  Lanes.push l other 2;
  run_tagged l "next";
  Alcotest.(check (list int))
    "next run: only its own item on the failing lane" [ 1 ]
    (ran failing "next");
  Alcotest.(check (list int))
    "next run: only its own item on the other lane" [ 2 ] (ran other "next");
  Lanes.shutdown l

let () =
  Alcotest.run "lanes"
    [
      ( "lanes",
        [
          Alcotest.test_case "one lane runs inline, no domain" `Quick
            test_one_lane_inline;
          Alcotest.test_case "one lane allocates nothing" `Quick
            test_one_lane_allocates_nothing;
          Alcotest.test_case "shutdown is idempotent, a later run respawns"
            `Quick test_shutdown_respawn;
          Alcotest.test_case "queue high-water marks are kept" `Quick
            test_depth_max;
          Alcotest.test_case "fewer than one lane rejected" `Quick
            test_rejects_zero;
          Alcotest.test_case "work raising on lane 0 reaches the caller"
            `Quick
            (test_work_raises ~failing:0);
          Alcotest.test_case "work raising on lane 1 reaches the caller"
            `Quick
            (test_work_raises ~failing:1);
        ] );
    ]
