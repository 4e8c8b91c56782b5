(* Exact-repeat self-test of the benchmark:

     dune build @perfbench/selftest

   Every workload runs at the size the benchmark measures, for a fixed
   number of ticks (no clock involved), twice with tracing off and twice with it on, on
   one seed, and once more on another seed. The deterministic metrics —
   memory, bytes per route, allocation per operation, hit rates, NLRI per
   UPDATE, wire bytes per NLRI — must repeat exactly, every run must pass
   its output checks with no failed operation, and the other seed must
   change the generated inputs. *)

let main_exe =
  let p = Sys.argv.(1) in
  if Filename.is_implicit p then Filename.concat Filename.current_dir_name p
  else p
let workloads = [ "table-churn"; "experiment-fanout"; "forward-mix" ]

let exact_e2e = [ "heap_peak_mb"; "rib_bytes_per_route" ]

let exact_layers =
  [
    "codec.decode_alloc_words_per_update";
    "control_in.alloc_words_per_nlri";
    "control_out.alloc_words_per_nlri_out";
    "data_plane.alloc_words_per_frame";
    "attr_arena.hit_rate";
    "control_out.wire_cache_hit_rate";
    "data_plane.flow_hit_rate";
    "control_out.nlri_per_update";
    "control_out.wire_bytes_per_nlri";
  ]

let failures = ref 0

let fail fmt =
  Printf.ksprintf
    (fun s ->
      incr failures;
      prerr_endline ("FAIL " ^ s))
    fmt

(* The run's stdout lines. *)
let run ~workload ~seed ~trace =
  let args =
    [|
      main_exe; "--workload"; workload; "--seed"; string_of_int seed;
      "--ticks"; "60"; "--trace"; string_of_int trace;
    |]
  in
  let ic = Unix.open_process_args_in main_exe args in
  let rec lines acc =
    match input_line ic with
    | l -> lines (l :: acc)
    | exception End_of_file -> List.rev acc
  in
  let out = lines [] in
  (match Unix.close_process_in ic with
  | Unix.WEXITED 0 -> ()
  | _ ->
      fail "%s seed %d trace %d: benchmark exited abnormally" workload seed
        trace);
  out

let find_after line key =
  let k = String.length key in
  let rec go i =
    if i + k > String.length line then None
    else if String.sub line i k = key then Some (i + k)
    else go (i + 1)
  in
  go 0

(* The text of [metric]'s value in the result line, verbatim. *)
let value result metric =
  match find_after result (Printf.sprintf "%S: {\"value\": " metric) with
  | None -> None
  | Some i ->
      let j = String.index_from result i ',' in
      Some (String.sub result i (j - i))

let result_line out = match List.rev out with l :: _ -> l | [] -> ""

let inputs out =
  List.find_map
    (fun l -> if String.starts_with ~prefix:"inputs=" l then Some l else None)
    out

let check_run ~workload ~seed ~trace out =
  let r = result_line out in
  if find_after r "\"correct\": true" = None then
    fail "%s seed %d trace %d: output checks failed:\n%s" workload seed trace
      (String.concat "\n" out);
  if find_after r "\"failed\": 0," = None then
    fail "%s seed %d trace %d: failed operations" workload seed trace

let repeat ~workload ~trace metrics =
  let a = run ~workload ~seed:7 ~trace and b = run ~workload ~seed:7 ~trace in
  check_run ~workload ~seed:7 ~trace a;
  check_run ~workload ~seed:7 ~trace b;
  List.iter
    (fun m ->
      match (value (result_line a) m, value (result_line b) m) with
      | Some x, Some y when x = y -> ()
      | x, y ->
          let s = Option.value ~default:"missing" in
          fail "%s trace %d: %s differs between same-seed runs (%s vs %s)"
            workload trace m (s x) (s y))
    metrics;
  a

let () =
  List.iter
    (fun workload ->
      let before = !failures in
      let a = repeat ~workload ~trace:0 exact_e2e in
      ignore (repeat ~workload ~trace:1 exact_layers);
      let c = run ~workload ~seed:8 ~trace:0 in
      check_run ~workload ~seed:8 ~trace:0 c;
      (match (inputs a, inputs c) with
      | Some x, Some y when x <> y -> ()
      | _ -> fail "%s: seeds 7 and 8 generated the same inputs" workload);
      Printf.printf "%s: %s\n%!" workload
        (if !failures = before then "ok" else "FAILED"))
    workloads;
  if !failures > 0 then exit 1
