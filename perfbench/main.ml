(* Command line of the repository benchmark:

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   prints notes, then one JSON line with the run's result. [--ticks N]
   replaces the timed window with exactly N ticks (the exact-repeat
   self-test). *)

let workloads =
  [
    ("table-churn", Perfbench.Churn.setup);
    ("experiment-fanout", Perfbench.Fanout.setup);
    ("forward-mix", Perfbench.Fwdmix.setup);
  ]

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. in
  let trace = ref 0 and ticks = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S timed window");
      ("--trace", Arg.Set_int trace, "0|1 traced per-layer run");
      ("--ticks", Arg.Set_int ticks, "N run exactly N ticks instead");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME --seed N --seconds S --trace 0|1";
  match List.assoc_opt !workload workloads with
  | None ->
      prerr_endline
        ("unknown workload; one of: "
        ^ String.concat ", " (List.map fst workloads));
      exit 2
  | Some setup ->
      let mode =
        if !ticks > 0 then Perfbench.Harness.Ticks !ticks
        else Perfbench.Harness.Seconds !seconds
      in
      let report =
        Perfbench.Harness.run
          ~setup:(fun () -> setup ~seed:!seed)
          ~mode ~trace:(!trace = 1)
      in
      Perfbench.Harness.print report
