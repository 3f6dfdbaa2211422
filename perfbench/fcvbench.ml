(* The repository benchmark: one workload, one seed, a fixed measuring
   time; checks the program's outputs and prints its metrics, with the
   JSON result as the last line.  perfbench/run.py builds and calls it:

     fcvbench.exe --workload audit|watch --seed N --seconds S --trace 0|1
                  --spec BENCHMARK.json --fcv PATH --work DIR

   [--trace 0] prints the end-to-end metrics, [--trace 1] the per-layer
   ones; BENCHMARK.json's lists give their names and units (see
   README.md).  Exits 1 when an output check failed. *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let spec = ref "" and fcv = ref "" and work = ref "" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME audit | watch");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measuring time");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end or per-layer metrics");
      ("--spec", Arg.Set_string spec, "PATH BENCHMARK.json, the metric catalogue");
      ("--fcv", Arg.Set_string fcv, "PATH the fcv binary (watch)");
      ("--work", Arg.Set_string work, "DIR working directory for inputs and daemon state");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "fcvbench --workload NAME --seed N --seconds S --trace 0|1 --spec PATH --fcv PATH --work DIR";
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let trace = !trace = 1 in
  let catalogue = Measure.catalogue ~spec:!spec (if trace then "per_layer" else "end_to_end") in
  let seed = !seed and seconds = !seconds in
  let run () =
    match !workload with
    | "audit" -> Audit.run ~seed ~seconds ~trace
    | "watch" -> Watch.run ~fcv:!fcv ~work:!work ~seed ~seconds ~trace
    | w ->
      prerr_endline ("fcvbench: unknown workload " ^ w);
      exit 2
  in
  match Fun.protect ~finally:Watch.kill_all run with
  | r -> if not (Measure.finish r ~catalogue ~fill:trace) then exit 1
  | exception e ->
    Printf.printf "FAIL: %s\n" (Printexc.to_string e);
    exit 1
