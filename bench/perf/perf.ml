(* Wall-clock benchmark of the spanning-tree samplers, end to end and per
   layer.

     dune exec bench/perf/perf.exe -- --workload W [--seed N] [--seconds S]
       [--domains D] [--trace 0|1] [--json FILE]

   A plain run prints every end-to-end metric; [--trace 1] prints the
   per-layer self times and counts instead. [--seconds] sizes the batch of
   requests at the workload's reference rate, so a run takes about that
   long on the reference host and the same requests on any host.
   [--workload all] re-executes this binary once per workload, so set-up
   time and peak RSS stay per workload. The last line of stdout is one
   JSON object:
   {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}. *)

module Json = Cc_obs.Json

let result_json (o : Measure.outcome) =
  Json.Obj
    [
      ("correct", Json.Bool (o.failed = 0));
      ("attempted", Json.Int o.attempted);
      ("failed", Json.Int o.failed);
      ( "metrics",
        Json.Obj
          (List.map
             (fun (m : Measure.metric) ->
               let unit_ = Json.String m.unit_ in
               (m.name, Json.Obj [ ("value", Json.Float m.value); ("unit", unit_) ]))
             o.metrics) );
    ]

let write_file path s =
  let oc = open_out path in
  output_string oc s;
  close_out oc

let report (w : Workloads.t) ~seed ~domains ~seconds ~trace ~json =
  let o =
    Measure.run w ~size:Workloads.Full ~seed ~domains ~limit:(Measure.Seconds seconds) ~trace
  in
  Printf.printf "# workload %s seed %d trace %d\n" w.name seed (if trace then 1 else 0);
  List.iter (fun line -> Printf.printf "# %s\n" line) o.info;
  if trace then begin
    let total = List.fold_left (fun acc (_, ms) -> acc +. ms) 0.0 o.spans in
    Printf.printf "# %-24s %12s %7s\n" "span (self time)" "ms/request" "share";
    List.iter
      (fun (span, ms) ->
        Printf.printf "# %-24s %12.3f %6.1f%%\n" span ms (100.0 *. ms /. total))
      (List.sort (fun (_, a) (_, b) -> Float.compare b a) o.spans)
  end;
  List.iter
    (fun (m : Measure.metric) -> Printf.printf "%-24s %14.6g %s\n" m.name m.value m.unit_)
    o.metrics;
  let result = Json.to_string (result_json o) in
  if json <> "" then
    write_file json
      (Json.to_string
         (Json.Obj
            [
              ("workload", Json.String w.name);
              ("seed", Json.Int seed);
              ("info", Json.List (List.map (fun l -> Json.String l) o.info));
              ("result", result_json o);
            ]));
  print_endline result

(* One child process per workload; each child's last stdout line is its
   result. Exits 1 unless every child exited 0 with a correct result. *)
let run_all args ~json =
  let results =
    List.map
      (fun (w : Workloads.t) ->
        let argv = Array.of_list (Sys.executable_name :: "--workload" :: w.name :: args) in
        let ic = Unix.open_process_args_in Sys.executable_name argv in
        let last = ref "" in
        (try
           while true do
             let line = input_line ic in
             print_endline line;
             last := line
           done
         with End_of_file -> ());
        let ok =
          Unix.close_process_in ic = Unix.WEXITED 0
          &&
          match Json.of_string !last with
          | Ok j -> Json.member "correct" j = Some (Json.Bool true)
          | Error _ -> false
        in
        let result = match Json.of_string !last with Ok j -> j | Error _ -> Json.Null in
        (w.name, ok, result))
      Workloads.all
  in
  if json <> "" then
    write_file json
      (Json.to_string (Json.Obj (List.map (fun (n, _, r) -> (n, r)) results)));
  if not (List.for_all (fun (_, ok, _) -> ok) results) then exit 1

let () =
  let workload = ref "" in
  let seed = ref 1 in
  let domains = ref 1 in
  let seconds = ref 20.0 in
  let trace = ref 0 in
  let json = ref "" in
  let spec =
    [
      ( "--workload",
        Arg.Set_string workload,
        "NAME cc_lollipop, cc_expander, serve_mix, oracle_sparsify or all" );
      ("--seed", Arg.Set_int seed, "N input seed (default 1)");
      ("--domains", Arg.Set_int domains, "N domains of the engine (default 1)");
      ("--seconds", Arg.Set_float seconds, "S run length on the reference host (default 20)");
      ("--trace", Arg.Set_int trace, "0|1 report per-layer metrics from a traced replay");
      ("--json", Arg.Set_string json, "FILE also write the result to FILE");
    ]
  in
  let usage = "perf.exe --workload NAME [options]" in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  let fail msg =
    prerr_endline ("perf: " ^ msg);
    Arg.usage spec usage;
    exit 2
  in
  if !trace <> 0 && !trace <> 1 then fail "--trace takes 0 or 1";
  if !seconds <= 0.0 then fail "--seconds must be positive";
  if !domains < 1 then fail "--domains must be at least 1";
  match (!workload, Workloads.find !workload) with
  | "all", _ ->
      run_all ~json:!json
        [ "--seed"; string_of_int !seed; "--domains"; string_of_int !domains;
          "--seconds"; string_of_float !seconds; "--trace"; string_of_int !trace ]
  | _, Some w ->
      report w ~seed:!seed ~domains:!domains ~seconds:!seconds ~trace:(!trace = 1) ~json:!json
  | name, None -> fail (Printf.sprintf "unknown workload %S" name)
