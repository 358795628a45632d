(* Smoke test of the wall-clock benchmark, run by [dune runtest] with the
   path of BENCHMARK.json as its argument. Every workload runs at toy size,
   plain and traced. The test fails unless no request fails, every metric
   BENCHMARK.json names is emitted with its unit, counts repeat exactly for
   the same seed, self times tile the traced wall, and the audit check
   rejects a deliberately biased sampler. *)

module Json = Cc_obs.Json

let fail fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline ("smoke: " ^ s);
      exit 1)
    fmt

(* The [fields] of every entry of list [key], joined by spaces. *)
let entries spec key fields =
  match Option.bind (Json.member key spec) Json.to_list_opt with
  | None -> fail "BENCHMARK.json has no %s list" key
  | Some entries ->
      List.map
        (fun e ->
          String.concat " "
            (List.map
               (fun f ->
                 match Option.bind (Json.member f e) Json.to_string_opt with
                 | Some v -> v
                 | None -> fail "a %s entry has no %s" key f)
               fields))
        entries

let emitted (o : Measure.outcome) =
  List.sort compare
    (List.map (fun (m : Measure.metric) -> m.name ^ " " ^ m.unit_) o.metrics)

(* Values the program computes deterministically from the seed. *)
let exact (o : Measure.outcome) =
  List.filter
    (fun (m : Measure.metric) ->
      List.exists
        (fun p -> String.starts_with ~prefix:p m.name)
        [ "count."; "ratio."; "rounds_per_req" ])
    o.metrics

let () =
  let spec =
    let ic = open_in_bin Sys.argv.(1) in
    let s = really_input_string ic (in_channel_length ic) in
    close_in ic;
    match Json.of_string s with Ok j -> j | Error e -> fail "BENCHMARK.json: %s" e
  in
  let metrics key = List.sort compare (entries spec key [ "name"; "unit" ]) in
  let end_to_end = metrics "end_to_end" and per_layer = metrics "per_layer" in
  let names = List.map (fun (w : Workloads.t) -> w.name) Workloads.all in
  if entries spec "workloads" [ "name" ] <> names then
    fail "BENCHMARK.json workloads differ from Workloads.all";
  List.iter
    (fun (w : Workloads.t) ->
      let run trace =
        Measure.run w ~size:Workloads.Toy ~seed:1 ~domains:(Cc_engine.default_domains ()) ~limit:(Measure.Requests 6) ~trace
      in
      let plain = run false in
      let traced = run true in
      let again = run true in
      List.iter
        (fun (o : Measure.outcome) ->
          if o.failed <> 0 then
            fail "%s: %d of %d requests failed:\n%s" w.name o.failed o.attempted
              (String.concat "\n" o.info))
        [ plain; traced; again ];
      if emitted plain <> end_to_end then
        fail "%s: plain run emits [%s]" w.name (String.concat ", " (emitted plain));
      if emitted traced <> per_layer then
        fail "%s: traced run emits [%s]" w.name (String.concat ", " (emitted traced));
      if exact traced <> exact again then fail "%s: counts differ between runs" w.name;
      if traced.tiling > 0.02 then
        fail "%s: self times miss the traced wall by %.1f%%" w.name
          (100.0 *. traced.tiling))
    Workloads.all;
  (* Negative control: the edge-marginal audit must reject this sampler. *)
  let g = Cc_graph.Gen.cycle 6 in
  let prng = Cc_util.Prng.create ~seed:1 in
  let trees = List.init 200 (fun _ -> Cc_walks.Wilson.sample_biased g prng) in
  let failed, note = Workloads.audit_check g trees in
  if failed <> List.length trees then fail "biased sampler not rejected: %s" note;
  print_endline "smoke: ok"
