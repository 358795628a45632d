(* Statistical audit plane (lib/audit).

   The seeds and trial counts here are fixed, so every check is
   deterministic: the honest runs must pass their gates and the biased
   fixture must breach them on every machine. *)

module Graph = Cc_graph.Graph
module Gen = Cc_graph.Gen
module Tree = Cc_graph.Tree
module Prng = Cc_util.Prng
module Audit = Cc_audit.Audit

let check_float ?(eps = 1e-9) what expected got =
  Alcotest.(check (float eps)) what expected got

let feed ?(seed = 7) ~trials draw g =
  let aud = Audit.create g in
  let prng = Prng.create ~seed in
  for _ = 1 to trials do
    Audit.observe aud (draw g prng)
  done;
  aud

let gate aud name =
  match
    List.find_opt (fun g -> g.Audit.gate = name) (Audit.verdict aud).Audit.gates
  with
  | Some g -> g
  | None -> Alcotest.failf "gate %s missing from verdict" name

(* --- oracle --- *)

let test_oracle_k4 () =
  (* K4 is edge-transitive: every leverage score is (n-1)/m = 1/2. *)
  let aud = Audit.create (Gen.complete 4) in
  List.iter
    (fun e -> check_float ~eps:1e-7 "leverage" 0.5 e.Audit.leverage)
    (Audit.edge_stats aud);
  Alcotest.(check int) "six edges" 6 (List.length (Audit.edge_stats aud))

let test_oracle_sums_to_tree_size () =
  (* Foster: leverage scores sum to n-1 on any connected graph. *)
  List.iter
    (fun g ->
      let aud = Audit.create g in
      let sum =
        List.fold_left
          (fun acc e -> acc +. e.Audit.leverage)
          0.0 (Audit.edge_stats aud)
      in
      check_float ~eps:1e-6 "sum = n-1" (float_of_int (Graph.n g - 1)) sum)
    [ Gen.complete 5; Gen.cycle 6; Gen.grid ~rows:2 ~cols:3 ]

let test_bridges_on_path () =
  (* Every edge of a tree-shaped graph is a bridge: the bonferroni gate has
     nothing to test and must abstain while bridge-exact applies. *)
  let aud = feed ~trials:64 (fun g p -> Cc_walks.Wilson.sample_tree g p) (Gen.path 5) in
  List.iter
    (fun e -> Alcotest.(check bool) "bridge" true e.Audit.bridge)
    (Audit.edge_stats aud);
  Alcotest.(check bool) "bonferroni abstains" false (gate aud "bonferroni-z").Audit.applied;
  let b = gate aud "bridge-exact" in
  Alcotest.(check bool) "bridge-exact applied, ok" true
    (b.Audit.applied && not b.Audit.breached);
  Alcotest.(check bool) "verdict pass" true (Audit.verdict aud).Audit.pass

(* --- honest vs biased --- *)

let test_honest_wilson_passes () =
  let aud = feed ~trials:400 (fun g p -> Cc_walks.Wilson.sample_tree g p) (Gen.complete 4) in
  let v = Audit.verdict aud in
  Alcotest.(check bool) "pass" true v.Audit.pass;
  Alcotest.(check int) "trials" 400 v.Audit.at_trials;
  Alcotest.(check bool) "max z under threshold" true
    (Audit.max_z aud < Audit.z_threshold aud);
  Alcotest.(check (float 0.0)) "no invalid trees" 0.0
    (gate aud "valid-trees").Audit.statistic

let test_honest_sequential_passes () =
  let aud =
    feed ~trials:400 (fun g p -> Cc_sampler.Sequential.sample_tree g p) (Gen.cycle 6)
  in
  Alcotest.(check bool) "pass" true (Audit.verdict aud).Audit.pass

let test_biased_fixture_rejected () =
  let aud = feed ~trials:300 (fun g p -> Cc_walks.Wilson.sample_biased g p) (Gen.cycle 6) in
  let v = Audit.verdict aud in
  Alcotest.(check bool) "fail" false v.Audit.pass;
  let z = gate aud "bonferroni-z" in
  Alcotest.(check bool) "z gate breached" true (z.Audit.applied && z.Audit.breached);
  Alcotest.(check bool) "statistic clears threshold" true
    (z.Audit.statistic > z.Audit.threshold)

(* --- small-instance exact distribution --- *)

let test_small_distribution () =
  let aud = feed ~trials:500 (fun g p -> Cc_walks.Wilson.sample_tree g p) (Gen.complete 4) in
  (match Audit.small_tv aud with
  | None -> Alcotest.fail "K4 should be small enough to enumerate"
  | Some tv -> Alcotest.(check bool) "tv small" true (tv < 0.15));
  match Audit.of_jsonl (Audit.to_jsonl aud) with
  | Ok { Audit.r_small = Some s; _ } ->
      let kl = s.Audit.r_small_kl in
      Alcotest.(check bool) "kl finite and small" true (kl >= 0.0 && kl < 0.2)
  | Ok _ -> Alcotest.fail "small kl missing"
  | Error e -> Alcotest.failf "reload: %s" e

let test_small_skipped_on_large () =
  (* The exact-distribution layer covers n <= 8 with at most 20,000
     spanning trees: K7 has 16,807, K8 has 262,144, and cycle 9 has n > 8. *)
  let small_gates g =
    List.filter_map
      (fun gt ->
        if String.starts_with ~prefix:"small-" gt.Audit.gate then Some gt.Audit.gate
        else None)
      (Audit.verdict (Audit.create g)).Audit.gates
  in
  Alcotest.(check (list string)) "K7" [ "small-chi2"; "small-support" ]
    (small_gates (Gen.complete 7));
  Alcotest.(check (list string)) "K8" [] (small_gates (Gen.complete 8));
  Alcotest.(check (list string)) "cycle 9" [] (small_gates (Gen.cycle 9));
  Alcotest.(check bool) "no small state" true
    (Audit.small_tv (Audit.create (Gen.cycle 12)) = None)

let test_asymptotic_gates_wait () =
  (* The asymptotic gates abstain below 32 trees. *)
  let g = Gen.complete 4 in
  let aud = feed ~trials:31 (fun g p -> Cc_walks.Wilson.sample_tree g p) g in
  Alcotest.(check bool) "31 trees: bonferroni-z abstains" false
    (gate aud "bonferroni-z").Audit.applied;
  Audit.observe aud (Cc_walks.Wilson.sample_tree g (Prng.create ~seed:8));
  Alcotest.(check bool) "32 trees: bonferroni-z applies" true
    (gate aud "bonferroni-z").Audit.applied

(* --- diagnostics --- *)

let test_features_star () =
  (* A star graph has exactly one spanning tree (itself): the max-degree
     histogram must be a point mass at n-1. *)
  let n = 6 in
  let aud = feed ~trials:20 (fun g p -> Cc_walks.Wilson.sample_tree g p) (Gen.star n) in
  let report =
    match Audit.of_jsonl (Audit.to_jsonl aud) with
    | Ok r -> r
    | Error e -> Alcotest.failf "roundtrip: %s" e
  in
  let feat name =
    match
      List.find_opt (fun f -> f.Audit.feature = name) report.Audit.r_features
    with
    | Some f -> f.Audit.histogram
    | None -> Alcotest.failf "feature %s missing" name
  in
  Alcotest.(check (list (pair int int))) "max degree" [ (n - 1, 20) ] (feat "max_degree");
  Alcotest.(check (list (pair int int))) "leaves" [ (n - 1, 20) ] (feat "leaf_count")

let test_ess_bounds () =
  let trials = 200 in
  let aud =
    feed ~trials (fun g p -> Cc_walks.Aldous_broder.sample_tree g p) (Gen.complete 5)
  in
  let ess = Audit.ess aud in
  Alcotest.(check bool) "1 <= ess <= trials" true
    (ess >= 1.0 && ess <= float_of_int trials)

let test_ess_pooled () =
  (* Er_log 4 at n = 48. Wilson's draws are independent, so the pooled
     estimate reads close to the trial count; feeding each tree four times
     in a row gives a lag-1 autocorrelation of about 3/4, for an ESS of
     about trials / 7. *)
  let trials = 200 in
  let g = Gen.build (Prng.create ~seed:3) (Gen.Er_log 4.0) ~n:48 in
  let wilson = feed ~trials (fun g p -> Cc_walks.Wilson.sample_tree g p) g in
  let ess = Audit.ess wilson in
  Alcotest.(check bool)
    (Printf.sprintf "independent draws: ess %.1f >= 0.8 trials" ess)
    true
    (ess >= 0.8 *. float_of_int trials);
  let repeated = Audit.create g in
  let prng = Prng.create ~seed:7 in
  for _ = 1 to trials / 4 do
    let tree = Cc_walks.Wilson.sample_tree g prng in
    for _ = 1 to 4 do
      Audit.observe repeated tree
    done
  done;
  let ess = Audit.ess repeated in
  Alcotest.(check bool)
    (Printf.sprintf "each tree four times: ess %.1f <= trials / 3" ess)
    true
    (ess <= float_of_int trials /. 3.0)

(* --- robustness --- *)

let test_invalid_tree_breaches () =
  (* A star is not a subgraph of the path, so observing it must land in the
     invalid count and flip the valid-trees gate. *)
  let aud = Audit.create (Gen.path 4) in
  Audit.observe aud (Tree.of_edges ~n:4 [ (0, 1); (0, 2); (0, 3) ]);
  let v = gate aud "valid-trees" in
  Alcotest.(check (float 0.0)) "invalid counted" 1.0 v.Audit.statistic;
  Alcotest.(check int) "not a trial" 0 (Audit.verdict aud).Audit.at_trials;
  Alcotest.(check bool) "valid-trees breached" true
    (v.Audit.applied && v.Audit.breached);
  Alcotest.(check bool) "verdict fail" false (Audit.verdict aud).Audit.pass

let test_create_rejects_bad_input () =
  let disconnected = Graph.of_unweighted_edges ~n:4 [ (0, 1); (2, 3) ] in
  Alcotest.(check bool) "disconnected rejected" true
    (match Audit.create disconnected with
    | exception Invalid_argument _ -> true
    | _ -> false);
  Alcotest.(check bool) "alpha out of range rejected" true
    (match Audit.create ~alpha:1.5 (Gen.complete 4) with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* --- artifact --- *)

let test_artifact_roundtrip () =
  let g = Gen.complete 4 in
  let aud = feed ~trials:256 (fun g p -> Cc_walks.Wilson.sample_tree g p) g in
  match Audit.of_jsonl (Audit.to_jsonl aud) with
  | Error e -> Alcotest.failf "roundtrip: %s" e
  | Ok r ->
      Alcotest.(check int) "n" 4 r.Audit.r_n;
      Alcotest.(check int) "m" 6 r.Audit.r_m;
      Alcotest.(check int) "trials" 256 r.Audit.r_trials;
      Alcotest.(check int) "edges" 6 (List.length r.Audit.r_edges);
      Alcotest.(check bool) "snapshots at powers of two" true
        (List.exists (fun s -> s.Audit.at = 256) r.Audit.r_snapshots);
      (match r.Audit.r_verdict with
      | None -> Alcotest.fail "verdict line missing"
      | Some v ->
          Alcotest.(check bool) "verdict agrees" (Audit.verdict aud).Audit.pass
            v.Audit.pass);
      (match r.Audit.r_small with
      | None -> Alcotest.fail "small line missing on K4"
      | Some s -> Alcotest.(check int) "support" 16 s.Audit.support)

let test_artifact_rejects_garbage () =
  (match Audit.of_jsonl "not json at all" with
  | Ok _ -> Alcotest.fail "garbage accepted"
  | Error _ -> ());
  match Audit.of_jsonl "{\"type\":\"edge\"}\n" with
  | Ok _ -> Alcotest.fail "missing header accepted"
  | Error _ -> ()

let test_artifact_error_names_physical_line () =
  (* Blank lines count toward the number an error names. *)
  match Audit.of_jsonl "\n\n{\"type\":\"edge\"}\n" with
  | Ok _ -> Alcotest.fail "an edge without fields accepted"
  | Error e ->
      Alcotest.(check string) "physical line" {|line 3: missing field "u"|} e

(* --- zero perturbation --- *)

let test_zero_perturbation_digest () =
  (* The full distributed sampler, same seed, with and without an auditor
     observing each tree between draws: the recorder digest and the sampled
     trees must be identical — observation draws no randomness and books no
     rounds. *)
  let g = Gen.lollipop ~clique:5 ~tail:3 in
  let run ~audited =
    let net = Cc_clique.Net.create ~n:(Graph.n g) in
    let rec_ = Cc_obs.Recorder.create ~machines:(Graph.n g) () in
    Cc_clique.Net.add_sink net (Cc_obs.Recorder.add rec_);
    let prng = Prng.create ~seed:41 in
    let aud = if audited then Some (Audit.create g) else None in
    let trees =
      List.init 2 (fun _ ->
          let t = (Cc_sampler.Sampler.sample net prng g).Cc_sampler.Sampler.tree in
          Option.iter (fun a -> Audit.observe a t) aud;
          t)
    in
    (Cc_obs.Recorder.digest_hex rec_, trees, aud)
  in
  let d0, t0, _ = run ~audited:false in
  let d1, t1, aud = run ~audited:true in
  Alcotest.(check string) "digest identical" d0 d1;
  Alcotest.(check bool) "trees identical" true
    (List.map Tree.edges t0 = List.map Tree.edges t1);
  match aud with
  | None -> Alcotest.fail "auditor missing"
  | Some aud ->
      Alcotest.(check int) "auditor saw both trees" 2 (Audit.verdict aud).Audit.at_trials

let () =
  Alcotest.run "cc_audit"
    [
      ( "oracle",
        [
          Alcotest.test_case "K4 leverage" `Quick test_oracle_k4;
          Alcotest.test_case "Foster sum" `Quick test_oracle_sums_to_tree_size;
          Alcotest.test_case "bridges on path" `Quick test_bridges_on_path;
        ] );
      ( "gates",
        [
          Alcotest.test_case "honest Wilson passes" `Quick test_honest_wilson_passes;
          Alcotest.test_case "honest Sequential passes" `Quick
            test_honest_sequential_passes;
          Alcotest.test_case "biased fixture rejected" `Quick
            test_biased_fixture_rejected;
          Alcotest.test_case "invalid tree breaches" `Quick test_invalid_tree_breaches;
          Alcotest.test_case "asymptotic gates wait for 32 trees" `Quick
            test_asymptotic_gates_wait;
        ] );
      ( "small",
        [
          Alcotest.test_case "exact distribution" `Quick test_small_distribution;
          Alcotest.test_case "switched off when large" `Quick
            test_small_skipped_on_large;
        ] );
      ( "diagnostics",
        [
          Alcotest.test_case "star features" `Quick test_features_star;
          Alcotest.test_case "ess bounds" `Quick test_ess_bounds;
          Alcotest.test_case "ess pooled across edges" `Quick test_ess_pooled;
        ] );
      ( "robustness",
        [
          Alcotest.test_case "rejects bad input" `Quick test_create_rejects_bad_input;
          Alcotest.test_case "zero perturbation" `Quick test_zero_perturbation_digest;
        ] );
      ( "artifact",
        [
          Alcotest.test_case "roundtrip" `Quick test_artifact_roundtrip;
          Alcotest.test_case "rejects garbage" `Quick test_artifact_rejects_garbage;
          Alcotest.test_case "error names the physical line" `Quick
            test_artifact_error_names_physical_line;
        ] );
    ]
