(* Tests for Cc_congest: the CONGEST simulator and the two walk baselines
   (step-by-step and Das Sarma et al. stitching). *)

module Graph = Cc_graph.Graph
module Gen = Cc_graph.Gen
module Tree = Cc_graph.Tree
module Cnet = Cc_congest.Cnet
module Congest_walk = Cc_congest.Congest_walk
module Prng = Cc_util.Prng
module Dist = Cc_util.Dist
module Stats = Cc_util.Stats

(* --- Cnet --- *)

let test_exchange_adjacency () =
  let net = Cnet.create (Gen.path 4) in
  Cnet.exchange net [ { Cnet.src = 0; dst = 1; words = 1 } ];
  Alcotest.(check (float 1e-9)) "1 round" 1.0 (Cnet.rounds net);
  Alcotest.check_raises "non-adjacent"
    (Invalid_argument "Cnet.exchange: endpoints not adjacent") (fun () ->
      Cnet.exchange net [ { Cnet.src = 0; dst = 3; words = 1 } ])

let test_exchange_congestion () =
  (* Two packets over the same directed edge serialize. *)
  let net = Cnet.create (Gen.star 5) in
  Cnet.exchange net
    [
      { Cnet.src = 1; dst = 0; words = 2 };
      { Cnet.src = 1; dst = 0; words = 3 };
      { Cnet.src = 2; dst = 0; words = 1 };
    ];
  Alcotest.(check (float 1e-9)) "max directed edge load" 5.0 (Cnet.rounds net)

let test_depth () =
  Alcotest.(check int) "path depth" 7 (Cnet.depth (Cnet.create (Gen.path 8)));
  Alcotest.(check int) "star depth" 1 (Cnet.depth (Cnet.create (Gen.star 8)));
  Alcotest.(check int) "clique depth" 1 (Cnet.depth (Cnet.create (Gen.complete 8)))

let test_token_route_cost () =
  let net = Cnet.create (Gen.path 8) in
  (* 0..7 path rooted at 0: routing 3 -> 6 over the tree costs
     (dist 3) + (dist 6) = 9 hops. *)
  let r = Cnet.token_route net ~src:3 ~dst:6 ~words:1 in
  Alcotest.(check (float 1e-9)) "hops" 9.0 r;
  Alcotest.(check (float 1e-9)) "self is free" 0.0
    (Cnet.token_route net ~src:3 ~dst:3 ~words:5)

let test_charge_totals () =
  let net = Cnet.create (Gen.cycle 5) in
  Alcotest.(check (float 0.0)) "fresh net" 0.0 (Cnet.rounds net);
  Cnet.charge net 3.0;
  Cnet.charge net 1.0;
  Cnet.charge net 2.0;
  Alcotest.(check (float 1e-9)) "total rounds" 6.0 (Cnet.rounds net)

(* --- baselines --- *)

let test_step_by_step_tree_and_cost () =
  let prng = Prng.create ~seed:1 in
  let g = Gen.lollipop ~clique:5 ~tail:4 in
  let net = Cnet.create g in
  let r = Congest_walk.step_by_step net prng in
  Alcotest.(check bool) "valid tree" true (Tree.is_spanning_tree g r.Congest_walk.tree);
  (* One round per walk step, exactly. *)
  Alcotest.(check (float 1e-9)) "rounds = steps"
    (float_of_int r.Congest_walk.walk_length)
    r.Congest_walk.rounds

let test_das_sarma_tree_valid () =
  let prng = Prng.create ~seed:2 in
  let g = Gen.lollipop ~clique:6 ~tail:6 in
  let net = Cnet.create g in
  let r = Congest_walk.das_sarma net prng ~lambda:16 ~eta:4 in
  Alcotest.(check bool) "valid tree" true (Tree.is_spanning_tree g r.Congest_walk.tree);
  Alcotest.(check bool) "stitched" true (r.Congest_walk.stitches > 0)

let test_das_sarma_beats_step_by_step_on_lollipop () =
  let g = Gen.lollipop ~clique:16 ~tail:16 in
  let trials = 3 in
  let total_step = ref 0.0 and total_ds = ref 0.0 in
  for seed = 1 to trials do
    let prng = Prng.create ~seed in
    let net = Cnet.create g in
    total_step := !total_step +. (Congest_walk.step_by_step net prng).Congest_walk.rounds;
    let net2 = Cnet.create g in
    let lambda = Congest_walk.auto_lambda net2 ~walk_estimate:(32 * 32 * 32 / 8) in
    total_ds :=
      !total_ds +. (Congest_walk.das_sarma net2 prng ~lambda ~eta:4).Congest_walk.rounds
  done;
  Alcotest.(check bool)
    (Printf.sprintf "das sarma %.0f < step %.0f" !total_ds !total_step)
    true
    (!total_ds < !total_step)

let test_das_sarma_uniform_k4 () =
  (* The stitched walk is still a faithful Aldous-Broder run. *)
  let g = Gen.complete 4 in
  let trees, lookup = Tree.index g in
  let counts = Array.make (Array.length trees) 0 in
  let prng = Prng.create ~seed:3 in
  let trials = 12_000 in
  for _ = 1 to trials do
    let net = Cnet.create g in
    let r = Congest_walk.das_sarma net prng ~lambda:4 ~eta:2 in
    counts.(lookup r.Congest_walk.tree) <- counts.(lookup r.Congest_walk.tree) + 1
  done;
  let tv = Dist.tv_counts ~counts (Dist.uniform 16) in
  let floor = 3.0 *. Stats.tv_noise_floor ~samples:trials ~support:16 +. 0.01 in
  Alcotest.(check bool) (Printf.sprintf "tv %.4f < %.4f" tv floor) true (tv < floor)

let test_auto_lambda () =
  let net = Cnet.create (Gen.path 10) in
  (* depth 9, estimate 100: sqrt(900) = 30. *)
  Alcotest.(check int) "balanced" 30 (Congest_walk.auto_lambda net ~walk_estimate:100)

(* --- qcheck --- *)

let qcheck_tests =
  let open QCheck in
  [
    Test.make ~name:"both baselines yield spanning trees" ~count:20
      (make Gen.(pair (int_range 4 10) (int_range 0 10_000)))
      (fun (n, seed) ->
        let prng = Prng.create ~seed in
        let g = Cc_graph.Gen.random_connected prng ~n ~extra_edges:3 in
        let net = Cnet.create g in
        let r1 = Congest_walk.step_by_step net prng in
        let r2 = Congest_walk.das_sarma net prng ~lambda:8 ~eta:2 in
        Tree.is_spanning_tree g r1.Congest_walk.tree
        && Tree.is_spanning_tree g r2.Congest_walk.tree);
    Test.make ~name:"exchange rounds equal max directed-edge load" ~count:100
      (make Gen.(pair (int_range 3 8) (list_size (int_range 1 20) (int_range 0 6))))
      (fun (n, raw) ->
        let g = Cc_graph.Gen.cycle n in
        let net = Cnet.create g in
        let packets =
          List.map
            (fun r ->
              let src = r mod n in
              let dst = (src + 1) mod n in
              { Cnet.src; dst; words = 1 + (r mod 3) })
            raw
        in
        Cnet.exchange net packets;
        let load = Hashtbl.create 16 in
        List.iter
          (fun { Cnet.src; dst; words } ->
            Hashtbl.replace load (src, dst)
              (words + Option.value ~default:0 (Hashtbl.find_opt load (src, dst))))
          packets;
        let expected = Hashtbl.fold (fun _ w acc -> max w acc) load 0 in
        Float.abs (Cnet.rounds net -. Float.of_int expected) < 1e-9);
  ]

let () =
  let qsuite = List.map QCheck_alcotest.to_alcotest qcheck_tests in
  Alcotest.run "cc_congest"
    [
      ( "cnet",
        [
          Alcotest.test_case "adjacency" `Quick test_exchange_adjacency;
          Alcotest.test_case "congestion" `Quick test_exchange_congestion;
          Alcotest.test_case "depth" `Quick test_depth;
          Alcotest.test_case "token route" `Quick test_token_route_cost;
          Alcotest.test_case "reset/ledger" `Quick test_charge_totals;
        ] );
      ( "baselines",
        [
          Alcotest.test_case "step-by-step" `Quick test_step_by_step_tree_and_cost;
          Alcotest.test_case "das sarma valid" `Quick test_das_sarma_tree_valid;
          Alcotest.test_case "das sarma wins" `Slow test_das_sarma_beats_step_by_step_on_lollipop;
          Alcotest.test_case "das sarma uniform" `Slow test_das_sarma_uniform_k4;
          Alcotest.test_case "auto lambda" `Quick test_auto_lambda;
        ] );
      ("properties", qsuite);
    ]
