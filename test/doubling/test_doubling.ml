(* Tests for Cc_doubling: the load-balanced doubling algorithm (Section 4),
   its unbalanced BCX baseline, Corollary 1-2 tree sampling, and the PageRank
   application. *)

module Graph = Cc_graph.Graph
module Gen = Cc_graph.Gen
module Tree = Cc_graph.Tree
module Walk = Cc_walks.Walk
module Doubling = Cc_doubling.Doubling
module Net = Cc_clique.Net
module Fault = Cc_clique.Fault
module Prng = Cc_util.Prng
module Dist = Cc_util.Dist
module Stats = Cc_util.Stats

let run_walks ?(seed = 1) ?(scheme = Doubling.Load_balanced) g tau =
  let net = Net.create ~n:(Graph.n g) in
  let prng = Prng.create ~seed in
  Doubling.run net prng g ~tau ~scheme

(* --- structural validity --- *)

let test_walks_are_valid () =
  let g = Gen.cycle 12 in
  let r = run_walks g 16 in
  Alcotest.(check int) "one walk per vertex" 12 (Array.length r.Doubling.walks);
  Array.iteri
    (fun v w ->
      Alcotest.(check int) "length 17" 17 (Array.length w);
      Alcotest.(check int) "starts at v" v w.(0);
      for i = 1 to Array.length w - 1 do
        if not (Graph.has_edge g w.(i - 1) w.(i)) then
          Alcotest.failf "vertex %d step %d invalid" v i
      done)
    r.Doubling.walks

let test_tau_not_power_of_two () =
  let g = Gen.cycle 8 in
  let r = run_walks g 11 in
  (* Rounded up to 16. *)
  Array.iter
    (fun w -> Alcotest.(check int) "length 17" 17 (Array.length w))
    r.Doubling.walks

let test_iterations_logarithmic () =
  let g = Gen.cycle 8 in
  let r = run_walks g 64 in
  Alcotest.(check int) "log2 64 iterations" 6 r.Doubling.iterations

let test_unbalanced_walks_also_valid () =
  let g = Gen.star 10 in
  let r = run_walks ~scheme:Doubling.Unbalanced g 8 in
  Array.iteri
    (fun v w ->
      Alcotest.(check int) "starts at v" v w.(0);
      for i = 1 to Array.length w - 1 do
        if not (Graph.has_edge g w.(i - 1) w.(i)) then
          Alcotest.failf "vertex %d step %d invalid" v i
      done)
    r.Doubling.walks

(* --- distributional correctness --- *)

let test_endpoint_distribution () =
  (* Each vertex's walk is a true random walk: endpoint law = P^tau row.
     Walks from different vertices are correlated, but each is marginally
     correct — histogram over independent runs. *)
  let g = Gen.complete 5 in
  let tau = 8 in
  let exact = Shared.endpoint_distribution g ~start:0 ~len:tau in
  let counts = Array.make 5 0 in
  let trials = 6000 in
  let n = Graph.n g in
  let net = Net.create ~n in
  let prng = Prng.create ~seed:3 in
  for _ = 1 to trials do
    let r = Doubling.run net prng g ~tau ~scheme:Doubling.Load_balanced in
    let w = r.Doubling.walks.(0) in
    counts.(w.(tau)) <- counts.(w.(tau)) + 1
  done;
  let tv = Dist.tv_counts ~counts exact in
  Alcotest.(check bool) (Printf.sprintf "endpoint tv %.4f" tv) true (tv < 0.03)

let test_interior_marginal () =
  let g = Gen.cycle 6 in
  let tau = 8 and probe = 5 in
  let exact = Shared.endpoint_distribution g ~start:2 ~len:probe in
  let counts = Array.make 6 0 in
  let trials = 6000 in
  let net = Net.create ~n:6 in
  let prng = Prng.create ~seed:4 in
  for _ = 1 to trials do
    let r = Doubling.run net prng g ~tau ~scheme:Doubling.Load_balanced in
    let w = r.Doubling.walks.(2) in
    counts.(w.(probe)) <- counts.(w.(probe)) + 1
  done;
  let tv = Dist.tv_counts ~counts exact in
  Alcotest.(check bool) (Printf.sprintf "interior tv %.4f" tv) true (tv < 0.03)

let test_walks_share_randomness_but_each_is_valid () =
  (* The index-based merge makes walks from different vertices share suffixes
     (the paper notes they are not independent); check that sharing actually
     happens — two walks ending at a common vertex mid-way continue
     identically — while every walk stays individually valid. *)
  let g = Gen.complete 6 in
  let net = Net.create ~n:6 in
  let prng = Prng.create ~seed:40 in
  let r = Doubling.run net prng g ~tau:16 ~scheme:Doubling.Load_balanced in
  let shared = ref false in
  let w = r.Doubling.walks in
  for a = 0 to 5 do
    for b = a + 1 to 5 do
      for i = 1 to 15 do
        if w.(a).(i) = w.(b).(i) && w.(a).(i + 1) = w.(b).(i + 1) then
          shared := true
      done
    done
  done;
  Alcotest.(check bool) "some suffix sharing occurs" true !shared

let test_doubling_deterministic_given_seed () =
  let g = Gen.cycle 7 in
  let run seed =
    let net = Net.create ~n:7 in
    (Doubling.run net (Prng.create ~seed) g ~tau:8 ~scheme:Doubling.Load_balanced)
      .Doubling.walks
  in
  Alcotest.(check bool) "same seed, same walks" true (run 9 = run 9);
  Alcotest.(check bool) "different seeds differ" true (run 9 <> run 10)

(* --- fault tolerance --- *)

let check_walks_valid g tau r =
  Array.iteri
    (fun v w ->
      Alcotest.(check int) "length" (tau + 1) (Array.length w);
      Alcotest.(check int) "starts at v" v w.(0);
      for i = 1 to Array.length w - 1 do
        if not (Graph.has_edge g w.(i - 1) w.(i)) then
          Alcotest.failf "vertex %d step %d invalid under faults" v i
      done)
    r.Doubling.walks

let run_faulty ?(seed = 1) spec g tau =
  let n = Graph.n g in
  let net = Net.with_faults (Fault.create spec) (Net.create ~n) in
  let prng = Prng.create ~seed in
  (Doubling.run net prng g ~tau ~scheme:Doubling.Load_balanced, net)

let test_faulty_drops_heal () =
  let g = Gen.cycle 12 in
  let r, net = run_faulty (Fault.spec ~drop_prob:0.1 ~seed:3 ()) g 16 in
  check_walks_valid g 16 r;
  (match r.Doubling.health with
  | Fault.Healed { retransmits; _ } ->
      Alcotest.(check bool) "retransmits counted" true (retransmits > 0)
  | h -> Alcotest.failf "expected Healed, got %a" Fault.pp_health h);
  let labels = List.map (fun (l, _, _, _) -> l) (Net.ledger net) in
  Alcotest.(check bool) "retry labels in ledger" true
    (List.exists
       (fun l -> String.length l > 6 && Filename.check_suffix l ":retry")
       labels);
  Alcotest.(check bool) "overhead metered" true (Net.overhead_rounds net > 0.0)

let test_faulty_walks_match_fault_free () =
  (* The fault stream must not perturb the algorithm's randomness: healed
     walks are bit-identical to the fault-free run at the same seed. *)
  let g = Gen.cycle 12 in
  let clean = run_walks ~seed:4 g 16 in
  let healed, _ = run_faulty ~seed:4 (Fault.spec ~drop_prob:0.1 ~seed:5 ()) g 16 in
  Alcotest.(check bool) "identical walks" true
    (clean.Doubling.walks = healed.Doubling.walks)

let test_noncoordinator_crash_recovers () =
  (* Any single non-coordinator crash must yield a correct (recovered or
     gracefully degraded) result; an exception is the only failure mode. *)
  let g = Gen.cycle 10 in
  for victim = 1 to 9 do
    let spec = Fault.spec ~crashes:[ (victim, 2.0) ] ~seed:victim () in
    let r, _ = run_faulty ~seed:8 spec g 16 in
    check_walks_valid g 16 r;
    match r.Doubling.health with
    | Fault.Healthy -> ()  (* crash fired after the last iteration *)
    | Fault.Healed { reroutes; _ } ->
        Alcotest.(check bool)
          (Printf.sprintf "victim %d rerouted" victim)
          true (reroutes > 0)
    | Fault.Unrecoverable _ as h ->
        Alcotest.failf "single non-coordinator crash degraded: %a"
          Fault.pp_health h
  done

let test_coordinator_crash_degrades_structurally () =
  let g = Gen.cycle 10 in
  let spec = Fault.spec ~crashes:[ (0, 1.0) ] () in
  let r, net = run_faulty ~seed:2 spec g 16 in
  (* Never an exception: valid fallback walks + structured failure. *)
  check_walks_valid g 16 r;
  (match r.Doubling.health with
  | Fault.Unrecoverable { crashed; _ } ->
      Alcotest.(check (list int)) "names the crash" [ 0 ] crashed
  | h -> Alcotest.failf "expected Unrecoverable, got %a" Fault.pp_health h);
  Alcotest.(check bool) "fallback metered as overhead" true
    (Net.overhead_rounds net > 0.0)

let test_fault_seed_determinism () =
  let g = Gen.cycle 12 in
  let go () =
    let r, net =
      run_faulty ~seed:4
        (Fault.spec ~drop_prob:0.1 ~corrupt_prob:0.02 ~seed:9 ())
        g 16
    in
    (r.Doubling.walks, r.Doubling.health, Net.ledger net, Net.retransmits net)
  in
  Alcotest.(check bool) "bit-identical reruns" true (go () = go ())

(* --- load balancing (Lemma 4) --- *)

let test_load_balanced_beats_unbalanced_on_star () =
  (* On a star, half of all walks end at the center: the unbalanced scheme
     funnels ~k*n/2 tuples into one machine while hashing spreads them. *)
  let n = 24 in
  let g = Gen.star n in
  let tau = 32 in
  let r_lb = run_walks ~seed:5 g tau in
  let r_ub = run_walks ~seed:5 ~scheme:Doubling.Unbalanced g tau in
  let max_lb = Array.fold_left max 0 r_lb.Doubling.max_tuples_received in
  let max_ub = Array.fold_left max 0 r_ub.Doubling.max_tuples_received in
  Alcotest.(check bool)
    (Printf.sprintf "lb %d < ub %d" max_lb max_ub)
    true
    (max_lb * 2 < max_ub);
  Alcotest.(check bool) "fewer rounds too" true
    (r_lb.Doubling.rounds <= r_ub.Doubling.rounds)

let test_lemma4_bound_holds () =
  let n = 32 in
  let g = Gen.star n in
  let r = run_walks ~seed:6 g 64 in
  (* First iteration has the largest k = tau. *)
  let bound = Doubling.lemma4_bound ~n ~k:64 ~c:1.0 in
  Array.iter
    (fun load ->
      if float_of_int load > bound then
        Alcotest.failf "load %d exceeds Lemma 4 bound %.0f" load bound)
    r.Doubling.max_tuples_received

(* --- Corollary 1-2: spanning trees --- *)

let test_sample_tree_valid () =
  let g = Gen.lollipop ~clique:5 ~tail:4 in
  let net = Net.create ~n:9 in
  let prng = Prng.create ~seed:7 in
  for _ = 1 to 10 do
    let tree, tau = Doubling.sample_tree net prng g ~tau0:8 in
    Alcotest.(check bool) "valid" true (Tree.is_spanning_tree g tree);
    Alcotest.(check bool) "tau grew enough" true (tau >= 8)
  done

let test_sample_tree_uniform_k4 () =
  let g = Gen.complete 4 in
  let trees, lookup = Tree.index g in
  let counts = Array.make (Array.length trees) 0 in
  let net = Net.create ~n:4 in
  let prng = Prng.create ~seed:8 in
  let trials = 20_000 in
  for _ = 1 to trials do
    let tree, _ = Doubling.sample_tree net prng g ~tau0:8 in
    counts.(lookup tree) <- counts.(lookup tree) + 1
  done;
  let tv = Dist.tv_counts ~counts (Dist.uniform 16) in
  let floor = 3.0 *. Stats.tv_noise_floor ~samples:trials ~support:16 in
  Alcotest.(check bool) (Printf.sprintf "tv %.4f < %.4f" tv floor) true (tv < floor)

let test_er_tree_rounds_within_theorem1_bound () =
  (* Corollary 1-2 regime: the rounds spent sampling a tree on an ER graph
     stay within a constant factor of the Theorem 1 bound
     O((tau/n) log tau log n) for the total walk length tau actually used.
     (The asymptotic win over the tau-round step-by-step baseline appears
     only once n >> log tau * log n; here we verify the bound's shape.) *)
  let prng = Prng.create ~seed:9 in
  let n = 64 in
  let g = Gen.erdos_renyi_connected prng ~n ~p:(4.0 *. Float.log (float_of_int n) /. float_of_int n) in
  let net = Net.create ~n in
  let tree, tau = Doubling.sample_tree net prng g ~tau0:(4 * n) in
  Alcotest.(check bool) "valid" true (Tree.is_spanning_tree g tree);
  let tau_f = float_of_int (max tau n) in
  let bound =
    8.0 *. (tau_f /. float_of_int n) *. Float.log2 tau_f *. Float.log2 (float_of_int n)
    +. 100.0
  in
  Alcotest.(check bool)
    (Printf.sprintf "rounds %.0f within bound %.0f (tau=%d)" (Net.rounds net) bound tau)
    true
    (Net.rounds net < bound)

let test_sample_tree_refuses_disconnected () =
  (* Two components: the doubling loop would double tau forever. *)
  let g = Graph.of_edges ~n:4 [ (0, 1, 1.0); (2, 3, 1.0) ] in
  Alcotest.check_raises "disconnected"
    (Invalid_argument "Doubling.sample_tree: graph must be connected")
    (fun () ->
      ignore (Doubling.sample_tree (Net.create ~n:4) (Prng.create ~seed:1) g ~tau0:4))

(* --- PageRank application --- *)

let test_pagerank_close_to_power_iteration () =
  let prng = Prng.create ~seed:10 in
  let n = 24 in
  let g = Gen.erdos_renyi_connected prng ~n ~p:0.3 in
  let net = Net.create ~n in
  let estimate = Doubling.pagerank net prng g ~walks_per_node:64 ~epsilon:0.2 in
  let exact = Doubling.pagerank_exact g ~epsilon:0.2 in
  let l1 =
    Array.fold_left ( +. ) 0.0
      (Array.mapi (fun i x -> Float.abs (x -. exact.(i))) estimate)
  in
  Alcotest.(check bool) (Printf.sprintf "L1 error %.4f" l1) true (l1 < 0.15)

let test_pagerank_exact_is_distribution () =
  let g = Gen.star 8 in
  let pi = Doubling.pagerank_exact g ~epsilon:0.15 in
  let total = Array.fold_left ( +. ) 0.0 pi in
  Alcotest.(check (float 1e-9)) "sums to 1" 1.0 total;
  (* Star center accumulates the most mass. *)
  Array.iteri
    (fun i x -> if i > 0 && x >= pi.(0) then Alcotest.fail "leaf beats center")
    pi

(* --- qcheck --- *)

let qcheck_tests =
  let open QCheck in
  [
    Test.make ~name:"doubling walks are valid on random graphs" ~count:25
      (make Gen.(pair (int_range 4 12) (int_range 0 10_000)))
      (fun (n, seed) ->
        let prng = Prng.create ~seed in
        let g = Cc_graph.Gen.random_connected prng ~n ~extra_edges:n in
        let net = Net.create ~n in
        let r = Doubling.run net prng g ~tau:8 ~scheme:Doubling.Load_balanced in
        Array.for_all
          (fun w ->
            let ok = ref (Array.length w = 9) in
            for i = 1 to Array.length w - 1 do
              if not (Graph.has_edge g w.(i - 1) w.(i)) then ok := false
            done;
            !ok)
          r.Doubling.walks);
    Test.make ~name:"doubling trees are spanning trees" ~count:25
      (make Gen.(pair (int_range 4 10) (int_range 0 10_000)))
      (fun (n, seed) ->
        let prng = Prng.create ~seed in
        let g = Cc_graph.Gen.random_connected prng ~n ~extra_edges:2 in
        let net = Net.create ~n in
        let tree, _ = Doubling.sample_tree net prng g ~tau0:4 in
        Tree.is_spanning_tree g tree);
    Test.make ~name:"iterations = log2 (next_pow2 tau)" ~count:25
      (make Gen.(pair (int_range 1 200) (int_range 0 1000)))
      (fun (tau, seed) ->
        let prng = Prng.create ~seed in
        let g = Cc_graph.Gen.cycle 6 in
        let net = Net.create ~n:6 in
        let r = Doubling.run net prng g ~tau ~scheme:Doubling.Load_balanced in
        let rec lg p e = if p >= tau then e else lg (2 * p) (e + 1) in
        r.Doubling.iterations = lg 1 0);
  ]

let () =
  let qsuite = List.map QCheck_alcotest.to_alcotest qcheck_tests in
  Alcotest.run "cc_doubling"
    [
      ( "structure",
        [
          Alcotest.test_case "valid walks" `Quick test_walks_are_valid;
          Alcotest.test_case "tau rounding" `Quick test_tau_not_power_of_two;
          Alcotest.test_case "iterations" `Quick test_iterations_logarithmic;
          Alcotest.test_case "unbalanced valid" `Quick test_unbalanced_walks_also_valid;
          Alcotest.test_case "suffix sharing" `Quick test_walks_share_randomness_but_each_is_valid;
          Alcotest.test_case "determinism" `Quick test_doubling_deterministic_given_seed;
        ] );
      ( "faults",
        [
          Alcotest.test_case "drops heal" `Quick test_faulty_drops_heal;
          Alcotest.test_case "healed = fault-free walks" `Quick test_faulty_walks_match_fault_free;
          Alcotest.test_case "non-coordinator crash" `Quick test_noncoordinator_crash_recovers;
          Alcotest.test_case "coordinator crash degrades" `Quick test_coordinator_crash_degrades_structurally;
          Alcotest.test_case "fault-seed determinism" `Quick test_fault_seed_determinism;
        ] );
      ( "distribution",
        [
          Alcotest.test_case "endpoint law" `Slow test_endpoint_distribution;
          Alcotest.test_case "interior law" `Slow test_interior_marginal;
        ] );
      ( "load_balancing",
        [
          Alcotest.test_case "star hotspot" `Quick test_load_balanced_beats_unbalanced_on_star;
          Alcotest.test_case "Lemma 4 bound" `Quick test_lemma4_bound_holds;
        ] );
      ( "trees",
        [
          Alcotest.test_case "valid trees" `Quick test_sample_tree_valid;
          Alcotest.test_case "uniform on K4" `Slow test_sample_tree_uniform_k4;
          Alcotest.test_case "ER rounds" `Quick test_er_tree_rounds_within_theorem1_bound;
          Alcotest.test_case "refuses disconnected" `Quick
            test_sample_tree_refuses_disconnected;
        ] );
      ( "pagerank",
        [
          Alcotest.test_case "matches power iteration" `Slow test_pagerank_close_to_power_iteration;
          Alcotest.test_case "exact is distribution" `Quick test_pagerank_exact_is_distribution;
        ] );
      ("properties", qsuite);
    ]
