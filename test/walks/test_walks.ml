(* Tests for Cc_walks: walk primitives, Aldous-Broder, Wilson, and the
   sequential top-down filling algorithms (Lemmas 1-2, driven from a graph
   by test/shared). The statistical tests compare empirical distributions
   against exact ground truth (matrix powers, Matrix-Tree enumeration). *)

module Graph = Cc_graph.Graph
module Gen = Cc_graph.Gen
module Tree = Cc_graph.Tree
module Walk = Cc_walks.Walk
module Aldous_broder = Cc_walks.Aldous_broder
module Wilson = Cc_walks.Wilson
module Topdown = Cc_walks.Topdown
module Updown = Cc_walks.Updown
module Determinantal = Cc_walks.Determinantal
module Prng = Cc_util.Prng
module Dist = Cc_util.Dist
module Stats = Cc_util.Stats
module Mat = Cc_linalg.Mat

(* --- walk primitives --- *)

let test_walk_follows_edges () =
  let prng = Prng.create ~seed:1 in
  let g = Gen.cycle 8 in
  let w = Walk.walk g prng ~start:0 ~len:100 in
  Alcotest.(check int) "length" 101 (Array.length w);
  Alcotest.(check int) "start" 0 w.(0);
  for i = 1 to 100 do
    if not (Graph.has_edge g w.(i - 1) w.(i)) then
      Alcotest.failf "step %d not an edge: %d -> %d" i w.(i - 1) w.(i)
  done

let test_step_distribution_weighted () =
  (* Vertex 0 has neighbors 1 (weight 1) and 2 (weight 3). *)
  let g = Graph.of_edges ~n:3 [ (0, 1, 1.0); (0, 2, 3.0) ] in
  let prng = Prng.create ~seed:2 in
  let counts = Array.make 3 0 in
  let trials = 40_000 in
  for _ = 1 to trials do
    let v = Walk.step g prng 0 in
    counts.(v) <- counts.(v) + 1
  done;
  let expected = Dist.of_weights [| 0.0; 1.0; 3.0 |] in
  let tv = Dist.tv_counts ~counts expected in
  Alcotest.(check bool) (Printf.sprintf "tv %.4f" tv) true (tv < 0.01)

let test_first_visit_edges () =
  let w = [| 0; 1; 0; 2; 1; 3 |] in
  Alcotest.(check (list (pair int int)))
    "edges" [ (0, 1); (0, 2); (1, 3) ]
    (Reference.first_visit_edges w)

let test_distinct_count () =
  Alcotest.(check int) "distinct" 3 (Shared.distinct_count [| 5; 5; 2; 9; 2 |])

let test_truncate_at_distinct () =
  let w = [| 0; 1; 0; 2; 1; 3; 4 |] in
  Alcotest.(check bool) "rho=3" true (Walk.truncate_at_distinct w ~rho:3 = [| 0; 1; 0; 2 |]);
  Alcotest.(check bool) "rho=1" true (Walk.truncate_at_distinct w ~rho:1 = [| 0 |]);
  Alcotest.(check bool) "rho too big" true (Walk.truncate_at_distinct w ~rho:10 == w)

let test_cover_time_path_scaling () =
  (* Path cover time is Theta(n^2); check monotone growth and rough order. *)
  let prng = Prng.create ~seed:3 in
  let mean n = Walk.mean_cover_time (Gen.path n) prng ~trials:100 in
  let c8 = mean 8 and c16 = mean 16 in
  Alcotest.(check bool)
    (Printf.sprintf "c8=%.0f c16=%.0f quadratic-ish" c8 c16)
    true
    (c16 /. c8 > 2.5 && c16 /. c8 < 6.5)

let test_cover_time_refuses_disconnected () =
  (* Two components: a cover walk from 0 would never reach 2 or 3. *)
  let g = Graph.of_edges ~n:4 [ (0, 1, 1.0); (2, 3, 1.0) ] in
  let prng = Prng.create ~seed:1 in
  Alcotest.check_raises "mean_cover_time"
    (Invalid_argument "Walk.mean_cover_time: graph must be connected")
    (fun () -> ignore (Walk.mean_cover_time g prng ~trials:3))

let test_time_to_distinct () =
  let prng = Prng.create ~seed:4 in
  let g = Gen.path 16 in
  Alcotest.(check int) "rho=1 is free" 0 (Reference.time_to_distinct g prng ~start:0 ~rho:1);
  let t = Reference.time_to_distinct g prng ~start:0 ~rho:4 in
  Alcotest.(check bool) "at least rho-1 steps" true (t >= 3)

let test_endpoint_distribution_matches_empirical () =
  let prng = Prng.create ~seed:5 in
  let g = Gen.cycle 6 in
  let len = 5 in
  let exact = Shared.endpoint_distribution g ~start:0 ~len in
  let counts = Array.make 6 0 in
  let trials = 30_000 in
  for _ = 1 to trials do
    let w = Walk.walk g prng ~start:0 ~len in
    counts.(w.(len)) <- counts.(w.(len)) + 1
  done;
  let tv = Dist.tv_counts ~counts exact in
  Alcotest.(check bool) (Printf.sprintf "tv %.4f" tv) true (tv < 0.015)

(* --- exact tree samplers vs Matrix-Tree --- *)

let tree_sampler_tv g sampler trials seed =
  let trees, lookup = Tree.index g in
  let target = Tree.weighted_distribution g trees in
  let counts = Array.make (Array.length trees) 0 in
  let prng = Prng.create ~seed in
  for _ = 1 to trials do
    let t = sampler g prng in
    let i = lookup t in
    counts.(i) <- counts.(i) + 1
  done;
  (Dist.tv_counts ~counts target, Array.length trees)

let test_aldous_broder_uniform_k4 () =
  let g = Gen.complete 4 in
  let trials = 32_000 in
  let tv, support = tree_sampler_tv g Aldous_broder.sample_tree trials 6 in
  let floor = 3.0 *. Stats.tv_noise_floor ~samples:trials ~support in
  Alcotest.(check bool)
    (Printf.sprintf "tv %.4f < %.4f" tv floor)
    true (tv < floor)

let test_aldous_broder_uniform_cycle_chord () =
  let g = Graph.of_unweighted_edges ~n:4 [ (0, 1); (1, 2); (2, 3); (3, 0); (0, 2) ] in
  let trials = 32_000 in
  let tv, support = tree_sampler_tv g Aldous_broder.sample_tree trials 7 in
  let floor = 3.0 *. Stats.tv_noise_floor ~samples:trials ~support in
  Alcotest.(check bool) (Printf.sprintf "tv %.4f < %.4f" tv floor) true (tv < floor)

let test_wilson_uniform_k4 () =
  let g = Gen.complete 4 in
  let trials = 32_000 in
  let tv, support = tree_sampler_tv g Wilson.sample_tree trials 8 in
  let floor = 3.0 *. Stats.tv_noise_floor ~samples:trials ~support in
  Alcotest.(check bool) (Printf.sprintf "tv %.4f < %.4f" tv floor) true (tv < floor)

let test_wilson_weighted () =
  (* Weighted triangle: trees = pairs of edges, P(tree) prop to w1*w2. *)
  let g = Graph.of_edges ~n:3 [ (0, 1, 1.0); (1, 2, 2.0); (0, 2, 4.0) ] in
  let trials = 32_000 in
  let tv, support = tree_sampler_tv g Wilson.sample_tree trials 9 in
  let floor = 3.0 *. Stats.tv_noise_floor ~samples:trials ~support +. 0.01 in
  Alcotest.(check bool) (Printf.sprintf "tv %.4f < %.4f" tv floor) true (tv < floor)

let test_aldous_broder_weighted () =
  let g = Graph.of_edges ~n:3 [ (0, 1, 1.0); (1, 2, 2.0); (0, 2, 4.0) ] in
  let trials = 32_000 in
  let tv, support = tree_sampler_tv g Aldous_broder.sample_tree trials 10 in
  let floor = 3.0 *. Stats.tv_noise_floor ~samples:trials ~support +. 0.01 in
  Alcotest.(check bool) (Printf.sprintf "tv %.4f < %.4f" tv floor) true (tv < floor)

let test_samplers_always_valid () =
  let prng = Prng.create ~seed:11 in
  let g = Gen.lollipop ~clique:4 ~tail:3 in
  for _ = 1 to 50 do
    let t1 = Aldous_broder.sample_tree g prng in
    let t2 = Wilson.sample_tree g prng in
    Alcotest.(check bool) "AB valid" true (Tree.is_spanning_tree g t1);
    Alcotest.(check bool) "Wilson valid" true (Tree.is_spanning_tree g t2)
  done

(* --- top-down filling (Lemmas 1-2) --- *)

let test_topdown_is_valid_walk () =
  let prng = Prng.create ~seed:12 in
  let g = Gen.cycle 9 in
  let w = Shared.sample_walk g prng ~start:0 ~len:64 in
  Alcotest.(check int) "length" 65 (Array.length w);
  Alcotest.(check int) "start" 0 w.(0);
  for i = 1 to 64 do
    if not (Graph.has_edge g w.(i - 1) w.(i)) then
      Alcotest.failf "position %d: %d -> %d not an edge" i w.(i - 1) w.(i)
  done

let test_topdown_endpoint_distribution () =
  (* Lemma 1: the top-down walk must have exactly the P^len endpoint law. *)
  let prng = Prng.create ~seed:13 in
  let g = Gen.complete 5 in
  let len = 8 in
  let exact = Shared.endpoint_distribution g ~start:0 ~len in
  let counts = Array.make 5 0 in
  let trials = 30_000 in
  for _ = 1 to trials do
    let w = Shared.sample_walk g prng ~start:0 ~len in
    counts.(w.(len)) <- counts.(w.(len)) + 1
  done;
  let tv = Dist.tv_counts ~counts exact in
  Alcotest.(check bool) (Printf.sprintf "endpoint tv %.4f" tv) true (tv < 0.015)

let test_topdown_midpoint_distribution () =
  (* The interior marginal must match P^k[start,*] too (chain rule check at
     position len/2). *)
  let prng = Prng.create ~seed:14 in
  let g = Gen.cycle 7 in
  let len = 16 in
  let exact = Shared.endpoint_distribution g ~start:0 ~len:(len / 2) in
  let counts = Array.make 7 0 in
  let trials = 30_000 in
  for _ = 1 to trials do
    let w = Shared.sample_walk g prng ~start:0 ~len in
    counts.(w.(len / 2)) <- counts.(w.(len / 2)) + 1
  done;
  let tv = Dist.tv_counts ~counts exact in
  Alcotest.(check bool) (Printf.sprintf "midpoint tv %.4f" tv) true (tv < 0.015)

let test_topdown_transition_frequencies () =
  (* Every consecutive pair in the filled walk is a single P-step; pooled
     transition frequencies from a fixed vertex must match P's row. *)
  let prng = Prng.create ~seed:15 in
  let g = Graph.of_unweighted_edges ~n:4 [ (0, 1); (1, 2); (2, 3); (3, 0); (0, 2) ] in
  let p = Graph.transition_matrix g in
  let counts = Array.make 4 0 in
  let trials = 4000 in
  for _ = 1 to trials do
    let w = Shared.sample_walk g prng ~start:0 ~len:16 in
    for i = 0 to 15 do
      if w.(i) = 0 then counts.(w.(i + 1)) <- counts.(w.(i + 1)) + 1
    done
  done;
  let tv = Dist.tv_counts ~counts (Dist.of_weights (Mat.row p 0)) in
  Alcotest.(check bool) (Printf.sprintf "transition tv %.4f" tv) true (tv < 0.02)

let test_truncated_ends_at_rho_distinct () =
  let prng = Prng.create ~seed:16 in
  let g = Gen.path 20 in
  for _ = 1 to 30 do
    let w = Shared.sample_truncated g prng ~start:0 ~target_len:1024 ~rho:5 in
    let d = Shared.distinct_count w in
    Alcotest.(check bool) "at most rho distinct" true (d <= 5);
    if d = 5 then begin
      (* The final vertex must be the 5th distinct one: appears exactly once
         at the end... more precisely its first occurrence is the last index. *)
      let last = w.(Array.length w - 1) in
      let first_occurrence = ref (-1) in
      Array.iteri (fun i v -> if !first_occurrence < 0 && v = last then first_occurrence := i) w;
      Alcotest.(check int) "last is fresh" (Array.length w - 1) !first_occurrence
    end
  done

let test_truncated_walk_is_valid () =
  let prng = Prng.create ~seed:17 in
  let g = Gen.lollipop ~clique:5 ~tail:5 in
  for _ = 1 to 20 do
    let w = Shared.sample_truncated g prng ~start:0 ~target_len:4096 ~rho:4 in
    for i = 1 to Array.length w - 1 do
      if not (Graph.has_edge g w.(i - 1) w.(i)) then
        Alcotest.failf "invalid transition %d -> %d" w.(i - 1) w.(i)
    done
  done

let test_truncated_tau_distribution () =
  (* Lemma 2: the truncated top-down walk has the same law as a direct walk
     stopped at the rho-th distinct vertex. Compare tau's distribution. *)
  let g = Gen.cycle 6 in
  let rho = 3 in
  let trials = 8000 in
  let sample_tau_direct prng =
    Reference.time_to_distinct g prng ~start:0 ~rho
  in
  let sample_tau_topdown prng =
    Array.length (Shared.sample_truncated g prng ~start:0 ~target_len:256 ~rho) - 1
  in
  let histo f seed =
    let prng = Prng.create ~seed in
    let counts = Hashtbl.create 32 in
    for _ = 1 to trials do
      let t = f prng in
      Hashtbl.replace counts t (1 + Option.value ~default:0 (Hashtbl.find_opt counts t))
    done;
    counts
  in
  let h1 = histo sample_tau_direct 18 and h2 = histo sample_tau_topdown 19 in
  let keys = Hashtbl.fold (fun k _ acc -> k :: acc) h1 [] in
  let keys =
    List.sort_uniq compare (keys @ Hashtbl.fold (fun k _ acc -> k :: acc) h2 [])
  in
  let tv =
    0.5
    *. List.fold_left
         (fun acc k ->
           let c1 = float_of_int (Option.value ~default:0 (Hashtbl.find_opt h1 k)) in
           let c2 = float_of_int (Option.value ~default:0 (Hashtbl.find_opt h2 k)) in
           acc +. Float.abs ((c1 /. float_of_int trials) -. (c2 /. float_of_int trials)))
         0.0 keys
  in
  Alcotest.(check bool) (Printf.sprintf "tau tv %.4f" tv) true (tv < 0.05)

let test_topdown_first_visit_tree_uniform () =
  (* End-to-end phase-1 style check: top-down walk truncated at rho = n gives
     first-visit-edge trees that are uniform (this is Aldous-Broder driven by
     the Lemma 2 walk). *)
  let g = Gen.complete 4 in
  let trials = 12_000 in
  let sampler g prng =
    let w = Shared.sample_truncated g prng ~start:0 ~target_len:4096 ~rho:4 in
    Tree.of_edges ~n:4 (Reference.first_visit_edges w)
  in
  let tv, support = tree_sampler_tv g sampler trials 20 in
  let floor = 3.0 *. Stats.tv_noise_floor ~samples:trials ~support +. 0.01 in
  Alcotest.(check bool) (Printf.sprintf "tree tv %.4f < %.4f" tv floor) true (tv < floor)

let test_midpoint_weights_formula () =
  let g = Gen.cycle 5 in
  let p = Graph.transition_matrix g in
  let powers = Mat.power_table p ~max_exp:3 in
  let w = Topdown.midpoint_weights powers ~gap_exp:2 ~a:0 ~b:1 in
  Array.iteri
    (fun v expected ->
      Alcotest.(check (float 1e-12))
        "formula 1" expected
        (Mat.get powers.(1) 0 v *. Mat.get powers.(1) v 1))
    (Array.init 5 (fun v -> w.(v)))

(* --- hitting times --- *)

(* [mean_hitting_time] is the mean of H(u, v) over u and v drawn from the
   stationary law pi: the sum over u, v of pi_u pi_v H(u, v). *)
let stationary g =
  let total = 2.0 *. Graph.total_weight g in
  Array.init (Graph.n g) (fun u -> Graph.weighted_degree g u /. total)

let mean_over_pi g h =
  let pi = stationary g in
  let acc = ref 0.0 in
  Array.iteri
    (fun u pu -> Array.iteri (fun v pv -> acc := !acc +. (pu *. pv *. h u v)) pi)
    pi;
  !acc

let test_hitting_path_endpoints () =
  (* Path 0..n-1: a walk from u reaches v > u in v^2 - u^2 steps, so the
     endpoints are (n-1)^2 apart, and by symmetry v < u in
     (n-1-v)^2 - (n-1-u)^2. *)
  let n = 6 in
  let h u v =
    let sq x = float_of_int (x * x) in
    if u <= v then sq v -. sq u else sq (n - 1 - v) -. sq (n - 1 - u)
  in
  Alcotest.(check (float 1e-12)) "H(0,end)" (float_of_int ((n - 1) * (n - 1))) (h 0 (n - 1));
  let g = Gen.path n in
  Alcotest.(check (float 1e-7)) "mean over pi" (mean_over_pi g h)
    (Cc_walks.Hitting.mean_hitting_time g)

let test_hitting_complete_graph () =
  (* K_n: H(u,v) = n - 1 for u <> v, so the mean is (n-1)^2 / n. *)
  let n = 7 in
  let expected = float_of_int ((n - 1) * (n - 1)) /. float_of_int n in
  Alcotest.(check (float 1e-7)) "K7 mean hitting" expected
    (Cc_walks.Hitting.mean_hitting_time (Gen.complete n))

let test_commute_time_identity () =
  (* Chandra et al.: H(u,v) + H(v,u) = 2 W R_eff(u,v), so the mean over pi,
     which counts each pair both ways, is W times the mean of R_eff. *)
  let prng = Prng.create ~seed:50 in
  let g = Gen.random_connected prng ~n:9 ~extra_edges:6 in
  let expected =
    Graph.total_weight g
    *. mean_over_pi g (fun u v ->
           if u = v then 0.0 else Shared.effective_resistance g u v)
  in
  Alcotest.(check (float 1e-6)) "commute identity" expected
    (Cc_walks.Hitting.mean_hitting_time g)

let test_hitting_empirical () =
  (* Walks from u to v, both drawn from pi, against the exact mean. *)
  let prng = Prng.create ~seed:51 in
  let g = Gen.lollipop ~clique:4 ~tail:2 in
  let exact = Cc_walks.Hitting.mean_hitting_time g in
  let pi = stationary g in
  let trials = 4000 in
  let acc = ref 0 in
  for _ = 1 to trials do
    let c = ref (Dist.sample_weights pi prng) in
    let target = Dist.sample_weights pi prng and steps = ref 0 in
    while !c <> target do
      c := Walk.step g prng !c;
      incr steps
    done;
    acc := !acc + !steps
  done;
  let mean = float_of_int !acc /. float_of_int trials in
  Alcotest.(check bool)
    (Printf.sprintf "empirical %.1f vs exact %.1f" mean exact)
    true
    (Float.abs (mean -. exact) /. exact < 0.1)

let test_mean_hitting_positive () =
  let g = Gen.cycle 6 in
  let m = Cc_walks.Hitting.mean_hitting_time g in
  Alcotest.(check bool) "positive" true (m > 0.0)

(* --- up-down walk (the paper's future-work MCMC route) --- *)

let test_updown_step_preserves_treeness () =
  let prng = Prng.create ~seed:30 in
  let g = Gen.lollipop ~clique:4 ~tail:3 in
  let t = ref (Updown.bfs_tree g) in
  for _ = 1 to 200 do
    t := Updown.sample g prng ~steps:1 ~init:!t;
    if not (Tree.is_spanning_tree g !t) then Alcotest.fail "lost treeness"
  done

let test_updown_uniform_k4 () =
  let g = Gen.complete 4 in
  let trials = 20_000 in
  let sampler g prng = Updown.sample g prng ~steps:40 ~init:(Updown.bfs_tree g) in
  let tv, support = tree_sampler_tv g sampler trials 31 in
  let floor = 3.0 *. Stats.tv_noise_floor ~samples:trials ~support +. 0.01 in
  Alcotest.(check bool) (Printf.sprintf "tv %.4f < %.4f" tv floor) true (tv < floor)

let test_updown_weighted_triangle () =
  let g = Graph.of_edges ~n:3 [ (0, 1, 1.0); (1, 2, 2.0); (0, 2, 4.0) ] in
  let trials = 20_000 in
  let sampler g prng = Updown.sample g prng ~steps:30 ~init:(Updown.bfs_tree g) in
  let tv, support = tree_sampler_tv g sampler trials 32 in
  let floor = 3.0 *. Stats.tv_noise_floor ~samples:trials ~support +. 0.015 in
  Alcotest.(check bool) (Printf.sprintf "tv %.4f < %.4f" tv floor) true (tv < floor)

let test_updown_default_budget () =
  let g = Gen.cycle 8 in
  Alcotest.(check bool) "budget >= 4m" true
    (Updown.default_steps g >= 4 * Graph.num_edges g)

let test_bfs_tree_is_spanning () =
  let prng = Prng.create ~seed:33 in
  for _ = 1 to 20 do
    let g = Gen.random_connected prng ~n:12 ~extra_edges:6 in
    Alcotest.(check bool) "bfs tree valid" true
      (Tree.is_spanning_tree g (Updown.bfs_tree g))
  done

(* --- determinantal sampler --- *)

let test_leverage_known_values () =
  (* Triangle: every edge has leverage 2/3 (R_eff = 2/3 for unit weights). *)
  List.iter
    (fun (_, p) -> Alcotest.(check (float 1e-9)) "triangle leverage" (2.0 /. 3.0) p)
    (Determinantal.marginals (Gen.cycle 3));
  (* Tree edges (bridges) have leverage exactly 1. *)
  List.iter
    (fun (_, p) -> Alcotest.(check (float 1e-9)) "bridge leverage" 1.0 p)
    (Determinantal.marginals (Gen.path 5))

let test_fosters_theorem () =
  (* Sum of leverages = n - 1 on any connected graph. *)
  let prng = Prng.create ~seed:34 in
  for _ = 1 to 10 do
    let g = Gen.random_connected prng ~n:10 ~extra_edges:8 in
    let total = List.fold_left (fun acc (_, l) -> acc +. l) 0.0 (Determinantal.marginals g) in
    Alcotest.(check (float 1e-6)) "Foster" (float_of_int (Graph.n g - 1)) total
  done

let test_determinantal_always_tree () =
  let prng = Prng.create ~seed:35 in
  for _ = 1 to 30 do
    let g = Gen.random_connected prng ~n:9 ~extra_edges:5 in
    Alcotest.(check bool) "valid tree" true
      (Tree.is_spanning_tree g (Determinantal.sample_tree g prng))
  done

let test_determinantal_uniform_k4 () =
  let g = Gen.complete 4 in
  let trials = 20_000 in
  let tv, support = tree_sampler_tv g Determinantal.sample_tree trials 36 in
  let floor = 3.0 *. Stats.tv_noise_floor ~samples:trials ~support +. 0.01 in
  Alcotest.(check bool) (Printf.sprintf "tv %.4f < %.4f" tv floor) true (tv < floor)

let test_determinantal_weighted () =
  let g = Graph.of_edges ~n:3 [ (0, 1, 1.0); (1, 2, 2.0); (0, 2, 4.0) ] in
  let trials = 20_000 in
  let tv, support = tree_sampler_tv g Determinantal.sample_tree trials 37 in
  let floor = 3.0 *. Stats.tv_noise_floor ~samples:trials ~support +. 0.015 in
  Alcotest.(check bool) (Printf.sprintf "tv %.4f < %.4f" tv floor) true (tv < floor)

let test_marginal_cross_validation () =
  (* At n = 12 the tree space is astronomically large; validate AB and Wilson
     against the exact leverage scores via edge marginals instead. *)
  let prng = Prng.create ~seed:38 in
  let g = Gen.random_connected prng ~n:12 ~extra_edges:10 in
  let trials = 4000 in
  let gap_ab =
    Determinantal.max_marginal_gap g ~trials (fun g ->
        Aldous_broder.sample_tree g (Prng.split prng))
  in
  let gap_wilson =
    Determinantal.max_marginal_gap g ~trials (fun g ->
        Wilson.sample_tree g (Prng.split prng))
  in
  let tol = 4.0 *. Stats.binomial_confidence ~n:trials ~p:0.5 +. 0.01 in
  Alcotest.(check bool) (Printf.sprintf "AB gap %.4f" gap_ab) true (gap_ab < tol);
  Alcotest.(check bool) (Printf.sprintf "Wilson gap %.4f" gap_wilson) true
    (gap_wilson < tol)

(* --- the chain rule against Reference, which rebuilds graphs --- *)

(* Log-uniform weights over [1e-3, 1e3]. They are not dyadic, so a merge or
   a degree sum taken in another order moves p's bits. *)
let log_uniform_weights prng g =
  Graph.of_edges ~n:(Graph.n g)
    (List.map
       (fun (u, v, _) -> (u, v, Float.pow 10.0 (Prng.float prng 6.0 -. 3.0)))
       (Graph.edges g))

(* One chain rule under a fresh coin from [coin]: every p the coin is
   offered, in order, then the tree's edges or the exception. *)
let offers chain_rule g coin =
  let ps = ref [] in
  let coin = coin () in
  let outcome =
    match
      chain_rule g ~coin:(fun p ->
          ps := p :: !ps;
          coin p)
    with
    | t -> Ok (Tree.edges t)
    | exception e -> Error (Printexc.to_string e)
  in
  (List.rev !ps, outcome)

let seeded_coin seed () =
  let prng = Prng.create ~seed in
  fun p -> Prng.float prng 1.0 < p

let always_accept () _ = true

(* Rejecting a bridge raises, so a bridge is always accepted. *)
let every_other_offer () =
  let k = ref 0 in
  fun p ->
    incr k;
    !k land 1 = 1 || p >= 1.0 -. 1e-9

(* The same offers, each p within 1e-8 of the reference's, and the same
   outcome. The chain moves one grounded inverse by rank-one updates, so its
   p differs from the rebuilt graph's in the last bits. *)
let close_offers g coin =
  let ps, a = offers Determinantal.chain_rule g coin in
  let qs, b = offers Reference.chain_rule g coin in
  List.length ps = List.length qs
  && List.for_all2 (fun p q -> Float.abs (p -. q) <= 1e-8) ps qs
  && a = b

let dense_weighted prng ~n =
  log_uniform_weights prng (Gen.erdos_renyi_connected prng ~n ~p:0.6)

let test_chain_rule_overflow () =
  (* Contracting (0, 1) merges the two 1e308 edges into an infinite weight,
     which Graph.of_edges refuses. *)
  let g = Graph.of_edges ~n:3 [ (0, 1, 1.0); (0, 2, 1e308); (1, 2, 1e308) ] in
  let refused =
    Invalid_argument "Graph.of_edges: weight must be positive and finite"
  in
  Alcotest.check_raises "reference" refused (fun () ->
      ignore (Reference.chain_rule g ~coin:(always_accept ())));
  Alcotest.check_raises "in place" refused (fun () ->
      ignore (Determinantal.chain_rule g ~coin:(always_accept ())))

(* Edge (0, 1) weighs 1e3, and two paths of three 1e-3 edges join 0 to 1
   around it, so its first offer is 1 - 6.7e-7: a coin that rejects it
   deletes a near-bridge, and X is recomputed rather than downdated.
   Downdating it instead divides by 1 - p and moves later offers by up to
   2.4e-4. *)
let test_chain_rule_near_bridge () =
  let g =
    Graph.of_edges ~n:6
      [
        (0, 1, 1e3); (0, 2, 1e-3); (2, 3, 1e-3); (3, 1, 1e-3);
        (0, 4, 1e-3); (4, 5, 1e-3); (5, 1, 1e-3);
      ]
  in
  let reject_first () =
    let k = ref 0 in
    fun _ ->
      incr k;
      !k > 1
  in
  (match offers Determinantal.chain_rule g reject_first with
  | p :: _, _ ->
      Alcotest.(check bool) "first offer is a near-bridge" true
        (1.0 -. p > 1e-9 && 1.0 -. p < 1e-2)
  | [], _ -> Alcotest.fail "no offer");
  Alcotest.(check bool) "later offers within 1e-8" true
    (close_offers g reject_first);
  let seeded () =
    let coin = seeded_coin 3 () and k = ref 0 in
    fun p ->
      incr k;
      !k > 1 && coin p
  in
  Alcotest.(check bool) "seeded, within 1e-8" true (close_offers g seeded)

let test_chain_rule_rejected_bridge () =
  (* Every edge of a path is a bridge, offered as exactly 1.0. *)
  let offered = ref [] in
  Alcotest.check_raises "rejected bridge"
    (Invalid_argument "Determinantal.chain_rule: the coin rejected a bridge")
    (fun () ->
      ignore
        (Determinantal.chain_rule (Gen.path 5) ~coin:(fun p ->
             offered := p :: !offered;
             false)));
  Alcotest.(check (list (float 0.0))) "offered 1.0" [ 1.0 ] !offered

(* --- qcheck --- *)

let qcheck_tests =
  let open QCheck in
  let params = make Gen.(pair (int_range 4 10) (int_range 0 10_000)) in
  [
    Test.make ~name:"AB trees are spanning trees" ~count:50 params
      (fun (n, seed) ->
        let prng = Prng.create ~seed in
        let g = Cc_graph.Gen.random_connected prng ~n ~extra_edges:3 in
        Tree.is_spanning_tree g (Aldous_broder.sample_tree g prng));
    Test.make ~name:"Wilson trees are spanning trees" ~count:50 params
      (fun (n, seed) ->
        let prng = Prng.create ~seed in
        let g = Cc_graph.Gen.random_connected prng ~n ~extra_edges:3 in
        Tree.is_spanning_tree g (Wilson.sample_tree g prng));
    Test.make ~name:"topdown walks use only edges" ~count:30 params
      (fun (n, seed) ->
        let prng = Prng.create ~seed in
        let g = Cc_graph.Gen.random_connected prng ~n ~extra_edges:3 in
        let w = Shared.sample_walk g prng ~start:0 ~len:32 in
        let ok = ref true in
        for i = 1 to Array.length w - 1 do
          if not (Graph.has_edge g w.(i - 1) w.(i)) then ok := false
        done;
        !ok);
    Test.make ~name:"truncated walks have at most rho distinct vertices"
      ~count:30 params (fun (n, seed) ->
        let prng = Prng.create ~seed in
        let g = Cc_graph.Gen.random_connected prng ~n ~extra_edges:2 in
        let rho = max 2 (n / 2) in
        let w = Shared.sample_truncated g prng ~start:0 ~target_len:1024 ~rho in
        Shared.distinct_count w <= rho);
    Test.make ~name:"chain rule offers the reference's p within 1e-8"
      ~count:100 params (fun (n, seed) ->
        let g = dense_weighted (Prng.create ~seed) ~n:(n + 6) in
        close_offers g (seeded_coin seed)
        && close_offers g always_accept
        && close_offers g every_other_offer);
    Test.make ~name:"sample_tree matches the reference, prng state included"
      ~count:50 params (fun (n, seed) ->
        let g = dense_weighted (Prng.create ~seed) ~n:(n + 6) in
        let a = Prng.create ~seed and b = Prng.create ~seed in
        Tree.edges (Determinantal.sample_tree g a)
        = Tree.edges (Reference.sample_tree g b)
        && Prng.int a (1 lsl 30) = Prng.int b (1 lsl 30));
    Test.make ~name:"first_visit_edges covers all distinct vertices" ~count:50
      params (fun (n, seed) ->
        let prng = Prng.create ~seed in
        let g = Cc_graph.Gen.random_connected prng ~n ~extra_edges:3 in
        let w = Walk.walk g prng ~start:0 ~len:(4 * n) in
        List.length (Reference.first_visit_edges w) = Shared.distinct_count w - 1);
  ]

let () =
  let qsuite = List.map QCheck_alcotest.to_alcotest qcheck_tests in
  Alcotest.run "cc_walks"
    [
      ( "primitives",
        [
          Alcotest.test_case "walk follows edges" `Quick test_walk_follows_edges;
          Alcotest.test_case "weighted step" `Slow test_step_distribution_weighted;
          Alcotest.test_case "first visit edges" `Quick test_first_visit_edges;
          Alcotest.test_case "distinct count" `Quick test_distinct_count;
          Alcotest.test_case "truncate at distinct" `Quick test_truncate_at_distinct;
          Alcotest.test_case "cover time scaling" `Slow test_cover_time_path_scaling;
          Alcotest.test_case "cover time refuses disconnected" `Quick
            test_cover_time_refuses_disconnected;
          Alcotest.test_case "time to distinct" `Quick test_time_to_distinct;
          Alcotest.test_case "endpoint law" `Slow test_endpoint_distribution_matches_empirical;
        ] );
      ( "tree_samplers",
        [
          Alcotest.test_case "AB uniform on K4" `Slow test_aldous_broder_uniform_k4;
          Alcotest.test_case "AB uniform on C4+chord" `Slow test_aldous_broder_uniform_cycle_chord;
          Alcotest.test_case "Wilson uniform on K4" `Slow test_wilson_uniform_k4;
          Alcotest.test_case "Wilson weighted" `Slow test_wilson_weighted;
          Alcotest.test_case "AB weighted" `Slow test_aldous_broder_weighted;
          Alcotest.test_case "always valid" `Quick test_samplers_always_valid;
        ] );
      ( "topdown",
        [
          Alcotest.test_case "valid walk" `Quick test_topdown_is_valid_walk;
          Alcotest.test_case "endpoint law" `Slow test_topdown_endpoint_distribution;
          Alcotest.test_case "midpoint law" `Slow test_topdown_midpoint_distribution;
          Alcotest.test_case "transition frequencies" `Slow test_topdown_transition_frequencies;
          Alcotest.test_case "truncation semantics" `Quick test_truncated_ends_at_rho_distinct;
          Alcotest.test_case "truncated valid" `Quick test_truncated_walk_is_valid;
          Alcotest.test_case "tau distribution" `Slow test_truncated_tau_distribution;
          Alcotest.test_case "phase-1 trees uniform" `Slow test_topdown_first_visit_tree_uniform;
          Alcotest.test_case "formula 1" `Quick test_midpoint_weights_formula;
        ] );
      ( "hitting",
        [
          Alcotest.test_case "path endpoints" `Quick test_hitting_path_endpoints;
          Alcotest.test_case "complete graph" `Quick test_hitting_complete_graph;
          Alcotest.test_case "commute identity" `Quick test_commute_time_identity;
          Alcotest.test_case "empirical" `Slow test_hitting_empirical;
          Alcotest.test_case "mean positive" `Quick test_mean_hitting_positive;
        ] );
      ( "updown",
        [
          Alcotest.test_case "steps preserve treeness" `Quick test_updown_step_preserves_treeness;
          Alcotest.test_case "uniform on K4" `Slow test_updown_uniform_k4;
          Alcotest.test_case "weighted triangle" `Slow test_updown_weighted_triangle;
          Alcotest.test_case "default budget" `Quick test_updown_default_budget;
          Alcotest.test_case "bfs tree" `Quick test_bfs_tree_is_spanning;
        ] );
      ( "determinantal",
        [
          Alcotest.test_case "known leverages" `Quick test_leverage_known_values;
          Alcotest.test_case "Foster's theorem" `Quick test_fosters_theorem;
          Alcotest.test_case "always a tree" `Quick test_determinantal_always_tree;
          Alcotest.test_case "uniform on K4" `Slow test_determinantal_uniform_k4;
          Alcotest.test_case "weighted" `Slow test_determinantal_weighted;
          Alcotest.test_case "marginal cross-validation" `Slow test_marginal_cross_validation;
          Alcotest.test_case "chain rule overflow" `Quick test_chain_rule_overflow;
          Alcotest.test_case "chain rule near-bridge rebuild" `Quick
            test_chain_rule_near_bridge;
          Alcotest.test_case "chain rule rejected bridge" `Quick
            test_chain_rule_rejected_bridge;
        ] );
      ("properties", qsuite);
    ]
