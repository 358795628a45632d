(* Tests for Cc_graph: graph structure, generators, Laplacians/transition
   matrices, Matrix-Tree counting, and spanning tree enumeration. *)

module Graph = Cc_graph.Graph
module Gen = Cc_graph.Gen
module Tree = Cc_graph.Tree
module Mat = Cc_linalg.Mat
module Prng = Cc_util.Prng
module Dist = Cc_util.Dist

let feq ?(eps = 1e-9) a b = Float.abs (a -. b) <= eps

let check_float ?(eps = 1e-9) msg expected actual =
  if not (feq ~eps expected actual) then
    Alcotest.failf "%s: expected %.12g, got %.12g" msg expected actual

(* --- Graph structure --- *)

let test_basic_structure () =
  let g = Graph.of_unweighted_edges ~n:4 [ (0, 1); (1, 2); (2, 3); (3, 0) ] in
  Alcotest.(check int) "n" 4 (Graph.n g);
  Alcotest.(check int) "m" 4 (Graph.num_edges g);
  Alcotest.(check int) "deg" 2 (Graph.degree g 1);
  Alcotest.(check bool) "edge" true (Graph.has_edge g 0 3);
  Alcotest.(check bool) "no edge" false (Graph.has_edge g 0 2);
  Alcotest.(check bool) "connected" true (Graph.is_connected g)

let test_rejects_malformed () =
  let open Alcotest in
  check_raises "self loop" (Invalid_argument "Graph.of_edges: self-loop")
    (fun () -> ignore (Graph.of_unweighted_edges ~n:3 [ (1, 1) ]));
  check_raises "duplicate" (Invalid_argument "Graph.of_edges: duplicate edge")
    (fun () -> ignore (Graph.of_unweighted_edges ~n:3 [ (0, 1); (1, 0) ]));
  check_raises "range" (Invalid_argument "Graph.of_edges: endpoint out of range")
    (fun () -> ignore (Graph.of_unweighted_edges ~n:3 [ (0, 5) ]));
  check_raises "weight"
    (Invalid_argument "Graph.of_edges: weight must be positive and finite")
    (fun () -> ignore (Graph.of_edges ~n:3 [ (0, 1, -2.0) ]))

let test_weighted_degree () =
  let g = Graph.of_edges ~n:3 [ (0, 1, 2.0); (0, 2, 3.0) ] in
  check_float "wdeg 0" 5.0 (Graph.weighted_degree g 0);
  check_float "wdeg 1" 2.0 (Graph.weighted_degree g 1);
  Alcotest.(check int) "unweighted deg" 2 (Graph.degree g 0)

let test_deg_in () =
  let g = Graph.of_unweighted_edges ~n:5 [ (0, 1); (0, 2); (0, 3); (0, 4) ] in
  let members = [| false; true; true; false; false |] in
  Alcotest.(check int) "deg_S of center" 2 (Graph.deg_in g 0 ~members);
  Alcotest.(check int) "deg_S of leaf" 0 (Graph.deg_in g 1 ~members)

let test_disconnected () =
  let g = Graph.of_unweighted_edges ~n:4 [ (0, 1); (2, 3) ] in
  Alcotest.(check bool) "disconnected" false (Graph.is_connected g)

let test_serialization_roundtrip () =
  let g = Graph.of_edges ~n:5 [ (0, 1, 2.5); (1, 2, 1.0); (3, 4, 0.125) ] in
  let g' = Graph.of_string (Graph.to_string g) in
  Alcotest.(check int) "n" (Graph.n g) (Graph.n g');
  Alcotest.(check bool) "edges equal" true (Graph.edges g = Graph.edges g')

let test_fingerprint_permutation_invariant () =
  let edges = [ (0, 1, 2.5); (1, 2, 1.0); (3, 4, 0.125); (0, 4, 7.0) ] in
  let g = Graph.of_edges ~n:5 edges in
  let g_rev = Graph.of_edges ~n:5 (List.rev edges) in
  let g_flip =
    Graph.of_edges ~n:5 (List.map (fun (u, v, w) -> (v, u, w)) edges)
  in
  let fp = Graph.fingerprint g in
  Alcotest.(check string) "reversed edge list" fp (Graph.fingerprint g_rev);
  Alcotest.(check string) "flipped endpoints" fp (Graph.fingerprint g_flip);
  Alcotest.(check bool) "format" true
    (String.length fp = 22 && String.sub fp 0 6 = "fnv64:");
  (* Round-tripping through the wire format preserves identity. *)
  Alcotest.(check string) "serialization roundtrip" fp
    (Graph.fingerprint (Graph.of_string (Graph.to_string g)))

let test_fingerprint_sensitivity () =
  let g = Graph.of_edges ~n:5 [ (0, 1, 2.5); (1, 2, 1.0); (3, 4, 0.125) ] in
  let fp = Graph.fingerprint g in
  let bumped =
    Graph.of_edges ~n:5 [ (0, 1, 2.5 +. 1e-12); (1, 2, 1.0); (3, 4, 0.125) ]
  in
  Alcotest.(check bool) "weight change" true (fp <> Graph.fingerprint bumped);
  let rewired = Graph.of_edges ~n:5 [ (0, 1, 2.5); (1, 2, 1.0); (2, 4, 0.125) ] in
  Alcotest.(check bool) "topology change" true (fp <> Graph.fingerprint rewired);
  let padded = Graph.of_edges ~n:6 [ (0, 1, 2.5); (1, 2, 1.0); (3, 4, 0.125) ] in
  Alcotest.(check bool) "vertex-count change" true
    (fp <> Graph.fingerprint padded)

(* --- Matrices --- *)

let test_transition_matrix_stochastic () =
  let prng = Prng.create ~seed:1 in
  let g = Gen.random_connected prng ~n:12 ~extra_edges:8 in
  Alcotest.(check bool) "stochastic" true
    (Mat.is_row_stochastic (Graph.transition_matrix g))

let test_transition_weighted () =
  let g = Graph.of_edges ~n:3 [ (0, 1, 1.0); (0, 2, 3.0) ] in
  let p = Graph.transition_matrix g in
  check_float "p01" 0.25 (Mat.get p 0 1);
  check_float "p02" 0.75 (Mat.get p 0 2);
  check_float "p10" 1.0 (Mat.get p 1 0)

let test_laplacian_row_sums () =
  let prng = Prng.create ~seed:2 in
  let g = Gen.random_connected prng ~n:10 ~extra_edges:5 in
  let l = Graph.laplacian g in
  Array.iter (fun s -> check_float "row sum" 0.0 s) (Mat.row_sums l);
  Alcotest.(check bool) "symmetric" true (Mat.is_symmetric l)

let test_laplacian_roundtrip () =
  let g = Graph.of_edges ~n:4 [ (0, 1, 2.0); (1, 2, 0.5); (2, 3, 1.0); (0, 3, 4.0) ] in
  let g' = Graph.of_laplacian (Graph.laplacian g) in
  Alcotest.(check bool) "edges preserved" true (Graph.edges g = Graph.edges g')

let test_effective_resistance_path () =
  (* Series circuit: unit resistors in a path add up. *)
  let g = Gen.path 5 in
  check_float ~eps:1e-7 "R(0,4)" 4.0 (Graph.effective_resistance g 0 4);
  check_float ~eps:1e-7 "R(1,2)" 1.0 (Graph.effective_resistance g 1 2)

let test_effective_resistance_parallel () =
  (* Two parallel unit-weight paths of length 2 between 0 and 3: R = 1. *)
  let g = Graph.of_unweighted_edges ~n:4 [ (0, 1); (1, 3); (0, 2); (2, 3) ] in
  check_float ~eps:1e-7 "R parallel" 1.0 (Graph.effective_resistance g 0 3)

let test_effective_resistance_weighted_series () =
  (* Resistance of edge (u,v) with weight w is 1/w; a weighted path adds the
     reciprocals. *)
  let g = Graph.of_edges ~n:4 [ (0, 1, 2.0); (1, 2, 4.0); (2, 3, 0.5) ] in
  check_float ~eps:1e-7 "R(0,3)" (0.5 +. 0.25 +. 2.0)
    (Graph.effective_resistance g 0 3);
  check_float ~eps:1e-7 "R(1,2)" 0.25 (Graph.effective_resistance g 1 2)

let test_effective_resistance_cycle () =
  (* Adjacent vertices of an unweighted n-cycle: 1 ohm in parallel with the
     other n-1 edges in series, so R = (n-1)/n. *)
  List.iter
    (fun n ->
      let g = Gen.cycle n in
      check_float ~eps:1e-7
        (Printf.sprintf "C%d adjacent" n)
        (float_of_int (n - 1) /. float_of_int n)
        (Graph.effective_resistance g 0 1))
    [ 3; 5; 8 ]

let test_effective_resistance_rejects_bad_vertices () =
  (* P4 has vertices 0..3: a missing vertex is rejected before any solve. *)
  let g = Gen.path 4 in
  let bad = Invalid_argument "Graph.effective_resistance: vertex out of range" in
  Alcotest.check_raises "ground missing" bad (fun () ->
      ignore (Graph.effective_resistance g 0 4));
  Alcotest.check_raises "source missing" bad (fun () ->
      ignore (Graph.effective_resistance g 4 0));
  Alcotest.check_raises "negative" bad (fun () ->
      ignore (Graph.effective_resistance g (-1) 0))

(* The builders fill rows from adjacency arrays; these are the per-entry
   definitions they must reproduce bit for bit, -0.0 included. *)
let same_bits x y = Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)

let same_mat a b =
  Mat.rows a = Mat.rows b
  && Mat.cols a = Mat.cols b
  && Array.for_all2 (Array.for_all2 same_bits) (Mat.to_arrays a) (Mat.to_arrays b)

let transition_per_entry g =
  let n = Graph.n g in
  Mat.init ~rows:n ~cols:n (fun u v ->
      let d = Graph.weighted_degree g u in
      if d = 0.0 then if u = v then 1.0 else 0.0
      else Graph.edge_weight g u v /. d)

let laplacian_per_entry g =
  let n = Graph.n g in
  Mat.init ~rows:n ~cols:n (fun u v ->
      if u = v then Graph.weighted_degree g u else -.Graph.edge_weight g u v)

(* Real-valued weights on a connected graph, plus one isolated vertex n. *)
let weighted_with_isolated prng ~n =
  let base = Gen.random_connected prng ~n ~extra_edges:n in
  Graph.of_edges ~n:(n + 1)
    (List.map (fun (u, v, _) -> (u, v, 0.001 +. Prng.float prng 10.0)) (Graph.edges base))

let test_builders_isolated_vertex () =
  let g = Graph.of_edges ~n:4 [ (0, 1, 2.0); (1, 2, 0.5) ] in
  let p = Graph.transition_matrix g and l = Graph.laplacian g in
  Alcotest.(check bool) "transition" true (same_mat p (transition_per_entry g));
  Alcotest.(check bool) "laplacian" true (same_mat l (laplacian_per_entry g));
  (* Vertex 3 is isolated: a self-loop row, and a +0.0 Laplacian diagonal. *)
  Alcotest.(check (array (float 0.0))) "identity row" [| 0.0; 0.0; 0.0; 1.0 |]
    (Mat.row p 3);
  Alcotest.(check bool) "zero diagonal" true (same_bits (Mat.get l 3 3) 0.0);
  (* Non-edges of D - A are the negated zero weight. *)
  List.iter
    (fun (u, v) ->
      Alcotest.(check bool) (Printf.sprintf "L(%d,%d) = -0.0" u v) true
        (same_bits (Mat.get l u v) (-0.0)))
    [ (0, 2); (2, 0); (0, 3); (3, 1) ];
  Alcotest.(check bool) "edge entry" true (same_bits (Mat.get l 1 2) (-0.5))

(* Log-uniform weights over [1e-3, 1e3]. They are not dyadic, so a sum or
   a solve taken in another order lands on other bits; integer weights
   would sum exactly and hide it. *)
let log_uniform_weights prng g =
  Graph.of_edges ~n:(Graph.n g)
    (List.map
       (fun (u, v, _) -> (u, v, Float.pow 10.0 (Prng.float prng 6.0 -. 3.0)))
       (Graph.edges g))

(* [edge_resistances] against one [effective_resistance] per edge. *)
let resistances_match g =
  let per_edge =
    List.map (fun (u, v, _) -> Graph.effective_resistance g u v) (Graph.edges g)
  in
  let r = Graph.edge_resistances g in
  Array.length r = List.length per_edge
  && List.for_all2 same_bits (Array.to_list r) per_edge

let test_edge_resistances_complete () =
  (* K40's grounds solve up to 39 right-hand sides at once against a
     39 x 39 minor. *)
  let g = log_uniform_weights (Prng.create ~seed:40) (Gen.complete 40) in
  Alcotest.(check bool) "bit for bit" true (resistances_match g)

let test_edge_resistances_disconnected () =
  let singular = Failure "Solve.lu_solve: singular matrix" in
  List.iter
    (fun (name, g) ->
      let u, v, _ = List.hd (Graph.edges g) in
      Alcotest.check_raises (name ^ ": one edge") singular (fun () ->
          ignore (Graph.effective_resistance g u v));
      Alcotest.check_raises (name ^ ": every edge") singular (fun () ->
          ignore (Graph.edge_resistances g)))
    [
      ("isolated vertex", Graph.of_edges ~n:4 [ (0, 1, 0.3); (1, 2, 7.1) ]);
      ( "two triangles",
        Graph.of_unweighted_edges ~n:6
          [ (0, 1); (1, 2); (0, 2); (3, 4); (4, 5); (3, 5) ] );
    ]

(* Foster's theorem: on any connected graph, sum_e w_e * R_eff(e) = n - 1.
   This is the identity that makes the audit plane's leverage oracle sum to
   the tree size, so pin it both on closed-form families and at random. *)
let foster_sum g =
  List.fold_left
    (fun acc (u, v, w) -> acc +. (w *. Graph.effective_resistance g u v))
    0.0 (Graph.edges g)

let test_foster_closed_forms () =
  List.iter
    (fun (name, g) ->
      check_float ~eps:1e-6 name
        (float_of_int (Graph.n g - 1))
        (foster_sum g))
    [
      ("path", Gen.path 6);
      ("cycle", Gen.cycle 7);
      ("complete", Gen.complete 6);
      ("grid", Gen.grid ~rows:2 ~cols:4);
      ( "weighted",
        Graph.of_edges ~n:4
          [ (0, 1, 2.5); (1, 2, 0.25); (2, 3, 3.0); (0, 3, 1.0); (0, 2, 0.5) ]
      );
    ]

(* --- Generators --- *)

let test_generator_shapes () =
  Alcotest.(check int) "path edges" 9 (Graph.num_edges (Gen.path 10));
  Alcotest.(check int) "cycle edges" 10 (Graph.num_edges (Gen.cycle 10));
  Alcotest.(check int) "complete edges" 45 (Graph.num_edges (Gen.complete 10));
  Alcotest.(check int) "star edges" 9 (Graph.num_edges (Gen.star 10));
  Alcotest.(check int) "grid edges" 12 (Graph.num_edges (Gen.grid ~rows:3 ~cols:3));
  Alcotest.(check int) "btree edges" 9 (Graph.num_edges (Gen.binary_tree 10))

let test_lollipop_shape () =
  let g = Gen.lollipop ~clique:5 ~tail:4 in
  Alcotest.(check int) "n" 9 (Graph.n g);
  Alcotest.(check int) "m" (10 + 4) (Graph.num_edges g);
  Alcotest.(check bool) "connected" true (Graph.is_connected g);
  Alcotest.(check int) "tail end degree" 1 (Graph.degree g 8)

let test_barbell_shape () =
  let g = Gen.barbell 4 in
  Alcotest.(check int) "n" 8 (Graph.n g);
  Alcotest.(check int) "m" 13 (Graph.num_edges g);
  Alcotest.(check bool) "connected" true (Graph.is_connected g)

let test_random_regular () =
  let prng = Prng.create ~seed:3 in
  let g = Gen.random_regular prng ~n:20 ~d:4 in
  Alcotest.(check bool) "connected" true (Graph.is_connected g);
  for v = 0 to 19 do
    Alcotest.(check int) "degree" 4 (Graph.degree g v)
  done

let test_er_connected () =
  let prng = Prng.create ~seed:4 in
  let g = Gen.erdos_renyi_connected prng ~n:30 ~p:0.3 in
  Alcotest.(check bool) "connected" true (Graph.is_connected g)

let test_random_weights_bounds () =
  let prng = Prng.create ~seed:5 in
  let g = Gen.random_weights prng (Gen.cycle 10) ~max_weight:7 in
  List.iter
    (fun (_, _, w) ->
      if w < 1.0 || w > 7.0 || Float.rem w 1.0 <> 0.0 then
        Alcotest.failf "weight %g out of bounds" w)
    (Graph.edges g)

let test_family_roundtrip () =
  List.iter
    (fun f ->
      let s = Gen.family_to_string f in
      Alcotest.(check string) "roundtrip" s
        (Gen.family_to_string (Gen.family_of_string s)))
    [ Gen.Path; Gen.Cycle; Gen.Complete; Gen.Lollipop; Gen.Erdos_renyi 0.25;
      Gen.Er_log 2.0; Gen.Regular 4 ]

let test_figure2_shape () =
  let g = Gen.figure2 () in
  Alcotest.(check int) "n" 4 (Graph.n g);
  Alcotest.(check int) "m" 3 (Graph.num_edges g);
  Alcotest.(check int) "hub degree" 3 (Graph.degree g 2)

let test_of_string_errors () =
  let open Alcotest in
  check_raises "empty" (Invalid_argument "Graph.of_string: empty input")
    (fun () -> ignore (Graph.of_string "  \n  "));
  check_raises "bad header"
    (Invalid_argument "Graph.of_string: expected 'n <count>' header") (fun () ->
      ignore (Graph.of_string "vertices 4\ne 0 1"));
  check_raises "bad edge" (Invalid_argument "Graph.of_string: bad edge line")
    (fun () -> ignore (Graph.of_string "n 4\nedge 0 1"));
  (* Every field must parse and nothing may trail them. *)
  List.iter
    (fun (what, s) ->
      check_raises what (Invalid_argument "Graph.of_string: bad edge line")
        (fun () -> ignore (Graph.of_string s)))
    [
      ("non-numeric weight", "n 3\ne 0 1 abc\ne 1 2 1");
      ("weight with a unit", "n 3\ne 0 1 2.5kg");
      ("trailing field", "n 3\ne 0 1 2 3");
      ("missing endpoint", "n 3\ne 0");
      ("non-numeric endpoint", "n 3\ne 1 two");
    ];
  List.iter
    (fun (what, s) ->
      check_raises what
        (Invalid_argument "Graph.of_string: expected 'n <count>' header")
        (fun () -> ignore (Graph.of_string s)))
    [
      ("header with trailing junk", "n 3 junk\ne 0 1");
      ("non-numeric count", "n three\ne 0 1");
    ];
  (* Tabs separate fields like spaces. *)
  Alcotest.(check (float 1e-9)) "tab-separated weight" 2.5
    (Graph.edge_weight (Graph.of_string "n\t2\ne\t0 1\t2.5") 0 1)

let test_of_string_comments_and_unweighted () =
  let g = Graph.of_string "# a comment\nn 3\ne 0 1\ne 1 2 2.5\n" in
  Alcotest.(check int) "n" 3 (Graph.n g);
  Alcotest.(check (float 1e-9)) "default weight" 1.0 (Graph.edge_weight g 0 1);
  Alcotest.(check (float 1e-9)) "explicit weight" 2.5 (Graph.edge_weight g 1 2)

let test_build_all_families () =
  let prng = Prng.create ~seed:77 in
  List.iter
    (fun fam ->
      let g = Gen.build prng fam ~n:16 in
      Alcotest.(check bool)
        (Gen.family_to_string fam ^ " connected")
        true (Graph.is_connected g))
    [ Gen.Path; Gen.Cycle; Gen.Complete; Gen.Star; Gen.Grid; Gen.Binary_tree;
      Gen.Lollipop; Gen.Barbell; Gen.Erdos_renyi 0.4; Gen.Er_log 3.0;
      Gen.Regular 4 ]

(* --- Spanning trees --- *)

let test_matrix_tree_known_counts () =
  (* Cayley: K_n has n^(n-2) trees; cycle has n; path has 1. *)
  check_float ~eps:1e-6 "K4" 16.0 (Tree.count (Gen.complete 4));
  check_float ~eps:1e-6 "K5" 125.0 (Tree.count (Gen.complete 5));
  check_float ~eps:1e-6 "C6" 6.0 (Tree.count (Gen.cycle 6));
  check_float ~eps:1e-6 "path" 1.0 (Tree.count (Gen.path 7))

let test_matrix_tree_disconnected () =
  let g = Graph.of_unweighted_edges ~n:4 [ (0, 1); (2, 3) ] in
  check_float "disconnected" 0.0 (Tree.count g)

let test_enumerate_matches_matrix_tree () =
  List.iter
    (fun g ->
      let trees = Tree.enumerate g in
      List.iter
        (fun t ->
          if not (Tree.is_spanning_tree g t) then
            Alcotest.fail "enumerated non-tree")
        trees;
      check_float ~eps:1e-6 "count matches"
        (Tree.count g)
        (float_of_int (List.length trees)))
    [ Gen.complete 4; Gen.cycle 5; Gen.grid ~rows:2 ~cols:3;
      Graph.of_unweighted_edges ~n:4 [ (0, 1); (1, 2); (2, 3); (3, 0); (0, 2) ] ]

let test_enumerate_weighted_count () =
  (* Weighted Matrix-Tree: count = sum over trees of weight products. *)
  let g = Graph.of_edges ~n:3 [ (0, 1, 2.0); (1, 2, 3.0); (0, 2, 5.0) ] in
  let trees = Tree.enumerate g in
  let total =
    List.fold_left (fun acc t -> acc +. Tree.weight g t) 0.0 trees
  in
  check_float ~eps:1e-9 "weighted count" total (Tree.count g);
  check_float ~eps:1e-9 "value" 31.0 total

let test_tree_validation () =
  let g = Gen.cycle 4 in
  let good = Tree.of_edges ~n:4 [ (0, 1); (1, 2); (2, 3) ] in
  let cycle = Tree.of_edges ~n:4 [ (0, 1); (1, 2); (2, 3) ] in
  Alcotest.(check bool) "valid tree" true (Tree.is_spanning_tree g good);
  Alcotest.(check bool) "same edges equal" true (Tree.equal good cycle);
  let not_spanning = Tree.of_edges ~n:4 [ (0, 1); (1, 2) ] in
  Alcotest.(check bool) "too few edges" false (Tree.is_spanning_tree g not_spanning);
  let with_cycle = Tree.of_edges ~n:4 [ (0, 1); (1, 2); (0, 2) ] in
  Alcotest.(check bool) "cyclic" false (Tree.is_spanning_tree g with_cycle);
  let foreign = Tree.of_edges ~n:4 [ (0, 2); (1, 3); (0, 1) ] in
  Alcotest.(check bool) "edges not in graph" false (Tree.is_spanning_tree g foreign)

let test_tree_index () =
  let g = Gen.complete 4 in
  let trees, lookup = Tree.index g in
  Alcotest.(check int) "16 trees" 16 (Array.length trees);
  Array.iteri
    (fun i t -> Alcotest.(check int) "self lookup" i (lookup t))
    trees;
  let d = Tree.weighted_distribution g trees in
  check_float "uniform on unweighted" (1.0 /. 16.0) (Dist.prob d 0)

let test_tree_mem () =
  let t = Tree.of_edges ~n:4 [ (2, 1); (0, 3) ] in
  Alcotest.(check bool) "mem normalized" true (Tree.mem t 1 2);
  Alcotest.(check bool) "mem reversed" true (Tree.mem t 2 1);
  Alcotest.(check bool) "not mem" false (Tree.mem t 0 1)

(* --- spectral --- *)

let test_spectral_complete_graph () =
  (* K_n: lambda_2 = -1/(n-1) for the walk matrix. *)
  let n = 8 in
  let l2 = Cc_graph.Spectral.second_eigenvalue (Gen.complete n) in
  check_float ~eps:1e-6 "K8 lambda2" (-1.0 /. float_of_int (n - 1)) l2

let test_spectral_cycle () =
  (* C_n: lambda_2 = cos(2 pi / n); lambda_n = -1 when n even (bipartite). *)
  let n = 8 in
  let g = Gen.cycle n in
  check_float ~eps:1e-6 "C8 lambda2"
    (Float.cos (2.0 *. Float.pi /. float_of_int n))
    (Cc_graph.Spectral.second_eigenvalue g);
  check_float ~eps:1e-6 "C8 lambda_min" (-1.0)
    (Cc_graph.Spectral.smallest_eigenvalue g)

let test_spectral_gap_ordering () =
  (* Expanders have much larger lazy gaps than paths. *)
  let prng = Prng.create ~seed:88 in
  let expander = Gen.random_regular prng ~n:32 ~d:6 in
  let path = Gen.path 32 in
  let ge = Cc_graph.Spectral.gap expander in
  let gp = Cc_graph.Spectral.gap path in
  Alcotest.(check bool)
    (Printf.sprintf "expander gap %.4f >> path gap %.4f" ge gp)
    true
    (ge > 10.0 *. gp)

let test_mixing_time_bound_positive () =
  let g = Gen.complete 6 in
  let t = Cc_graph.Spectral.mixing_time_bound g ~eps:0.01 in
  Alcotest.(check bool) "finite positive" true (Float.is_finite t && t > 0.0)

(* --- qcheck properties --- *)

let qcheck_tests =
  let open QCheck in
  let params = make Gen.(pair (int_range 4 12) (int_range 0 10_000)) in
  [
    Test.make ~name:"random_connected is connected" ~count:100 params
      (fun (n, seed) ->
        let prng = Prng.create ~seed in
        Graph.is_connected (Cc_graph.Gen.random_connected prng ~n ~extra_edges:(n / 2)));
    Test.make ~name:"fingerprint is edge-order invariant" ~count:100 params
      (fun (n, seed) ->
        let prng = Prng.create ~seed in
        let g =
          Cc_graph.Gen.random_weights prng
            (Cc_graph.Gen.random_connected prng ~n ~extra_edges:n)
            ~max_weight:8
        in
        let edges = Array.of_list (Graph.edges g) in
        (* Fisher–Yates shuffle driven by the test prng. *)
        for i = Array.length edges - 1 downto 1 do
          let j = Prng.int prng (i + 1) in
          let tmp = edges.(i) in
          edges.(i) <- edges.(j);
          edges.(j) <- tmp
        done;
        let g' = Graph.of_edges ~n (Array.to_list edges) in
        String.equal (Graph.fingerprint g) (Graph.fingerprint g'));
    Test.make ~name:"laplacian rows sum to zero" ~count:100 params
      (fun (n, seed) ->
        let prng = Prng.create ~seed in
        let g = Cc_graph.Gen.random_connected prng ~n ~extra_edges:n in
        Array.for_all (fun s -> Float.abs s < 1e-9)
          (Mat.row_sums (Graph.laplacian g)));
    Test.make ~name:"transition matrix is stochastic" ~count:100 params
      (fun (n, seed) ->
        let prng = Prng.create ~seed in
        let g = Cc_graph.Gen.random_connected prng ~n ~extra_edges:n in
        Mat.is_row_stochastic (Graph.transition_matrix g));
    Test.make ~name:"matrix-tree count >= 1 on connected graphs" ~count:100
      params (fun (n, seed) ->
        let prng = Prng.create ~seed in
        let g = Cc_graph.Gen.random_connected prng ~n ~extra_edges:2 in
        Tree.count g >= 0.999);
    Test.make ~name:"aldous-broder style first-visit edges of any walk form a forest"
      ~count:100 params (fun (n, seed) ->
        (* The tree machinery accepts partial walks too: first-visit edges of
           any prefix always form an acyclic edge set. *)
        let prng = Prng.create ~seed in
        let g = Cc_graph.Gen.random_connected prng ~n ~extra_edges:3 in
        let steps = 3 * n in
        let current = ref 0 in
        let seen = Hashtbl.create 16 in
        Hashtbl.add seen 0 ();
        let edges = ref [] in
        for _ = 1 to steps do
          let nbrs = Graph.neighbors g !current in
          let next, _ = nbrs.(Prng.int prng (Array.length nbrs)) in
          if not (Hashtbl.mem seen next) then begin
            Hashtbl.add seen next ();
            edges := (!current, next) :: !edges
          end;
          current := next
        done;
        (* Forest check: union-find never finds a cycle. *)
        let parent = Array.init n (fun i -> i) in
        let rec find i = if parent.(i) = i then i else (parent.(i) <- find parent.(i); parent.(i)) in
        List.for_all
          (fun (u, v) ->
            let ru = find u and rv = find v in
            if ru = rv then false else (parent.(ru) <- rv; true))
          !edges);
    Test.make ~name:"spectral: lambda_2 in (-1, 1) and gap in (0, 1]" ~count:25
      params (fun (n, seed) ->
        let prng = Prng.create ~seed in
        let g = Cc_graph.Gen.random_connected prng ~n ~extra_edges:n in
        let l2 = Cc_graph.Spectral.second_eigenvalue ~iters:2000 g in
        let gp = Cc_graph.Spectral.gap ~iters:2000 g in
        l2 < 1.0 -. 1e-9 && l2 > -1.0 -. 1e-9 && gp > 0.0 && gp <= 1.0);
    Test.make ~name:"effective resistance <= shortest path length" ~count:50
      params (fun (n, seed) ->
        let prng = Prng.create ~seed in
        let g = Cc_graph.Gen.random_connected prng ~n ~extra_edges:n in
        (* Rayleigh: resistance between path endpoints is at most its length. *)
        Graph.effective_resistance g 0 (n - 1) <= float_of_int n +. 1e-6);
    Test.make ~name:"edge resistances match effective_resistance bit for bit"
      ~count:100 params (fun (n, seed) ->
        (* Path, lollipop and barbell have bridges. *)
        let prng = Prng.create ~seed in
        List.for_all
          (fun g -> resistances_match (log_uniform_weights prng g))
          [
            Cc_graph.Gen.random_connected prng ~n ~extra_edges:(2 * n);
            Cc_graph.Gen.path n;
            Cc_graph.Gen.lollipop ~clique:(n / 2) ~tail:(n - (n / 2));
            Cc_graph.Gen.barbell (n / 2);
          ]);
    Test.make ~name:"Foster's theorem on random weighted graphs" ~count:50
      params (fun (n, seed) ->
        let prng = Prng.create ~seed in
        let g =
          Cc_graph.Gen.random_weights prng
            (Cc_graph.Gen.random_connected prng ~n ~extra_edges:n)
            ~max_weight:8
        in
        Float.abs (foster_sum g -. float_of_int (n - 1)) < 1e-6);
    Test.make ~name:"transition and laplacian match their per-entry definitions"
      ~count:100 params (fun (n, seed) ->
        let prng = Prng.create ~seed in
        List.for_all
          (fun g ->
            same_mat (Graph.transition_matrix g) (transition_per_entry g)
            && same_mat (Graph.laplacian g) (laplacian_per_entry g))
          [
            weighted_with_isolated prng ~n;
            Cc_graph.Gen.random_connected prng ~n ~extra_edges:n;
          ]);
  ]

let () =
  let qsuite = List.map QCheck_alcotest.to_alcotest qcheck_tests in
  Alcotest.run "cc_graph"
    [
      ( "structure",
        [
          Alcotest.test_case "basics" `Quick test_basic_structure;
          Alcotest.test_case "rejects malformed" `Quick test_rejects_malformed;
          Alcotest.test_case "weighted degree" `Quick test_weighted_degree;
          Alcotest.test_case "deg_in" `Quick test_deg_in;
          Alcotest.test_case "disconnected" `Quick test_disconnected;
          Alcotest.test_case "serialization" `Quick test_serialization_roundtrip;
          Alcotest.test_case "fingerprint invariance" `Quick
            test_fingerprint_permutation_invariant;
          Alcotest.test_case "fingerprint sensitivity" `Quick
            test_fingerprint_sensitivity;
        ] );
      ( "matrices",
        [
          Alcotest.test_case "transition stochastic" `Quick test_transition_matrix_stochastic;
          Alcotest.test_case "weighted transition" `Quick test_transition_weighted;
          Alcotest.test_case "laplacian rows" `Quick test_laplacian_row_sums;
          Alcotest.test_case "laplacian roundtrip" `Quick test_laplacian_roundtrip;
          Alcotest.test_case "resistance series" `Quick test_effective_resistance_path;
          Alcotest.test_case "resistance parallel" `Quick test_effective_resistance_parallel;
          Alcotest.test_case "resistance weighted series" `Quick
            test_effective_resistance_weighted_series;
          Alcotest.test_case "resistance cycle" `Quick test_effective_resistance_cycle;
          Alcotest.test_case "Foster closed forms" `Quick test_foster_closed_forms;
          Alcotest.test_case "resistance rejects bad vertices" `Quick
            test_effective_resistance_rejects_bad_vertices;
          Alcotest.test_case "builders on an isolated vertex" `Quick
            test_builders_isolated_vertex;
          Alcotest.test_case "edge resistances on K40" `Quick
            test_edge_resistances_complete;
          Alcotest.test_case "edge resistances when disconnected" `Quick
            test_edge_resistances_disconnected;
        ] );
      ( "generators",
        [
          Alcotest.test_case "shapes" `Quick test_generator_shapes;
          Alcotest.test_case "lollipop" `Quick test_lollipop_shape;
          Alcotest.test_case "barbell" `Quick test_barbell_shape;
          Alcotest.test_case "random regular" `Quick test_random_regular;
          Alcotest.test_case "er connected" `Quick test_er_connected;
          Alcotest.test_case "random weights" `Quick test_random_weights_bounds;
          Alcotest.test_case "family parsing" `Quick test_family_roundtrip;
          Alcotest.test_case "figure 2 graph" `Quick test_figure2_shape;
          Alcotest.test_case "of_string errors" `Quick test_of_string_errors;
          Alcotest.test_case "of_string format" `Quick test_of_string_comments_and_unweighted;
          Alcotest.test_case "all families build" `Quick test_build_all_families;
        ] );
      ( "trees",
        [
          Alcotest.test_case "matrix-tree counts" `Quick test_matrix_tree_known_counts;
          Alcotest.test_case "matrix-tree disconnected" `Quick test_matrix_tree_disconnected;
          Alcotest.test_case "enumerate = matrix-tree" `Quick test_enumerate_matches_matrix_tree;
          Alcotest.test_case "weighted enumeration" `Quick test_enumerate_weighted_count;
          Alcotest.test_case "validation" `Quick test_tree_validation;
          Alcotest.test_case "index" `Quick test_tree_index;
          Alcotest.test_case "membership" `Quick test_tree_mem;
        ] );
      ( "spectral",
        [
          Alcotest.test_case "complete graph" `Quick test_spectral_complete_graph;
          Alcotest.test_case "cycle" `Quick test_spectral_cycle;
          Alcotest.test_case "gap ordering" `Quick test_spectral_gap_ordering;
          Alcotest.test_case "mixing bound" `Quick test_mixing_time_bound_positive;
        ] );
      ("properties", qsuite);
    ]
