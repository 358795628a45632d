(* Tests for Cc_schur: the Schur complement graph (Definition 1) and the
   shortcut graph (Definition 2), exact and via the paper's powering route
   (Corollaries 3-4), the Figure 2 worked example, and the Algorithm 4
   first-visit-edge resampling. *)

module Graph = Cc_graph.Graph
module Gen = Cc_graph.Gen
module Walk = Cc_walks.Walk
module Schur = Cc_schur.Schur
module Shortcut = Cc_schur.Shortcut
module Mat = Cc_linalg.Mat
module Prng = Cc_util.Prng
module Dist = Cc_util.Dist

let check_float ?(eps = 1e-9) msg expected actual =
  if Float.abs (expected -. actual) > eps then
    Alcotest.failf "%s: expected %.12g, got %.12g" msg expected actual

(* --- Figure 2 (bench E8's assertion, as a unit test) --- *)

let test_figure2_schur () =
  (* S = {A=0, B=1, D=3}: the Schur walk is uniform over the other two
     S-vertices, by block elimination and from the visited block. *)
  let g = Gen.figure2 () in
  let s = [| 0; 1; 3 |] in
  List.iter
    (fun t ->
      for i = 0 to 2 do
        check_float ~eps:1e-9 "diag" 0.0 (Mat.get t i i);
        for j = 0 to 2 do
          if i <> j then check_float ~eps:1e-9 "uniform" 0.5 (Mat.get t i j)
        done
      done)
    [ Schur.transition_exact g ~s; (Schur.phase_exact g ~s).transition ]

let test_figure2_shortcut () =
  (* Every walk enters S through hub C=2: Q[u, C] = 1 for all u, and the
     visited block's rows of S = {A, B, D} say the same. *)
  let g = Gen.figure2 () in
  let in_s = [| true; true; false; true |] in
  let check q rows =
    Array.iter
      (fun u ->
        check_float ~eps:1e-9 (Printf.sprintf "Q[%d,C]" u) 1.0 (Mat.get q u 2);
        for v = 0 to 3 do
          if v <> 2 then
            check_float ~eps:1e-9 "zero elsewhere" 0.0 (Mat.get q u v)
        done)
      rows
  in
  check (Shortcut.exact g ~in_s) [| 0; 1; 2; 3 |];
  check (Schur.phase_exact g ~s:[| 0; 1; 3 |]).q_rows [| 0; 1; 2 |]

(* --- Schur complement structure --- *)

let test_schur_is_stochastic () =
  let prng = Prng.create ~seed:1 in
  let g = Gen.random_connected prng ~n:10 ~extra_edges:8 in
  let s = [| 0; 2; 5; 7; 9 |] in
  let t = Schur.transition_exact g ~s in
  Alcotest.(check bool) "stochastic" true (Shared.is_row_stochastic ~tol:1e-7 t)

let test_schur_keep_all_is_identity () =
  let g = Gen.cycle 6 in
  let s = Array.init 6 (fun i -> i) in
  let t = Schur.transition_exact g ~s in
  Alcotest.(check bool) "same transition" true
    (Shared.mat_equal ~tol:1e-9 t (Graph.transition_matrix g))

let test_schur_path_elimination () =
  (* Path 0-1-2 with S = {0,2}: eliminating the middle vertex yields a single
     edge; the Schur walk goes deterministically to the other endpoint. *)
  let g = Gen.path 3 in
  let t = Schur.transition_exact g ~s:[| 0; 2 |] in
  check_float "0->2" 1.0 (Mat.get t 0 1);
  check_float "2->0" 1.0 (Mat.get t 1 0)

let test_schur_graph_weights_path () =
  (* Series resistors: eliminating the middle of a path of two unit edges
     gives a single edge of weight 1/2 (conductances in series). *)
  let g = Gen.path 3 in
  let sg = Reference.graph_exact g ~s:[| 0; 2 |] in
  Alcotest.(check int) "one edge" 1 (Graph.num_edges sg);
  check_float ~eps:1e-9 "weight 1/2" 0.5 (Graph.edge_weight sg 0 1)

(* The central semantic property: a transition of the walk on SCHUR(G,S)
   from u has the law of the first vertex in S \ {u} that a walk on G from u
   visits (the paper's implicit definition of the matrix S, which has no
   self-loops — so the filtered G-walk collapses consecutive duplicates). *)
let schur_walk_equivalence ~seed ~n ~extra ~s_size ~steps ~trials =
  let prng = Prng.create ~seed in
  let g = Gen.random_connected prng ~n ~extra_edges:extra in
  let s = Prng.subset prng ~size:s_size (Array.init n (fun i -> i)) in
  Array.sort compare s;
  let t = Schur.transition_exact g ~s in
  let pos_of = Hashtbl.create s_size in
  Array.iteri (fun i v -> Hashtbl.add pos_of v i) s;
  let in_s = Schur.members ~n ~s in
  (* Compare the distribution of the position after [steps] S-transitions. *)
  let counts_schur = Array.make s_size 0 in
  let counts_filtered = Array.make s_size 0 in
  for _ = 1 to trials do
    (* Walk directly on the Schur graph. *)
    let v = ref 0 in
    for _ = 1 to steps do
      v := Dist.sample_weights (Mat.row t !v) prng
    done;
    counts_schur.(!v) <- counts_schur.(!v) + 1;
    (* Walk on G; one Schur transition = first arrival at an S vertex
       different from the current S position. *)
    let u = ref s.(0) in
    for _ = 1 to steps do
      let from = !u in
      let c = ref from in
      let continue = ref true in
      while !continue do
        c := Walk.step g prng !c;
        if in_s.(!c) && !c <> from then continue := false
      done;
      u := !c
    done;
    counts_filtered.(Hashtbl.find pos_of !u) <- counts_filtered.(Hashtbl.find pos_of !u) + 1
  done;
  Dist.tv (Dist.empirical counts_schur) (Dist.empirical counts_filtered)

let test_schur_walk_equivalence () =
  let tv = schur_walk_equivalence ~seed:2 ~n:9 ~extra:6 ~s_size:4 ~steps:3 ~trials:20_000 in
  Alcotest.(check bool) (Printf.sprintf "walk tv %.4f" tv) true (tv < 0.025)

let test_schur_quotient_property_graphs () =
  (* Eliminating in two stages equals eliminating at once, at the graph
     level: SCHUR(SCHUR(G, S1), S2-relabeled) = SCHUR(G, S2). *)
  let prng = Prng.create ~seed:40 in
  let g = Gen.random_connected prng ~n:10 ~extra_edges:8 in
  let s1 = [| 0; 2; 3; 5; 7; 9 |] in
  let s2 = [| 0; 3; 7; 9 |] in
  let direct = Schur.transition_exact g ~s:s2 in
  let stage1 = Reference.graph_exact g ~s:s1 in
  (* Positions of s2's vertices inside s1's ordering. *)
  let pos v =
    let rec go i = if s1.(i) = v then i else go (i + 1) in
    go 0
  in
  let staged = Schur.transition_exact stage1 ~s:(Array.map pos s2) in
  Alcotest.(check bool) "quotient property" true
    (Mat.max_abs_diff direct staged < 1e-7)

let test_schur_weighted_graph () =
  (* The Schur machinery must respect edge weights end to end. *)
  let g = Graph.of_edges ~n:4 [ (0, 1, 2.0); (1, 2, 1.0); (2, 3, 3.0); (3, 0, 1.0) ] in
  let t = Schur.transition_exact g ~s:[| 0; 2 |] in
  Alcotest.(check bool) "stochastic" true (Shared.is_row_stochastic ~tol:1e-9 t);
  (* Both S-vertices always reach the other one first (the only S vertex
     besides themselves). *)
  Alcotest.(check (float 1e-9)) "forced transition" 1.0 (Mat.get t 0 1)

(* --- Shortcut structure --- *)

let test_shortcut_rows_stochastic () =
  let prng = Prng.create ~seed:3 in
  let g = Gen.random_connected prng ~n:8 ~extra_edges:6 in
  let in_s = Array.init 8 (fun i -> i mod 2 = 0) in
  let q = Shortcut.exact g ~in_s in
  Alcotest.(check bool) "rows sum to 1" true (Shared.is_row_stochastic ~tol:1e-7 q)

let test_shortcut_empirical () =
  (* Monte-Carlo the definition: from u, record the vertex visited just
     before the first S-visit; compare with Q's row. *)
  let prng = Prng.create ~seed:4 in
  let g = Gen.random_connected prng ~n:8 ~extra_edges:5 in
  let in_s = [| false; true; false; true; false; false; true; false |] in
  let q = Shortcut.exact g ~in_s in
  let u = 0 in
  let counts = Array.make 8 0 in
  let trials = 30_000 in
  for _ = 1 to trials do
    let prev = ref u and current = ref u and stop = ref false in
    while not !stop do
      let next = Walk.step g prng !current in
      prev := !current;
      current := next;
      if in_s.(next) then stop := true
    done;
    counts.(!prev) <- counts.(!prev) + 1
  done;
  let tv = Dist.tv_counts ~counts (Dist.of_weights (Mat.row q u)) in
  Alcotest.(check bool) (Printf.sprintf "empirical tv %.4f" tv) true (tv < 0.015)

let test_shortcut_approx_converges () =
  let prng = Prng.create ~seed:5 in
  let g = Gen.random_connected prng ~n:8 ~extra_edges:5 in
  let in_s = Array.init 8 (fun i -> i < 3) in
  let exact = Shortcut.exact g ~in_s in
  let errs =
    List.map
      (fun k ->
        Mat.max_subtractive_error ~exact ~approx:(Shortcut.approx g ~in_s ~k))
      [ 4; 16; 64; 256 ]
  in
  (* Error decreases and becomes tiny; also one-sided (under-approximation)
     by construction of the absorbing chain. *)
  let rec decreasing = function
    | a :: (b :: _ as rest) -> a >= b -. 1e-12 && decreasing rest
    | _ -> true
  in
  Alcotest.(check bool) "error decreasing" true (decreasing errs);
  Alcotest.(check bool)
    (Printf.sprintf "final error %.3e small" (List.nth errs 3))
    true
    (List.nth errs 3 < 1e-6)

let test_schur_approx_matches_exact () =
  let prng = Prng.create ~seed:7 in
  let g = Gen.random_connected prng ~n:9 ~extra_edges:6 in
  let s = [| 1; 3; 4; 8 |] in
  let exact = Schur.transition_exact g ~s in
  let approx = Schur.approx g ~s ~k:4096 in
  let err = Mat.max_abs_diff exact approx in
  Alcotest.(check bool) (Printf.sprintf "max err %.3e" err) true (err < 1e-6)

let test_schur_approx_with_rounding () =
  let prng = Prng.create ~seed:8 in
  let g = Gen.random_connected prng ~n:8 ~extra_edges:5 in
  let s = [| 0; 2; 6 |] in
  let exact = Schur.transition_exact g ~s in
  let approx = Schur.approx ~bits:40 g ~s ~k:1024 in
  let err = Mat.max_abs_diff exact approx in
  Alcotest.(check bool) (Printf.sprintf "rounded err %.3e" err) true (err < 1e-4)

(* --- Algorithm 4: first-visit edge resampling --- *)

let test_first_visit_weights_empirical () =
  (* Ground truth by simulation: walk from w_prev on G until first visit to
     S \ {w_prev}; given that vertex is [target], histogram the predecessor.
     Compare against the Algorithm 4 weights Q[prev,u]/deg_S(u) restricted to
     neighbors of target. *)
  let prng = Prng.create ~seed:9 in
  let g = Gen.random_connected prng ~n:8 ~extra_edges:6 in
  let in_s = [| true; false; true; false; true; false; false; true |] in
  let prev = 0 in
  (* Pick target: an S vertex != prev. *)
  let target = 4 in
  let q = Shortcut.exact g ~in_s in
  let ws = Array.init (Graph.n g) (Shortcut.s_weight g ~in_s) in
  let weights = Shortcut.first_visit_weights g q ~ws ~row:prev ~target in
  let expected =
    Dist.of_weights (Array.map snd weights)
  in
  let nbr_index = Hashtbl.create 8 in
  Array.iteri (fun i (u, _) -> Hashtbl.add nbr_index u i) weights;
  let counts = Array.make (Array.length weights) 0 in
  let hits = ref 0 in
  let trials = 200_000 in
  for _ = 1 to trials do
    (* Walk until first visit to an S vertex other than prev. *)
    let p = ref prev and c = ref prev and stop = ref false in
    while not !stop do
      let next = Walk.step g prng !c in
      p := !c;
      c := next;
      if in_s.(next) && next <> prev then stop := true
    done;
    if !c = target then begin
      incr hits;
      let i = Hashtbl.find nbr_index !p in
      counts.(i) <- counts.(i) + 1
    end
  done;
  Alcotest.(check bool) "enough conditioning hits" true (!hits > 5000);
  let tv = Dist.tv_counts ~counts expected in
  Alcotest.(check bool) (Printf.sprintf "algorithm 4 tv %.4f" tv) true (tv < 0.02)

(* --- bit identity of the adjacency-driven R --- *)

(* Corollary 4's normalization with R[u,v] = w(u,v)/w_S(u) built entry by
   entry, as the library built it before filling R from adjacency rows.
   transition_via_shortcut must agree with it bit for bit. *)
let transition_via_per_entry_r g q ~s =
  let n = Graph.n g in
  let in_s = Schur.members ~n ~s in
  let ws = Array.init n (Shortcut.s_weight g ~in_s) in
  let r =
    Mat.init ~rows:n ~cols:n (fun u v ->
        if ws.(u) = 0.0 then if u = v then 1.0 else 0.0
        else if in_s.(v) then Graph.edge_weight g u v /. ws.(u)
        else 0.0)
  in
  let m = Mat.mul q r in
  let k = Array.length s in
  Mat.init ~rows:k ~cols:k (fun i j ->
      if i = j then 0.0
      else
        let u = s.(i) and v = s.(j) in
        let denom = 1.0 -. Mat.get m u u in
        if denom <= 0.0 then 0.0 else Mat.get m u v /. denom)

let same_mat a b =
  let bits x = Int64.bits_of_float x in
  Mat.rows a = Mat.rows b
  && Mat.cols a = Mat.cols b
  && Array.for_all2
       (fun x y -> Int64.equal (bits x) (bits y))
       (Mat.data a) (Mat.data b)

(* --- the visited-block state --- *)

(* The eleven Gen families, as test/linalg draws them. *)
let families =
  [| "path"; "cycle"; "complete"; "star"; "grid"; "btree"; "lollipop";
     "barbell"; "er:0.5"; "erlog:3"; "regular:4" |]

let reweight prng g ~f =
  Graph.of_edges ~n:(Graph.n g)
    (List.map (fun (u, v, w) -> (u, v, f prng w)) (Graph.edges g))

(* A family graph, unweighted (weights 0), with integer weights in
   [1, 1000] (1), or with log-uniform weights over [1e-3, 1e3] (2) or
   [1e-6, 1e6] (3); and a random S of 2 to n vertices, in random order. *)
let random_phase (f, n, weights, seed) =
  let prng = Prng.create ~seed in
  let g =
    Cc_graph.Gen.build prng (Cc_graph.Gen.family_of_string families.(f)) ~n
  in
  let log_uniform span =
    reweight prng g ~f:(fun prng _ ->
        Float.pow 10.0 (Prng.float prng (2.0 *. span) -. span))
  in
  let g =
    match weights with
    | 0 -> g
    | 1 -> Cc_graph.Gen.random_weights prng g ~max_weight:1000
    | 2 -> log_uniform 3.0
    | _ -> log_uniform 6.0
  in
  let n = Graph.n g in
  let s = Prng.subset prng ~size:(2 + Prng.int prng (n - 1)) (Array.init n Fun.id) in
  Prng.shuffle prng s;
  (g, s)

let finite_nonnegative m =
  Array.for_all (fun x -> Float.is_finite x && x >= 0.0) (Mat.data m)

(* [phase_exact] against its references, within 1e-12 at every weighting:
   Q's rows of S against [Shortcut.exact]'s, the transition against the
   sanitized Corollary 4 route on that Q and against block elimination
   ([transition_exact], the walk on W_S); the state with every weight
   scaled by 1e-14 against the unscaled one; and every entry finite and
   nonnegative. Every route reads the same subtraction-free elimination,
   and the worst gap between them measured 6.7e-16 (DESIGN.md §18). *)
let phase_exact_matches_references (g, s) =
  let n = Graph.n g in
  let in_s = Schur.members ~n ~s in
  let { Schur.q_rows; transition } = Schur.phase_exact g ~s in
  let q = Shortcut.exact g ~in_s in
  let via = Mat.sanitize_stochastic (Schur.transition_via_shortcut g q ~s) in
  let rows = Mat.submatrix q ~row_idx:s ~col_idx:(Array.init n Fun.id) in
  let tiny = Schur.phase_exact (reweight () g ~f:(fun () w -> w *. 1e-14)) ~s in
  let tol = 1e-12 in
  Mat.max_abs_diff q_rows rows <= tol
  && Mat.max_abs_diff transition via <= tol
  && Mat.max_abs_diff transition (Schur.transition_exact g ~s) <= tol
  && Mat.max_abs_diff tiny.transition transition <= tol
  && Mat.max_abs_diff tiny.q_rows q_rows <= tol
  && finite_nonnegative q_rows
  && finite_nonnegative transition
  && finite_nonnegative tiny.q_rows

(* [phase_exact] against the LU of test/schur/reference.ml, which solves
   I - P_UU in transition units: within 1e-11 on unweighted graphs and
   integer weights up to 1000, and 1e-8 at log-uniform 1e-3..1e3, where the
   LU's own error grows (measured gaps 4.2e-15, 2.7e-13 and 9.1e-11).
   Algorithm 4's weights of every (row, target) pair of S, computed from
   the library's Q rows on both sides, match bit for bit. *)
let phase_state_matches_reference weights (g, s) =
  let n = Graph.n g in
  let in_s = Schur.members ~n ~s in
  let ph = Schur.phase_exact g ~s and r = Reference.phase_exact g ~s in
  let tol = if weights <= 1 then 1e-11 else 1e-8 in
  let ws = Array.init n (Shortcut.s_weight g ~in_s) in
  let same_weights (u, w) (u', w') =
    u = u' && Int64.equal (Int64.bits_of_float w) (Int64.bits_of_float w')
  in
  Mat.max_abs_diff ph.q_rows r.q_rows <= tol
  && Mat.max_abs_diff ph.transition r.transition <= tol
  && Array.for_all
       (fun row ->
         Array.for_all
           (fun target ->
             Array.for_all2 same_weights
               (Shortcut.first_visit_weights g ph.q_rows ~ws ~row ~target)
               (Reference.first_visit_weights g ph.q_rows ~in_s ~row ~target))
           s)
       (Array.init (Array.length s) Fun.id)

(* Every oracle is invariant under scaling every weight by c, up to the
   power of c its units carry: the phase state, SCHUR(G, S)'s transition
   and the mean hitting time do not move, the log-count moves by
   (n - 1) ln c and the grounded inverse by 1/c. Each result of the scaled graph, brought
   back by that power, stays within 1e-12 of the unscaled one, relative to
   its largest entry, at c = 1e-14 and 1e14; the log-count relative to the
   scaled one, a sum of logs near (n - 1) ln c whose own rounding is
   relative to it. The LU this elimination replaced moved the phase state
   by up to 7.3e-6 at 1e-6..1e6 (DESIGN.md §18). *)
let scaling_moves_nothing (g, s) =
  let n = Graph.n g in
  let relative a b =
    let scale = Array.fold_left (fun m x -> Float.max m (Float.abs x)) 0.0 b in
    let gap = ref 0.0 in
    Array.iteri (fun i x -> gap := Float.max !gap (Float.abs (x -. b.(i)))) a;
    !gap <= 1e-12 *. scale
  in
  let ph = Schur.phase_exact g ~s in
  let schur = Mat.data (Schur.transition_exact g ~s) in
  let log_count = Cc_graph.Tree.log_count g in
  let inverse = Mat.data (Graph.grounded_inverse g ~ground:s.(0)) in
  let hitting = [| Cc_walks.Hitting.mean_hitting_time g |] in
  List.for_all
    (fun c ->
      let gc = reweight () g ~f:(fun () w -> w *. c) in
      let phc = Schur.phase_exact gc ~s in
      relative (Mat.data phc.q_rows) (Mat.data ph.q_rows)
      && relative (Mat.data phc.transition) (Mat.data ph.transition)
      && relative (Mat.data (Schur.transition_exact gc ~s)) schur
      && (let scaled = Cc_graph.Tree.log_count gc in
          Float.abs (scaled -. (float_of_int (n - 1) *. Float.log c) -. log_count)
          <= 1e-12 *. Float.max 1.0 (Float.abs scaled))
      && relative
           (Array.map (fun x -> x *. c)
              (Mat.data (Graph.grounded_inverse gc ~ground:s.(0))))
           inverse
      && relative [| Cc_walks.Hitting.mean_hitting_time gc |] hitting)
    [ 1e-14; 1e14 ]

(* --- qcheck --- *)

(* A family, a size, one of the four weightings of [random_phase] and a
   seed. *)
let phase_case =
  QCheck.make
    QCheck.Gen.(
      quad
        (int_range 0 (Array.length families - 1))
        (int_range 6 24) (int_range 0 3) (int_range 0 1_000_000))

let qcheck_tests =
  let open QCheck in
  let params = make Gen.(pair (int_range 5 10) (int_range 0 10_000)) in
  [
    Test.make ~name:"phase_exact matches Shortcut.exact and block elimination"
      ~count:500 phase_case (fun params ->
        phase_exact_matches_references (random_phase params));
    Test.make
      ~name:"phase state and first-visit weights match the LU reference"
      ~count:300
      (make
         Gen.(
           quad
             (int_range 0 (Array.length families - 1))
             (int_range 6 24) (int_range 0 2) (int_range 0 1_000_000)))
      (fun ((_, _, weights, _) as params) ->
        phase_state_matches_reference weights (random_phase params));
    Test.make ~name:"scaling every weight by 1e-14 or 1e14 moves no oracle"
      ~count:300 phase_case (fun params ->
        scaling_moves_nothing (random_phase params));
    Test.make ~name:"schur transition is stochastic" ~count:50 params
      (fun (n, seed) ->
        let prng = Prng.create ~seed in
        let g = Cc_graph.Gen.random_connected prng ~n ~extra_edges:n in
        let size = max 2 (n / 2) in
        let s = Prng.subset prng ~size (Array.init n (fun i -> i)) in
        Array.sort compare s;
        Shared.is_row_stochastic ~tol:1e-6 (Schur.transition_exact g ~s));
    Test.make ~name:"schur graph is connected when G is" ~count:50 params
      (fun (n, seed) ->
        let prng = Prng.create ~seed in
        let g = Cc_graph.Gen.random_connected prng ~n ~extra_edges:n in
        let size = max 2 (n / 2) in
        let s = Prng.subset prng ~size (Array.init n (fun i -> i)) in
        Array.sort compare s;
        (* The walk's support: an edge wherever a transition is positive. *)
        let t = Schur.transition_exact g ~s in
        let edges = ref [] in
        for i = 0 to size - 1 do
          for j = i + 1 to size - 1 do
            if Mat.get t i j > 0.0 then edges := (i, j, 1.0) :: !edges
          done
        done;
        Graph.is_connected (Graph.of_edges ~n:size !edges));
    Test.make ~name:"shortcut rows are stochastic" ~count:50 params
      (fun (n, seed) ->
        let prng = Prng.create ~seed in
        let g = Cc_graph.Gen.random_connected prng ~n ~extra_edges:n in
        let in_s = Array.init n (fun i -> i mod 2 = 0) in
        Shared.is_row_stochastic ~tol:1e-6 (Shortcut.exact g ~in_s));
    Test.make ~name:"shortcut approx underapproximates exact" ~count:30 params
      (fun (n, seed) ->
        let prng = Prng.create ~seed in
        let g = Cc_graph.Gen.random_connected prng ~n ~extra_edges:2 in
        let in_s = Array.init n (fun i -> i < max 1 (n / 3)) in
        let exact = Shortcut.exact g ~in_s in
        let approx = Shortcut.approx g ~in_s ~k:32 in
        (* approx <= exact entrywise up to numeric dust *)
        Mat.max_subtractive_error ~exact:approx ~approx:exact < 1e-9);
    Test.make ~name:"schur via shortcut matches block elimination" ~count:20
      params (fun (n, seed) ->
        let prng = Prng.create ~seed in
        let g = Cc_graph.Gen.random_connected prng ~n ~extra_edges:n in
        let size = max 2 (n / 2) in
        let s = Prng.subset prng ~size (Array.init n (fun i -> i)) in
        Array.sort compare s;
        let exact = Schur.transition_exact g ~s in
        let via = Schur.transition_via_shortcut g (Shortcut.exact g ~in_s:(Schur.members ~n ~s)) ~s in
        Mat.max_abs_diff exact via < 1e-7);
    Test.make ~name:"schur via shortcut matches a per-entry R bit for bit"
      ~count:50 params (fun (n, seed) ->
        let prng = Prng.create ~seed in
        (* Real weights, one isolated vertex n, and a small S, so that some
           rows have no S-weight and take the self-loop. *)
        let g =
          Graph.of_edges ~n:(n + 1)
            (List.map
               (fun (u, v, _) -> (u, v, 0.001 +. Prng.float prng 10.0))
               (Graph.edges (Cc_graph.Gen.random_connected prng ~n ~extra_edges:n)))
        in
        let s = Prng.subset prng ~size:(1 + Prng.int prng (n / 2)) (Array.init n Fun.id) in
        Prng.shuffle prng s;
        (* Any q will do for R; a random one reaches the isolated row too. *)
        let q = Mat.init ~rows:(n + 1) ~cols:(n + 1) (fun _ _ -> Prng.float prng 0.2) in
        let g' = Cc_graph.Gen.random_connected prng ~n ~extra_edges:n in
        let q' = Shortcut.exact g' ~in_s:(Schur.members ~n ~s) in
        same_mat (Schur.transition_via_shortcut g q ~s) (transition_via_per_entry_r g q ~s)
        && same_mat
             (Schur.transition_via_shortcut g' q' ~s)
             (transition_via_per_entry_r g' q' ~s));
  ]

let () =
  let qsuite = List.map QCheck_alcotest.to_alcotest qcheck_tests in
  Alcotest.run "cc_schur"
    [
      ( "figure2",
        [
          Alcotest.test_case "schur transitions" `Quick test_figure2_schur;
          Alcotest.test_case "shortcut transitions" `Quick test_figure2_shortcut;
        ] );
      ( "schur",
        [
          Alcotest.test_case "stochastic" `Quick test_schur_is_stochastic;
          Alcotest.test_case "keep all" `Quick test_schur_keep_all_is_identity;
          Alcotest.test_case "path elimination" `Quick test_schur_path_elimination;
          Alcotest.test_case "series weights" `Quick test_schur_graph_weights_path;
          Alcotest.test_case "walk equivalence" `Slow test_schur_walk_equivalence;
          Alcotest.test_case "quotient property (graphs)" `Quick test_schur_quotient_property_graphs;
          Alcotest.test_case "weighted Schur" `Quick test_schur_weighted_graph;
        ] );
      ( "shortcut",
        [
          Alcotest.test_case "stochastic" `Quick test_shortcut_rows_stochastic;
          Alcotest.test_case "empirical law" `Slow test_shortcut_empirical;
          Alcotest.test_case "powering converges" `Quick test_shortcut_approx_converges;
          Alcotest.test_case "schur approx" `Quick test_schur_approx_matches_exact;
          Alcotest.test_case "schur approx rounded" `Quick test_schur_approx_with_rounding;
        ] );
      ( "algorithm4",
        [ Alcotest.test_case "first-visit edge law" `Slow test_first_visit_weights_empirical ] );
      ("properties", qsuite);
    ]
