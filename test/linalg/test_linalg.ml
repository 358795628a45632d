(* Tests for Cc_linalg: matrix algebra, the subtraction-free elimination
   (its solves, inverse, determinant and Schur complements, against the LU
   reference of reference.ml), and the Lemma 3 fixed-point rounding
   machinery. *)

module Mat = Cc_linalg.Mat
module Gth = Cc_linalg.Gth
module Fixed = Cc_linalg.Fixed
module Prng = Cc_util.Prng
module Graph = Cc_graph.Graph
module Graph_gen = Cc_graph.Gen
module Reference = Linalg_reference.Reference

let feq ?(eps = 1e-9) a b = Float.abs (a -. b) <= eps

let check_float ?(eps = 1e-9) msg expected actual =
  if not (feq ~eps expected actual) then
    Alcotest.failf "%s: expected %.12g, got %.12g" msg expected actual

let of_rows a =
  Mat.init ~rows:(Array.length a) ~cols:(Array.length a.(0)) (fun i j -> a.(i).(j))

let random_matrix prng ~rows ~cols =
  Mat.init ~rows ~cols (fun _ _ -> Prng.float prng 2.0 -. 1.0)

let random_stochastic prng n =
  Mat.normalize_rows (Mat.init ~rows:n ~cols:n (fun _ _ -> Prng.float prng 1.0 +. 0.01))

(* --- Mat --- *)

let test_identity_mul () =
  let prng = Prng.create ~seed:1 in
  let a = random_matrix prng ~rows:5 ~cols:5 in
  let i = Reference.identity 5 in
  Alcotest.(check bool) "I*A = A" true (Shared.mat_equal (Mat.mul i a) a);
  Alcotest.(check bool) "A*I = A" true (Shared.mat_equal (Mat.mul a i) a)

let test_mul_known () =
  let a = of_rows [| [| 1.0; 2.0 |]; [| 3.0; 4.0 |] |] in
  let b = of_rows [| [| 5.0; 6.0 |]; [| 7.0; 8.0 |] |] in
  let c = Mat.mul a b in
  check_float "c00" 19.0 (Mat.get c 0 0);
  check_float "c01" 22.0 (Mat.get c 0 1);
  check_float "c10" 43.0 (Mat.get c 1 0);
  check_float "c11" 50.0 (Mat.get c 1 1)

let test_transpose_involution () =
  let prng = Prng.create ~seed:2 in
  let a = random_matrix prng ~rows:4 ~cols:7 in
  Alcotest.(check bool) "(A^T)^T = A" true (Shared.mat_equal (Reference.transpose (Reference.transpose a)) a)

let test_power_matches_repeated_mul () =
  let prng = Prng.create ~seed:3 in
  let a = random_stochastic prng 5 in
  let direct = Mat.mul (Mat.mul a a) (Mat.mul a a) in
  Alcotest.(check bool) "A^4" true (Shared.mat_equal ~tol:1e-9 (Mat.power a 4) direct)

let test_power_zero_and_one () =
  let prng = Prng.create ~seed:4 in
  let a = random_stochastic prng 4 in
  Alcotest.(check bool) "A^0 = I" true (Shared.mat_equal (Mat.power a 0) (Reference.identity 4));
  Alcotest.(check bool) "A^1 = A" true (Shared.mat_equal (Mat.power a 1) a)

let test_power_table () =
  let prng = Prng.create ~seed:5 in
  let a = random_stochastic prng 4 in
  let table = Mat.power_table a ~max_exp:4 in
  Alcotest.(check int) "table length" 5 (Array.length table);
  Array.iteri
    (fun i m ->
      Alcotest.(check bool)
        (Printf.sprintf "table entry 2^%d" i)
        true
        (Shared.mat_equal ~tol:1e-8 m (Mat.power a (1 lsl i))))
    table

(* The Formula 1 kernels multiply the same two entries Mat.get reads, so
   their bits are the products of those reads; a bad shape or index is
   refused. *)
let test_two_step () =
  let prng = Prng.create ~seed:17 in
  let m = random_matrix prng ~rows:7 ~cols:7 in
  let bits = Int64.bits_of_float in
  let buf = Array.make 7 nan in
  for p = 0 to 6 do
    for q = 0 to 6 do
      Mat.two_step_into m ~p ~q buf;
      for j = 0 to 6 do
        let expected = bits (Mat.get m p j *. Mat.get m j q) in
        if bits buf.(j) <> expected || bits (Mat.two_step m p j q) <> expected
        then Alcotest.failf "two_step %d %d %d" p j q
      done
    done
  done;
  let refused f =
    match f () with () -> false | exception Invalid_argument _ -> true
  in
  Alcotest.(check bool) "short buffer" true
    (refused (fun () -> Mat.two_step_into m ~p:0 ~q:0 (Array.make 6 0.0)));
  Alcotest.(check bool) "q out of range" true
    (refused (fun () -> Mat.two_step_into m ~p:0 ~q:7 buf));
  Alcotest.(check bool) "not square" true
    (refused (fun () ->
         Mat.two_step_into (random_matrix prng ~rows:7 ~cols:6) ~p:0 ~q:0 buf));
  Alcotest.(check bool) "j out of range" true
    (refused (fun () -> ignore (Mat.two_step m 0 (-1) 0)))

(* The grounded-inverse kernels: a column difference and an in-place
   rank-one update, each entry with the bits of its per-entry definition;
   a bad shape or index is refused. *)
let test_rank_one_kernels () =
  let prng = Prng.create ~seed:19 in
  let m = random_matrix prng ~rows:6 ~cols:6 in
  let bits = Int64.bits_of_float in
  let y = Array.make 6 nan in
  Mat.col_diff_into m ~u:4 ~v:1 y;
  for i = 0 to 5 do
    if bits y.(i) <> bits (Mat.get m i 4 -. Mat.get m i 1) then
      Alcotest.failf "col_diff %d" i
  done;
  let updated = Reference.copy m in
  Mat.add_outer_in_place updated (-0.3) y;
  for i = 0 to 5 do
    for j = 0 to 5 do
      let expected = Mat.get m i j +. (-0.3 *. y.(i) *. y.(j)) in
      if bits (Mat.get updated i j) <> bits expected then
        Alcotest.failf "add_outer %d %d" i j
    done
  done;
  let refused f =
    match f () with () -> false | exception Invalid_argument _ -> true
  in
  let wide = random_matrix prng ~rows:6 ~cols:7 in
  Alcotest.(check bool) "short buffer" true
    (refused (fun () -> Mat.col_diff_into m ~u:0 ~v:1 (Array.make 5 0.0)));
  Alcotest.(check bool) "v out of range" true
    (refused (fun () -> Mat.col_diff_into m ~u:0 ~v:6 y));
  Alcotest.(check bool) "col_diff not square" true
    (refused (fun () -> Mat.col_diff_into wide ~u:0 ~v:1 y));
  Alcotest.(check bool) "add_outer short vector" true
    (refused (fun () -> Mat.add_outer_in_place m 1.0 (Array.make 7 0.0)));
  Alcotest.(check bool) "add_outer not square" true
    (refused (fun () -> Mat.add_outer_in_place wide 1.0 y))

let test_mul_vec () =
  let a = of_rows [| [| 1.0; 2.0 |]; [| 3.0; 4.0 |] |] in
  let y = Mat.mul_vec a [| 1.0; 1.0 |] in
  check_float "y0" 3.0 y.(0);
  check_float "y1" 7.0 y.(1);
  let z = Mat.vec_mul [| 1.0; 1.0 |] a in
  check_float "z0" 4.0 z.(0);
  check_float "z1" 6.0 z.(1)

let test_submatrix () =
  let a = Mat.init ~rows:4 ~cols:4 (fun i j -> float_of_int ((10 * i) + j)) in
  let s = Mat.submatrix a ~row_idx:[| 3; 1 |] ~col_idx:[| 0; 2 |] in
  check_float "s00" 30.0 (Mat.get s 0 0);
  check_float "s01" 32.0 (Mat.get s 0 1);
  check_float "s10" 10.0 (Mat.get s 1 0);
  check_float "s11" 12.0 (Mat.get s 1 1);
  List.iter
    (fun (row_idx, col_idx) ->
      Alcotest.check_raises "index out of range"
        (Invalid_argument "Mat.submatrix: index out of bounds") (fun () ->
          ignore (Mat.submatrix a ~row_idx ~col_idx)))
    [ ([| 0; 4 |], [| 0 |]); ([| 0 |], [| -1; 2 |]) ]

let test_row_stochastic_checks () =
  let prng = Prng.create ~seed:6 in
  let a = random_stochastic prng 6 in
  Alcotest.(check bool) "stochastic" true (Shared.is_row_stochastic a);
  let b = Reference.copy a in
  Mat.set b 0 0 (Mat.get b 0 0 +. 0.5);
  Alcotest.(check bool) "broken" false (Shared.is_row_stochastic b)

let test_max_subtractive_error () =
  let exact = of_rows [| [| 1.0; 2.0 |]; [| 3.0; 4.0 |] |] in
  let approx = of_rows [| [| 0.9; 2.0 |]; [| 3.2; 3.5 |] |] in
  (* Largest under-approximation: 4.0 - 3.5 = 0.5; the over-approximation at
     (1,0) must not count. *)
  check_float "subtractive" 0.5 (Mat.max_subtractive_error ~exact ~approx)

(* --- the elimination (Gth, through Graph.eliminate) --- *)

(* L_UU, the Laplacian's minor on U in the order [eliminate] returns. *)
let minor g u_of = Mat.submatrix (Shared.laplacian g) ~row_idx:u_of ~col_idx:u_of

let of_flat ~rows ~cols a = Mat.init ~rows ~cols (fun i j -> a.((i * cols) + j))

(* A path 0 - 1 - 2 with weights 2 and 3, grounded at 2: L_UU is
   [[2, -2], [-2, 5]], and x = [1.5, 1] solves L_UU x = [1, 2]. *)
let test_solve_known_system () =
  let g = Graph.of_edges ~n:3 [ (0, 1, 2.0); (1, 2, 3.0) ] in
  let u_of, f = Graph.eliminate g ~keep:[| 2 |] in
  Alcotest.(check (array int)) "U ascending" [| 0; 1 |] u_of;
  let x = Gth.solve f [| 1.0; 2.0 |] in
  check_float ~eps:1e-15 "x0" 1.5 x.(0);
  check_float ~eps:1e-15 "x1" 1.0 x.(1)

let weighted_connected prng ~n =
  Graph.of_edges ~n
    (List.map
       (fun (u, v, _) -> (u, v, 0.001 +. Prng.float prng 10.0))
       (Graph.edges (Graph_gen.random_connected prng ~n ~extra_edges:n)))

let test_inverse () =
  let prng = Prng.create ~seed:7 in
  let g = weighted_connected prng ~n:9 in
  let u_of, f = Graph.eliminate g ~keep:[| 4; 7 |] in
  let nu = Array.length u_of in
  let inv = of_flat ~rows:nu ~cols:nu (Gth.inverse f) in
  Alcotest.(check bool) "L_UU * L_UU^-1 = I" true
    (Shared.mat_equal ~tol:1e-9 (Mat.mul (minor g u_of) inv) (Reference.identity nu));
  Alcotest.(check bool) "symmetric bit for bit" true
    (Shared.mat_equal ~tol:0.0 inv (Reference.transpose inv))

(* Matrix–Tree: K4 has 16 spanning trees, and a triangle with weights a, b,
   c has weighted count ab + bc + ca. *)
let test_determinant_known () =
  let log_det g ~keep = Gth.log_det (snd (Graph.eliminate g ~keep)) in
  check_float ~eps:1e-14 "K4" (Float.log 16.0)
    (log_det (Graph_gen.complete 4) ~keep:[| 3 |]);
  let tri = Graph.of_edges ~n:3 [ (0, 1, 2.0); (1, 2, 3.0); (0, 2, 5.0) ] in
  List.iter
    (fun v ->
      check_float ~eps:1e-14 "weighted triangle" (Float.log 31.0)
        (log_det tri ~keep:[| v |]))
    [ 0; 1; 2 ]

(* Two triangles: grounding one leaves the other whole inside U. *)
let two_triangles =
  Graph.of_unweighted_edges ~n:6 [ (0, 1); (1, 2); (0, 2); (3, 4); (4, 5); (3, 5) ]

let test_determinant_singular () =
  let _, f = Graph.eliminate two_triangles ~keep:[| 5 |] in
  Alcotest.(check (float 0.0)) "log det" neg_infinity (Gth.log_det f)

(* Spanning trees of two graphs joined at one vertex are pairs of spanning
   trees, so their determinants multiply: log det adds. *)
let test_determinant_product_rule () =
  let prng = Prng.create ~seed:8 in
  let a = weighted_connected prng ~n:5 and b = weighted_connected prng ~n:6 in
  (* b's vertex 0 is a's vertex 4. *)
  let shift v = if v = 0 then 4 else v + 4 in
  let joined =
    Graph.of_edges ~n:10
      (Graph.edges a @ List.map (fun (u, v, w) -> (shift u, shift v, w)) (Graph.edges b))
  in
  let log_det g ~keep = Gth.log_det (snd (Graph.eliminate g ~keep)) in
  check_float ~eps:1e-12 "det(A join B) = det A det B"
    (log_det a ~keep:[| 4 |] +. log_det b ~keep:[| 0 |])
    (log_det joined ~keep:[| 4 |])

(* A grounded Laplacian has a positive determinant: the LU reference finds
   sign 1 and the pivots' product of the elimination. *)
let test_log_determinant_sign () =
  let prng = Prng.create ~seed:9 in
  let g = weighted_connected prng ~n:8 in
  let u_of, f = Graph.eliminate g ~keep:[| 0 |] in
  let sign, logdet = Reference.log_determinant (minor g u_of) in
  Alcotest.(check int) "sign" 1 sign;
  check_float ~eps:1e-12 "log |det|" logdet (Gth.log_det f)

let disconnected = Failure "Gth: some component of the graph has no kept vertex"

let test_singular_solve_raises () =
  let _, f = Graph.eliminate two_triangles ~keep:[| 0; 1 |] in
  Alcotest.check_raises "solve" disconnected (fun () ->
      ignore (Gth.solve f (Array.make 4 1.0)));
  Alcotest.check_raises "harmonic" disconnected (fun () ->
      ignore (Gth.harmonic f));
  Alcotest.check_raises "inverse" disconnected (fun () ->
      ignore (Gth.inverse f))

(* --- Schur complements (weights W_S = W_SS + W_SU Y) --- *)

(* SCHUR(G, keep) as a weighted graph on [keep]'s indices, from the
   elimination's Y. *)
let schur_graph g ~keep =
  let u_of, f = Graph.eliminate g ~keep in
  let k = Array.length keep in
  let y = Gth.harmonic f in
  let weight i j =
    Graph.edge_weight g keep.(i) keep.(j)
    +. Array.fold_left ( +. ) 0.0
         (Array.mapi
            (fun a u -> Graph.edge_weight g keep.(i) u *. y.((a * k) + j))
            u_of)
  in
  let edges = ref [] in
  for i = 0 to k - 1 do
    for j = i + 1 to k - 1 do
      let w = weight i j in
      if w > 0.0 then edges := (i, j, w) :: !edges
    done
  done;
  Graph.of_edges ~n:k !edges

(* U = {0, 1}, keep = {2, 3}: 0 leaves with weights 1 and 3, 1 with 2 and
   2, so Y = [[1/4, 3/4], [1/2, 1/2]], and D - C A^{-1} B of the Laplacian
   gives W_S(2, 3) = 1 + 3/4 + 1 = 2.75. *)
let test_schur_block_identity () =
  let g =
    Graph.of_edges ~n:4
      [ (0, 2, 1.0); (0, 3, 3.0); (1, 2, 2.0); (1, 3, 2.0); (2, 3, 1.0) ]
  in
  let _, f = Graph.eliminate g ~keep:[| 2; 3 |] in
  Alcotest.(check (array (float 0.0))) "Y" [| 0.25; 0.75; 0.5; 0.5 |]
    (Gth.harmonic f);
  let block = Reference.schur_complement (Shared.laplacian g) ~keep:[| 2; 3 |] in
  check_float "block formula" (-2.75) (Mat.get block 0 1);
  check_float "W_S" 2.75 (Graph.edge_weight (schur_graph g ~keep:[| 2; 3 |]) 0 1)

let test_schur_full_keep_is_identity_op () =
  let prng = Prng.create ~seed:10 in
  let g = weighted_connected prng ~n:5 in
  let keep = [| 3; 0; 4; 1; 2 |] in
  let u_of, f = Graph.eliminate g ~keep in
  Alcotest.(check int) "no U" 0 (Array.length u_of);
  Alcotest.(check int) "empty Y" 0 (Array.length (Gth.harmonic f));
  Alcotest.(check (float 0.0)) "log det of the empty minor" 0.0 (Gth.log_det f);
  let s = schur_graph g ~keep in
  List.iter
    (fun (i, j, w) ->
      Alcotest.(check (float 0.0)) "same weights" w (Graph.edge_weight g keep.(i) keep.(j)))
    (Graph.edges s);
  Alcotest.(check int) "same edges" (Graph.num_edges g) (Graph.num_edges s)

(* Eliminating {0, 1} at once or {0} then {1} gives the same harmonic
   measures: Y = Y1 composed with the second stage's Y2. *)
let test_schur_quotient_property () =
  let prng = Prng.create ~seed:11 in
  let g = weighted_connected prng ~n:6 in
  let keep = [| 2; 3; 4; 5 |] in
  let _, f = Graph.eliminate g ~keep in
  let y = Gth.harmonic f in
  (* Stage 1 keeps [1; 2; 3; 4; 5]; stage 2 eliminates 1 from its Schur
     graph, where 1 is index 0 and keep is indices 1..4. *)
  let _, f1 = Graph.eliminate g ~keep:[| 1; 2; 3; 4; 5 |] in
  let y1 = Gth.harmonic f1 in
  let _, f2 = Graph.eliminate (schur_graph g ~keep:[| 1; 2; 3; 4; 5 |]) ~keep:[| 1; 2; 3; 4 |] in
  let y2 = Gth.harmonic f2 in
  for j = 0 to 3 do
    check_float ~eps:1e-14 "vertex 1" y2.(j) y.(4 + j);
    check_float ~eps:1e-14 "vertex 0" (y1.(1 + j) +. (y1.(0) *. y2.(j))) y.(j)
  done

(* det L_(V - v) = det L_UU · det of SCHUR(G, S)'s own minor, with v in S. *)
let test_schur_determinant_identity () =
  let prng = Prng.create ~seed:12 in
  let g = weighted_connected prng ~n:7 in
  let keep = [| 2; 4; 6 |] in
  let log_det g ~keep = Gth.log_det (snd (Graph.eliminate g ~keep)) in
  check_float ~eps:1e-12 "det factorization" (log_det g ~keep:[| 6 |])
    (log_det g ~keep +. log_det (schur_graph g ~keep) ~keep:[| 2 |])

(* --- Fixed --- *)

(* The paper's round operator on one entry, through [round_mat]. *)
let round_down ~bits x =
  Mat.get (Fixed.round_mat ~bits (Mat.create ~rows:1 ~cols:1 x)) 0 0

let test_round_down_basic () =
  check_float "1/3 at 2 bits" 0.25 (round_down ~bits:2 (1.0 /. 3.0));
  check_float "exact dyadic" 0.5 (round_down ~bits:4 0.5);
  check_float "zero" 0.0 (round_down ~bits:8 0.0)

let test_round_down_subtractive () =
  let prng = Prng.create ~seed:12 in
  for _ = 1 to 1000 do
    let x = Prng.float prng 1.0 in
    let r = round_down ~bits:10 x in
    if r > x || x -. r >= Float.pow 2.0 (-10.0) then
      Alcotest.failf "round_down not subtractive at %.17g -> %.17g" x r
  done

let test_rounded_power_error_within_lemma3 () =
  let prng = Prng.create ~seed:13 in
  let n = 8 in
  let m = random_stochastic prng n in
  let bits = 20 in
  List.iter
    (fun k ->
      let exact = Mat.power m k in
      let approx = Fixed.rounded_power ~bits m k in
      let err = Mat.max_subtractive_error ~exact ~approx in
      let bound = Fixed.lemma3_error_bound ~n ~k ~bits in
      if err > bound then
        Alcotest.failf "k=%d: error %.3e exceeds Lemma 3 bound %.3e" k err bound;
      (* One-sided: approx never exceeds exact by more than float dust. *)
      let over = Mat.max_subtractive_error ~exact:approx ~approx:exact in
      if over > 1e-12 then Alcotest.failf "k=%d: approximation overshoots" k)
    [ 1; 2; 4; 8; 16 ]

let test_lemma3_bits_sufficient () =
  let n = 16 and k = 64 and beta = 1e-6 in
  let bits = Fixed.lemma3_bits ~n ~k ~beta in
  let bound = Fixed.lemma3_error_bound ~n ~k ~bits in
  Alcotest.(check bool)
    (Printf.sprintf "bits=%d gives bound %.3e <= beta" bits bound)
    true (bound <= beta)

let test_rounded_power_rejects_non_power_of_two () =
  let m = Reference.identity 2 in
  Alcotest.check_raises "k=3"
    (Invalid_argument "Fixed.rounded_power: k must be a positive power of two")
    (fun () -> ignore (Fixed.rounded_power ~bits:10 m 3))

(* --- against the checked reference: Mat.mul bit for bit, the elimination
   within a tolerance --- *)

let same_bits x y = Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)

let same_vec a b = Array.length a = Array.length b && Array.for_all2 same_bits a b

let same_mat a b =
  Mat.rows a = Mat.rows b
  && Mat.cols a = Mat.cols b
  && same_vec (Mat.data a) (Mat.data b)

(* Entries in [-1, 1], a fifth of them exactly 0, so the products skip zero
   entries. *)
let kernel_matrix prng ~rows ~cols =
  Mat.init ~rows ~cols (fun _ _ ->
      if Prng.int prng 5 = 0 then 0.0 else Prng.float prng 2.0 -. 1.0)

let singular = Failure "Reference.lu_solve: singular matrix"

let raises e f = match f () with _ -> false | exception e' -> e' = e

(* n up to 40 and k up to 24 columns: large enough for several eight-term
   blocks per row in the products. *)
let kernel_case = QCheck.(make Gen.(triple (int_range 1 40) (int_range 1 24) (int_range 0 1_000_000)))

(* The eleven Gen families at the sizes and weights the sampler sees. *)
let families =
  [| "path"; "cycle"; "complete"; "star"; "grid"; "btree"; "lollipop";
     "barbell"; "er:0.5"; "erlog:3"; "regular:4" |]

(* A family graph, unweighted (weights 0), with integer weights in
   [1, 1000] (1), or with log-uniform weights over [1e-3, 1e3] (2); and a
   random kept set of 1 to n - 1 vertices, in random order. *)
let random_elimination (f, n, weights, seed) =
  let prng = Prng.create ~seed in
  let g = Graph_gen.build prng (Graph_gen.family_of_string families.(f)) ~n in
  let g =
    match weights with
    | 0 -> g
    | 1 -> Graph_gen.random_weights prng g ~max_weight:1000
    | _ ->
        Graph.of_edges ~n:(Graph.n g)
          (List.map
             (fun (u, v, _) -> (u, v, Float.pow 10.0 (Prng.float prng 6.0 -. 3.0)))
             (Graph.edges g))
  in
  let n = Graph.n g in
  let keep = Prng.subset prng ~size:(1 + Prng.int prng (n - 1)) (Array.init n Fun.id) in
  Prng.shuffle prng keep;
  (g, keep)

(* The largest gap between two results, over the largest entry of the
   reference. *)
let relative_gap a b =
  let scale = Array.fold_left (fun m x -> Float.max m (Float.abs x)) 0.0 b in
  let gap = ref 0.0 in
  Array.iteri (fun i x -> gap := Float.max !gap (Float.abs (x -. b.(i)))) a;
  if scale = 0.0 then !gap else !gap /. scale

let elimination_case =
  QCheck.make
    QCheck.Gen.(
      quad
        (int_range 0 (Array.length families - 1))
        (int_range 6 24) (int_range 0 2) (int_range 0 1_000_000))

let kernel_tests =
  let open QCheck in
  [
    Test.make ~name:"dense kernels match the checked reference bit for bit"
      ~count:300 kernel_case (fun (n, k, seed) ->
        let prng = Prng.create ~seed in
        let a = kernel_matrix prng ~rows:n ~cols:n in
        let b = kernel_matrix prng ~rows:n ~cols:k in
        let c = kernel_matrix prng ~rows:k ~cols:(1 + Prng.int prng 40) in
        (* 0 * inf is NaN, so only a product that skips a's zero entries
           keeps the rows that meet the infinity through a zero finite. *)
        let b_inf = Reference.copy b in
        Mat.set b_inf (Prng.int prng n) (Prng.int prng k) infinity;
        same_mat (Mat.mul a b) (Reference.mul a b)
        && same_mat (Mat.mul a b_inf) (Reference.mul a b_inf)
        && same_mat (Mat.mul b c) (Reference.mul b c));
    (* A component inside U is the one way to a zero pivot: the elimination
       names it, and the LU reference finds the same minor singular. A
       right-hand side or block of the wrong size is refused by both. *)
    Test.make ~name:"singular and mismatched systems fail like the reference"
      ~count:100 elimination_case (fun (f, n, _, seed) ->
        let g, keep = random_elimination (f, n, 0, seed) in
        let n = Graph.n g in
        (* A triangle on three new vertices, none of them kept. *)
        let g =
          Graph.of_edges ~n:(n + 3)
            ((n, n + 1, 1.0) :: (n + 1, n + 2, 1.0) :: (n, n + 2, 1.0) :: Graph.edges g)
        in
        let u_of, f = Graph.eliminate g ~keep in
        let nu = Array.length u_of and nk = Array.length keep in
        let l = minor g u_of in
        let ones = Array.make nu 1.0 in
        let dim = Invalid_argument "Reference.lu_solve: dimension mismatch" in
        raises disconnected (fun () -> Gth.solve f ones)
        && raises disconnected (fun () -> Gth.harmonic f)
        && raises disconnected (fun () -> Gth.inverse f)
        && Gth.log_det f = neg_infinity
        && raises singular (fun () -> Reference.solve l ones)
        && raises singular (fun () -> Reference.inverse l)
        && fst (Reference.log_determinant l) = 0
        && raises
             (Invalid_argument "Gth.solve: b must have one entry per eliminated vertex")
             (fun () -> Gth.solve f (Array.make (nu + 1) 1.0))
        && raises dim (fun () -> Reference.solve l (Array.make (nu + 1) 1.0))
        && raises
             (Invalid_argument "Gth.factor: the block must be nu x (nu + nk)")
             (fun () -> Gth.factor (Array.make ((nu * (nu + nk)) + 1) 0.0) ~nu ~nk));
    (* Y, L_UU^{-1}, the log-determinant and the solves against the LU of
       reference.ml: within 1e-11 of the largest entry on unweighted graphs
       and integer weights up to 1000, and 1e-8 at log-uniform 1e-3..1e3,
       where the LU's own error grows (DESIGN.md §18). *)
    Test.make ~name:"the elimination agrees with the LU reference" ~count:300
      elimination_case (fun ((_, _, weights, _) as case) ->
        let g, keep = random_elimination case in
        let tol = if weights <= 1 then 1e-11 else 1e-8 in
        let u_of, f = Graph.eliminate g ~keep in
        let nu = Array.length u_of and nk = Array.length keep in
        let l = minor g u_of in
        let w_uk =
          Mat.init ~rows:nu ~cols:nk (fun a c -> Graph.edge_weight g u_of.(a) keep.(c))
        in
        let d = Array.map (Graph.weighted_degree g) u_of in
        let _, lu_logdet = Reference.log_determinant l in
        relative_gap (Gth.harmonic f) (Mat.data (Reference.solve_mat l w_uk)) <= tol
        && relative_gap (Gth.inverse f) (Mat.data (Reference.inverse l)) <= tol
        && relative_gap (Gth.solve f d) (Reference.solve l d) <= tol
        && Float.abs (Gth.log_det f -. lu_logdet)
           <= tol *. Float.max 1.0 (Float.abs lu_logdet));
    Test.make ~name:"half_lazy and sanitize_stochastic match their definitions"
      ~count:100 kernel_case (fun (n, _, seed) ->
        let prng = Prng.create ~seed in
        let a = kernel_matrix prng ~rows:n ~cols:n in
        same_mat (Mat.half_lazy a)
          (Mat.init ~rows:n ~cols:n (fun i j ->
               (0.5 *. Mat.get a i j) +. if i = j then 0.5 else 0.0))
        && same_mat
             (Mat.sanitize_stochastic a)
             (Mat.normalize_rows
                (Mat.init ~rows:n ~cols:n (fun i j ->
                     Float.max 0.0 (Mat.get a i j)))));
  ]

(* --- power tables that stop squaring --- *)

let lazy_chain g = Mat.half_lazy (Graph.transition_matrix g)

(* The last level a table computed: the first level whose successor is
   itself (a filled level aliases the level it repeats), else the top. *)
let stop_level table =
  let top = Array.length table - 1 in
  let rec from i =
    if i = top || table.(i + 1) == table.(i) then i else from (i + 1)
  in
  from 0

(* pi_j = d_w(j) / sum_k d_w(k), the lazy chain's stationary law. *)
let stationary g =
  let d = Array.init (Graph.n g) (Graph.weighted_degree g) in
  let total = Array.fold_left ( +. ) 0.0 d in
  Array.map (fun x -> x /. total) d

let max_off_stationary m pi =
  let worst = ref 0.0 in
  for i = 0 to Mat.rows m - 1 do
    for j = 0 to Mat.cols m - 1 do
      worst := Float.max !worst (Float.abs (Mat.get m i j -. pi.(j)))
    done
  done;
  !worst

(* Two K8 joined at vertices 0 and 8 by one edge of weight [bridge]. *)
let dumbbell ~bridge =
  let clique off =
    List.concat_map
      (fun i -> List.init (7 - i) (fun d -> (off + i, off + i + 1 + d, 1.0)))
      (List.init 8 Fun.id)
  in
  Graph.of_edges ~n:16 ((0, 8, bridge) :: (clique 0 @ clique 8))

let check_same_table msg table reference =
  Alcotest.(check int) (msg ^ ": length") (Array.length reference) (Array.length table);
  Array.iteri
    (fun i t ->
      if not (same_mat t reference.(i)) then
        Alcotest.failf "%s: level %d differs from the reference" msg i)
    table

let test_dumbbell_never_stops () =
  (* The halves exchange mass through a 1e-9 bridge and only mix near
     level 40, where a row of one half is still more than 1e-12 from a row
     of the other: nothing may stop, and every level is the plain loop's. *)
  let m = lazy_chain (dumbbell ~bridge:1e-9) in
  let levels = 40 in
  let table = Mat.power_table m ~max_exp:levels in
  let reference = Reference.power_table m ~levels in
  Alcotest.(check int) "no level skipped" levels (stop_level table);
  check_same_table "dumbbell" table reference;
  (* A rule that stops at the first level whose change stops shrinking, once
     the change is below 1e-9, stops at level 7: each half has mixed, the
     halves have not (their rows are 2 apart in l1), and the change grows
     only because mass starts to cross the bridge. Its top level would be
     P^128's, 0.0625 off the true one. *)
  let change i = Mat.max_abs_diff reference.(i) reference.(i - 1) in
  let rec heuristic i =
    if change i < 1e-9 && change i >= change (i - 1) then i
    else heuristic (i + 1)
  in
  let h = heuristic 2 in
  let l1 a b =
    Array.fold_left ( +. ) 0.0 (Array.map2 (fun x y -> Float.abs (x -. y)) a b)
  in
  Alcotest.(check int) "the change heuristic stops at level 7" 7 h;
  Alcotest.(check bool) "before the halves mix" true
    (l1 (Mat.row reference.(h) 0) (Mat.row reference.(h) 8) > 1.9);
  Alcotest.(check bool) "so its top level is wrong" true
    (Mat.max_abs_diff reference.(h) reference.(levels) > 0.06)

let test_unstochastic_and_periodic_never_stop () =
  (* Equal rows that sum to 2: level i is 2^(2^i - 1) m, so rows agree from
     level 0, but the matrix is not stochastic and no level repeats. *)
  let n = 6 in
  let two_j = Mat.create ~rows:n ~cols:n (2.0 /. float_of_int n) in
  let table = Mat.power_table two_j ~max_exp:6 in
  Alcotest.(check int) "2J/n computes every level" 6 (stop_level table);
  check_same_table "2J/n" table (Reference.power_table two_j ~levels:6);
  (* The non-lazy cycle 6 is periodic: rows of opposite parity have
     disjoint supports at every level, so its rows never agree. Its powers
     do reach an exact fixed point (level 8 repeats level 7 bit for bit),
     where the table may stop, and every level is still the plain loop's. *)
  let cycle = Graph.transition_matrix (Graph_gen.cycle 6) in
  let table, mixed =
    Mat.squarings ~exact:false ~square:(fun t -> Mat.mul t t) cycle ~levels:24
  in
  let reference = Reference.power_table cycle ~levels:24 in
  check_same_table "cycle 6" table reference;
  let stop = stop_level table in
  Alcotest.(check bool) "cycle 6 stops only where a level repeats" true
    (stop = 24 || same_mat reference.(stop) reference.(stop - 1));
  Alcotest.(check (option int)) "an exact repeat is no mixed level" None mixed

(* The mixed level needs the rows test's stop and every entry within a
   relative 1e-10 of row 0's in its column. [square] hands back a fixed
   level whose rows are 2e-14 apart in l1 in each case, so the rows test
   stops there and the relative spread alone decides. *)
let test_mixed_level_is_relative () =
  let base = Mat.create ~rows:3 ~cols:3 (1.0 /. 3.0) in
  let mixed_of rows =
    let level = Mat.init ~rows:3 ~cols:3 (fun i j -> rows.(min i 1).(j)) in
    snd (Mat.squarings ~exact:false ~square:(fun _ -> level) base ~levels:4)
  in
  Alcotest.(check (option int)) "relative 4e-14: mixed" (Some 1)
    (mixed_of [| [| 0.5; 0.25; 0.25 |]; [| 0.5; 0.25 +. 1e-14; 0.25 -. 1e-14 |] |]);
  Alcotest.(check (option int)) "a zero above a nonzero: not mixed" None
    (mixed_of [| [| 0.5; 0.5; 0.0 |]; [| 0.5; 0.5 -. 1e-14; 1e-14 |] |]);
  Alcotest.(check (option int)) "relative 1e-9: not mixed" None
    (mixed_of
       [|
         [| 0.5; 0.5 -. 1e-5; 1e-5 |];
         [| 0.5; 0.5 -. 1e-5 -. 1e-14; 1e-5 +. 1e-14 |];
       |]);
  let repeat = Mat.create ~rows:2 ~cols:2 0.5 in
  Alcotest.(check (option int)) "an exact repeat is not mixed" None
    (snd (Mat.squarings ~exact:false ~square:(fun m -> m) repeat ~levels:4))

let test_squarings_stop_and_skip () =
  let m = lazy_chain (Graph_gen.complete 8) in
  let levels = 20 in
  let run ~exact =
    let squared = ref 0 in
    let table, mixed =
      Mat.squarings ~exact
        ~square:(fun t ->
          incr squared;
          Mat.mul t t)
        m ~levels
    in
    (table, mixed, levels - !squared)
  in
  let table, mixed, skipped = run ~exact:false in
  let stop = stop_level table in
  Alcotest.(check bool) "lazy K8 stops early" true (stop < 10);
  Alcotest.(check int) "no square past the stop" (levels - stop) skipped;
  Alcotest.(check (option int)) "mixed at the rows stop" (Some stop) mixed;
  check_same_table "up to the stop"
    (Array.sub table 0 (stop + 1))
    (Array.sub (Reference.power_table m ~levels) 0 (stop + 1));
  (* Exact mode waits for a level to repeat bit for bit, and has no mixed
     level. *)
  let exact_table, exact_mixed, exact_skipped = run ~exact:true in
  let exact_stop = stop_level exact_table in
  Alcotest.(check bool) "exact stops no earlier" true (exact_stop >= stop);
  Alcotest.(check (option int)) "exact: no mixed level" None exact_mixed;
  Alcotest.(check int) "exact skips the rest" (levels - exact_stop) exact_skipped;
  if exact_stop < levels then
    Alcotest.(check bool) "at a level that repeats" true
      (same_mat exact_table.(exact_stop) exact_table.(exact_stop - 1));
  Alcotest.check_raises "negative levels"
    (Invalid_argument "Mat.squarings: negative levels") (fun () ->
      ignore (Mat.squarings ~exact:false ~square:Fun.id m ~levels:(-1)))

let power_table_tests =
  let open QCheck in
  [
    Test.make ~name:"stopped power tables match the plain loop, then pi"
      ~count:120
      (make
         Gen.(
           quad
             (int_range 0 (Array.length families - 1))
             (oneofl [ 6; 9; 12; 16; 20; 24 ])
             bool (int_range 0 1_000_000)))
      (fun (f, n, weighted, seed) ->
        let prng = Prng.create ~seed in
        let g =
          Graph_gen.build prng (Graph_gen.family_of_string families.(f)) ~n
        in
        let g =
          if weighted then Graph_gen.random_weights prng g ~max_weight:1000
          else g
        in
        let m = lazy_chain g and levels = 24 in
        let table = Mat.power_table m ~max_exp:levels in
        let reference = Reference.power_table m ~levels in
        let stop = stop_level table and pi = stationary g in
        let ok = ref (Array.length table = levels + 1) in
        Array.iteri
          (fun i t ->
            if i <= stop then ok := !ok && same_mat t reference.(i)
            else ok := !ok && max_off_stationary t pi <= 1e-9)
          table;
        !ok);
  ]

(* --- qcheck properties --- *)

let qcheck_tests =
  let open QCheck in
  let dim = Gen.int_range 2 7 in
  let seeded = make Gen.(pair dim (int_range 0 10_000)) in
  [
    Test.make ~name:"mul is associative" ~count:50 seeded (fun (n, seed) ->
        let prng = Prng.create ~seed in
        let a = random_matrix prng ~rows:n ~cols:n in
        let b = random_matrix prng ~rows:n ~cols:n in
        let c = random_matrix prng ~rows:n ~cols:n in
        Shared.mat_equal ~tol:1e-8 (Mat.mul (Mat.mul a b) c) (Mat.mul a (Mat.mul b c)));
    Test.make ~name:"transpose reverses products" ~count:50 seeded
      (fun (n, seed) ->
        let prng = Prng.create ~seed in
        let a = random_matrix prng ~rows:n ~cols:n in
        let b = random_matrix prng ~rows:n ~cols:n in
        Shared.mat_equal ~tol:1e-9
          (Reference.transpose (Mat.mul a b))
          (Mat.mul (Reference.transpose b) (Reference.transpose a)));
    Test.make ~name:"stochastic matrices are closed under product" ~count:50
      seeded (fun (n, seed) ->
        let prng = Prng.create ~seed in
        let a = random_stochastic prng n and b = random_stochastic prng n in
        Shared.is_row_stochastic ~tol:1e-7 (Mat.mul a b));
    Test.make ~name:"solve then multiply recovers rhs" ~count:50 seeded
      (fun (n, seed) ->
        let prng = Prng.create ~seed in
        let g = weighted_connected prng ~n:(n + 1) in
        let u_of, f = Graph.eliminate g ~keep:[| Prng.int prng (n + 1) |] in
        let b = Array.init n (fun _ -> Prng.float prng 1.0) in
        let back = Mat.mul_vec (minor g u_of) (Gth.solve f b) in
        Array.for_all2 (fun u v -> Float.abs (u -. v) < 1e-9) back b);
    Test.make ~name:"rounded_power stays within Lemma 3 budget" ~count:30
      (make Gen.(pair (int_range 3 8) (int_range 0 10_000)))
      (fun (n, seed) ->
        let prng = Prng.create ~seed in
        let m = random_stochastic prng n in
        let bits = 24 and k = 8 in
        let err =
          Mat.max_subtractive_error ~exact:(Mat.power m k)
            ~approx:(Fixed.rounded_power ~bits m k)
        in
        err <= Fixed.lemma3_error_bound ~n ~k ~bits);
  ]

let () =
  let qsuite = List.map QCheck_alcotest.to_alcotest qcheck_tests in
  let ksuite = List.map QCheck_alcotest.to_alcotest kernel_tests in
  let psuite = List.map QCheck_alcotest.to_alcotest power_table_tests in
  Alcotest.run "cc_linalg"
    [
      ( "mat",
        [
          Alcotest.test_case "identity mul" `Quick test_identity_mul;
          Alcotest.test_case "known product" `Quick test_mul_known;
          Alcotest.test_case "transpose involution" `Quick test_transpose_involution;
          Alcotest.test_case "power" `Quick test_power_matches_repeated_mul;
          Alcotest.test_case "power 0/1" `Quick test_power_zero_and_one;
          Alcotest.test_case "power table" `Quick test_power_table;
          Alcotest.test_case "mixed level is relative" `Quick
            test_mixed_level_is_relative;
          Alcotest.test_case "two-step kernels" `Quick test_two_step;
          Alcotest.test_case "rank-one kernels" `Quick test_rank_one_kernels;
          Alcotest.test_case "mat-vec" `Quick test_mul_vec;
          Alcotest.test_case "submatrix" `Quick test_submatrix;
          Alcotest.test_case "stochastic checks" `Quick test_row_stochastic_checks;
          Alcotest.test_case "subtractive error" `Quick test_max_subtractive_error;
        ] );
      ( "solve",
        [
          Alcotest.test_case "known system" `Quick test_solve_known_system;
          Alcotest.test_case "inverse" `Quick test_inverse;
          Alcotest.test_case "determinant" `Quick test_determinant_known;
          Alcotest.test_case "singular determinant" `Quick test_determinant_singular;
          Alcotest.test_case "det product rule" `Quick test_determinant_product_rule;
          Alcotest.test_case "logdet sign" `Quick test_log_determinant_sign;
          Alcotest.test_case "singular solve raises" `Quick test_singular_solve_raises;
        ] );
      ( "schur",
        [
          Alcotest.test_case "block identity" `Quick test_schur_block_identity;
          Alcotest.test_case "keep all" `Quick test_schur_full_keep_is_identity_op;
          Alcotest.test_case "quotient property" `Quick test_schur_quotient_property;
          Alcotest.test_case "determinant identity" `Quick test_schur_determinant_identity;
        ] );
      ( "fixed",
        [
          Alcotest.test_case "round_down basic" `Quick test_round_down_basic;
          Alcotest.test_case "round_down subtractive" `Quick test_round_down_subtractive;
          Alcotest.test_case "Lemma 3 error budget" `Quick test_rounded_power_error_within_lemma3;
          Alcotest.test_case "Lemma 3 bits" `Quick test_lemma3_bits_sufficient;
          Alcotest.test_case "rejects k=3" `Quick test_rounded_power_rejects_non_power_of_two;
        ] );
      ("properties", qsuite);
      ("kernels", ksuite);
      ( "powers",
        [
          Alcotest.test_case "dumbbell never stops" `Quick test_dumbbell_never_stops;
          Alcotest.test_case "2J/n and cycle 6 rows never agree" `Quick
            test_unstochastic_and_periodic_never_stop;
          Alcotest.test_case "stop and skip" `Quick test_squarings_stop_and_skip;
        ]
        @ psuite );
    ]
