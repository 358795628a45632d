(* Tests for Cc_linalg: matrix algebra, LU solves, determinants, Schur
   complements, and the Lemma 3 fixed-point rounding machinery. *)

module Mat = Cc_linalg.Mat
module Solve = Cc_linalg.Solve
module Fixed = Cc_linalg.Fixed
module Prng = Cc_util.Prng

let feq ?(eps = 1e-9) a b = Float.abs (a -. b) <= eps

let check_float ?(eps = 1e-9) msg expected actual =
  if not (feq ~eps expected actual) then
    Alcotest.failf "%s: expected %.12g, got %.12g" msg expected actual

let random_matrix prng ~rows ~cols =
  Mat.init ~rows ~cols (fun _ _ -> Prng.float prng 2.0 -. 1.0)

let random_stochastic prng n =
  Mat.normalize_rows (Mat.init ~rows:n ~cols:n (fun _ _ -> Prng.float prng 1.0 +. 0.01))

(* --- Mat --- *)

let test_identity_mul () =
  let prng = Prng.create ~seed:1 in
  let a = random_matrix prng ~rows:5 ~cols:5 in
  let i = Mat.identity 5 in
  Alcotest.(check bool) "I*A = A" true (Mat.equal (Mat.mul i a) a);
  Alcotest.(check bool) "A*I = A" true (Mat.equal (Mat.mul a i) a)

let test_mul_known () =
  let a = Mat.of_arrays [| [| 1.0; 2.0 |]; [| 3.0; 4.0 |] |] in
  let b = Mat.of_arrays [| [| 5.0; 6.0 |]; [| 7.0; 8.0 |] |] in
  let c = Mat.mul a b in
  check_float "c00" 19.0 (Mat.get c 0 0);
  check_float "c01" 22.0 (Mat.get c 0 1);
  check_float "c10" 43.0 (Mat.get c 1 0);
  check_float "c11" 50.0 (Mat.get c 1 1)

let test_transpose_involution () =
  let prng = Prng.create ~seed:2 in
  let a = random_matrix prng ~rows:4 ~cols:7 in
  Alcotest.(check bool) "(A^T)^T = A" true (Mat.equal (Mat.transpose (Mat.transpose a)) a)

let test_power_matches_repeated_mul () =
  let prng = Prng.create ~seed:3 in
  let a = random_stochastic prng 5 in
  let direct = Mat.mul (Mat.mul a a) (Mat.mul a a) in
  Alcotest.(check bool) "A^4" true (Mat.equal ~tol:1e-9 (Mat.power a 4) direct)

let test_power_zero_and_one () =
  let prng = Prng.create ~seed:4 in
  let a = random_stochastic prng 4 in
  Alcotest.(check bool) "A^0 = I" true (Mat.equal (Mat.power a 0) (Mat.identity 4));
  Alcotest.(check bool) "A^1 = A" true (Mat.equal (Mat.power a 1) a)

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
        (Mat.equal ~tol:1e-8 m (Mat.power a (1 lsl i))))
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

let test_mul_vec () =
  let a = Mat.of_arrays [| [| 1.0; 2.0 |]; [| 3.0; 4.0 |] |] in
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
  Alcotest.(check bool) "stochastic" true (Mat.is_row_stochastic a);
  let b = Mat.copy a in
  Mat.set b 0 0 (Mat.get b 0 0 +. 0.5);
  Alcotest.(check bool) "broken" false (Mat.is_row_stochastic b)

let test_max_subtractive_error () =
  let exact = Mat.of_arrays [| [| 1.0; 2.0 |]; [| 3.0; 4.0 |] |] in
  let approx = Mat.of_arrays [| [| 0.9; 2.0 |]; [| 3.2; 3.5 |] |] in
  (* Largest under-approximation: 4.0 - 3.5 = 0.5; the over-approximation at
     (1,0) must not count. *)
  check_float "subtractive" 0.5 (Mat.max_subtractive_error ~exact ~approx)

(* --- Solve --- *)

let test_solve_known_system () =
  let a = Mat.of_arrays [| [| 2.0; 1.0 |]; [| 1.0; 3.0 |] |] in
  let x = Solve.solve a [| 5.0; 10.0 |] in
  check_float "x0" 1.0 x.(0);
  check_float "x1" 3.0 x.(1)

let test_inverse () =
  let prng = Prng.create ~seed:7 in
  let a = Mat.add (random_matrix prng ~rows:6 ~cols:6) (Mat.scale 6.0 (Mat.identity 6)) in
  let inv = Solve.inverse a in
  Alcotest.(check bool) "A * A^-1 = I" true
    (Mat.equal ~tol:1e-8 (Mat.mul a inv) (Mat.identity 6))

let test_determinant_known () =
  let a = Mat.of_arrays [| [| 1.0; 2.0 |]; [| 3.0; 4.0 |] |] in
  check_float "det" (-2.0) (Solve.determinant a);
  check_float "det I" 1.0 (Solve.determinant (Mat.identity 5))

let test_determinant_singular () =
  let a = Mat.of_arrays [| [| 1.0; 2.0 |]; [| 2.0; 4.0 |] |] in
  check_float "det singular" 0.0 (Solve.determinant a)

let test_determinant_product_rule () =
  let prng = Prng.create ~seed:8 in
  let a = Mat.add (random_matrix prng ~rows:4 ~cols:4) (Mat.scale 2.0 (Mat.identity 4)) in
  let b = Mat.add (random_matrix prng ~rows:4 ~cols:4) (Mat.scale 2.0 (Mat.identity 4)) in
  check_float ~eps:1e-6 "det(AB) = det A det B"
    (Solve.determinant a *. Solve.determinant b)
    (Solve.determinant (Mat.mul a b))

let test_log_determinant_sign () =
  let a = Mat.of_arrays [| [| 0.0; 1.0 |]; [| 1.0; 0.0 |] |] in
  let sign, logdet = Solve.log_determinant a in
  Alcotest.(check int) "sign" (-1) sign;
  check_float "log |det|" 0.0 logdet

let test_singular_solve_raises () =
  let a = Mat.of_arrays [| [| 1.0; 1.0 |]; [| 1.0; 1.0 |] |] in
  Alcotest.check_raises "singular" (Failure "Solve.lu_solve: singular matrix")
    (fun () -> ignore (Solve.solve a [| 1.0; 2.0 |]))

(* --- Schur complement (matrix level) --- *)

let test_schur_block_identity () =
  (* For M = [[A, B], [C, D]] with S = last block indexes,
     SCHUR(M,S) = D - C A^{-1} B. 2x2 blocks chosen by hand. *)
  let m =
    Mat.of_arrays
      [|
        [| 4.0; 0.0; 1.0; 0.0 |];
        [| 0.0; 4.0; 0.0; 1.0 |];
        [| 1.0; 0.0; 3.0; 1.0 |];
        [| 0.0; 1.0; 1.0; 3.0 |];
      |]
  in
  let s = Solve.schur_complement m ~keep:[| 2; 3 |] in
  (* D - C A^{-1} B = [[3,1],[1,3]] - (1/4) I = [[2.75, 1], [1, 2.75]] *)
  check_float "s00" 2.75 (Mat.get s 0 0);
  check_float "s01" 1.0 (Mat.get s 0 1);
  check_float "s11" 2.75 (Mat.get s 1 1)

let test_schur_full_keep_is_identity_op () =
  let prng = Prng.create ~seed:9 in
  let m = random_matrix prng ~rows:4 ~cols:4 in
  let s = Solve.schur_complement m ~keep:[| 0; 1; 2; 3 |] in
  Alcotest.(check bool) "keep all = same" true (Mat.equal s m)

let test_schur_quotient_property () =
  (* Schur complements compose: eliminating {0} then {1} equals eliminating
     {0,1} (quotient property). *)
  let prng = Prng.create ~seed:10 in
  let m = Mat.add (random_matrix prng ~rows:5 ~cols:5) (Mat.scale 5.0 (Mat.identity 5)) in
  let direct = Solve.schur_complement m ~keep:[| 2; 3; 4 |] in
  let step1 = Solve.schur_complement m ~keep:[| 1; 2; 3; 4 |] in
  let step2 = Solve.schur_complement step1 ~keep:[| 1; 2; 3 |] in
  Alcotest.(check bool) "quotient property" true (Mat.equal ~tol:1e-8 direct step2)

let test_schur_determinant_identity () =
  (* det M = det(M_EE) * det(SCHUR(M, S)). *)
  let prng = Prng.create ~seed:11 in
  let m = Mat.add (random_matrix prng ~rows:5 ~cols:5) (Mat.scale 5.0 (Mat.identity 5)) in
  let keep = [| 2; 3; 4 |] in
  let elim = [| 0; 1 |] in
  let m_ee = Mat.submatrix m ~row_idx:elim ~col_idx:elim in
  let schur = Solve.schur_complement m ~keep in
  check_float ~eps:1e-6 "det factorization" (Solve.determinant m)
    (Solve.determinant m_ee *. Solve.determinant schur)

(* --- Fixed --- *)

let test_round_down_basic () =
  check_float "1/3 at 2 bits" 0.25 (Fixed.round_down ~bits:2 (1.0 /. 3.0));
  check_float "exact dyadic" 0.5 (Fixed.round_down ~bits:4 0.5);
  check_float "zero" 0.0 (Fixed.round_down ~bits:8 0.0)

let test_round_down_subtractive () =
  let prng = Prng.create ~seed:12 in
  for _ = 1 to 1000 do
    let x = Prng.float prng 1.0 in
    let r = Fixed.round_down ~bits:10 x in
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
  let m = Mat.identity 2 in
  Alcotest.check_raises "k=3"
    (Invalid_argument "Fixed.rounded_power: k must be a positive power of two")
    (fun () -> ignore (Fixed.rounded_power ~bits:10 m 3))

(* --- bit identity with the checked reference kernels --- *)

let same_bits x y = Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)

let same_vec a b = Array.length a = Array.length b && Array.for_all2 same_bits a b

let same_mat a b =
  Mat.rows a = Mat.rows b
  && Mat.cols a = Mat.cols b
  && Array.for_all2 same_vec (Mat.to_arrays a) (Mat.to_arrays b)

(* Both calls return equal values, or both raise the same exception. *)
let same_outcome eq f g =
  let run h = try Ok (h ()) with (Failure _ | Invalid_argument _) as e -> Error e in
  match (run f, run g) with
  | Ok x, Ok y -> eq x y
  | Error e, Error e' -> e = e'
  | _ -> false

(* Entries in [-1, 1], a fifth of them exactly 0: pivots need row swaps and
   the products skip zero entries. With [~ties] the entries are multiples of
   1/2, so equal pivot candidates are common and the first one must win. *)
let kernel_matrix ?(ties = false) prng ~rows ~cols =
  Mat.init ~rows ~cols (fun _ _ ->
      if Prng.int prng 5 = 0 then 0.0
      else if ties then float_of_int (Prng.int prng 5 - 2) /. 2.0
      else Prng.float prng 2.0 -. 1.0)

let same_logdet (s, l) (s', l') = s = s' && same_bits l l'
let singular = Failure "Solve.lu_solve: singular matrix"

let raises_singular f =
  match f () with _ -> false | exception e -> e = singular

(* n up to 40 and k up to 24 right-hand sides: large enough for several
   eight-term blocks per row in the products and the multi-RHS solve. *)
let kernel_case = QCheck.(make Gen.(triple (int_range 1 40) (int_range 1 24) (int_range 0 1_000_000)))

let kernel_tests =
  let open QCheck in
  [
    Test.make ~name:"dense kernels match the checked reference bit for bit"
      ~count:300 kernel_case (fun (n, k, seed) ->
        let prng = Prng.create ~seed in
        let a = kernel_matrix ~ties:(seed land 1 = 1) prng ~rows:n ~cols:n in
        let b = kernel_matrix prng ~rows:n ~cols:k in
        let c = kernel_matrix prng ~rows:k ~cols:(1 + Prng.int prng 40) in
        (* 0 * inf is NaN, so only a product that skips a's zero entries
           keeps the rows that meet the infinity through a zero finite, and
           only a substitution that skips none turns them into NaN. *)
        let b_inf = Mat.copy b in
        Mat.set b_inf (Prng.int prng n) (Prng.int prng k) infinity;
        let v = Array.init n (fun _ -> Prng.float prng 2.0 -. 1.0) in
        let keep =
          Prng.subset prng ~size:(1 + Prng.int prng n) (Array.init n Fun.id)
        in
        Prng.shuffle prng keep;
        same_mat (Mat.mul a b) (Reference.mul a b)
        && same_mat (Mat.mul a b_inf) (Reference.mul a b_inf)
        && same_mat (Mat.mul b c) (Reference.mul b c)
        && same_outcome same_vec
             (fun () -> Solve.solve a v)
             (fun () -> Reference.solve a v)
        && same_outcome same_mat
             (fun () -> Solve.solve_mat a b)
             (fun () -> Reference.solve_mat a b)
        && same_outcome same_mat
             (fun () -> Solve.solve_mat a b_inf)
             (fun () -> Reference.solve_mat a b_inf)
        && same_outcome same_mat
             (fun () -> Solve.inverse a)
             (fun () -> Reference.inverse a)
        && same_logdet (Solve.log_determinant a) (Reference.log_determinant a)
        && same_outcome same_mat
             (fun () -> Solve.schur_complement a ~keep)
             (fun () -> Reference.schur_complement a ~keep));
    Test.make ~name:"singular and mismatched systems fail like the reference"
      ~count:100 kernel_case (fun (n, k, seed) ->
        let prng = Prng.create ~seed in
        let a = Mat.to_arrays (kernel_matrix prng ~rows:n ~cols:n) in
        (* A repeated row, or else an all-zero column, leaves an exact zero
           pivot whatever the row swaps. *)
        (if n >= 2 && Prng.bool prng then begin
           let r = Prng.int prng n in
           let r' = (r + 1 + Prng.int prng (n - 1)) mod n in
           a.(r') <- Array.copy a.(r)
         end
         else
           let c = Prng.int prng n in
           Array.iter (fun row -> row.(c) <- 0.0) a);
        let a = Mat.of_arrays a in
        let b = kernel_matrix prng ~rows:n ~cols:k in
        let v = Array.make n 1.0 in
        let wide = kernel_matrix prng ~rows:(n + 1) ~cols:k in
        raises_singular (fun () -> Solve.solve a v)
        && raises_singular (fun () -> Solve.solve_mat a b)
        && raises_singular (fun () -> Solve.inverse a)
        && raises_singular (fun () -> Reference.solve a v)
        && raises_singular (fun () -> Reference.solve_mat a b)
        && raises_singular (fun () -> Reference.inverse a)
        && same_logdet (Solve.log_determinant a) (0, neg_infinity)
        && same_logdet (Reference.log_determinant a) (0, neg_infinity)
        && same_outcome same_mat
             (fun () -> Solve.solve_mat a wide)
             (fun () -> Reference.solve_mat a wide)
        && same_outcome same_vec
             (fun () -> Solve.solve a [| 1.0 |])
             (fun () -> Reference.solve a [| 1.0 |]));
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

module Graph = Cc_graph.Graph
module Graph_gen = Cc_graph.Gen

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
  let table = Mat.power_table cycle ~max_exp:24 in
  let reference = Reference.power_table cycle ~levels:24 in
  check_same_table "cycle 6" table reference;
  let stop = stop_level table in
  Alcotest.(check bool) "cycle 6 stops only where a level repeats" true
    (stop = 24 || same_mat reference.(stop) reference.(stop - 1))

let test_squarings_stop_and_skip () =
  let m = lazy_chain (Graph_gen.complete 8) in
  let levels = 20 in
  let run ~exact =
    let skipped = ref 0 in
    let table =
      Mat.squarings ~exact ~square:(fun t -> Mat.mul t t)
        ~on_skip:(fun () -> incr skipped)
        m ~levels
    in
    (table, !skipped)
  in
  let table, skipped = run ~exact:false in
  let stop = stop_level table in
  Alcotest.(check bool) "lazy K8 stops early" true (stop < 10);
  Alcotest.(check int) "one on_skip per skipped level" (levels - stop) skipped;
  check_same_table "up to the stop"
    (Array.sub table 0 (stop + 1))
    (Array.sub (Reference.power_table m ~levels) 0 (stop + 1));
  (* Exact mode waits for a level to repeat bit for bit. *)
  let exact_table, exact_skipped = run ~exact:true in
  let exact_stop = stop_level exact_table in
  Alcotest.(check bool) "exact stops no earlier" true (exact_stop >= stop);
  Alcotest.(check int) "exact skips the rest" (levels - exact_stop) exact_skipped;
  if exact_stop < levels then
    Alcotest.(check bool) "at a level that repeats" true
      (same_mat exact_table.(exact_stop) exact_table.(exact_stop - 1));
  Alcotest.check_raises "negative levels"
    (Invalid_argument "Mat.squarings: negative levels") (fun () ->
      ignore (Mat.squarings ~exact:false ~square:Fun.id ~on_skip:ignore m ~levels:(-1)))

(* The eleven Gen families at the sizes and weights the sampler sees. *)
let families =
  [| "path"; "cycle"; "complete"; "star"; "grid"; "btree"; "lollipop";
     "barbell"; "er:0.5"; "erlog:3"; "regular:4" |]

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
        Mat.equal ~tol:1e-8 (Mat.mul (Mat.mul a b) c) (Mat.mul a (Mat.mul b c)));
    Test.make ~name:"transpose reverses products" ~count:50 seeded
      (fun (n, seed) ->
        let prng = Prng.create ~seed in
        let a = random_matrix prng ~rows:n ~cols:n in
        let b = random_matrix prng ~rows:n ~cols:n in
        Mat.equal ~tol:1e-9
          (Mat.transpose (Mat.mul a b))
          (Mat.mul (Mat.transpose b) (Mat.transpose a)));
    Test.make ~name:"stochastic matrices are closed under product" ~count:50
      seeded (fun (n, seed) ->
        let prng = Prng.create ~seed in
        let a = random_stochastic prng n and b = random_stochastic prng n in
        Mat.is_row_stochastic ~tol:1e-7 (Mat.mul a b));
    Test.make ~name:"solve then multiply recovers rhs" ~count:50 seeded
      (fun (n, seed) ->
        let prng = Prng.create ~seed in
        let a =
          Mat.add (random_matrix prng ~rows:n ~cols:n)
            (Mat.scale (2.0 *. float_of_int n) (Mat.identity n))
        in
        let b = Array.init n (fun _ -> Prng.float prng 1.0) in
        let x = Solve.solve a b in
        let back = Mat.mul_vec a x in
        Array.for_all2 (fun u v -> Float.abs (u -. v) < 1e-7) back b);
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
          Alcotest.test_case "two-step kernels" `Quick test_two_step;
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
