(* Checked dense kernels through [Mat.get]/[Mat.set]: LU with partial
   pivoting against an absolute pivot tolerance of 1e-13, forward/back
   substitution, the column-by-column multi-RHS solve, the inverse, the
   log-determinant, the Schur complement and the i-k-j product, the power
   table squared to its last level, and the entrywise copy, column,
   identity, difference and transpose they and the tests build on. [Mat.mul] and the power tables
   must perform the same float operations in the same order, so test_linalg
   compares them with these bit for bit. The LU is the independent
   reference that the library's subtraction-free elimination (Gth) is
   compared against, to a tolerance, in test_linalg and test_schur.
   Test-only: nothing in lib/ calls this module. *)

module Mat = Cc_linalg.Mat

let copy m = Mat.init ~rows:(Mat.rows m) ~cols:(Mat.cols m) (Mat.get m)
let col m j = Array.init (Mat.rows m) (fun i -> Mat.get m i j)
let identity n = Mat.init ~rows:n ~cols:n (fun i j -> if i = j then 1.0 else 0.0)

let sub a b =
  Mat.init ~rows:(Mat.rows a) ~cols:(Mat.cols a) (fun i j ->
      Mat.get a i j -. Mat.get b i j)

let transpose m = Mat.init ~rows:(Mat.cols m) ~cols:(Mat.rows m) (fun i j -> Mat.get m j i)

type lu = {
  lu_mat : Mat.t; (* L below diagonal (unit diag implicit), U on and above *)
  perm : int array; (* row permutation *)
  swaps : int; (* number of row swaps, for the determinant sign *)
}

let pivot_tol = 1e-13

let lu m =
  let n = Mat.rows m in
  if Mat.cols m <> n then invalid_arg "Reference.lu: not square";
  let a = copy m in
  let perm = Array.init n (fun i -> i) in
  let swaps = ref 0 in
  for k = 0 to n - 1 do
    let best = ref k in
    for i = k + 1 to n - 1 do
      if Float.abs (Mat.get a i k) > Float.abs (Mat.get a !best k) then best := i
    done;
    if !best <> k then begin
      for j = 0 to n - 1 do
        let tmp = Mat.get a k j in
        Mat.set a k j (Mat.get a !best j);
        Mat.set a !best j tmp
      done;
      let tmp = perm.(k) in
      perm.(k) <- perm.(!best);
      perm.(!best) <- tmp;
      incr swaps
    end;
    let pivot = Mat.get a k k in
    if Float.abs pivot > pivot_tol then
      for i = k + 1 to n - 1 do
        let factor = Mat.get a i k /. pivot in
        Mat.set a i k factor;
        for j = k + 1 to n - 1 do
          Mat.set a i j (Mat.get a i j -. (factor *. Mat.get a k j))
        done
      done
  done;
  { lu_mat = a; perm; swaps = !swaps }

let is_singular f =
  let n = Mat.rows f.lu_mat in
  let rec go k =
    k < n && (Float.abs (Mat.get f.lu_mat k k) <= pivot_tol || go (k + 1))
  in
  go 0

let lu_solve f b =
  let n = Mat.rows f.lu_mat in
  if Array.length b <> n then invalid_arg "Reference.lu_solve: dimension mismatch";
  if is_singular f then failwith "Reference.lu_solve: singular matrix";
  let y = Array.init n (fun i -> b.(f.perm.(i))) in
  for i = 1 to n - 1 do
    for j = 0 to i - 1 do
      y.(i) <- y.(i) -. (Mat.get f.lu_mat i j *. y.(j))
    done
  done;
  for i = n - 1 downto 0 do
    for j = i + 1 to n - 1 do
      y.(i) <- y.(i) -. (Mat.get f.lu_mat i j *. y.(j))
    done;
    y.(i) <- y.(i) /. Mat.get f.lu_mat i i
  done;
  y

let solve m b = lu_solve (lu m) b

let solve_mat m b =
  let f = lu m in
  let n = Mat.rows b and k = Mat.cols b in
  let out = Mat.create ~rows:n ~cols:k 0.0 in
  for j = 0 to k - 1 do
    let x = lu_solve f (col b j) in
    for i = 0 to n - 1 do
      Mat.set out i j x.(i)
    done
  done;
  out

let inverse m = solve_mat m (identity (Mat.rows m))

let log_determinant m =
  let f = lu m in
  let n = Mat.rows f.lu_mat in
  let sign = ref (if f.swaps land 1 = 1 then -1 else 1) in
  let acc = ref 0.0 in
  (try
     for k = 0 to n - 1 do
       let d = Mat.get f.lu_mat k k in
       if Float.abs d <= pivot_tol then begin
         sign := 0;
         raise Exit
       end;
       if d < 0.0 then sign := - !sign;
       acc := !acc +. Float.log (Float.abs d)
     done
   with Exit -> ());
  if !sign = 0 then (0, neg_infinity) else (!sign, !acc)

let mul a b =
  if Mat.cols a <> Mat.rows b then invalid_arg "Mat.mul: dimension mismatch";
  let out = Mat.create ~rows:(Mat.rows a) ~cols:(Mat.cols b) 0.0 in
  for i = 0 to Mat.rows a - 1 do
    for k = 0 to Mat.cols a - 1 do
      let aik = Mat.get a i k in
      if aik <> 0.0 then
        for j = 0 to Mat.cols b - 1 do
          Mat.set out i j (Mat.get out i j +. (aik *. Mat.get b k j))
        done
    done
  done;
  out

let schur_complement m ~keep =
  let n = Mat.rows m in
  if Mat.cols m <> n then invalid_arg "Reference.schur_complement: not square";
  let in_keep = Array.make n false in
  Array.iter
    (fun i ->
      if i < 0 || i >= n then invalid_arg "Reference.schur_complement: bad index";
      if in_keep.(i) then invalid_arg "Reference.schur_complement: duplicate index";
      in_keep.(i) <- true)
    keep;
  let elim =
    Array.of_list
      (List.filter (fun i -> not in_keep.(i)) (List.init n (fun i -> i)))
  in
  if Array.length elim = 0 then Mat.submatrix m ~row_idx:keep ~col_idx:keep
  else begin
    let m_ss = Mat.submatrix m ~row_idx:keep ~col_idx:keep in
    let m_se = Mat.submatrix m ~row_idx:keep ~col_idx:elim in
    let m_es = Mat.submatrix m ~row_idx:elim ~col_idx:keep in
    let m_ee = Mat.submatrix m ~row_idx:elim ~col_idx:elim in
    let x = solve_mat m_ee m_es in
    sub m_ss (mul m_se x)
  end

(* The plain repeated squaring of a power table: [levels] products, each of
   the level before with itself, with no stop. *)
let power_table m ~levels =
  let table = Array.make (levels + 1) m in
  for i = 1 to levels do
    table.(i) <- mul table.(i - 1) table.(i - 1)
  done;
  table
