(* Every kernel below works on the row-major [float array] behind a [Mat.t]
   with typed unchecked access, so the inner loops neither bounds-check nor
   box. Each loop index stays inside the dimensions checked on entry. *)
external unsafe_get : float array -> int -> float = "%array_unsafe_get"
external unsafe_set : float array -> int -> float -> unit = "%array_unsafe_set"

type lu = {
  a : float array; (* n x n: L below diagonal (unit diag implicit), U on and above *)
  n : int;
  perm : int array; (* row permutation *)
  swaps : int; (* number of row swaps, for the determinant sign *)
}

let pivot_tol = 1e-13

let lu m =
  let n = Mat.rows m in
  if Mat.cols m <> n then invalid_arg "Solve.lu: not square";
  let a = Array.copy (Mat.data m) in
  let perm = Array.init n (fun i -> i) in
  let swaps = ref 0 in
  for k = 0 to n - 1 do
    (* Partial pivoting: pick the largest magnitude in column k at/below k;
       the strict [>] keeps the first of equal candidates. *)
    let best = ref k in
    for i = k + 1 to n - 1 do
      if
        Float.abs (unsafe_get a ((i * n) + k))
        > Float.abs (unsafe_get a ((!best * n) + k))
      then best := i
    done;
    let rk = k * n in
    if !best <> k then begin
      let rb = !best * n in
      for j = 0 to n - 1 do
        let tmp = unsafe_get a (rk + j) in
        unsafe_set a (rk + j) (unsafe_get a (rb + j));
        unsafe_set a (rb + j) tmp
      done;
      let tmp = perm.(k) in
      perm.(k) <- perm.(!best);
      perm.(!best) <- tmp;
      incr swaps
    end;
    let pivot = unsafe_get a (rk + k) in
    if Float.abs pivot > pivot_tol then
      for i = k + 1 to n - 1 do
        let ri = i * n in
        let factor = unsafe_get a (ri + k) /. pivot in
        unsafe_set a (ri + k) factor;
        for j = k + 1 to n - 1 do
          unsafe_set a (ri + j)
            (unsafe_get a (ri + j) -. (factor *. unsafe_get a (rk + j)))
        done
      done
  done;
  { a; n; perm; swaps = !swaps }

let is_singular f =
  let rec go k =
    k < f.n
    && (Float.abs (unsafe_get f.a ((k * f.n) + k)) <= pivot_tol || go (k + 1))
  in
  go 0

let check_solvable f ~rhs_rows =
  if rhs_rows <> f.n then invalid_arg "Solve.lu_solve: dimension mismatch";
  if is_singular f then failwith "Solve.lu_solve: singular matrix"

(* [x] is an n x [k] row-major block whose row i holds row [perm.(i)] of the
   right-hand sides. [subtract_rows f x ~k ~i ~lo ~hi] subtracts
   [a[i,j] * x[j,c]] from [x[i,c]] for each j in [lo, hi) in ascending order
   and each column c. Eight j share one pass over the columns, which keeps
   the entry in a register across their eight terms. The fewer than eight j
   left over take one pass over them per column, again with the entry in a
   register. Every entry sees the same [-.] terms in the same order either
   way. There is no zero skip: [0 *. inf] must still make a NaN. *)
let subtract_rows f x ~k ~i ~lo ~hi =
  let a = f.a and ri = i * f.n and xi = i * k in
  let j = ref lo in
  while !j + 8 <= hi do
    let j0 = !j in
    let a0 = unsafe_get a (ri + j0) and a1 = unsafe_get a (ri + j0 + 1)
    and a2 = unsafe_get a (ri + j0 + 2) and a3 = unsafe_get a (ri + j0 + 3)
    and a4 = unsafe_get a (ri + j0 + 4) and a5 = unsafe_get a (ri + j0 + 5)
    and a6 = unsafe_get a (ri + j0 + 6) and a7 = unsafe_get a (ri + j0 + 7) in
    let x0 = j0 * k in
    let x1 = x0 + k in
    let x2 = x1 + k in
    let x3 = x2 + k in
    let x4 = x3 + k in
    let x5 = x4 + k in
    let x6 = x5 + k in
    let x7 = x6 + k in
    for c = 0 to k - 1 do
      let v = unsafe_get x (xi + c) in
      let v = v -. (a0 *. unsafe_get x (x0 + c)) in
      let v = v -. (a1 *. unsafe_get x (x1 + c)) in
      let v = v -. (a2 *. unsafe_get x (x2 + c)) in
      let v = v -. (a3 *. unsafe_get x (x3 + c)) in
      let v = v -. (a4 *. unsafe_get x (x4 + c)) in
      let v = v -. (a5 *. unsafe_get x (x5 + c)) in
      let v = v -. (a6 *. unsafe_get x (x6 + c)) in
      let v = v -. (a7 *. unsafe_get x (x7 + c)) in
      unsafe_set x (xi + c) v
    done;
    j := j0 + 8
  done;
  let rest = !j in
  if rest < hi then
    for c = 0 to k - 1 do
      let v = ref (unsafe_get x (xi + c)) in
      for j = rest to hi - 1 do
        v := !v -. (unsafe_get a (ri + j) *. unsafe_get x ((j * k) + c))
      done;
      unsafe_set x (xi + c) !v
    done

(* Solves [x] in place: forward substitution with unit lower-triangular L,
   then back substitution with U, row by row. *)
let substitute f x ~k =
  let n = f.n in
  for i = 1 to n - 1 do
    subtract_rows f x ~k ~i ~lo:0 ~hi:i
  done;
  for i = n - 1 downto 0 do
    subtract_rows f x ~k ~i ~lo:(i + 1) ~hi:n;
    let d = unsafe_get f.a ((i * n) + i) and xi = i * k in
    for c = 0 to k - 1 do
      unsafe_set x (xi + c) (unsafe_get x (xi + c) /. d)
    done
  done

let solve m b =
  let f = lu m in
  check_solvable f ~rhs_rows:(Array.length b);
  let x = Array.init f.n (fun i -> b.(f.perm.(i))) in
  substitute f x ~k:1;
  x

let solve_mat m b =
  let f = lu m in
  check_solvable f ~rhs_rows:(Mat.rows b);
  let n = f.n and k = Mat.cols b in
  let out = Mat.create ~rows:n ~cols:k 0.0 in
  let bd = Mat.data b and od = Mat.data out in
  for i = 0 to n - 1 do
    Array.blit bd (f.perm.(i) * k) od (i * k) k
  done;
  substitute f od ~k;
  out

let inverse m = solve_mat m (Mat.identity (Mat.rows m))

let log_determinant m =
  let f = lu m in
  let sign = ref (if f.swaps land 1 = 1 then -1 else 1) in
  let acc = ref 0.0 in
  (try
     for k = 0 to f.n - 1 do
       let d = unsafe_get f.a ((k * f.n) + k) in
       if Float.abs d <= pivot_tol then begin
         sign := 0;
         raise Exit
       end;
       if d < 0.0 then sign := - !sign;
       acc := !acc +. Float.log (Float.abs d)
     done
   with Exit -> ());
  if !sign = 0 then (0, neg_infinity) else (!sign, !acc)

let determinant m =
  match log_determinant m with
  | 0, _ -> 0.0
  | sign, logdet -> float_of_int sign *. Float.exp logdet

let schur_complement m ~keep =
  let n = Mat.rows m in
  if Mat.cols m <> n then invalid_arg "Solve.schur_complement: not square";
  let in_keep = Array.make n false in
  Array.iter
    (fun i ->
      if i < 0 || i >= n then invalid_arg "Solve.schur_complement: bad index";
      if in_keep.(i) then invalid_arg "Solve.schur_complement: duplicate index";
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
    (* M_SS - M_S,E (M_EE)^{-1} M_E,S, via a solve rather than an explicit
       inverse for stability. *)
    let x = solve_mat m_ee m_es in
    Mat.sub m_ss (Mat.mul m_se x)
  end
